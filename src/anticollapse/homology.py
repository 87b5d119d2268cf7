"""Reduced simplicial homology with exact integer arithmetic.

Boundary maps are sparse columns over canonically ordered faces; the chain
group in degree -1 is the coefficient ring itself, realized by the
empty-face row of the degree-0 boundary map, so every computation here is
reduced.

Every question over Z, Q and GF(p) is answered from the integer normal form
of the boundary maps: columns are reduced against unit pivots, which give
invariant factors 1, and a dense Smith loop runs only on the few columns
left over; ranks over Q and GF(p) are read off the factors.
Arithmetic is on Python integers, so there is no overflow to detect.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Sequence

from .complexes import Face, SimplicialComplex
from .errors import InputError


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of one boundary map, row-major, entries in {-1, 0, +1}."""

    rows: tuple[Face, ...]
    cols: tuple[Face, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def dense(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def _mask_column(m: int, row_index: dict[int, int]) -> dict[int, int]:
    """Sparse boundary of one face mask over the rows in row_index; a
    facet of the face that has no row is left out."""
    col: dict[int, int] = {}
    sign = 1
    rest = m
    while rest:
        b = rest & -rest
        rest ^= b
        r = row_index.get(m ^ b)
        if r is not None:
            col[r] = sign
        sign = -sign
    return col


def _boundary_columns(X: SimplicialComplex, i: int) -> list[dict[int, int]]:
    """Sparse columns of the i-th boundary map, rows and columns over the
    (i-1)- and i-faces in mask order."""
    row_index = {m: k for k, m in enumerate(sorted(X._by_size.get(i, ())))}
    return [_mask_column(m, row_index) for m in sorted(X._by_size.get(i + 1, ()))]


def boundary_matrix(X: SimplicialComplex, i: int) -> BoundaryMatrix:
    """The boundary map from i-chains to (i-1)-chains, as a dense view.

    For i = 0 the single row is the empty face, which is exactly the
    augmentation map, so kernels and images are those of the reduced complex.
    """
    if i < 0:
        raise InputError("boundary maps are indexed by i >= 0")
    rows = tuple(sorted(X.faces_of_dim(i - 1)))
    cols = tuple(sorted(X.faces_of_dim(i)))
    row_index = {X.mask_of(f): k for k, f in enumerate(rows)}
    columns = [_mask_column(X.mask_of(f), row_index) for f in cols]
    entries = tuple(tuple(col.get(r, 0) for col in columns) for r in range(len(rows)))
    return BoundaryMatrix(rows, cols, entries)


# -- exact elimination -------------------------------------------------


def _normalize(col: dict[int, int]) -> dict[int, int]:
    """Divide a sparse integer column by the gcd of its entries."""
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {r: v // g for r, v in col.items()}
    return col


class IncrementalRank:
    """Column-by-column rank maintenance over Q, on sparse integer columns.

    Keeps an integer echelon basis with primitive columns (content 1), each
    pivoting on its minimal nonzero row.  A pivot entry +-1 clears its row
    in place, as in smith_invariant_factors; any other takes a fraction-free
    step.  Adding a column reports whether it was independent of the basis;
    dependent columns are discarded.  The state is single-owner mutable.  It
    serves the online independence tests; batch questions go through
    smith_invariant_factors.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, col: dict[int, int]) -> dict[int, int]:
        col = {r: v for r, v in col.items() if v}
        while col:
            r = min(col)
            pivot = self._pivots.get(r)
            if pivot is None:
                return _normalize(col)
            a = pivot[r]
            if a in (1, -1):
                _subtract(col, pivot, r)
                continue
            b = col[r]
            new: dict[int, int] = {}
            for row in col.keys() | pivot.keys():
                val = a * col.get(row, 0) - b * pivot.get(row, 0)
                if val:
                    new[row] = val
            col = _normalize(new)
        return col

    def add(self, col: dict[int, int]) -> bool:
        """Insert a column; True iff it enlarged the column span."""
        reduced = self.reduce(col)
        if not reduced:
            return False
        self._pivots[min(reduced)] = reduced
        return True


def _subtract(work: dict[int, int], pivot: dict[int, int], r: int) -> None:
    """Clear row r of work with a pivot whose entry there is +-1."""
    c = work[r] * pivot[r]
    for row, v in pivot.items():
        val = work.get(row, 0) - c * v
        if val:
            work[row] = val
        else:
            del work[row]


def smith_invariant_factors(columns: list[dict[int, int]]) -> list[int]:
    """Nonzero diagonal of the integer normal form, in divisibility order.

    The matrix is given by its sparse columns (row index -> entry).  They
    are reduced left to right against unit pivots: a column whose least
    remaining entry is +-1 becomes the pivot of that row, any other nonzero
    column is set aside.  Ordered by row, the pivots form a lower triangular
    block with a +-1 diagonal, which is unimodular and contributes factors 1.
    The set-aside columns are then cleared on every pivot row, in increasing
    row order, and a dense Smith loop runs on what is left (tiny or empty
    for boundary maps).  It records a pivot of least absolute value only
    once the pivot divides every entry left, so the factors come out in
    divisibility order.  Only unimodular row and column operations are
    used, so the factors are exact.
    """
    pivots: dict[int, dict[int, int]] = {}
    rest: list[dict[int, int]] = []
    for col in columns:
        work = {r: v for r, v in col.items() if v}
        while work:
            r = min(work)
            if r not in pivots:
                if work[r] in (1, -1):
                    pivots[r] = work
                else:
                    rest.append(work)
                break
            _subtract(work, pivots[r], r)
    order = sorted(pivots)
    for work in rest:
        for r in order:
            if r in work:
                _subtract(work, pivots[r], r)
    # Dense rows of the set-aside columns, over the rows they still touch.
    a = [[work.get(r, 0) for work in rest] for r in sorted({r for work in rest for r in work})]

    def least() -> tuple[int, int, int]:
        return min((abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v)

    diagonal: list[int] = []
    while any(map(any, a)):
        _, i, j = least()
        while True:
            p = a[i][j]
            for k, row in enumerate(a):
                q = row[j] // p
                if k != i and q:
                    a[k] = [x - q * y for x, y in zip(row, a[i])]
            for l, v in enumerate(a[i]):
                q = v // p
                if l != j and q:
                    for row in a:
                        row[l] -= q * row[j]
            m, k, l = least()
            if m < abs(p):
                i, j = k, l  # a smaller remainder becomes the pivot
                continue
            bad = next((row for row in a if any(v % p for v in row)), None)
            if bad is None:
                break
            a[i] = [x + y for x, y in zip(a[i], bad)]
        diagonal.append(abs(p))
        del a[i]
        for row in a:
            del row[j]
    return [1] * len(pivots) + diagonal


def _boundary_factors(X: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Invariant factors of the boundary maps in degrees 0..dim, computed
    once per complex and kept with it."""
    if X._factors is None:
        X._factors = tuple(
            tuple(smith_invariant_factors(_boundary_columns(X, i))) for i in range(X.dim + 1)
        )
    return X._factors


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers over Q and integer torsion, per dimension 0..dim."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        return not any(self.betti) and not any(self.torsion)

    def __str__(self) -> str:
        parts = []
        for d, b in enumerate(self.betti):
            parts.append(f"dim {d}: betti={b} torsion={list(self.torsion[d])}")
        return "\n".join(parts)


def homology(X: SimplicialComplex) -> HomologyProfile:
    """Reduced homology in every dimension from integer normal forms."""
    if X.dim < 0:
        return HomologyProfile((), ())
    factors = _boundary_factors(X) + ((),)
    dims = range(X.dim + 1)
    betti = (X.n_faces(i) - len(factors[i]) - len(factors[i + 1]) for i in dims)
    torsion = (tuple(t for t in factors[i + 1] if t > 1) for i in dims)
    return HomologyProfile(tuple(betti), tuple(torsion))


def _unit_count(factors: Sequence[int], ring: int | str) -> int:
    """How many invariant factors are units of the ring.

    Over Q and GF(p) this is the rank of the map: its normal form is
    D = UAV with U and V unimodular, so invertible mod p as well.  Over Z
    only the factors 1 count.
    """
    if ring == "Q":
        return len(factors)
    if ring == "Z":
        return factors.count(1)
    return sum(1 for t in factors if t % ring)


def _betti_numbers(X: SimplicialComplex, ring: int | str) -> dict[int, int]:
    """n_i - r_i - r_(i+1) for i = -1..dim, with n_i the number of i-faces and
    r_i the unit invariant factors of the i-th boundary map (none if void).

    Over Q or GF(p) these are the reduced Betti numbers.  Over Z all vanish
    exactly when X is Z-acyclic: r_i is at most the rational rank, and the
    rational ranks of d_i and d_(i+1) sum to at most n_i, so equality
    everywhere forces every factor to be 1 and every Betti number to be 0.
    """
    if not len(X):
        return {}
    ranks = [0] + [_unit_count(f, ring) for f in _boundary_factors(X)] + [0]
    return {i: X.n_faces(i) - ranks[i + 1] - ranks[i + 2] for i in range(-1, X.dim + 1)}


def field_betti(X: SimplicialComplex, i: int, field: int | str = "Q") -> int:
    """Reduced Betti number in one dimension over Q or a prime field.

    Supports i = -1 (nonzero only for the empty complex) and returns 0
    outside the dimension range, so it can be used on duals uniformly.
    """
    _check_ring(field)
    return _betti_numbers(X, field).get(i, 0)


def _check_ring(ring: int | str, integers: bool = False) -> None:
    """Accept "Q", a prime p, and "Z" when integers is set; raise InputError
    for anything else."""
    if isinstance(ring, int):
        _check_prime(ring)
    elif ring != "Q" and not (integers and ring == "Z"):
        raise InputError(f"unknown coefficient ring {ring!r}")


def _check_prime(p: int) -> None:
    if p < 2:
        raise InputError(f"field characteristic must be a prime, got {p}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise InputError(f"field characteristic must be a prime, got {p}")
        d += 1


def is_acyclic(X: SimplicialComplex, ring: int | str = "Z") -> bool:
    """True iff all reduced homology vanishes over the ring.

    ring is "Z", "Q", or a prime p for the field with p elements; all four
    are read off the same invariant factors.  The void and the empty
    complex are not acyclic.
    """
    _check_ring(ring, integers=True)
    if X.dim < 0:
        return False
    return not any(_betti_numbers(X, ring).values())


def adds_top_cycle(X: SimplicialComplex, sigma: Face) -> bool:
    """Would adding this top face create a rational cycle in top homology?

    True iff the boundary column of sigma is dependent on the boundary
    columns of the faces of the same dimension already present.
    """
    d = len(sigma) - 1
    if sigma in X:
        raise InputError(f"{sigma} is already a face")
    for sub in combinations(sigma, d):
        if sub not in X:
            raise InputError(f"boundary face {sub} of {sigma} is missing")
    row_index = {m: k for k, m in enumerate(sorted(X._by_size.get(d, ())))}
    columns = [_mask_column(m, row_index) for m in sorted(X._by_size.get(d + 1, ()))]
    rank = len(smith_invariant_factors(columns))
    columns.append(_mask_column(X.mask_of(sigma), row_index))
    return len(smith_invariant_factors(columns)) == rank
