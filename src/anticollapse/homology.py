"""Reduced simplicial homology with exact integer arithmetic.

Boundary maps are sparse columns over canonically ordered faces; the chain
group in degree -1 is the coefficient ring itself, realized by the
empty-face row of the degree-0 boundary map, so every computation here is
reduced.

Every question over Z, Q and GF(p) is answered from the integer normal form
of the boundary maps, made by the one elimination engine IncrementalRank:
columns are reduced against unit pivots, which give invariant factors 1, and
a dense Smith loop runs only on the few columns set aside; ranks over Q and
GF(p) are read off the factors.
Arithmetic is on Python integers, so there is no overflow to detect.
"""
from __future__ import annotations

from dataclasses import dataclass
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


class IncrementalRank:
    """The one elimination engine over Z, on sparse integer columns.

    A column is filed by reducing it against unit pivots while its least
    row has one; a remainder led by +-1 becomes the pivot of that row, any
    other nonzero remainder is set aside.  Ordered by row, the pivots form a
    unimodular triangular block (invariant factors 1); the set-aside columns,
    cleared on every pivot row, hold the rest of the normal form.  add files
    a column only if it enlarges the span over Q, for Kruskal's online test;
    smith_invariant_factors files every column.  Single-owner mutable state.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}
        self._rest: list[dict[int, int]] = []

    @property
    def rank(self) -> int:
        return len(self._pivots) + len(self._rest)

    def _reduce(self, col: dict[int, int]) -> dict[int, int]:
        """A copy of col reduced against unit pivots while its least row
        has one."""
        work = {r: v for r, v in col.items() if v}
        while work:
            r = min(work)
            pivot = self._pivots.get(r)
            if pivot is None:
                break
            _subtract(work, pivot, r)
        return work

    def _file(self, work: dict[int, int]) -> None:
        """Keep a nonzero remainder as a pivot or set it aside."""
        r = min(work)
        if work[r] in (1, -1):
            self._pivots[r] = work
        else:
            self._rest.append(work)

    def _cleared(self, columns: list[dict[int, int]]) -> list[dict[int, int]]:
        """Clear columns in place on every pivot row, in increasing order."""
        order = sorted(self._pivots)
        for work in columns:
            for r in order:
                if r in work:
                    _subtract(work, self._pivots[r], r)
        return columns

    def add(self, col: dict[int, int]) -> bool:
        """Insert a column; True iff it enlarged the column span over Q.

        A nonzero remainder may still depend on set-aside columns, even when
        led by +-1 ({0: 2}, then {0: 1}); those kept are independent, so it
        counts iff it lifts the dense-loop rank of the cleared ones.
        """
        work = self._reduce(col)
        if not work:
            return False
        if self._rest:
            if len(_smith_diagonal(self._cleared(self._rest + [work]))) == len(self._rest):
                return False
        self._file(work)
        return True

    def factors(self) -> list[int]:
        """The nonzero invariant factors of the filed columns, in
        divisibility order: 1 for each unit pivot, then the dense Smith
        loop on the set-aside columns cleared on every pivot row."""
        return [1] * len(self._pivots) + _smith_diagonal(self._cleared(self._rest))


def _subtract(work: dict[int, int], pivot: dict[int, int], r: int) -> None:
    """Clear row r of work with a pivot whose entry there is +-1."""
    c = work[r] * pivot[r]
    for row, v in pivot.items():
        val = work.get(row, 0) - c * v
        if val:
            work[row] = val
        else:
            del work[row]


def _smith_diagonal(columns: list[dict[int, int]]) -> list[int]:
    """Dense Smith loop on a few sparse columns: it records a pivot of least
    absolute value only once the pivot divides every entry left, so the
    factors come out in divisibility order, exact by unimodular operations."""
    # Dense rows of the columns, over the rows they touch.
    a = [[work.get(r, 0) for work in columns] for r in sorted({r for work in columns for r in work})]

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
    return diagonal


def smith_invariant_factors(columns: list[dict[int, int]]) -> list[int]:
    """Nonzero diagonal of the integer normal form, in divisibility order.

    The matrix is given by its sparse columns (row index -> entry).  Every
    column is filed, left to right, in one IncrementalRank: each unit pivot
    gives a factor 1, and the dense Smith loop runs on the set-aside columns
    cleared on all pivot rows (tiny or empty for boundary maps).
    """
    engine = IncrementalRank()
    for col in columns:
        work = engine._reduce(col)
        if work:
            engine._file(work)
    return engine.factors()


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
    """Reduced Betti numbers over Q and the torsion of each H_i, the factors
    above 1 of the (i+1)-th boundary map, from integer normal forms."""
    if X.dim < 0:
        return HomologyProfile((), ())
    betti = _betti_numbers(X, "Q")
    factors = _boundary_factors(X) + ((),)
    dims = range(X.dim + 1)
    torsion = (tuple(t for t in factors[i + 1] if t > 1) for i in dims)
    return HomologyProfile(tuple(betti[i] for i in dims), tuple(torsion))


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
