"""Reduced simplicial homology with exact integer arithmetic.

Boundary matrices are built over canonically ordered faces; the chain group
in degree -1 is the coefficient ring itself, realized by the empty-face row
of the degree-0 boundary matrix, so every computation here is reduced.

All elimination is done on Python integers (arbitrary precision, so there is
no overflow to detect) with smallest-absolute-value pivoting to limit
coefficient growth.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

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

    def column(self, j: int) -> dict[int, int]:
        return {i: row[j] for i, row in enumerate(self.entries) if row[j]}

    def dense(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def boundary_column(face: Face, row_index: dict[Face, int]) -> dict[int, int]:
    """Sparse boundary of one face: alternating signs over its facets."""
    col: dict[int, int] = {}
    for j in range(len(face)):
        sub = face[:j] + face[j + 1 :]
        col[row_index[sub]] = -1 if j % 2 else 1
    return col


def boundary_matrix(X: SimplicialComplex, i: int) -> BoundaryMatrix:
    """The boundary map from i-chains to (i-1)-chains.

    For i = 0 the single row is the empty face, which is exactly the
    augmentation map, so kernels and images are those of the reduced complex.
    """
    if i < 0:
        raise InputError("boundary maps are indexed by i >= 0")
    rows = tuple(sorted(X.faces_of_dim(i - 1)))
    cols = tuple(sorted(X.faces_of_dim(i)))
    row_index = {f: k for k, f in enumerate(rows)}
    dense = [[0] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        for r, sign in boundary_column(face, row_index).items():
            dense[r][j] = sign
    return BoundaryMatrix(rows, cols, tuple(tuple(r) for r in dense))


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
    pivoting on its minimal nonzero row.  Adding a column reports whether it
    was independent of the basis; dependent columns are discarded.  The state
    is single-owner mutable.
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


def rank_q(columns: list[dict[int, int]]) -> int:
    """Rank over Q of a sparse integer column family."""
    state = IncrementalRank()
    for col in columns:
        state.add(col)
    return state.rank


def rank_mod_p(columns: list[dict[int, int]], p: int) -> int:
    """Rank of the columns over the field with p elements."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        work = {r: v % p for r, v in col.items() if v % p}
        while work:
            r = min(work)
            pivot = pivots.get(r)
            if pivot is None:
                inv = pow(work[r], -1, p)
                pivots[r] = {row: (v * inv) % p for row, v in work.items()}
                rank += 1
                break
            c = work[r]
            for row, v in pivot.items():
                val = (work.get(row, 0) - c * v) % p
                if val:
                    work[row] = val
                elif row in work:
                    del work[row]
        # an emptied column is dependent
    return rank


def _matrix_columns(mat: BoundaryMatrix) -> list[dict[int, int]]:
    return [mat.column(j) for j in range(len(mat.cols))]


def smith_invariant_factors(dense: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the integer normal form, in divisibility order.

    Smallest-absolute-value pivoting; row and column operations only, so the
    multiset of invariant factors is exact.
    """
    mat = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    if not mat:
        return []
    rows_of: dict[int, set[int]] = {}
    cols_of: dict[int, set[int]] = {}
    for (i, j) in mat:
        rows_of.setdefault(i, set()).add(j)
        cols_of.setdefault(j, set()).add(i)

    def set_entry(i: int, j: int, v: int) -> None:
        if v:
            if (i, j) not in mat:
                rows_of.setdefault(i, set()).add(j)
                cols_of.setdefault(j, set()).add(i)
            mat[(i, j)] = v
        elif (i, j) in mat:
            del mat[(i, j)]
            rows_of[i].discard(j)
            cols_of[j].discard(i)

    def add_row(dst: int, src: int, factor: int) -> None:
        for j in list(rows_of.get(src, ())):
            set_entry(dst, j, mat.get((dst, j), 0) + factor * mat[(src, j)])

    def add_col(dst: int, src: int, factor: int) -> None:
        for i in list(cols_of.get(src, ())):
            set_entry(i, dst, mat.get((i, dst), 0) + factor * mat[(i, src)])

    diagonal: list[int] = []
    while mat:
        (pi, pj) = min(mat, key=lambda ij: (abs(mat[ij]), ij))
        while True:
            pv = mat[(pi, pj)]
            moved = False
            for i in list(cols_of.get(pj, ())):
                if i != pi:
                    q = mat[(i, pj)] // pv
                    add_row(i, pi, -q)
                    if (i, pj) in mat:
                        pi, pj = i, pj
                        moved = True
                        break
            if moved:
                continue
            pv = mat[(pi, pj)]
            for j in list(rows_of.get(pi, ())):
                if j != pj:
                    q = mat[(pi, j)] // pv
                    add_col(j, pj, -q)
                    if (pi, j) in mat:
                        pi, pj = pi, j
                        moved = True
                        break
            if not moved:
                break
        diagonal.append(abs(mat[(pi, pj)]))
        set_entry(pi, pj, 0)
        # pivot row and column are now clear; the rest recurses

    # Repair the divisibility chain; diag(a, b) ~ diag(gcd, lcm).
    changed = True
    while changed:
        changed = False
        for i in range(len(diagonal)):
            for j in range(i + 1, len(diagonal)):
                a, b = diagonal[i], diagonal[j]
                if b % a:
                    g = gcd(a, b)
                    diagonal[i], diagonal[j] = g, a // g * b
                    changed = True
    return sorted(diagonal)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers over Q and integer torsion, per dimension 0..dim."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    @property
    def top_dim(self) -> int:
        return len(self.betti) - 1

    def is_trivial(self) -> bool:
        return not any(self.betti) and not any(self.torsion)

    def __str__(self) -> str:
        parts = []
        for d, b in enumerate(self.betti):
            parts.append(f"dim {d}: betti={b} torsion={list(self.torsion[d])}")
        return "\n".join(parts)


def homology(X: SimplicialComplex) -> HomologyProfile:
    """Reduced homology in every dimension from integer normal forms."""
    top = X.dim
    if top < 0:
        return HomologyProfile((), ())
    factors: dict[int, list[int]] = {}
    ranks: dict[int, int] = {}
    for i in range(top + 2):
        if i > top:
            ranks[i] = 0
            factors[i] = []
            continue
        mat = boundary_matrix(X, i)
        inv = smith_invariant_factors(mat.dense())
        ranks[i] = len(inv)
        factors[i] = inv
    betti = []
    torsion = []
    for i in range(top + 1):
        betti.append(X.n_faces(i) - ranks[i] - ranks[i + 1])
        torsion.append(tuple(sorted(t for t in factors[i + 1] if t > 1)))
    return HomologyProfile(tuple(betti), tuple(torsion))


def field_betti(X: SimplicialComplex, i: int, field: int | str = "Q") -> int:
    """Reduced Betti number in one dimension over Q or a prime field.

    Supports i = -1 (nonzero only for the empty complex) and returns 0
    outside the dimension range, so it can be used on duals uniformly.
    """
    _check_ring(field)
    if not X.faces:
        return 0
    if i < -1 or i > X.dim:
        return 0
    if i == -1:
        return 1 - _field_rank(X, 0, field)
    return X.n_faces(i) - _field_rank(X, i, field) - _field_rank(X, i + 1, field)


def _field_rank(X: SimplicialComplex, k: int, field: int | str) -> int:
    """Rank of the k-th boundary map over Q or the prime field."""
    if k > X.dim or k < 0:
        return 0
    cols = _matrix_columns(boundary_matrix(X, k))
    if isinstance(field, int):
        return rank_mod_p(cols, field)
    return rank_q(cols)


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

    ring is "Z", "Q", or a prime p for the field with p elements.  Over a
    field only boundary ranks are needed, each computed once.
    """
    _check_ring(ring, integers=True)
    if not X.faces or X.dim < 0:
        return False
    if ring == "Z":
        return homology(X).is_trivial()
    top = X.dim
    ranks = [_field_rank(X, k, ring) for k in range(top + 1)] + [0]
    return all(X.n_faces(i) == ranks[i] + ranks[i + 1] for i in range(top + 1))


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
    rows = tuple(sorted(X.faces_of_dim(d - 1)))
    row_index = {f: k for k, f in enumerate(rows)}
    state = IncrementalRank()
    for face in sorted(X.faces_of_dim(d)):
        state.add(boundary_column(face, row_index))
    return not state.add(boundary_column(sigma, row_index))
