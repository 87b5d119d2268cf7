"""Boundary maps, integer normal form, and homology oracles."""
from __future__ import annotations

import hashlib
import importlib
from itertools import combinations
from math import gcd, prod
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticollapse.complexes import SimplicialComplex, from_facets
from anticollapse.errors import InputError
from anticollapse.homology import (
    HomologyProfile,
    IncrementalRank,
    _boundary_columns,
    _unit_count,
    boundary_matrix,
    field_betti,
    homology,
    is_acyclic,
    smith_invariant_factors,
)
from anticollapse.hypertrees import kruskal_generate

from conftest import adds_top_cycle, connected_components, fraction_rank, random_complex, rp2


def modp_rank(dense: list[list[int]], p: int) -> int:
    """Textbook Gaussian elimination over GF(p), used as an independent
    oracle for the field ranks read off the invariant factors."""
    rows = [[v % p for v in row] for row in dense]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def columns_of(dense: list[list[int]]) -> list[dict[int, int]]:
    """Sparse columns (row index -> entry) of a dense row-major matrix."""
    n_cols = len(dense[0]) if dense else 0
    return [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(n_cols)]


def test_boundary_of_single_edge_signs():
    X = from_facets([[1, 2]])
    mat = boundary_matrix(X, 1)
    assert mat.rows == ((1,), (2,))
    assert mat.cols == ((1, 2),)
    assert mat.entries == ((-1,), (1,))


def test_boundary_composition_vanishes_on_triangle():
    X = SimplicialComplex.simplex(3)
    d1 = boundary_matrix(X, 1)
    d2 = boundary_matrix(X, 2)
    for i in range(len(d1.rows)):
        for j in range(len(d2.cols)):
            total = sum(d1.entries[i][k] * d2.entries[k][j] for k in range(len(d1.cols)))
            assert total == 0


def test_boundary_composition_vanishes_on_random_complexes():
    rng = Random(23)
    for _ in range(30):
        X = random_complex(rng)
        for i in range(1, X.dim + 1):
            low = boundary_matrix(X, i - 1)
            high = boundary_matrix(X, i)
            for r in range(len(low.rows)):
                for j in range(len(high.cols)):
                    total = sum(
                        low.entries[r][k] * high.entries[k][j]
                        for k in range(len(low.cols))
                    )
                    assert total == 0


def test_sphere_boundary_matrix_rank():
    X = SimplicialComplex.simplex_boundary(4)
    mat = boundary_matrix(X, 2)
    assert mat.shape == (6, 4)
    assert fraction_rank(mat.dense()) == 3
    # the sparse columns are the same map, over the faces in mask order
    rows = sorted(map(X.mask_of, mat.rows))
    cols = sorted(map(X.mask_of, mat.cols))
    sparse = {
        (X.face_of(rows[r]), X.face_of(cols[j])): v
        for j, col in enumerate(_boundary_columns(X, 2))
        for r, v in col.items()
    }
    assert sparse == {
        (f, g): mat.entries[r][j]
        for r, f in enumerate(mat.rows)
        for j, g in enumerate(mat.cols)
        if mat.entries[r][j]
    }
    assert len(smith_invariant_factors(_boundary_columns(X, 2))) == 3


def test_rank_matches_fraction_oracle_on_random_matrices():
    rng = Random(7)
    for _ in range(100):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        dense = [
            [rng.randint(-4, 4) for _ in range(n_cols)] for _ in range(n_rows)
        ]
        factors = smith_invariant_factors(columns_of(dense))
        assert _unit_count(factors, "Q") == len(factors) == fraction_rank(dense)
        for p in (2, 3):
            assert _unit_count(factors, p) == modp_rank(dense, p)


def test_smith_invariant_factors_known():
    assert smith_invariant_factors(columns_of([[2, 0], [0, 3]])) == [1, 6]
    assert smith_invariant_factors(columns_of([[2, 0], [0, 4]])) == [2, 4]
    assert smith_invariant_factors(columns_of([[0, 0], [0, 0]])) == []
    assert smith_invariant_factors(columns_of([[6]])) == [6]
    assert smith_invariant_factors([]) == []
    # a unit pivot next to a set-aside column: [[1, 2], [1, 4]] ~ diag(1, 2)
    assert smith_invariant_factors(columns_of([[1, 2], [1, 4]])) == [1, 2]


def _random_unimodular(rng: Random, n: int) -> list[list[int]]:
    """Product of random elementary row operations applied to the identity."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            mat[i][k] += c * mat[j][k]
    return mat


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _divisibility_chain(values: list[int]) -> list[int]:
    """Invariant factors of a diagonal matrix, by pairwise gcd/lcm repair."""
    from math import gcd

    vals = [v for v in values if v]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a:
                    g = gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
    return sorted(vals)


def test_smith_invariants_stable_under_unimodular_conjugation():
    # L * D * R has the same invariant factors as D for unimodular L, R
    rng = Random(97)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        diag = [[0] * m for _ in range(n)]
        values = []
        for i in range(min(n, m)):
            v = rng.choice([0, 1, 1, 2, 3, 4, 6, 12])
            diag[i][i] = v
            values.append(v)
        left = _random_unimodular(rng, n)
        right = _random_unimodular(rng, m)
        product = _matmul(_matmul(left, diag), right)
        assert smith_invariant_factors(columns_of(product)) == _divisibility_chain(values)


def test_rank_mod_p():
    # the matrix [[2]] has rank 1 over Q but rank 0 over Z/2
    factors = smith_invariant_factors([{0: 2}])
    assert _unit_count(factors, 2) == modp_rank([[2]], 2) == 0
    assert _unit_count(factors, 3) == modp_rank([[2]], 3) == 1
    # the top boundary of the projective plane loses one rank mod 2 only
    dense = boundary_matrix(rp2(), 2).dense()
    factors = smith_invariant_factors(columns_of(dense))
    for p in (2, 3, 5):
        assert _unit_count(factors, p) == modp_rank(dense, p)
    assert _unit_count(factors, 2) == _unit_count(factors, 3) - 1


def _det(m: list[list[int]]) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _minor_gcd(dense: list[list[int]], k: int) -> int:
    """gcd of all k-by-k minors."""
    g = 0
    for rows in combinations(range(len(dense)), k):
        for cols in combinations(range(len(dense[0])), k):
            g = gcd(g, _det([[dense[i][j] for j in cols] for i in rows]))
    return g


small_matrices = st.integers(1, 4).flatmap(
    lambda n_rows: st.lists(
        st.lists(st.integers(-6, 6), min_size=n_rows, max_size=n_rows),
        min_size=1,
        max_size=4,
    )
).map(lambda cols: [list(row) for row in zip(*cols)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_matrices)
def test_smith_invariant_factors_properties(dense):
    factors = smith_invariant_factors(columns_of(dense))
    assert all(t > 0 for t in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    # determinantal divisors: the first k factors multiply to the gcd of
    # the k-by-k minors, which is 0 beyond the rank
    for k in range(1, min(len(dense), len(dense[0])) + 1):
        assert _minor_gcd(dense, k) == (prod(factors[:k]) if k <= len(factors) else 0)
    assert _unit_count(factors, "Q") == fraction_rank(dense)
    for p in (2, 3, 5):
        assert _unit_count(factors, p) == modp_rank(dense, p)


def test_homology_of_spheres():
    for n in range(2, 6):
        X = SimplicialComplex.simplex_boundary(n)
        profile = homology(X)
        expected = [0] * (n - 1)
        expected[n - 2] = 1
        assert profile.betti == tuple(expected)
        assert all(not t for t in profile.torsion)


def test_homology_of_projective_plane():
    profile = homology(rp2())
    assert profile.betti == (0, 0, 0)
    assert profile.torsion == ((), (2,), ())


def test_rp2_is_a_closed_surface():
    # structural certification, independent of the homology engine
    X = rp2()
    assert X.n_faces(0) == 6 and X.n_faces(1) == 15 and X.n_faces(2) == 10
    for edge in X.faces_of_dim(1):
        degree = sum(1 for t in X.faces_of_dim(2) if set(edge) < set(t))
        assert degree == 2
    assert X.euler_characteristic() == 0  # reduced: 6 - 15 + 10 - 1


def test_homology_of_simplex_trivial():
    for n in range(1, 6):
        assert homology(SimplicialComplex.simplex(n)).is_trivial()


def test_betti_zero_counts_components():
    rng = Random(31)
    for _ in range(40):
        X = random_complex(rng)
        if not X.faces_of_dim(0):
            continue
        profile = homology(X)
        assert profile.betti[0] + 1 == connected_components(X)


def test_euler_poincare():
    rng = Random(37)
    for _ in range(40):
        X = random_complex(rng)
        profile = homology(X)
        reduced = sum((-1) ** i * b for i, b in enumerate(profile.betti))
        assert reduced == X.euler_characteristic()


def test_is_acyclic_rp2_rings():
    X = rp2()
    assert is_acyclic(X, "Q")
    assert not is_acyclic(X, 2)
    assert is_acyclic(X, 3)
    assert not is_acyclic(X, "Z")


def test_is_acyclic_point_and_cycle():
    point = from_facets([[1]])
    for ring in ("Z", "Q", 2, 3, 5):
        assert is_acyclic(point, ring)
    cycle = SimplicialComplex.simplex_boundary(3)
    for ring in ("Z", "Q", 2, 3, 5):
        assert not is_acyclic(cycle, ring)


def test_is_acyclic_rejects_composite_characteristic():
    with pytest.raises(InputError):
        is_acyclic(from_facets([[1]]), 4)
    with pytest.raises(InputError):
        is_acyclic(from_facets([[1]]), 1)


def test_field_betti_rejects_unknown_fields():
    cycle = SimplicialComplex.simplex_boundary(3)
    for field in ("R", "Z", "nonsense", 4):
        with pytest.raises(InputError):
            field_betti(cycle, 1, field)


def test_field_betti_edge_dimensions():
    empty = SimplicialComplex.empty([1, 2, 3])
    assert field_betti(empty, -1) == 1
    assert field_betti(empty, 0) == 0
    void = SimplicialComplex.void([1, 2, 3])
    assert field_betti(void, -1) == 0
    point = from_facets([[1]])
    assert field_betti(point, -1) == 0


def test_adds_top_cycle_closing_a_sphere():
    three = from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4]])
    assert adds_top_cycle(three, (2, 3, 4)) is True


def test_adds_top_cycle_independent_column():
    X = from_facets([[1, 2, 3], [1, 4], [2, 4], [3, 4]])
    assert adds_top_cycle(X, (1, 2, 4)) is False


def test_adds_top_cycle_preconditions():
    X = from_facets([[1, 2, 3]])
    with pytest.raises(InputError):
        adds_top_cycle(X, (1, 2, 3))  # already present
    with pytest.raises(InputError):
        adds_top_cycle(X, (1, 2, 5))  # boundary missing


def test_incremental_rank_matches_batch():
    # every verdict of add is the rank increase over Q; columns with entries
    # +-1 only and columns with entries up to 3 are mixed, so both the
    # in-place step at a +-1 pivot (_subtract) and the check of a remainder
    # against the set-aside columns (_smith_diagonal) run
    homology_module = importlib.import_module("anticollapse.homology")
    rng = Random(43)
    with mock.patch.object(homology_module, "_subtract", wraps=homology_module._subtract) as unit, \
            mock.patch.object(
                homology_module, "_smith_diagonal", wraps=homology_module._smith_diagonal
            ) as set_aside:
        for _ in range(80):
            n_rows = rng.randint(1, 7)
            state = IncrementalRank()
            rows: list[list[int]] = [[] for _ in range(n_rows)]
            for _ in range(rng.randint(1, 8)):
                bound = rng.choice((1, 3))
                col = {i: rng.randint(-bound, bound) for i in range(n_rows)}
                before = fraction_rank(rows)
                for i, row in enumerate(rows):
                    row.append(col[i])
                grew = state.add({k: v for k, v in col.items() if v})
                assert grew == (fraction_rank(rows) > before)
            assert state.rank == fraction_rank(rows)
    assert unit.call_count > 0
    assert set_aside.call_count > 0
    # the second column reduces to a remainder led by 1 on a row with no
    # pivot, yet it is a rational multiple of the first, set-aside column
    for first, second in (({0: 2}, {0: 1}), ({0: 2, 1: 2}, {0: 1, 1: 1})):
        state = IncrementalRank()
        assert state.add(first) is True
        assert state.add(second) is False
        assert state.rank == 1


def test_homology_profile_str():
    text = str(HomologyProfile((0, 1), ((), (2,))))
    assert "dim 1: betti=1 torsion=[2]" in text


def _pinned_complexes():
    rng = Random(0x5EED)
    complexes = [random_complex(rng) for _ in range(40)] + [rp2()]
    return complexes + [kruskal_generate(8, 3, seed) for seed in range(15)]


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of homology and field Betti vectors on fixed complexes, taken
# before the elimination engine was rewritten: outputs must never change
HOMOLOGY_SHA256 = "d0542ee5d183dcdc887bf512ee37fd615db50bcf3a20e2a07898766e4a3153d8"
BETTI_SHA256 = {
    "Q": "a77a69c0274ffb08f2d1b86e35b1e4a2dd128116ded96314b582b08313ec8ff5",
    2: "c057b30d77e6c4a14c6f78ac49f37265000a632efd40e46f1690ce524e0628be",
    3: "a77a69c0274ffb08f2d1b86e35b1e4a2dd128116ded96314b582b08313ec8ff5",
}


def test_homology_is_pinned():
    lines = (str(homology(X)) for X in _pinned_complexes())
    assert _sha256(lines) == HOMOLOGY_SHA256


@pytest.mark.parametrize("field", ["Q", 2, 3])
def test_field_betti_is_pinned(field):
    lines = (
        str([field_betti(X, i, field) for i in range(-1, X.dim + 1)])
        for X in _pinned_complexes()
    )
    assert _sha256(lines) == BETTI_SHA256[field]


def test_one_normal_form_per_complex():
    # homology, is_acyclic and the duality check share the normal forms of
    # X's boundary maps; only the dual's are computed on top of them
    from anticollapse.duality import alexander_dual, check_alexander_duality

    homology_module = importlib.import_module("anticollapse.homology")
    rng = Random(23)
    for make in [rp2, lambda: kruskal_generate(7, 2, 5), lambda: random_complex(rng, 7)]:
        X = make()
        dual = alexander_dual(X)
        expected = (X.dim + 1) + max(dual.dim + 1, 0)
        with mock.patch.object(
            homology_module, "smith_invariant_factors", wraps=smith_invariant_factors
        ) as spy:
            homology(X)
            is_acyclic(X, 2)
            check_alexander_duality(X, 3)
        assert spy.call_count == expected


def _set_aside_count(columns: list[dict[int, int]]) -> int:
    """Columns that find no unit pivot when reduced left to right against
    earlier unit pivots on their least row: the remainder of the normal
    form that the Smith loop sees."""
    pivots: dict[int, dict[int, int]] = {}
    count = 0
    for col in columns:
        work = dict(col)
        while work:
            r = min(work)
            if r not in pivots:
                if work[r] in (1, -1):
                    pivots[r] = work
                else:
                    count += 1
                break
            c = work[r] * pivots[r][r]
            for row, v in pivots[r].items():
                work[row] = work.get(row, 0) - c * v
                if not work[row]:
                    del work[row]
    return count


# sha256 of smith_invariant_factors on seeded integer matrices up to 9x9,
# taken before the Smith loop on the set-aside columns was rewritten
SMITH_SHA256 = "a2424ec915e81e5ddf234a79ae5452e20044dfc77d49ce936bf3d41847128617"


def test_smith_invariant_factors_pinned_on_random_matrices():
    rng = Random(20251018)
    lines = []
    large_remainders = 0
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
        cols = [
            {i: v for i in range(n_rows) if (v := rng.randint(-9, 9))} for _ in range(n_cols)
        ]
        large_remainders += _set_aside_count(cols) >= 3
        factors = smith_invariant_factors(cols)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        lines.append(str(factors))
    # the Smith loop must see more than the 4x4 matrices of the property test
    assert large_remainders >= 20
    assert _sha256(lines) == SMITH_SHA256
