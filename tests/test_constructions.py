"""Catalog loading, dimension-raising moves, base discovery, the constructor."""
from __future__ import annotations

import json
from collections import Counter
from importlib import resources
from itertools import combinations
from math import comb

import pytest

from anticollapse.collapse import (
    Matching,
    certificate_matching,
    core_erosion,
    free_faces,
    replay,
    search_collapse,
    verify_matching_acyclic,
)
from anticollapse.complexes import SimplicialComplex, digest, from_facets, read_facet_file
from anticollapse.constructions import (
    _WITNESS_CLAIMS,
    Refusal,
    _check_witness,
    _stuck_families,
    _witness,
    admissible,
    catalog,
    double_cone,
    double_cone_labels,
    find_base,
    lift_matching,
    load_base_case,
    stacking_move,
    theorem2_construct,
)
from anticollapse import constructions, duality
from anticollapse.duality import alexander_dual
from anticollapse.errors import InputError, StepError
from anticollapse.homology import _mask_column, homology, smith_invariant_factors
from anticollapse.hypertrees import complete_skeleton

from conftest import random_complex, rp2, witness_by_tuples


# -- catalog -----------------------------------------------------------


def test_catalog_y28_census():
    entry = catalog("Y28_2")
    assert len(entry.facets_listed) == 21
    assert entry.facets_listed[0] == (1, 2, 3)
    assert entry.facets_listed[-1] == (1, 2, 6)
    assert entry.complex.dim == 2
    assert entry.certificate is not None  # a collapse was found and verified


def test_catalog_y38_census():
    entry = catalog("Y38_3")
    assert len(entry.facets_listed) == 35
    assert entry.facets_listed[0] == (4, 6, 7, 8)
    assert entry.complex.n_faces(2) == 56  # complete 2-skeleton


def test_catalog_c38_census():
    entry = catalog("C38_3")
    assert len(entry.facets_listed) == 35
    assert "top-core" in entry.claims and "dual-top-core" in entry.claims


def test_catalog_rejects_unknown():
    with pytest.raises(InputError):
        catalog("Y99_9")


def test_catalog_dual_y28_has_no_free_faces():
    entry = catalog("dual_Y28_2")
    assert entry.complex.dim == 4
    assert free_faces(entry.complex) == []
    assert entry.certificate is not None
    end = replay(entry.complex, entry.certificate)
    assert end.is_simplex()


def test_catalog_dual_y38_expands_but_keeps_free_faces():
    # the bundled 35-facet list admits exactly four expansion moves, so its
    # dual keeps four free pairs while still expanding to the simplex
    entry = catalog("dual_Y38_3")
    assert entry.complex.dim == 3
    assert len(free_faces(entry.complex)) == 4
    assert replay(entry.complex, entry.certificate).is_simplex()


def test_catalog_c38_cores_on_both_sides():
    X = catalog("C38_3").complex
    residue, collapsible = core_erosion(X)
    assert not collapsible and residue.n_faces(3) > 0
    dual = alexander_dual(X)
    residue_d, collapsible_d = core_erosion(dual)
    assert not collapsible_d and residue_d.n_faces(dual.dim) > 0


def test_c38_random_collapses_always_leave_top_critical_cells():
    # a surviving core forces a critical cell in the top dimension no
    # matter how the random collapse run goes
    from anticollapse.collapse import random_discrete_morse

    X = catalog("C38_3").complex
    for seed in range(5):
        vector, _ = random_discrete_morse(X, rng_seed=seed)
        assert vector.counts[3] >= 1


def test_dual_certificate_transport_of_reference_collapse():
    from anticollapse.duality import dual_certificate

    entry = catalog("Y28_2")
    anti = dual_certificate(entry.complex, entry.certificate)
    dual = alexander_dual(entry.complex)
    end = replay(dual, anti)
    assert end.is_simplex()
    assert len(end.ground_set) == 8


# -- double cone ---------------------------------------------------------


def test_double_cone_of_edge_is_triangle():
    X = from_facets([[1, 2]])
    Y = double_cone(X, 1)
    a, b = double_cone_labels(X, 1)
    assert (a, b) == (1, 3)
    assert Y == SimplicialComplex.simplex(3)


def test_double_cone_of_simplex_is_next_simplex():
    for n in range(2, 6):
        X = SimplicialComplex.simplex(n)
        assert double_cone(X, 1) == SimplicialComplex.simplex(n + 1)


def test_double_cone_counts():
    X = rp2()
    Y = double_cone(X, 1)
    assert len(Y.support) == 7
    assert Y.dim == 3


def test_double_cone_homology_shift_rp2():
    Y = double_cone(rp2(), 1)
    profile = homology(Y)
    assert profile.betti == (0, 0, 0, 0)
    assert profile.torsion == ((), (), (2,), ())


def test_double_cone_homology_shift_cycle():
    Y = double_cone(SimplicialComplex.simplex_boundary(3), 2)
    profile = homology(Y)
    assert profile.betti == (0, 0, 1)


def test_double_cone_homology_shift_random(rng):
    for _ in range(10):
        X = random_complex(rng, max_vertices=5)
        if not X.faces_of_dim(0):
            continue
        v = min(X.support)
        before = homology(X)
        after = homology(double_cone(X, v))
        assert after.betti[0] == 0
        for i, b in enumerate(before.betti):
            assert after.betti[i + 1] == b
            assert after.torsion[i + 1] == before.torsion[i]


def test_double_cone_preserves_no_free_faces():
    for name in ("dual_Y28_2",):
        X = catalog(name).complex
        assert free_faces(X) == []
        Y = double_cone(X, min(X.support))
        assert free_faces(Y) == []
    for d in (2, 3):
        X = load_base_case(d).complex
        Y = double_cone(X, min(X.support))
        assert free_faces(Y) == []


# -- matching lift -------------------------------------------------------


def _critical_cells(X, matching: Matching):
    matched = matching.matched_faces()
    return {f for f in X.faces if f and f not in matched}


def test_lift_matching_empty_gives_all_critical():
    X = from_facets([[1, 2], [2, 3]])
    lifted = lift_matching(X, 1, Matching(frozenset()))
    assert len(lifted) == 0


def test_lift_matching_edge_example():
    # collapse the edge to its far vertex, distinguish the near one
    X = from_facets([[1, 2]])
    M = Matching(frozenset({((1,), (1, 2))}))
    lifted = lift_matching(X, 1, M)
    cone = double_cone(X, 1)
    assert verify_matching_acyclic(cone, lifted)
    critical = _critical_cells(cone, lifted)
    # critical cells are exactly the double cone over the critical vertex
    expected = double_cone(from_facets([[2]], ground=X.ground_set), 1)
    assert critical == {f for f in expected.faces if f}


def test_lift_matching_critical_cells_are_double_cone(rng):
    # whenever the critical cells form a subcomplex, their lift is its cone
    done = 0
    while done < 10:
        X = random_complex(rng, max_vertices=5)
        if not X.faces_of_dim(0):
            continue
        cert = search_collapse(X, rng_seed=rng.randrange(1 << 32), restarts=4)
        if cert is None:
            continue
        M = certificate_matching(cert)
        x = min(X.support)
        lifted = lift_matching(X, x, M)
        cone = double_cone(X, x)
        assert verify_matching_acyclic(cone, lifted)
        critical = _critical_cells(X, M)
        critical_complex = SimplicialComplex(
            X.ground_set, critical | {()} if critical else set()
        )
        expected = double_cone(critical_complex, x)
        assert _critical_cells(cone, lifted) == {f for f in expected.faces if f}
        done += 1


def test_lift_matching_rejects_pairs_outside_the_complex():
    X = from_facets([[1, 2]])
    with pytest.raises(InputError, match="not a face pair"):
        lift_matching(X, 1, Matching(frozenset({((1,), (1, 3))})))


def test_lift_matching_of_reference_collapse():
    entry = catalog("Y28_2")
    M = certificate_matching(entry.certificate)
    X = entry.complex
    lifted = lift_matching(X, 1, M)
    cone = double_cone(X, 1)
    assert verify_matching_acyclic(cone, lifted)
    critical = _critical_cells(cone, lifted)
    assert max(len(f) for f in critical) == 2  # a 1-dimensional subcomplex


def test_lift_matching_rejects_cyclic_input():
    X = SimplicialComplex.simplex_boundary(3)
    chase = Matching(frozenset({((1,), (1, 2)), ((2,), (2, 3)), ((3,), (1, 3))}))
    with pytest.raises(InputError):
        lift_matching(X, 1, chase)


# -- stacking move -------------------------------------------------------


def test_stacking_move_on_triangle():
    X = SimplicialComplex.simplex(3)
    Y = stacking_move(X, (1, 2, 3))
    assert set(Y.facets()) == {(1, 2, 4), (1, 3, 4), (2, 3, 4)}


def test_stacking_move_counts():
    X = SimplicialComplex.simplex(3)
    once = stacking_move(X, (1, 2, 3))
    twice = stacking_move(once, min(once.faces_of_dim(2)))
    assert once.n_faces(2) == 3
    assert twice.n_faces(2) == 5  # 1 + 2 * 2


def test_stacking_move_preserves_homology_and_no_free_faces():
    X = load_base_case(3).complex
    Y = stacking_move(X, min(X.faces_of_dim(3)))
    assert len(Y.support) == 9
    assert Y.dim == 3
    assert free_faces(Y) == []
    assert homology(Y).is_trivial()


def test_stacking_move_rejects_non_facet():
    X = SimplicialComplex.simplex(3)
    with pytest.raises(InputError):
        stacking_move(X, (1, 2))
    with pytest.raises(InputError):
        stacking_move(X, (1, 2, 4))


# -- the stuck-family search and base discovery ---------------------------


def test_no_stuck_family_on_refused_pairs():
    # an exhaustive check of the refusals "n<=7" and "d>=n-3" up to 12
    # vertices: no stuck d-complex on n vertices has its d-faces
    for n in range(3, 13):
        for d in range(2, n):
            if not admissible(n, d):
                assert next(_stuck_families(n, d), None) is None, (n, d)


def _stuck_families_by_brute_force(n, d):
    # every subset of the d-faces with {1..d+1}, kept when no ridge lies in
    # exactly one member and the boundaries have full rank over GF(2), read
    # off the integer normal form as the odd invariant factors
    first = (1 << d + 1) - 1
    rest = [m for m in complete_skeleton(n, d) if m != first]
    rows = {r: i for i, r in enumerate(complete_skeleton(n, d - 1))}
    found = set()
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            family = (first, *extra)
            ridges = Counter(m & ~(1 << v) for m in family for v in range(n) if m >> v & 1)
            if 1 in ridges.values():
                continue
            factors = smith_invariant_factors([_mask_column(m, rows) for m in family])
            if sum(f % 2 for f in factors) == len(family):
                found.add(frozenset(family))
    return found


def test_stuck_family_search_agrees_with_brute_force():
    pairs = [(n, d) for n in range(1, 16) for d in range(n) if comb(n, d + 1) <= 15]
    for n, d in pairs:
        searched = [frozenset(family) for family in _stuck_families(n, d)]
        assert len(set(searched)) == len(searched), (n, d)
        assert set(searched) == _stuck_families_by_brute_force(n, d), (n, d)


FOUND_BASE_DIGESTS = {
    2: "479d46a6e1f0e24962138356c80dcca972f0abcd3a7963cdcd04ce4a90a7978d",
    3: "c991e9c33c64a3751e8a85569df30bc8812e25e9b06e45e430e3c3bacddefbda",
}


@pytest.mark.parametrize("d", [2, 3])
def test_find_base_is_deterministic_and_pinned(tmp_path, d):
    entry = find_base(8, d, out_dir=str(tmp_path))
    _check_witness(entry.name, entry.complex, d, entry.certificate, _WITNESS_CLAIMS)
    assert digest(entry.complex) == FOUND_BASE_DIGESTS[d]
    written = read_facet_file(tmp_path / f"base_8_{d}.facets")
    assert written == entry.complex
    assert (tmp_path / f"base_8_{d}.cert").read_text() == entry.certificate.to_json() + "\n"


def test_find_base_returns_none_when_no_family_exists():
    assert find_base(8, 5) is None


def test_golden_bases_load_and_verify():
    for d in (2, 3):
        entry = load_base_case(d)
        assert entry.complex.dim == d
        assert free_faces(entry.complex) == []
        assert replay(entry.complex, entry.certificate).is_simplex()


def test_golden_bases_replay_their_certificates_without_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a golden base must not be searched for")

    monkeypatch.setattr(constructions, "is_anticollapsible", no_search)
    monkeypatch.setattr(duality, "_collapse_masks", no_search)
    load_base_case.cache_clear()
    for d in (2, 3):
        entry = load_base_case(d)
        assert replay(entry.complex, entry.certificate).is_simplex()


def test_golden_base_with_tampered_certificate_fails(monkeypatch, tmp_path):
    data = resources.files("anticollapse.data")
    for suffix in ("facets", "cert"):
        text = (data / f"base_8_2.{suffix}").read_text(encoding="utf-8")
        if suffix == "cert":
            payload = json.loads(text)
            payload["steps"] = payload["steps"][:-1]
            text = json.dumps(payload)
        (tmp_path / f"base_8_2.{suffix}").write_text(text, encoding="utf-8")
    monkeypatch.setattr(constructions.resources, "files", lambda package: tmp_path)
    load_base_case.cache_clear()
    try:
        with pytest.raises(StepError):
            load_base_case(2)
    finally:
        load_base_case.cache_clear()


def test_golden_base_is_evasive():
    # expandable but with no free faces, hence not collapsible, and the
    # vertex-elimination test must therefore refuse it as well
    from anticollapse.collapse import is_non_evasive

    X = load_base_case(2).complex
    assert search_collapse(X, rng_seed=1, restarts=4) is None
    assert not is_non_evasive(X)


# -- the constructor -----------------------------------------------------


def test_refusal_reasons():
    assert theorem2_construct(8, 5) == Refusal(
        "d>=n-3",
        "any contractible complex on n vertices of dimension at least n-3 "
        "has a free face",
    )
    assert isinstance(theorem2_construct(12, 1), Refusal)
    assert theorem2_construct(12, 1).reason == "d=1"
    assert theorem2_construct(9, 0).reason == "d=0"
    assert theorem2_construct(6, 2).reason == "n<=7"


def test_constructor_validates_input():
    with pytest.raises(InputError):
        theorem2_construct(0, 2)
    with pytest.raises(InputError):
        theorem2_construct(8, -1)


def test_partition_matches_closed_form():
    for n in range(1, 13):
        for d in range(0, n + 2):
            result = theorem2_construct(n, d) if not admissible(n, d) else None
            if result is not None:
                assert isinstance(result, Refusal), (n, d)
            assert admissible(n, d) == (n >= 8 and 2 <= d <= n - 4)


def test_witness_10_4():
    result = theorem2_construct(10, 4)
    assert not isinstance(result, Refusal)
    X, cert = result
    assert X.dim == 4
    assert len(X.support) == 10
    assert free_faces(X) == []
    assert replay(X, cert).is_simplex()


def test_witness_deterministic_complex():
    a = theorem2_construct(9, 3)
    _witness.cache_clear()
    b = theorem2_construct(9, 3)
    assert a == b


def test_witnesses_compose_without_search(monkeypatch):
    # the bases come first: the dimension-4 one is found by a seeded search
    load_base_case(2), load_base_case(3), catalog("dual_Y28_2")
    _witness.cache_clear()

    def no_search(*args, **kwargs):
        raise AssertionError("the constructor must not search")

    monkeypatch.setattr(duality, "_collapse_masks", no_search)
    for d in range(2, 8):
        X, cert = theorem2_construct(11, d)
        assert replay(X, cert).is_simplex()


def test_witnesses_match_the_tuple_composition():
    for n in range(8, 12):
        for d in range(2, n - 3):
            X, cert = theorem2_construct(n, d)
            Y, steps = witness_by_tuples(n, d)
            assert X == Y
            assert cert.steps == steps


def test_witnesses_are_integrally_acyclic():
    # expandable to the simplex means simple-homotopy trivial, so the
    # homology computation must come back empty on every route
    for n, d in ((9, 3), (9, 4), (10, 2)):
        X, _ = theorem2_construct(n, d)
        assert homology(X).is_trivial()


@pytest.mark.slow
def test_witness_matrix_through_twelve():
    for n in range(8, 13):
        for d in range(2, n - 3):
            result = theorem2_construct(n, d)
            assert not isinstance(result, Refusal)
            X, cert = result
            assert X.dim == d and len(X.support) == n
            assert free_faces(X) == []
            assert replay(X, cert).is_simplex()
