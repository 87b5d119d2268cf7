"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they are produced.  The statistical reproduction is marked slow.
"""
from __future__ import annotations

from itertools import combinations
from math import comb
from random import Random

import pytest

from anticollapse.collapse import (
    apply_step,
    certificate_matching,
    core_erosion,
    free_faces,
    random_discrete_morse,
    replay,
    search_collapse,
    verify_matching_acyclic,
    StepPair,
    ANTICOLLAPSE,
)
from anticollapse.complexes import SimplicialComplex
from anticollapse.constructions import (
    Refusal,
    catalog,
    double_cone,
    lift_matching,
    theorem2_construct,
)
from anticollapse.duality import alexander_dual
from anticollapse.homology import field_betti, homology
from anticollapse.hypertrees import kalai_check, run_survey, survey

from conftest import all_complexes_on, random_complex, rp2


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_catalog_verification():
    y28 = catalog("Y28_2")
    y38 = catalog("Y38_3")
    c38 = catalog("C38_3")
    assert len(y28.facets_listed) == 21
    assert len(y38.facets_listed) == 35
    assert len(c38.facets_listed) == 35

    for entry in (y28, y38):
        cert = entry.certificate
        assert cert is not None and cert.kind == "collapse"
        end = replay(entry.complex, cert)
        assert end.n_faces(0) == 1 and len(end.faces) == 2  # one vertex

    assert free_faces(catalog("dual_Y28_2").complex) == []
    _verdict(
        1,
        True,
        "catalog counts, collapse certificates, and the dimension-4 "
        "no-free-face dual all verify",
    )


def test_criterion_1_dual_y38_has_no_free_faces():
    # The bundled 3-dimensional facet list admits four expansion moves
    # (for instance the 4-face (2,4,6,7) completes (1,2,4,6,7)), so its
    # dual keeps four free pairs.  The claimed zero therefore cannot hold
    # for this list; the assertion documents the unmet claim.
    count = len(free_faces(catalog("dual_Y38_3").complex))
    _verdict(1, count == 0, f"dual of the 35-facet list has {count} free faces")


def test_criterion_2_c38_double_refutation():
    X = catalog("C38_3").complex
    residue, collapsible = core_erosion(X)
    assert not collapsible and residue.n_faces(3) > 0
    dual = alexander_dual(X)
    dual_residue, dual_collapsible = core_erosion(dual)
    assert not dual_collapsible and dual_residue.n_faces(dual.dim) > 0
    _verdict(
        2,
        True,
        f"cores survive on both sides ({residue.n_faces(3)} and "
        f"{dual_residue.n_faces(dual.dim)} top faces), deterministically",
    )


def test_criterion_3_witness_matrix():
    checked = 0
    for n in range(1, 8):
        for d in range(0, n + 1):
            result = theorem2_construct(n, d)
            assert isinstance(result, Refusal), f"({n},{d}) must refuse"
            checked += 1
    for n in range(8, 12):
        for d in range(0, n + 1):
            result = theorem2_construct(n, d)
            expected_witness = 2 <= d <= n - 4
            if expected_witness:
                assert not isinstance(result, Refusal), f"({n},{d}) must construct"
                X, cert = result
                assert X.dim == d
                assert len(X.support) == n
                assert free_faces(X) == []
                assert replay(X, cert).is_simplex()
            else:
                assert isinstance(result, Refusal), f"({n},{d}) must refuse"
            checked += 1
    _verdict(3, True, f"accept/refuse partition exact on {checked} pairs, all "
                      "witnesses verified with replayed certificates")


def test_criterion_4_homology_oracles():
    profile = homology(rp2())
    assert profile.betti == (0, 0, 0)
    assert profile.torsion == ((), (2,), ())

    for k in range(2, 6):
        sphere = homology(SimplicialComplex.simplex_boundary(k + 1))
        expected = tuple(1 if i == k - 1 else 0 for i in range(k))
        assert sphere.betti == expected
        assert all(not t for t in sphere.torsion)

    shifted = homology(double_cone(rp2(), 1))
    assert shifted.betti == (0, 0, 0, 0)
    assert shifted.torsion == ((), (), (2,), ())
    _verdict(4, True, "projective plane, sphere, and double-cone shift all exact")


def test_criterion_5_weighted_enumeration():
    assert kalai_check(4, 2) == (4, 4, True)
    assert kalai_check(5, 2) == (125, 125, True)
    for n in range(3, 7):
        total, expected, ok = kalai_check(n, 1)
        assert ok and total == n ** (n - 2)
    _verdict(5, True, "squared-torsion sums match n^C(n-2,d) at (4,2), (5,2), "
                      "and the tree counts for n <= 6")


def test_criterion_6_duality_suite():
    rng = Random(0xD0A1)
    for _ in range(200):
        X = random_complex(rng, max_vertices=6)
        assert alexander_dual(alexander_dual(X)) == X
        n = len(X.ground_set)
        dual = alexander_dual(X)
        for i in range(-1, n + 1):
            for field in ("Q", 2):
                assert field_betti(X, i, field) == field_betti(dual, n - i - 3, field)

    from anticollapse.duality import dual_step

    steps_checked = 0
    for X in all_complexes_on((1, 2, 3, 4)):
        dual = alexander_dual(X)
        for step in free_faces(X):
            left = alexander_dual(apply_step(X, step))
            right = apply_step(dual, dual_step(step, X.ground_set), allow_trivial=True)
            assert left == right
            steps_checked += 1
    _verdict(6, True, f"involution and rank duality on 200 random complexes; "
                      f"step duality exhaustive on {steps_checked} moves")


def _expansion_moves(X: SimplicialComplex) -> list[StepPair]:
    moves = []
    ground = sorted(X.ground_set)
    for size in range(1, len(ground) + 1):
        for cand in combinations(ground, size):
            if cand in X.faces:
                continue
            missing = [
                cand[:j] + cand[j + 1 :]
                for j in range(size)
                if cand[:j] + cand[j + 1 :] not in X.faces
            ]
            if len(missing) == 1 and missing[0]:
                moves.append(StepPair(missing[0], cand, ANTICOLLAPSE))
    return moves


def test_criterion_7_invariance_suite():
    rng = Random(0x17C)
    steps_done = 0
    certs_done = 0
    lifts_done = 0
    while steps_done < 1000:
        X = random_complex(rng, max_vertices=6)
        if not X.faces_of_dim(0):
            continue
        collapses = free_faces(X)
        expansions = _expansion_moves(X)
        moves = collapses + expansions
        if not moves:
            continue
        step = moves[rng.randrange(len(moves))]
        Y = apply_step(X, step)
        assert Y.euler_characteristic() == X.euler_characteristic()
        hx, hy = homology(X), homology(Y)
        top = max(len(hx.betti), len(hy.betti))
        assert hx.betti + (0,) * (top - len(hx.betti)) == hy.betti + (0,) * (
            top - len(hy.betti)
        )
        assert hx.torsion + ((),) * (top - len(hx.torsion)) == hy.torsion + ((),) * (
            top - len(hy.torsion)
        )
        steps_done += 1

        if steps_done % 20 == 0:
            cert = search_collapse(X, rng_seed=rng.randrange(1 << 32), restarts=8)
            if cert is not None:
                replay(X, cert)
                certs_done += 1
                matching = certificate_matching(cert)
                assert verify_matching_acyclic(X, matching)
                lifted = lift_matching(X, min(X.support), matching)
                assert verify_matching_acyclic(double_cone(X, min(X.support)), lifted)
                lifts_done += 1
    _verdict(7, True, f"1000 random moves preserved Euler and homology; "
                      f"{certs_done} certificates replayed; {lifts_done} lifted "
                      "matchings acyclic")


@pytest.mark.slow
def test_criterion_8_statistical_reproduction():
    summary = run_survey(8, 3, trials=10_000, rng_seed=0xACE5)
    assert summary.trials == 10_000
    assert summary.invalid_seeds == []
    class_a = list(summary.class_a_seeds)
    extra = 0
    while not class_a and extra < 90_000:
        for seed, report in survey(8, 3, 10_000, rng_seed=0xACE5 + 1 + extra):
            assert report.q_acyclic and report.facet_count == comb(7, 3)
            extra += 1
            if report.is_class_a():
                class_a.append(seed)
                break
    assert class_a, "no collapsible-but-refuted-expansion example in 100000 trials"
    _verdict(8, True, f"10000 valid spanning complexes; first "
                      f"collapsible-not-expandable seed {class_a[0]} after "
                      f"{10_000 + extra} trials total")


def test_criterion_9_small_simplices_never_stick():
    for k in range(1, 7):
        X = SimplicialComplex.simplex(k + 1)
        for seed in range(100):
            vector, _ = random_discrete_morse(X, rng_seed=seed)
            assert vector.is_point_vector(), (k, seed)
    _verdict(9, True, "100 random collapse runs per simplex up to 7 vertices, "
                      "all reached a single vertex")
