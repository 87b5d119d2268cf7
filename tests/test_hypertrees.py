"""Random spanning-complex generation, verification, and enumeration checks."""
from __future__ import annotations

from dataclasses import replace
from itertools import combinations
from math import comb
from random import Random
from unittest import mock

import hashlib

import pytest

from anticollapse.collapse import _Workbench, core_erosion, search_collapse
from anticollapse.complexes import (
    SimplicialComplex,
    digest,
    from_facets,
    relabeled,
)
from anticollapse.duality import _dual_workbench, alexander_dual, is_anticollapsible
from anticollapse.errors import InputError, SizeError
from anticollapse.homology import (
    IncrementalRank,
    _mask_column,
    homology,
    is_acyclic,
)
from anticollapse import hypertrees
from anticollapse.hypertrees import (
    FOUND,
    REFUTED,
    UNKNOWN,
    _derive_seed,
    _kruskal,
    _spanning_workbenches,
    complete_skeleton,
    is_hypertree,
    kalai_check,
    kruskal_generate,
    run_survey,
    spanning_torsion_order,
    survey,
)

from conftest import (
    adds_top_cycle,
    connected_components,
    fraction_rank,
    mask_view,
    rp2,
    torsion_order,
)


def test_generator_validates_arguments():
    with pytest.raises(InputError):
        kruskal_generate(3, 0, 1)
    with pytest.raises(InputError):
        kruskal_generate(2, 2, 1)


def test_dimension_one_gives_spanning_trees():
    for seed in range(20):
        T = kruskal_generate(6, 1, seed)
        assert T.n_faces(1) == 5
        assert connected_components(T) == 1
        assert T.support == frozenset(range(1, 7))


def test_four_vertices_dim_two():
    for seed in range(10):
        X = kruskal_generate(4, 2, seed)
        assert X.n_faces(2) == 3
        assert is_acyclic(X, "Q")
        report = is_hypertree(X, 2, rng_seed=seed)
        assert report.collapsible == FOUND


def test_generator_output_is_q_acyclic_with_complete_skeleton():
    for seed in (1, 2, 3):
        X = kruskal_generate(8, 3, seed)
        assert X.n_faces(3) == comb(7, 3)
        assert X.n_faces(2) == comb(8, 3)
        assert is_acyclic(X, "Q")


def test_generator_deterministic_per_seed():
    assert kruskal_generate(7, 2, 99) == kruskal_generate(7, 2, 99)
    assert kruskal_generate(7, 2, 99) != kruskal_generate(7, 2, 100)


def _tuple_column(face, row_index):
    """Sparse boundary of a vertex tuple: alternating signs over its facets."""
    return {row_index[face[:j] + face[j + 1 :]]: -1 if j % 2 else 1 for j in range(len(face))}


def test_incremental_acceptance_agrees_with_full_recompute():
    # the generator re-run on tuples: the same seeded shuffle of the
    # lexicographic candidate list, every decision checked against a rank
    # over Fractions of the kept columns and the candidate, and the same
    # complex at the end.  At (8, 3) seeds 497 and 237 set a column aside;
    # at 237 two later candidates reduce to remainders led by +-1 that
    # depend on it, which add must reject
    sizes = ((5, 2, range(3)), (6, 2, range(3)), (5, 3, range(3)), (6, 1, range(3)))
    for n, d, seeds in sizes + ((8, 3, (497, 237)),):
        for seed in seeds:
            candidates = list(combinations(range(1, n + 1), d + 1))
            Random(seed).shuffle(candidates)
            skeleton = list(combinations(range(1, n + 1), d))
            row_index = {f: i for i, f in enumerate(skeleton)}
            state = IncrementalRank()
            accepted = []
            kept: list[dict] = []
            target = comb(n - 1, d)
            for sigma in candidates:
                if len(accepted) == target:
                    break
                col = _tuple_column(sigma, row_index)
                dense = [[c.get(r, 0) for c in kept + [col]] for r in range(len(skeleton))]
                # the kept columns are independent, each checked here
                expected_independent = fraction_rank(dense) == len(kept) + 1
                got_independent = state.add(col)
                assert got_independent == expected_independent
                if got_independent:
                    accepted.append(sigma)
                    kept.append(col)
            assert len(accepted) == target
            expected = from_facets(accepted + skeleton, ground=range(1, n + 1))
            assert kruskal_generate(n, d, seed) == expected
            if n == 8:
                assert state._rest


def test_kruskal_torsion_is_the_spanning_torsion():
    # the torsion the generator hands on, the product of the Smith diagonal
    # of its cleared set-aside columns, is |H_(d-1)| of the complex it
    # keeps.  Runs that end with unit pivots only have torsion 1; at (8, 3)
    # seed 237 ends with set-aside columns and torsion 1, seed 497 with
    # torsion 2
    engines = []

    class Recorded(IncrementalRank):
        def __init__(self) -> None:
            super().__init__()
            engines.append(self)

    endings = {}
    cases = [(8, 3, range(600))] + [(n, d, range(8)) for n, d in ((8, 2), (9, 3), (7, 3), (6, 1))]
    with mock.patch.object(hypertrees, "IncrementalRank", Recorded):
        for n, d, seeds in cases:
            for seed in seeds:
                torsion = _kruskal(n, d, seed)[1]
                endings[n, d, seed] = (bool(engines[-1]._rest), torsion)
                X = kruskal_generate(n, d, seed)
                assert torsion == spanning_torsion_order(X, d)
                if seed < 3 or torsion > 1:
                    assert torsion == torsion_order(X, d)
    assert endings[8, 3, 237] == (True, 1)
    assert endings[8, 3, 497] == (True, 2)
    assert all(t == 1 for rest, t in endings.values() if not rest)


def test_cached_kruskal_columns_are_never_changed():
    # the (8, 3) columns are shared by every trial; runs that end with
    # set-aside columns, which IncrementalRank clears in place, must leave
    # them as built
    engines = []

    class Recorded(IncrementalRank):
        def __init__(self) -> None:
            super().__init__()
            engines.append(self)

    hypertrees._kruskal_columns.cache_clear()
    cached = hypertrees._kruskal_columns(8, 3)
    with mock.patch.object(hypertrees, "IncrementalRank", Recorded):
        for seed in (237, 497):
            _kruskal(8, 3, seed)
        run_survey(8, 3, 3, 207)  # its third trial has torsion 2
    assert sum(bool(engine._rest) for engine in engines) >= 3
    assert hypertrees._kruskal_columns(8, 3) is cached
    row_index = {m: i for i, m in enumerate(complete_skeleton(8, 2))}
    assert cached == tuple((m, _mask_column(m, row_index)) for m in complete_skeleton(8, 3))


def test_spanning_workbenches_match_the_general_build():
    # the survey's workbenches, cached skeleton workbenches with the tops
    # added and the dual taken as a skeleton plus complements, against
    # workbenches of the faces of X and of its dual; d = n - 1 makes X the
    # simplex and its dual void, and d = n - 2 gives the dual vertices as
    # tops
    for n in range(2, 10):
        for d in range(1, n):
            for seed in range(5):
                tops = _kruskal(n, d, seed)[0]
                X = kruskal_generate(n, d, seed)
                built = _spanning_workbenches(n, d, tops)
                want = (_Workbench(X), _dual_workbench(X))
                assert (built[1] is None) == (want[1] is None) == (d == n - 1)
                for got, expected in zip(built, want):
                    if expected is not None:
                        assert mask_view(got) == mask_view(expected)
                        assert got.count == expected.count


def test_spanning_torsion_matches_normal_form():
    for seed in range(40):
        X = kruskal_generate(6, 2, seed)
        assert spanning_torsion_order(X, 2) == torsion_order(X, 2)


def test_spanning_torsion_matches_normal_form_on_survey_complexes():
    # the product of the invariant factors of the reduced matrix is the
    # order of the torsion group, for (8, 3) and (7, 2) survey complexes
    for n, d in ((8, 3), (7, 2)):
        for t in range(15):
            X = kruskal_generate(n, d, _derive_seed(20250808, t))
            assert spanning_torsion_order(X, d) == torsion_order(X, d)


def test_spanning_torsion_of_a_singular_complex_is_zero():
    # C(4, 2) = 6 triangles over the complete 1-skeleton on [5], four of
    # them the boundary of [1234]: the reduced matrix is singular
    triangles = list(combinations((1, 2, 3, 4), 3)) + [(1, 2, 5), (3, 4, 5)]
    X = from_facets(triangles + list(combinations(range(1, 6), 2)))
    assert spanning_torsion_order(X, 2) == 0


def test_report_does_not_depend_on_vertex_labels():
    # a hypertree on {4..10} takes the spanning path with the largest label
    # as its removed vertex and is classified exactly as its copy on {1..7}
    for seed in range(30):
        X = kruskal_generate(7, 2, seed)
        Y = relabeled(X, {v: v + 3 for v in X.ground_set})
        assert spanning_torsion_order(Y, 2) == spanning_torsion_order(X, 2)
        report = is_hypertree(Y, 2, rng_seed=seed, restarts=8)
        assert report == replace(is_hypertree(X, 2, rng_seed=seed, restarts=8), complex=Y)


def test_spanning_torsion_detects_projective_plane():
    # the 6-vertex projective plane has C(5,2) triangles over the complete
    # 1-skeleton, so both torsion computations apply and must give 2
    X = rp2()
    assert X.n_faces(2) == comb(5, 2)
    assert X.n_faces(1) == comb(6, 2)
    assert spanning_torsion_order(X, 2) == 2
    assert torsion_order(X, 2) == 2


def test_projective_plane_report():
    report = is_hypertree(rp2(), 2, rng_seed=5)
    assert report.q_acyclic
    assert report.torsion_order == 2
    assert report.collapsible == REFUTED  # a closed surface is its own core


def test_reference_three_complex_report():
    # collapsible, yet expansion is refuted outright by a core in the dual;
    # the dual also keeps four free pairs, so refutation must come from the
    # erosion argument rather than from a missing first move
    from anticollapse.constructions import catalog

    report = is_hypertree(catalog("Y38_3").complex, 3, rng_seed=5)
    assert report.q_acyclic
    assert report.torsion_order == 1
    assert report.collapsible == FOUND
    assert report.anticollapsible == REFUTED
    assert report.free_face_count > 0  # the complex itself collapses


def test_sphere_is_not_a_hypertree():
    X = from_facets(list(combinations((1, 2, 3, 4), 3)))
    report = is_hypertree(X, 2, rng_seed=1)
    assert not report.q_acyclic
    assert report.torsion_order == 0


def test_is_hypertree_checks_dimension():
    with pytest.raises(InputError):
        is_hypertree(from_facets([[1, 2]]), 2)
    # a hypertree has dimension at least 1, even where the collapse search
    # alone would succeed (a single vertex)
    for points in ([[1]], [[1], [2]]):
        with pytest.raises(InputError):
            is_hypertree(from_facets(points), 0)


def test_kalai_check_4_2():
    total, expected, ok = kalai_check(4, 2)
    assert (total, expected, ok) == (4, 4, True)


def test_kalai_check_5_2():
    total, expected, ok = kalai_check(5, 2)
    assert (total, expected, ok) == (125, 125, True)


def test_kalai_check_trees_cayley():
    for n in range(3, 7):
        total, expected, ok = kalai_check(n, 1)
        assert ok
        assert total == n ** (n - 2)


def test_kalai_check_guard():
    with pytest.raises(SizeError):
        kalai_check(8, 3)


def test_survey_reports_valid_hypertrees(tmp_path):
    csv_path = tmp_path / "survey.csv"
    summary = run_survey(6, 2, trials=25, rng_seed=42, csv_path=str(csv_path))
    assert summary.trials == 25
    assert summary.invalid_seeds == []
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("seed,facets,q_acyclic")
    assert len(lines) == 26


def test_survey_csv_is_closed_when_a_trial_raises(tmp_path, monkeypatch):
    opened, trials = [], []
    classify = hypertrees._classify

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    def failing_second_trial(*args, **kwargs):
        trials.append(args)
        if len(trials) == 2:
            raise RuntimeError("trial failed")
        return classify(*args, **kwargs)

    monkeypatch.setattr(hypertrees, "open", recording_open, raising=False)
    monkeypatch.setattr(hypertrees, "_classify", failing_second_trial)
    csv_path = tmp_path / "survey.csv"
    with pytest.raises(RuntimeError, match="trial failed"):
        run_survey(6, 2, trials=5, rng_seed=42, csv_path=str(csv_path))
    assert opened[0].closed
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("seed,facets")


def test_survey_builds_a_complex_only_when_read(monkeypatch):
    # a trial's report makes its complex from the tops on first read, and
    # it is the complex kruskal_generate makes for the trial's seed
    built = []
    setup = SimplicialComplex._setup

    def recording_setup(self, *args):
        built.append(self)
        setup(self, *args)

    monkeypatch.setattr(SimplicialComplex, "_setup", recording_setup)
    for n, d, trials, seed in SURVEY_CSV_SHA256:
        reports = list(survey(n, d, min(trials, 20), seed))
        assert not built
        for trial_seed, report in reports:
            assert digest(report.complex) == digest(kruskal_generate(n, d, trial_seed))
            assert report.complex is report.complex
        built.clear()


def test_survey_small_vertex_counts_always_collapsible():
    # nothing on at most seven vertices can resist the collapse search
    for seed, report in survey(5, 2, trials=100, rng_seed=9):
        assert report.q_acyclic
        assert report.collapsible == FOUND


def test_saturated_generator_rejects_every_leftover():
    # once C(4,2) = 6 faces are accepted at (5,2), the boundary has full
    # rank and any candidate still outside must close a rational cycle
    X = kruskal_generate(5, 2, rng_seed=123)
    assert X.n_faces(2) == 6
    for cand in combinations(range(1, 6), 3):
        if cand not in X.faces:
            assert adds_top_cycle(X, cand)


def test_survey_stream_is_seed_deterministic():
    first = [r.torsion_order for _, r in survey(6, 2, 10, rng_seed=77)]
    second = [r.torsion_order for _, r in survey(6, 2, 10, rng_seed=77)]
    assert first == second


def test_full_simplex_report_found_both_ways():
    report = is_hypertree(SimplicialComplex.simplex(4), 3)
    assert (report.collapsible, report.anticollapsible) == (FOUND, FOUND)


def test_q_cyclic_complex_on_the_spanning_fast_path():
    # complete 1-skeleton on [5] with C(4,2) = 6 triangles, four of which
    # bound the tetrahedron [1234]: the spanning shortcut applies and must
    # see the 2-cycle
    triangles = list(combinations((1, 2, 3, 4), 3)) + [(1, 2, 5), (3, 4, 5)]
    X = from_facets(triangles + list(combinations(range(1, 6), 2)))
    assert X.n_faces(2) == comb(4, 2)
    report = is_hypertree(X, 2, rng_seed=3)
    assert not report.q_acyclic
    assert report.torsion_order == 0


# sha256 of survey CSVs for fixed seeds: how classification answers must
# never change what a seeded survey writes
SURVEY_CSV_SHA256 = {
    (7, 2, 200, 11): "aa4c1cdcaf2d944630c1cbd8f3d102a720df585b56e908aef9962dec53d14b67",
    (8, 3, 200, 20250808): "07e005036b949c5181c19cd6c64e3673047739f1d52dd5e67095465630eeddad",
    # at most 25 faces above the vertices, where a greedy run that stops
    # proves the complex is not collapsible
    (5, 3, 200, 99): "037a02a6d5e6b79e3d88aab3ea9d243d0fe5410dadccd920d11535bc15e17087",
    (6, 2, 200, 99): "0c3ad2a2c6baa8e6d0992a98b01ca7cf7ff214b2a44e2e031daba118d272a8d6",
    # the edge pairs of the skeleton-built workbenches: X is the simplex and
    # its dual void at d = n - 1, the dual's tops are vertices at d = n - 2,
    # and the dual lies over a complete 4-skeleton at (9, 2)
    (4, 3, 20, 1): "b66197be78ce18878f65677b51c9aee033f089ccfd0fd373ecc8ff31aa7750e9",
    (6, 4, 200, 99): "7a42708eb401a1aa8ef1139b331374042b0040071a1e7a6b9c9ed744846a8e40",
    (9, 2, 100, 5): "ebefe3bd6e48a55996ddf8c0fef04d419e81b0b9671c050ee29f3314fdaf122b",
}


# in insertion order, so that new pins never renumber the earlier ids
@pytest.mark.parametrize("args", list(SURVEY_CSV_SHA256))
def test_survey_csv_is_pinned(args, tmp_path):
    csv_path = tmp_path / "survey.csv"
    run_survey(*args, csv_path=str(csv_path))
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == SURVEY_CSV_SHA256[args]


def test_classification_agrees_with_certificate_search():
    # FOUND must mean exactly that the public searches, with the same seeds,
    # return a certificate; the handpicked complexes
    # add cases where the search fails (a 1-cycle next to a triangle) or a
    # core refutes (the projective plane), and the duals of both, where the
    # same happens to the expansion
    cases = [(seed, r.complex) for seed, r in survey(7, 2, 30, rng_seed=2024)]
    cycle = from_facets([(1, 2, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    cases += [(1, cycle), (5, rp2()), (2, SimplicialComplex.simplex(4))]
    cases += [(3, alexander_dual(cycle)), (4, alexander_dual(rp2()))]
    outcomes, anti_outcomes = set(), set()
    for seed, X in cases:
        report = is_hypertree(X, X.dim, rng_seed=seed, restarts=8)
        outcomes.add(report.collapsible)
        anti_outcomes.add(report.anticollapsible)
        # refuted-by-core exactly when the erosion leaves top faces, which
        # is what d_collapsible records, found or not
        eroded = core_erosion(X)[1]
        assert report.d_collapsible == eroded
        assert (report.collapsible == REFUTED) == (not eroded)
        dual = alexander_dual(X)
        dual_stuck = dual.dim >= 1 and not core_erosion(dual)[1]
        assert (report.anticollapsible == REFUTED) == dual_stuck
        if report.collapsible != REFUTED:
            cert = search_collapse(X, rng_seed=seed, restarts=8)
            assert (report.collapsible == FOUND) == (cert is not None)
        if report.anticollapsible != REFUTED:
            anti = is_anticollapsible(X, rng_seed=_derive_seed(seed, 1), restarts=8)
            assert (report.anticollapsible == FOUND) == (anti is not None)
    assert outcomes == anti_outcomes == {FOUND, REFUTED, UNKNOWN}
