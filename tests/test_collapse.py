"""Elementary moves, certificates, erosion, search, and matchings."""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from random import Random
from unittest import mock

import pytest

from anticollapse import collapse
from anticollapse.collapse import (
    ANTICOLLAPSE,
    COLLAPSE,
    Certificate,
    Matching,
    StepPair,
    apply_step,
    certificate_matching,
    core_erosion,
    free_faces,
    is_non_evasive,
    random_discrete_morse,
    replay,
    search_collapse,
    verify_matching_acyclic,
)
from anticollapse.complexes import (
    SimplicialComplex,
    from_facets,
    link_and_del,
)
from anticollapse.constructions import _witness, catalog, load_base_case
from anticollapse.duality import alexander_dual, is_anticollapsible
from anticollapse.errors import InputError, StepError
from anticollapse.homology import homology
from anticollapse.hypertrees import _derive_seed, is_hypertree

from conftest import (
    all_complexes_on,
    collapses_by_definition,
    pure_complexes,
    random_complex,
    rp2,
    small_search_complexes,
)


def test_free_faces_of_full_triangle():
    X = SimplicialComplex.simplex(3)
    pairs = free_faces(X)
    assert {(p.free, p.coface) for p in pairs} == {
        ((1, 2), (1, 2, 3)),
        ((1, 3), (1, 2, 3)),
        ((2, 3), (1, 2, 3)),
    }


def test_free_faces_of_cycle_empty():
    assert free_faces(SimplicialComplex.simplex_boundary(3)) == []


def test_free_faces_trivial_flag():
    point = from_facets([[1]])
    assert free_faces(point) == []
    pairs = free_faces(point, allow_trivial=True)
    assert [(p.free, p.coface) for p in pairs] == [((), (1,))]


def test_apply_collapse_on_triangle():
    X = SimplicialComplex.simplex(3)
    step = StepPair((1, 2), (1, 2, 3), COLLAPSE)
    Y = apply_step(X, step)
    assert Y == from_facets([[1, 3], [2, 3]])


def test_apply_anticollapse_restores_triangle():
    path = from_facets([[1, 3], [2, 3]])
    step = StepPair((1, 2), (1, 2, 3), ANTICOLLAPSE)
    assert apply_step(path, step) == SimplicialComplex.simplex(3)


def test_apply_step_rejects_non_free_vertex():
    X = SimplicialComplex.simplex(3)
    with pytest.raises(StepError):
        apply_step(X, StepPair((1,), (1, 2), COLLAPSE))


def test_apply_step_rejects_expansion_with_missing_facet():
    X = from_facets([[1, 2]], ground=[1, 2, 3])
    with pytest.raises(StepError):
        apply_step(X, StepPair((1, 3), (1, 2, 3), ANTICOLLAPSE))


def test_apply_step_rejects_vertex_outside_ground():
    X = from_facets([[1, 2]])
    with pytest.raises(InputError):
        apply_step(X, StepPair((1, 3), (1, 2, 3), ANTICOLLAPSE))


def test_step_pair_shape_validated():
    with pytest.raises(InputError):
        StepPair((1,), (2, 3), COLLAPSE)
    with pytest.raises(InputError):
        StepPair((1,), (1, 2, 3), COLLAPSE)
    with pytest.raises(InputError):
        StepPair((1,), (1, 2), "sideways")


def test_trivial_steps_are_gated():
    point = from_facets([[1]])
    trivial = StepPair((), (1,), COLLAPSE)
    with pytest.raises(StepError):
        apply_step(point, trivial)
    gone = apply_step(point, trivial, allow_trivial=True)
    assert not gone.faces  # the void complex
    back = apply_step(gone, StepPair((), (1,), ANTICOLLAPSE), allow_trivial=True)
    assert back == point or back.faces == point.faces


def test_trivial_expansion_needs_the_void_complex():
    # the empty complex holds the empty face, so (empty face, v) cannot be
    # added to it; only the complex with no faces expands to a point
    with pytest.raises(StepError, match=r"^added face \(\) is already present$"):
        apply_step(SimplicialComplex.empty([1]), StepPair((), (1,), ANTICOLLAPSE),
                   allow_trivial=True)


def test_steps_agree_with_free_faces_and_the_dual():
    # every step (t, c) with c = t plus one vertex, in both directions: a
    # collapse is legal iff free_faces lists it, an expansion iff its
    # transport (V - c, V - t) is a free pair of the dual, and a legal step
    # removes or adds just the pair
    cases = [X for n in range(1, 5) for X in all_complexes_on(tuple(range(1, n + 1)))]
    checked = 0
    for X in cases + pure_complexes():
        V = sorted(X.ground_set)

        def rest(f):
            return tuple(v for v in V if v not in f)

        pairs = {(s.free, s.coface) for s in free_faces(X, True)}
        dual_pairs = {(s.free, s.coface) for s in free_faces(alexander_dual(X), True)}
        for k in range(len(V)):
            for t in combinations(V, k):
                for c in (tuple(sorted(t + (v,))) for v in rest(t)):
                    for direction, legal, faces in (
                        (COLLAPSE, (t, c) in pairs, X.faces - {t, c}),
                        (ANTICOLLAPSE, (rest(c), rest(t)) in dual_pairs, X.faces | {t, c}),
                    ):
                        try:
                            Y = apply_step(X, StepPair(t, c, direction), allow_trivial=True)
                        except StepError:
                            Y = None
                        assert (Y is not None) == legal, (X.facets(), t, c, direction)
                        assert Y is None or Y.faces == faces
                        checked += 1
    assert checked > 30000


def test_euler_and_homology_invariant_under_steps():
    rng = Random(3)
    checked = 0
    while checked < 60:
        X = random_complex(rng)
        pairs = free_faces(X)
        if not pairs:
            continue
        step = pairs[rng.randrange(len(pairs))]
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
        # and back again via the inverse expansion
        back = apply_step(Y, step.reversed())
        assert back == X
        checked += 1


def test_replay_matches_stepwise_application(rng):
    done = 0
    while done < 10:
        X = random_complex(rng)
        if not X.faces_of_dim(0):
            continue
        cert = search_collapse(X, rng_seed=rng.randrange(1 << 32), restarts=4)
        if cert is None:
            continue
        stepwise = X
        for step in cert.steps:
            stepwise = apply_step(stepwise, step)
        assert replay(X, cert) == stepwise
        done += 1


def test_certificate_round_trip_json():
    X = SimplicialComplex.simplex(3)
    cert = search_collapse(X, rng_seed=5)
    assert cert is not None
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    replay(X, again)


def test_certificate_json_matches_indented_dumps(rng):
    # to_json writes the bytes of json.dumps(payload, indent=1) directly
    def dumps(cert):
        payload = {
            "kind": cert.kind,
            "start": cert.start_hash,
            "end": cert.end_hash,
            "steps": [[list(s.free), list(s.coface)] for s in cert.steps],
        }
        return json.dumps(payload, indent=1)

    start = "0" * 64
    certs = [
        Certificate(COLLAPSE, (), start, "f" * 64),
        Certificate(ANTICOLLAPSE, (StepPair((), (1,), ANTICOLLAPSE),), start, start),
    ]
    for _ in range(30):
        cert = search_collapse(random_complex(rng), rng_seed=rng.randrange(100))
        if cert is not None:
            certs.append(cert)
            certs.append(Certificate(ANTICOLLAPSE, tuple(s.reversed() for s in cert.steps),
                                     cert.end_hash, cert.start_hash))
    assert len(certs) > 10
    for cert in certs:
        assert cert.to_json() == dumps(cert)
        assert Certificate.from_json(cert.to_json()) == cert


def test_replay_validates_digests():
    X = SimplicialComplex.simplex(3)
    cert = search_collapse(X, rng_seed=5)
    other = SimplicialComplex.simplex(4)
    with pytest.raises(StepError):
        replay(other, cert)


def test_core_erosion_of_tree():
    tree = from_facets([[1, 2], [2, 3], [2, 4]])
    residue, collapsible = core_erosion(tree)
    assert collapsible
    assert residue.dim == 0


def test_core_erosion_of_cycle():
    X = SimplicialComplex.simplex_boundary(3)
    residue, collapsible = core_erosion(X)
    assert not collapsible
    assert residue == X  # it is its own core


def peel_top_core(X: SimplicialComplex) -> set[tuple[int, ...]]:
    """The top core by definition: drop every d-face with a ridge in no
    other d-face, all at once, until no d-face has such a ridge."""
    d = X.dim
    core = set(X.faces_of_dim(d))
    while True:
        count = Counter(r for f in core for r in combinations(f, d))
        peeled = {f for f in core if any(count[r] == 1 for r in combinations(f, d))}
        if not peeled:
            return core
        core -= peeled


def test_core_erosion_matches_peeling():
    rng = Random(19)
    cases = []
    while len(cases) < 25:
        X = random_complex(rng, max_vertices=7)
        if X.dim >= 1:
            cases.append(X)
    pure = pure_complexes()
    # several of them erode only partly
    assert sum(0 < len(peel_top_core(X)) < X.n_faces(X.dim) for X in pure) >= 5
    C = catalog("C38_3").complex
    cases += pure + [C, alexander_dual(C)]
    cases += [alexander_dual(_witness(10, d)[0]) for d in range(2, 7)]
    for X in cases:
        d = X.dim
        core = peel_top_core(X)
        residue, collapsible = core_erosion(X)
        assert set(residue.faces_of_dim(d)) == core
        assert collapsible == (not core)
        # each collapse takes one d-face and one (d-1)-face
        counts = [X.n_faces(k) for k in range(d + 1)]
        counts[d - 1] -= counts[d] - len(core)
        counts[d] = len(core)
        assert [residue.n_faces(k) for k in range(d + 1)] == counts


def test_search_collapse_simplices_first_attempt():
    for n in range(1, 8):
        cert = search_collapse(SimplicialComplex.simplex(n), rng_seed=1, restarts=1)
        assert cert is not None
        end = replay(SimplicialComplex.simplex(n), cert)
        assert end.n_faces(0) == 1 and len(end.faces) == 2


def test_search_collapse_fails_on_cycle():
    assert search_collapse(SimplicialComplex.simplex_boundary(3), rng_seed=2) is None


def test_search_certificates_replay_and_match(rng):
    produced = 0
    while produced < 25:
        X = random_complex(rng)
        if not X.faces_of_dim(0):
            continue
        cert = search_collapse(X, rng_seed=rng.randrange(1 << 32), restarts=8)
        if cert is None:
            continue
        end = replay(X, cert)
        assert end.n_faces(0) == 1
        matching = certificate_matching(cert)
        assert verify_matching_acyclic(X, matching)
        produced += 1


def test_search_collapse_deterministic_given_seed():
    X = from_facets([[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 3, 5]])
    a = search_collapse(X, rng_seed=99)
    b = search_collapse(X, rng_seed=99)
    assert a == b


@contextmanager
def counted_search():
    """Count the greedy runs of the collapse search; yields a one-element
    list."""
    runs = [0]
    real = collapse._greedy_collapse

    def counted(*args):
        runs[0] += 1
        return real(*args)

    with mock.patch.object(collapse, "_greedy_collapse", counted):
        yield runs


def test_search_stops_at_a_stuck_top_core():
    # one greedy run reaches the top core, which no collapse removes, so no
    # restart follows it
    stuck = [X for X in pure_complexes() if peel_top_core(X)]
    stuck += [rp2(), load_base_case(2).complex]
    for seed, X in enumerate(stuck):
        with counted_search() as runs:
            assert search_collapse(X, rng_seed=seed, restarts=64) is None
        assert runs == [1]


def test_search_restarts_when_the_top_erodes():
    # the triangle erodes and the 1-cycle is left below the top: every
    # restart runs
    X = from_facets([(1, 2, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    with counted_search() as runs:
        assert search_collapse(X, rng_seed=1, restarts=8) is None
    assert runs == [8]


def test_classification_runs_the_search_of_search_collapse():
    # is_hypertree decides both flags with the searches of search_collapse
    # on X and of is_anticollapsible on its dual, run by run
    X = from_facets([(1, 2, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    with counted_search() as searched:
        search_collapse(X, rng_seed=1, restarts=8)
        is_anticollapsible(X, rng_seed=_derive_seed(1, 1), restarts=8)
    with counted_search() as classified:
        is_hypertree(X, 2, rng_seed=1, restarts=8)
    assert classified == searched


def test_collapsible_complexes_are_integrally_acyclic(rng):
    found = 0
    while found < 15:
        X = random_complex(rng)
        if not X.faces_of_dim(0):
            continue
        cert = search_collapse(X, rng_seed=rng.randrange(1 << 32), restarts=4)
        if cert is None:
            continue
        assert homology(X).is_trivial()
        found += 1


def test_one_greedy_run_decides_small_complexes():
    # with at most 25 faces above the vertices, a greedy run that stops
    # proves the complex is not collapsible (_collapse_masks), so one
    # restart agrees with the exhaustive search by the definition
    cases = small_search_complexes()
    verdicts = []
    for seed, X in enumerate(cases):
        verdict = collapses_by_definition(X)
        assert (search_collapse(X, rng_seed=seed, restarts=1) is not None) == verdict
        verdicts.append(verdict)
    assert len(set(verdicts)) == 2


# sha256 over small_search_complexes(), seed i and 4 restarts for the i-th:
# its search_collapse and is_anticollapsible certificates (or None) and its
# is_hypertree flags, so the searches decide these complexes as pinned
SMALL_SEARCH_SHA256 = "c7623634f4f0127a686e1c3c5269237a149846e66993cce7bf1590d7a6de8558"


def test_small_searches_pinned():
    lines = []
    for seed, X in enumerate(small_search_complexes()):
        certs = (search_collapse(X, rng_seed=seed, restarts=4),
                 is_anticollapsible(X, rng_seed=seed, restarts=4))
        row = [cert and cert.to_json() for cert in certs]
        if X.dim >= 1:
            r = is_hypertree(X, X.dim, rng_seed=seed, restarts=4)
            row.append((r.collapsible, r.anticollapsible, r.d_collapsible, r.free_face_count))
        lines.append(repr(row))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SMALL_SEARCH_SHA256


def test_rdm_single_vertex():
    vector, matching = random_discrete_morse(from_facets([[1]]), rng_seed=9)
    assert vector.counts == (1,)
    assert len(matching) == 0


def test_rdm_on_simplex_never_sticks():
    for k in range(1, 7):
        X = SimplicialComplex.simplex(k + 1)
        for seed in range(10):
            vector, _ = random_discrete_morse(X, rng_seed=seed)
            assert vector.is_point_vector()


def test_rdm_alternating_sum_matches_euler(rng):
    for _ in range(30):
        X = random_complex(rng)
        if not X.faces_of_dim(0):
            continue
        vector, matching = random_discrete_morse(X, rng_seed=rng.randrange(1 << 32))
        assert vector.alternating_sum() == 1 + X.euler_characteristic()
        assert verify_matching_acyclic(X, matching)


def test_matching_rejects_double_use():
    with pytest.raises(InputError):
        Matching(frozenset({((1,), (1, 2)), ((1,), (1, 3))}))


def test_matching_rejects_non_cover_pairs():
    with pytest.raises(InputError):
        Matching(frozenset({((1,), (2, 3))}))


def test_verify_matching_needs_faces_of_complex():
    X = from_facets([[1, 2]])
    with pytest.raises(InputError):
        verify_matching_acyclic(X, Matching(frozenset({((3,), (3, 4))})))


def test_chasing_matching_on_cycle_is_cyclic():
    # all three vertex-edge pairs around a triangle chase one another:
    # e12 -> v1 -> e13 -> v3 -> e23 -> v2 -> e12 is a directed cycle
    X = SimplicialComplex.simplex_boundary(3)
    chase = Matching(
        frozenset({((1,), (1, 2)), ((2,), (2, 3)), ((3,), (1, 3))})
    )
    assert not verify_matching_acyclic(X, chase)
    mirrored = Matching(
        frozenset({((2,), (1, 2)), ((3,), (2, 3)), ((1,), (1, 3))})
    )
    assert not verify_matching_acyclic(X, mirrored)


def test_two_pair_matching_on_cycle_is_acyclic():
    X = SimplicialComplex.simplex_boundary(3)
    partial = Matching(frozenset({((1,), (1, 2)), ((3,), (2, 3))}))
    assert verify_matching_acyclic(X, partial)


def _non_evasive_oracle(X) -> bool:
    """Direct recursion with no memoization; only usable on tiny inputs."""
    support = X.support
    if not support:
        return False
    if len(support) == 1:
        return True
    for v in sorted(support):
        lk, dl = link_and_del(X, v)
        if _non_evasive_oracle(lk) and _non_evasive_oracle(dl):
            return True
    return False


def test_non_evasive_known_values():
    assert is_non_evasive(from_facets([[1, 2], [2, 3], [3, 4]]))
    assert is_non_evasive(from_facets([[1, 2], [1, 3], [1, 4], [4, 5]]))
    for k in range(1, 6):
        assert is_non_evasive(SimplicialComplex.simplex(k))
    assert not is_non_evasive(SimplicialComplex.simplex_boundary(3))


def test_non_evasive_matches_oracle_on_randoms(rng):
    for _ in range(40):
        X = random_complex(rng, max_vertices=5)
        assert is_non_evasive(X) == _non_evasive_oracle(X)


# is_non_evasive on seeded draws with 6 or 7 vertices in their support,
# taken while the memo was keyed on a canonical relabeling: 1 = non-evasive
NON_EVASIVE_PIN = "1111101111111111001111111111011001111111"


def test_non_evasive_is_pinned_on_six_and_seven_vertices():
    rng = Random(2)
    picked = []
    while len(picked) < len(NON_EVASIVE_PIN):
        X = random_complex(rng, max_vertices=7)
        if len(X.support) >= 6:
            picked.append(X)
    assert "".join("1" if is_non_evasive(X) else "0" for X in picked) == NON_EVASIVE_PIN


def test_non_evasive_implies_collapsible_small(rng):
    found = 0
    while found < 15:
        X = random_complex(rng, max_vertices=6)
        if not X.faces_of_dim(0) or not is_non_evasive(X):
            continue
        assert search_collapse(X, rng_seed=7, restarts=16) is not None
        found += 1
