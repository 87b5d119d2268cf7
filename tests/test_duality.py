"""Dual complexes, transported certificates, and rank duality."""
from __future__ import annotations

from random import Random
from unittest import mock

import pytest

from anticollapse import duality
from anticollapse.collapse import (
    ANTICOLLAPSE,
    COLLAPSE,
    Certificate,
    StepPair,
    apply_step,
    free_faces,
    replay,
    search_collapse,
)
from anticollapse.complexes import (
    SimplicialComplex,
    digest,
    from_facets,
    parse_facet_text,
    relabeled,
)
from anticollapse.duality import (
    alexander_dual,
    check_alexander_duality,
    dual_certificate,
    dual_step,
    is_anticollapsible,
)
from anticollapse.errors import InputError, SizeError
from anticollapse.hypertrees import is_hypertree

from conftest import all_complexes_on, dual_by_enumeration, pure_complexes, random_complex


def test_dual_of_full_simplex_is_void():
    X = SimplicialComplex.simplex(4)
    dual = alexander_dual(X)
    assert not dual.faces
    assert dual.ground_set == X.ground_set


def test_dual_of_void_is_full_simplex():
    void = SimplicialComplex.void([1, 2, 3, 4])
    assert alexander_dual(void) == SimplicialComplex.simplex(4)


def test_dual_of_empty_complex_is_boundary():
    empty = SimplicialComplex.empty([1, 2, 3, 4])
    assert alexander_dual(empty) == SimplicialComplex.simplex_boundary(4)


def test_dual_of_single_vertex():
    # boundary of the simplex with one top-boundary face removed
    n = 5
    X = from_facets([[1]], ground=range(1, n + 1))
    dual = alexander_dual(X)
    boundary = SimplicialComplex.simplex_boundary(n)
    missing = tuple(range(2, n + 1))
    assert dual.faces == boundary.faces - {missing}


def test_dual_matches_enumeration_oracle(rng):
    cases = [random_complex(rng) for _ in range(80)] + pure_complexes()
    for X in cases:
        assert alexander_dual(X) == dual_by_enumeration(X)


def test_dual_involution_on_random_complexes(rng):
    for _ in range(80):
        X = random_complex(rng)
        assert alexander_dual(alexander_dual(X)) == X


def test_dual_involution_on_degenerate_complexes():
    for X in (
        SimplicialComplex.void([1, 2, 3]),
        SimplicialComplex.empty([1, 2, 3]),
        SimplicialComplex.simplex(3),
        SimplicialComplex.simplex_boundary(3),
    ):
        assert alexander_dual(alexander_dual(X)) == X


def test_step_duality_exhaustive_on_four_vertices():
    ground = (1, 2, 3, 4)
    checked = 0
    for X in all_complexes_on(ground):
        dual = alexander_dual(X)
        for step in free_faces(X):
            left = alexander_dual(apply_step(X, step))
            right = apply_step(dual, dual_step(step, X.ground_set), allow_trivial=True)
            assert left == right
            checked += 1
    assert checked > 100


def test_dual_certificate_of_triangle_collapse():
    X = SimplicialComplex.simplex(3)
    cert = search_collapse(X, rng_seed=3)
    assert cert is not None
    anti = dual_certificate(X, cert)
    assert anti.kind == ANTICOLLAPSE
    # the dual of the full simplex is void, and expansion ends at the simplex
    end = replay(alexander_dual(X), anti)
    assert end.is_simplex()
    # the first transported move is the bootstrap with empty free side
    assert anti.steps[0].free == ()


def test_dual_certificate_rejects_foreign_certificate():
    X = SimplicialComplex.simplex(3)
    cert = search_collapse(X, rng_seed=3)
    with pytest.raises(Exception):
        dual_certificate(SimplicialComplex.simplex(4), cert)


def test_dual_certificate_empty():
    X = from_facets([[1, 2], [2, 3]])
    from anticollapse.complexes import digest

    cert_empty = search_collapse(X, rng_seed=1, restarts=1)
    # build a zero-step certificate by hand and transport it
    from anticollapse.collapse import Certificate

    empty = Certificate(COLLAPSE, (), digest(X), digest(X))
    anti = dual_certificate(X, empty)
    assert anti.steps == ()
    assert cert_empty is not None  # the search itself also succeeds here


def test_is_anticollapsible_simplex_trivial():
    X = SimplicialComplex.simplex(4)
    cert = is_anticollapsible(X, rng_seed=1)
    assert cert is not None and len(cert) == 0


def test_is_anticollapsible_one_step_completion():
    # a path on three vertices expands to the full triangle in one move,
    # adding the missing edge together with the top face
    X = from_facets([[1, 3], [2, 3]])
    cert = is_anticollapsible(X, rng_seed=1)
    assert cert is not None
    assert len(cert) == 1
    assert cert.steps[0] == StepPair((1, 2), (1, 2, 3), ANTICOLLAPSE)
    end = replay(X, cert)
    assert end == SimplicialComplex.simplex(3)


def test_cycle_is_not_anticollapsible():
    # the hollow triangle is not contractible, so no expansion can exist
    X = SimplicialComplex.simplex_boundary(3)
    assert is_anticollapsible(X, rng_seed=1) is None


def test_anticollapse_certificates_on_random_collapsibles(rng):
    done = 0
    while done < 20:
        X = random_complex(rng)
        if not X.faces_of_dim(0):
            continue
        dual = alexander_dual(X)
        if not dual.faces_of_dim(0):
            continue
        cert = is_anticollapsible(X, rng_seed=rng.randrange(1 << 32), restarts=8)
        if cert is None:
            continue
        end = replay(X, cert)
        assert end.is_simplex()
        done += 1


def test_is_anticollapsible_replays_once():
    # the search's mask steps go straight into the transport, whose one
    # replay validates the expansion; nothing else is replayed
    X = from_facets([[1, 3], [2, 3], [3, 4, 5]])
    with mock.patch.object(duality, "replay", wraps=replay) as spy:
        cert = is_anticollapsible(X, rng_seed=1)
    assert cert is not None
    assert spy.call_count == 1
    assert replay(X, cert).is_simplex()


def test_dual_certificate_steps_are_dual_steps(rng):
    # dual_step states the step-duality lemma one move at a time; the
    # transport must give exactly its image of every input step, finished
    # by the complement (G - v, G) of the trivial collapse when the input
    # ends at a lone vertex v.  Labels are spread out and shifted so that
    # they differ from the bit positions.
    checked = 0
    while checked < 30:
        X = random_complex(rng, max_vertices=7)
        shift = rng.randrange(4)
        X = relabeled(X, {v: 2 * v + shift for v in X.ground_set})
        cert = search_collapse(X, rng_seed=rng.randrange(1 << 32), restarts=4)
        if cert is None:
            continue
        ground = X.ground_set
        # a prefix of the collapse, which may stop short of a lone vertex
        cut = rng.randrange(len(cert.steps) + 1)
        end = X
        for step in cert.steps[:cut]:
            end = apply_step(end, step)
        prefix = Certificate(COLLAPSE, cert.steps[:cut], digest(X), digest(end))
        for c in (cert, prefix):
            end = replay(X, c)
            expected = [dual_step(s, ground) for s in c.steps]
            final = alexander_dual(end)
            if len(end) == 2:  # a lone vertex v
                (v,) = next(iter(end.faces_of_dim(0)))
                whole = tuple(sorted(ground))
                expected.append(StepPair(tuple(sorted(ground - {v})), whole, ANTICOLLAPSE))
                final = from_facets([whole], ground=ground)
            anti = dual_certificate(X, c)
            assert list(anti.steps) == expected
            assert replay(alexander_dual(X), anti) == final
        checked += 1


def test_check_alexander_duality_two_points():
    X = from_facets([[1], [2]], ground=[1, 2, 3, 4])
    assert check_alexander_duality(X, "Q")
    # spelled out: reduced b0 of X is 1 and must equal b1 of the dual
    from anticollapse.homology import field_betti

    dual = alexander_dual(X)
    assert field_betti(X, 0, "Q") == 1
    assert field_betti(dual, 1, "Q") == 1


def test_check_alexander_duality_simplex():
    assert check_alexander_duality(SimplicialComplex.simplex(5), "Q")
    assert check_alexander_duality(SimplicialComplex.simplex(5), 2)


def test_check_alexander_duality_randoms():
    rng = Random(61)
    for _ in range(50):
        X = random_complex(rng)
        assert check_alexander_duality(X, "Q")
        assert check_alexander_duality(X, 2)


def test_check_alexander_duality_rejects_unknown_fields():
    X = from_facets([[1], [2]], ground=[1, 2, 3, 4])
    for field in ("nonsense", "R", 6):
        with pytest.raises(InputError):
            check_alexander_duality(X, field)


def test_is_anticollapsible_rejects_void():
    with pytest.raises(InputError):
        is_anticollapsible(SimplicialComplex.void([1, 2]), rng_seed=0)


def test_dual_searches_refuse_a_dual_past_the_size_bound():
    # 2^19 subsets of the ground set: the dual's workbench is refused
    # before its faces are built, by the expansion search and by the
    # classification alike
    X = parse_facet_text("ground 19\n1 2\n")
    message = "the dual would have more than 262144 faces"
    with pytest.raises(SizeError, match=message):
        is_anticollapsible(X)
    with pytest.raises(SizeError, match=message):
        is_hypertree(X, 1)


def test_dual_facets_correspond_under_double_cone():
    # facets of the dual of the double cone come from facets of the dual:
    # a facet keeps itself when it avoids the special vertex and otherwise
    # trades that vertex for both cone labels
    from anticollapse.constructions import (
        catalog,
        double_cone,
        double_cone_labels,
    )

    for name in ("Y28_2", "Y38_3"):
        X = catalog(name).complex
        for x in (1, 5):
            a, b = double_cone_labels(X, x)
            cone = double_cone(X, x)
            mapped = set()
            for f in alexander_dual(X).facets():
                if x in f:
                    mapped.add(tuple(sorted((a, b) + tuple(v for v in f if v != x))))
                else:
                    mapped.add(f)
            assert set(alexander_dual(cone).facets()) == mapped
