"""The incremental free-face index of the collapse workbench, checked after
every move against a rescan of the face set, and seeded outputs pinned."""
from __future__ import annotations

import hashlib
from contextlib import contextmanager
from random import Random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from anticollapse.collapse import (
    ANTICOLLAPSE,
    Certificate,
    StepPair,
    _collapse_masks,
    _greedy_collapse,
    _Workbench,
    core_erosion,
    free_faces,
    random_discrete_morse,
    replay,
)
from anticollapse.complexes import SimplicialComplex, digest, from_facets
from anticollapse.constructions import _witness, theorem2_construct
from anticollapse.duality import alexander_dual
from anticollapse.hypertrees import _kruskal, _spanning_workbenches, is_hypertree, kruskal_generate

from conftest import (
    complexes_grown_by_size,
    mask_view,
    pure_complexes,
    random_complex,
    rp2,
    small_search_complexes,
    top_free_faces,
)


def rescan_index(wb: _Workbench) -> dict[int, int]:
    """Every free face and its coface, from the present faces alone: a face
    is free when exactly one face covers it and nothing covers that face."""
    faces = mask_view(wb)[0]

    def covers(m: int) -> list[int]:
        n = len(wb.ground)
        return [m | (1 << i) for i in range(n) if not m >> i & 1 and m | (1 << i) in faces]

    index = {}
    for t in faces:
        up = covers(t)
        if len(up) == 1 and not covers(up[0]):
            index[t] = up[0]
    return index


def by_size(wb: _Workbench, index: dict[int, int]) -> list[set[int]]:
    """The free faces of a rescanned index as the workbench files them."""
    free: list[set[int]] = [set() for _ in range(len(wb.ground) + 1)]
    for t in index:
        free[t.bit_count()].add(t)
    return free


def assert_cofaces(wb: _Workbench, index: dict[int, int]) -> None:
    """The workbench's coface of every free cell is the rescanned one."""
    masks, ids = wb.cells.masks, wb.cells.index
    for t, c in index.items():
        assert masks[wb.coface(ids[t])] == c


def top_pairs(index: dict[int, int]) -> list[tuple[int, int]]:
    """The free pairs of a rescanned index whose coface size is maximal."""
    if not index:
        return []
    top = max(c.bit_count() for c in index.values())
    return sorted((t, c) for t, c in index.items() if c.bit_count() == top)


@contextmanager
def checked_moves():
    """Check the index of every workbench after each cell it removes, so
    within every move too; yields a one-element list counting the checked
    cells."""
    count = [0]
    remove = _Workbench._remove

    def checked(self, m):
        remove(self, m)
        index = rescan_index(self)
        assert mask_view(self)[2] == by_size(self, index)
        assert top_free_faces(self) == [t for t, _ in top_pairs(index)]
        assert_cofaces(self, index)
        count[0] += 1

    with mock.patch.object(_Workbench, "_remove", checked):
        yield count


def test_rescan_oracle_on_small_cases():
    X = SimplicialComplex.simplex(3)
    pairs = [(X.mask_of(edge), X.mask_of((1, 2, 3))) for edge in [(1, 2), (1, 3), (2, 3)]]
    assert top_pairs(rescan_index(_Workbench(X))) == pairs
    assert rescan_index(_Workbench(SimplicialComplex.simplex_boundary(3))) == {}
    assert rescan_index(_Workbench(rp2())) == {}


# The tests that check cofaces come before any greedy run: a greedy run that
# takes a wrong coface may never stop.


def test_index_matches_rescan_when_built():
    rng = Random(31)
    cases = [random_complex(rng, 7) for _ in range(60)] + pure_complexes()
    for X in cases + complexes_grown_by_size(5):
        wb = _Workbench(X)
        index = rescan_index(wb)
        assert mask_view(wb)[2] == by_size(wb, index)
        assert top_free_faces(wb) == [t for t, _ in top_pairs(index)]
        assert_cofaces(wb, index)
        face = X.face_of
        assert [(s.free, s.coface) for s in free_faces(X)] == [
            (face(t), face(c)) for t, c in sorted(index.items())]


def test_spanning_workbench_cofaces_match_rescan():
    # the survey's workbenches add their tops to a shared skeleton
    # workbench, and the dual's to another
    for n in range(2, 10):
        for d in range(1, n):
            for seed in range(3):
                for wb in _spanning_workbenches(n, d, _kruskal(n, d, seed)[0]):
                    if wb is not None:
                        index = rescan_index(wb)
                        assert mask_view(wb)[2] == by_size(wb, index)
                        assert_cofaces(wb, index)


def test_greedy_runs_on_random_complexes():
    rng = Random(8)
    with checked_moves() as count:
        for seed in range(40):
            X = random_complex(rng, 7)
            if X.faces_of_dim(0):
                _collapse_masks(_Workbench(X), seed, restarts=3)
    assert count[0] > 600


def test_greedy_runs_on_witness_duals():
    with checked_moves() as count:
        for d in range(2, 7):
            dual = alexander_dual(_witness(10, d)[0])
            _collapse_masks(_Workbench(dual), d, restarts=1)
    assert count[0] > 2000


def test_greedy_collapses_expand_back():
    # greedy collapses, then the same pairs in reverse order replayed as an
    # expansion certificate: X comes back
    rng = Random(12)
    tried = 0
    with checked_moves() as count:
        while tried < 25:
            X = random_complex(rng, 5)
            if not X.faces_of_dim(0):
                continue
            tried += 1
            wb = _Workbench(X)
            steps = _greedy_collapse(wb, Random(tried))
            end = wb.to_complex()
            face = X.face_of
            pairs = tuple(StepPair(face(t), face(c), ANTICOLLAPSE) for t, c in reversed(steps))
            assert replay(end, Certificate(ANTICOLLAPSE, pairs, digest(end), digest(X))) == X
    assert count[0] > 200


def reference_greedy(wb: _Workbench, rng: Random) -> list[tuple[int, int]]:
    """The greedy run through the workbench's methods: a seeded draw from
    the sorted top free faces at every step, until a lone vertex or no free
    face is left."""
    masks, index = wb.cells.masks, wb.cells.index
    steps = []
    while not wb.is_single_vertex():
        faces = top_free_faces(wb)
        if not faces:
            break
        t = index[faces[rng.randrange(len(faces))]]
        c = wb.coface(t)
        wb.collapse(t, c)
        steps.append((masks[t], masks[c]))
    return steps


def test_greedy_draws_as_the_reference():
    # same seeded draws, same steps, same end faces, and the generator left
    # in the same state
    cases = small_search_complexes()
    trees = [kruskal_generate(n, d, seed) for n, d in ((8, 3), (7, 2)) for seed in range(12)]
    cases += trees + [alexander_dual(X) for X in trees]
    for seed, X in enumerate(cases):
        wb, ref = _Workbench(X), _Workbench(X)
        rng, ref_rng = Random(seed), Random(seed)
        for _ in range(3):  # again from where the last run stopped
            assert _greedy_collapse(wb, rng) == reference_greedy(ref, ref_rng)
            faces = mask_view(wb)[0]
            assert faces == mask_view(ref)[0]
            assert rng.getstate() == ref_rng.getstate()
            if faces:
                wb._remove(wb.cells.index[max(faces)])
                ref._remove(ref.cells.index[max(faces)])


def test_core_erosion_on_the_index():
    rng = Random(5)
    cases = [random_complex(rng, 7) for _ in range(40)]
    trees = [kruskal_generate(8, 3, seed) for seed in range(5)]
    cases += trees + [alexander_dual(X) for X in trees]
    cases += [alexander_dual(_witness(10, d)[0]) for d in range(2, 7)]
    with checked_moves() as count:
        for X in cases:
            if X.dim >= 1:
                residue = core_erosion(X)[0]
                assert not mask_view(_Workbench(residue))[2][X.dim]
    assert count[0] > 600


@st.composite
def complexes(draw):
    n = draw(st.integers(1, 6))
    facets = draw(
        st.lists(st.sets(st.integers(1, n), min_size=1), min_size=1, max_size=6)
    )
    return from_facets([tuple(sorted(f)) for f in facets], ground=range(1, n + 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(complexes(), st.integers(0, 1 << 30))
def test_random_discrete_morse_removals(X, seed):
    with checked_moves() as count:
        vector, matching = random_discrete_morse(X, rng_seed=seed)
    assert count[0] == 2 * len(matching) + sum(vector.counts)


def test_free_face_count_of_hypertree_report():
    cases = [(kruskal_generate(7, 2, s), 2) for s in range(10)]
    cases += [(kruskal_generate(8, 3, s), 3) for s in range(10)]
    cases += [(rp2(), 2), (SimplicialComplex.simplex(4), 3)]
    for X, d in cases:
        assert is_hypertree(X, d).free_face_count == len(free_faces(X))


# sha256 of theorem2_construct(10, d)[1].to_json(): the certificates composed
# from the base certificates by the double-cone and stacking lemmas.  They
# depend on (n, d) only and involve no search.
WITNESS_CERT_SHA256 = {
    2: "5b0c3f0b0c92777a4f4e37faa5ee1d1f9f3ee12c529264d9ad8c803e279a710c",
    3: "b23769a9598e571c4258a76891822dad1a63e41c53ec16bbc0f84166a0792398",
    4: "28008271f521925c6079edd1d4244211c6f1559f9ba46fadd49790d67d3b0e93",
    5: "e1efde1ad67bca6912ff304e30457a6d36c0b982102383d18dccbc4d170faace",
    6: "b53840858415b4570a595d744b32efca6e5d3189c41fe4820dda0b186663e954",
}


def test_witness_certificates_pinned():
    for d, expected in WITNESS_CERT_SHA256.items():
        cert = theorem2_construct(10, d)[1]
        assert hashlib.sha256(cert.to_json().encode()).hexdigest() == expected


# (n, d, seed) -> Morse vector and sha256 of the sorted matching of
# random_discrete_morse on the dual of the (n, d) witness, pinned likewise.
MORSE_PINS = {
    (9, 4, 0): ((1, 0, 0, 0, 0), "b798919c271c30619312bf27f720e04a698eb1573d221ce68e7d99d4e46d7698"),
    (9, 4, 3): ((1, 0, 1, 1, 0), "b8220ab10e6ce92bca94909f145c6b6de5b7af724c511b4b07f85bc601f71910"),
    (9, 2, 1): ((1, 0, 0, 0, 0, 0, 0), "fc44942e024f9350cb39f307e1f843f3ffbf1beeb40f5fc9020353602832da29"),
    (10, 3, 2): ((1, 0, 0, 0, 0, 0, 0, 0), "f47b4b1a688331bbe9c2cbe89889e280e720198c084833fa5fa9229588688565"),
}


def test_random_discrete_morse_pinned():
    for (n, d, seed), (counts, expected) in MORSE_PINS.items():
        dual = alexander_dual(_witness(n, d)[0])
        vector, matching = random_discrete_morse(dual, rng_seed=seed)
        assert vector.counts == counts
        assert hashlib.sha256(repr(sorted(matching.pairs)).encode()).hexdigest() == expected
