"""Shared generators, reference complexes and oracles for the test suite."""
from __future__ import annotations

import tempfile
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from random import Random

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from anticollapse.collapse import ANTICOLLAPSE, StepPair
from anticollapse.complexes import (
    Face,
    SimplicialComplex,
    _bits_of,
    _mask,
    from_facets,
    make_face,
)
from anticollapse.constructions import (
    catalog,
    double_cone_labels,
    load_base_case,
    stacking_move,
)
from anticollapse.errors import InputError
from anticollapse.homology import homology


def pytest_configure(config):
    # Hypothesis caches the constants it parses from local source files in
    # its home directory, even with derandomize=True and no example
    # database; keep that cache out of the checkout.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


def fraction_rank(dense: list[list[int]]) -> int:
    """Textbook Gaussian elimination over Q, used as an independent oracle."""
    rows = [[Fraction(v) for v in row] for row in dense]
    rank = 0
    col = 0
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    while rank < n_rows and col < n_cols:
        pivot = next((r for r in range(rank, n_rows) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(n_rows):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# Six-vertex triangulation of the real projective plane (antipodal quotient
# of the icosahedron): 6 vertices, 15 edges, 10 triangles, every edge in
# exactly two triangles.
RP2_FACETS = [
    (1, 2, 5),
    (1, 2, 6),
    (1, 3, 4),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 4),
    (2, 3, 6),
    (2, 4, 5),
    (3, 5, 6),
    (4, 5, 6),
]


def rp2() -> SimplicialComplex:
    return from_facets(RP2_FACETS)


def random_complex(rng: Random, max_vertices: int = 6) -> SimplicialComplex:
    """A random nonvoid complex on a ground set of up to max_vertices."""
    n = rng.randint(1, max_vertices)
    ground = list(range(1, n + 1))
    facets = []
    n_gen = rng.randint(1, max(2, n))
    for _ in range(n_gen):
        size = rng.randint(1, n)
        facets.append(tuple(sorted(rng.sample(ground, size))))
    return from_facets(facets, ground=ground)


def pure_complexes() -> list[SimplicialComplex]:
    """Seeded pure d-complexes, d = 1..3, with 3 to three quarters of the
    d-faces on 6 or 7 vertices: their top cores range from empty through
    partial erosions to the whole top."""
    rng = Random(23)
    cases = []
    for _ in range(30):
        n = rng.choice((6, 7))
        d = rng.randint(1, 3)
        tops = list(combinations(range(1, n + 1), d + 1))
        facets = rng.sample(tops, rng.randint(3, 3 * len(tops) // 4))
        cases.append(from_facets(facets, ground=range(1, n + 1)))
    return cases


def all_complexes_on(ground: tuple[int, ...]):
    """Every downward-closed family over a small ground set, void included."""
    yield SimplicialComplex.empty(ground)
    subsets = []
    for k in range(1, len(ground) + 1):
        subsets.extend(combinations(ground, k))
    total = len(subsets)
    for pick in range(1 << total):
        chosen = {subsets[i] for i in range(total) if pick >> i & 1}
        closed = True
        for f in chosen:
            for g in combinations(f, len(f) - 1):
                if g and g not in chosen:
                    closed = False
                    break
            if not closed:
                break
        if not closed:
            continue
        faces = set(chosen)
        if faces:
            faces.add(())
        yield SimplicialComplex(ground, faces)


def complexes_grown_by_size(n: int) -> list[SimplicialComplex]:
    """Every complex on {1..n} with a nonempty face, grown as down-sets one
    face size at a time: the faces of the next size are any nonempty set of
    the masks whose every face one size down is in the last layer.  On five
    vertices this lists 7,579 complexes where all_complexes_on would try
    2^31 families."""
    ground = range(1, n + 1)
    bits = [1 << i for i in range(n)]
    found = []

    def grow(faces: list[int], layer: list[int]) -> None:
        found.append(SimplicialComplex._from_masks(ground, faces))
        kept = set(layer)
        candidates = sorted({m | b for m in layer for b in bits if not m & b
                             and all((m | b) ^ c in kept for c in bits if (m | b) & c)})
        for pick in range(1, 1 << len(candidates)):
            chosen = [m for i, m in enumerate(candidates) if pick >> i & 1]
            grow(faces + chosen, chosen)

    for pick in range(1, 1 << n):
        vertices = [b for b in bits if pick & b]
        grow([0, *vertices], vertices)
    return found


def connected_components(X: SimplicialComplex) -> int:
    """Number of connected components of the support, via the 1-skeleton."""
    parent: dict[int, int] = {v: v for v in X.support}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, v) in X.faces_of_dim(1):
        parent[find(u)] = find(v)
    return len({find(v) for v in parent})


def adds_top_cycle(X: SimplicialComplex, sigma: Face) -> bool:
    """Would adding the face sigma close a rational cycle?  True iff its
    boundary column depends on those of the faces of its size in X, ranked
    by fraction_rank over dense columns, apart from the elimination engine."""
    d = len(sigma) - 1
    if sigma in X:
        raise InputError(f"{sigma} is already a face")
    for sub in combinations(sigma, d):
        if sub not in X:
            raise InputError(f"boundary face {sub} of {sigma} is missing")
    rows = {f: r for r, f in enumerate(sorted(X.faces_of_dim(d - 1)))}

    def column(f: Face) -> list[int]:
        dense = [0] * len(rows)
        for i in range(len(f)):
            dense[rows[f[:i] + f[i + 1:]]] = (-1) ** i
        return dense

    columns = [column(f) for f in sorted(X.faces_of_dim(d))]
    rank = fraction_rank([list(row) for row in zip(*columns)])
    columns.append(column(sigma))
    return fraction_rank([list(row) for row in zip(*columns)]) == rank


def collapses_by_definition(X: SimplicialComplex) -> bool:
    """Does some order of elementary collapses take X to a single vertex?
    Taken literally from the definition, "a nonempty face is free provided
    that it is a proper subset of exactly one other face", a collapse
    removing that face and the one above it: an exhaustive search over the
    families of vertex tuples reached, memoized, for small complexes only."""
    faces = [f for f in X.faces if f]
    above = {f: [g for g in faces if set(f) < set(g)] for f in faces}

    @lru_cache(maxsize=None)
    def collapses(family: frozenset[Face]) -> bool:
        if len(family) == 1:
            return True  # a closed family of one nonempty face is a vertex
        for f in family:
            cover = [g for g in above[f] if g in family]
            if len(cover) == 1 and collapses(family - {f, cover[0]}):
                return True
        return False

    return collapses(frozenset(faces))


def small_search_complexes() -> list[SimplicialComplex]:
    """Complexes with a vertex and at most 25 faces above the vertices:
    every one on 4 vertices, the fitting pure complexes, seeded random
    draws, the bowtie of two triangles, and a triangle beside a 1-cycle,
    whose top erodes although the complex does not collapse."""
    cases = [X for X in all_complexes_on((1, 2, 3, 4)) if X.support]
    rng = Random(3)
    cases += pure_complexes() + [random_complex(rng, 6) for _ in range(400)]
    cases.append(from_facets([(1, 2, 3), (3, 4, 5)]))
    cases.append(from_facets([(1, 2, 3), (3, 4), (4, 5), (5, 6), (4, 6)]))
    return [X for X in cases if X.support and sum(len(f) > 1 for f in X.faces) <= 25]


def mask_view(wb) -> tuple[set[int], dict[int, int], list[set[int]]]:
    """A collapse workbench read through its masks: the present faces, the
    degree of each, and the free faces by size."""
    masks = wb.cells.masks
    present = [i for i, p in enumerate(wb.present) if p]
    faces = {masks[i] for i in present}
    deg = {masks[i]: wb.deg[i] for i in present}
    return faces, deg, [{masks[i] for i in ts} for ts in wb.free]


def top_free_faces(wb) -> list[int]:
    """The free faces of the largest size that has any in a collapse
    workbench, as sorted masks: the list a greedy step draws from."""
    for ts in reversed(mask_view(wb)[2]):
        if ts:
            return sorted(ts)
    return []


def torsion_order(X: SimplicialComplex, d: int) -> int:
    """|H_(d-1)(X)| from the integer normal form (must be finite)."""
    profile = homology(X)
    i = d - 1
    if i < 0 or i >= len(profile.betti):
        return 1
    if profile.betti[i] != 0:
        raise InputError("torsion order is only defined when the group is finite")
    return prod(profile.torsion[i])


def dual_by_enumeration(X: SimplicialComplex) -> SimplicialComplex:
    """Subset-enumeration oracle for the dual; guarded to small ground sets."""
    ground = sorted(X.ground_set)
    if len(ground) > 16:
        raise InputError("enumeration oracle is limited to 16 ground vertices")
    faces = set()
    for size in range(len(ground) + 1):
        for sub in combinations(ground, size):
            comp = tuple(sorted(set(ground) - set(sub)))
            if comp not in X.faces:
                faces.add(sub)
    return SimplicialComplex(X.ground_set, faces)


def relabeled_by_faces(X: SimplicialComplex, mapping: dict[int, int]) -> SimplicialComplex:
    """complexes.relabeled through the face tuples: every face of X.faces
    masked again over the moved labels; the oracle for the mask map."""
    moves = {v: mapping.get(v, v) for v in X.ground_set}
    ground = make_face(set(moves.values()))
    if len(ground) != len(X.ground_set):
        raise InputError("relabeling is not injective on the ground set")
    bits = _bits_of(ground)
    moved = {v: bits[w] for v, w in moves.items()}
    return SimplicialComplex._from_masks(ground, {_mask(moved, f) for f in X.faces})


@lru_cache(maxsize=None)
def witness_by_tuples(n: int, d: int) -> tuple[SimplicialComplex, tuple[StepPair, ...]]:
    """The witness of an admissible pair and its expansion steps, composed
    on face tuples with StepPairs at every level, the double cone through
    relabeled_by_faces: the oracle for constructions._witness's masks."""
    if n == 8:
        base = load_base_case(d) if d < 4 else catalog("dual_Y28_2")
        return base.complex, base.certificate.steps

    def step(free: tuple[int, ...], coface: tuple[int, ...]) -> StepPair:
        return StepPair(tuple(sorted(free)), tuple(sorted(coface)), ANTICOLLAPSE)

    if d >= 3:
        W, inner = witness_by_tuples(n - 1, d - 1)
        x = min(W.support)
        a, b = double_cone_labels(W, x)
        facets = [f + (a,) for f in relabeled_by_faces(W, {x: b}).facets()]
        facets += [f + (b,) for f in relabeled_by_faces(W, {x: a}).facets()]
        X = from_facets(facets, ground=(W.ground_set - {x}) | {a, b})
        rest = sorted(X.ground_set - {a, b})
        steps = [step(S, S + (a,)) for k in range(len(rest) + 1)
                 for S in combinations(rest, k) if S not in W]
        steps += [StepPair(s.free + (b,), s.coface + (b,), ANTICOLLAPSE) for s in inner]
        return X, tuple(steps)
    W, inner = witness_by_tuples(n - 1, 2)
    sigma = min(W.faces_of_dim(2))
    X = stacking_move(W, sigma)
    (v,) = X.ground_set - W.ground_set
    w = sigma[0]
    rest = sorted(X.ground_set - {v, w})
    steps = [step(sigma, sigma + (v,)), *inner]
    steps += [step(t + (v,), t + (v, w)) for k in range(1, len(rest) + 1)
              for t in combinations(rest, k) if not set(t) <= set(sigma)]
    return X, tuple(steps)


@pytest.fixture
def rng() -> Random:
    return Random(0xC0FFEE)
