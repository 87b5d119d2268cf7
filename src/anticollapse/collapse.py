"""Elementary collapses and expansions, with replayable certificates.

A free face is a nonempty face properly contained in exactly one other face;
removing the pair is an elementary collapse and adding such a pair is an
elementary anticollapse.  Orderings of such moves are recorded as
certificates whose replay re-validates every precondition and checks the
start and end digests, so a certificate is independently verifiable.
Replay and apply_step check each move on the plain set of face masks by
these definitions; the searches run on a workbench of their own, which
only removes cells, so a fault in one cannot pass a bad certificate in
both.

The one degenerate move, with the empty face as the free side, is
representable but gated behind a flag that replay always sets: it is only
legal when collapsing a lone vertex or when expanding the complex with no
faces, and it exists for bookkeeping under duality.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import compress
from random import Random
from typing import Collection, Optional

from .complexes import (
    EMPTY_FACE,
    Face,
    SimplicialComplex,
    digest,
    link_and_del,
)
from .errors import InputError, StepError

COLLAPSE = "collapse"
ANTICOLLAPSE = "anticollapse"


@dataclass(frozen=True)
class StepPair:
    free: Face
    coface: Face
    direction: str

    def __post_init__(self):
        if self.direction not in (COLLAPSE, ANTICOLLAPSE):
            raise InputError(f"unknown step direction {self.direction!r}")
        if len(self.coface) != len(self.free) + 1 or not set(self.free) <= set(self.coface):
            raise InputError(f"({self.free}, {self.coface}) is not a face/coface pair")

    def reversed(self) -> "StepPair":
        other = ANTICOLLAPSE if self.direction == COLLAPSE else COLLAPSE
        return StepPair(self.free, self.coface, other)


@dataclass(frozen=True)
class Certificate:
    """An ordered, replayable sequence of elementary moves of one kind."""

    kind: str
    steps: tuple[StepPair, ...]
    start_hash: str
    end_hash: str

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> str:
        """The text of json.dumps(payload, indent=1), written directly: with an
        indent, json falls back to its pure-Python encoder."""
        def face(f: Face) -> str:
            return "[\n    " + ",\n    ".join(map(str, f)) + "\n   ]" if f else "[]"

        head = "".join(f" {json.dumps(key)}: {json.dumps(value)},\n" for key, value in
                       (("kind", self.kind), ("start", self.start_hash), ("end", self.end_hash)))
        steps = ",\n".join(f"  [\n   {face(s.free)},\n   {face(s.coface)}\n  ]" for s in self.steps)
        return "{\n" + head + ' "steps": ' + (f"[\n{steps}\n ]" if steps else "[]") + "\n}"

    @staticmethod
    def from_json(text: str) -> "Certificate":
        try:
            payload = json.loads(text)
            kind = payload["kind"]
            if kind not in (COLLAPSE, ANTICOLLAPSE):
                raise InputError(f"unknown certificate kind {kind!r}")
            steps = tuple(StepPair(_face_of_json(free), _face_of_json(coface), kind)
                          for free, coface in payload["steps"])
            for key in ("start", "end"):
                if not isinstance(payload[key], str) or not re.fullmatch("[0-9a-f]{64}", payload[key]):
                    raise InputError(f"{key} digest must be 64 lowercase hex digits")
            return Certificate(kind, steps, payload["start"], payload["end"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed certificate: {exc}") from exc


def _face_of_json(vertices: object) -> Face:
    """A certificate's vertex list as a face, which it must already be:
    a list of ints, not booleans, that are at least 1 and strictly increase."""
    if not isinstance(vertices, list):
        raise InputError(f"a vertex list must be a list, got {type(vertices).__name__}")
    last = 0
    for v in vertices:
        if type(v) is not int or v <= last:
            raise InputError("vertex lists must be sorted integers without repeats")
        last = v
    return tuple(vertices)


@dataclass(frozen=True)
class Matching:
    """A set of face/coface pairs with every face in at most one pair."""

    pairs: frozenset[tuple[Face, Face]]

    def __post_init__(self):
        seen: set[Face] = set()
        for low, high in self.pairs:
            if len(high) != len(low) + 1 or not set(low) <= set(high):
                raise InputError(f"({low}, {high}) is not a face/coface pair")
            for f in (low, high):
                if f in seen:
                    raise InputError(f"face {f} appears in two pairs")
                seen.add(f)

    def __len__(self) -> int:
        return len(self.pairs)

    def matched_faces(self) -> frozenset[Face]:
        return frozenset(f for pair in self.pairs for f in pair)


@dataclass(frozen=True)
class MorseVector:
    """Critical cell counts per dimension from one acyclic matching."""

    counts: tuple[int, ...]

    def alternating_sum(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.counts))

    def is_point_vector(self) -> bool:
        return self.counts[:1] == (1,) and not any(self.counts[1:])

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.counts) + ")"


# -- collapse workbench -----------------------------------------------
#
# The searches run on a workbench of cells: the nonempty faces in a table
# (_Cells) that numbers them in ascending mask order and lists, for each,
# the ids of its codimension-one faces (below).  The empty face is never a
# cell.  A table never changes once built, so many workbenches share one: a
# complex's table is built with its workbench, and a survey trial's comes
# from a cache per (n, k) that holds the complete k-skeleton with every
# (k+1)-face as an absent cell (see hypertrees).  Ids only index the table;
# steps, faces and messages are masks.
#
# A workbench holds which cells are present, for each cell its degree (its
# present cofaces) and up, the XOR of those cofaces' ids, the present cells
# by size, and one index that every search engine reads (greedy search, the
# random collapse procedure, free_faces and core erosion): the free cells
# by size.  In a closed family a face is free exactly when it has degree 1
# (a face covering its one coface would give it a second), and then up is
# that coface.  Every move removes facets one at a time, keeping the family
# closed after each.  A facet has degree 0, and removing it changes degree
# and up only on the cells below it, so only they can enter the index (at
# degree 1) or leave it (at 0).
#
# A collapse (t, c) with t of k vertices removes two facets in turn, c and
# then t, so degrees fall only at sizes k and k - 1: the largest size with
# a free face never goes up, and a greedy run counts it down.  Ids follow
# the mask order, so the sorted free ids of one size are the sorted free
# masks, and a seeded draw picks the same face from either.


class _Cells:
    """A table of cells: masks, the nonempty face masks in ascending order,
    numbered by that order; index, mask to id; sizes, the vertex count of
    each (a face of 256 vertices has too many subfaces to hold, so a byte
    suffices); below[i], the ids of the nonempty codimension-one faces of
    cell i, which must all be cells.  It never changes once built, so
    workbenches share tables."""

    __slots__ = ("masks", "index", "sizes", "below")

    def __init__(self, masks: list[int]):
        self.masks = masks
        self.index = index = {m: i for i, m in enumerate(masks)}
        self.sizes = bytes(m.bit_count() for m in masks)
        self.below: list[tuple[int, ...]] = []
        for m in masks:
            ids = []
            if m & (m - 1):
                rest = m
                while rest:
                    b = rest & -rest
                    rest ^= b
                    ids.append(index[m ^ b])
            self.below.append(tuple(ids))


class _Workbench:
    __slots__ = ("cells", "ground", "present", "deg", "up", "free", "count")

    def __init__(self, X: SimplicialComplex, masks: Optional[Collection[int]] = None):
        """Every nonempty face of X, or of the closed family masks over the
        ground set of X, as a present cell."""
        cells = _Cells(sorted(m for m in (X._masks if masks is None else masks) if m))
        self._setup(X.ground_set, cells, bytearray(b"\1") * len(cells.masks))

    @classmethod
    def _of_cells(cls, ground: frozenset[int], cells: _Cells, present: bytearray) -> "_Workbench":
        """A workbench over a table with the given present cells, a closed
        family."""
        wb = cls.__new__(cls)
        wb._setup(ground, cells, present)
        return wb

    def _setup(self, ground: frozenset[int], cells: _Cells, present: bytearray) -> None:
        self.cells, self.ground, self.present = cells, ground, present
        self.deg = deg = [0] * len(present)
        self.up = up = [0] * len(present)
        for i, ids in compress(enumerate(cells.below), present):
            for j in ids:
                deg[j] += 1
                up[j] ^= i
        self.free: list[set[int]] = [set() for _ in range(len(ground) + 1)]
        self.count = [0] * (len(ground) + 1)  # present cells by size
        sizes = cells.sizes
        for i in compress(range(len(present)), present):
            self.count[sizes[i]] += 1
            if deg[i] == 1:
                self.free[sizes[i]].add(i)

    def copy(self) -> "_Workbench":
        """An independent workbench in the same state."""
        new = _Workbench.__new__(_Workbench)
        new.cells, new.ground = self.cells, self.ground
        new.present = self.present[:]
        new.deg = self.deg[:]
        new.up = self.up[:]
        new.free = [set(ts) for ts in self.free]
        new.count = self.count[:]
        return new

    def with_cells(self, ids: list[int]) -> "_Workbench":
        """A copy with the absent cells ids added, each with every cell below
        it present and no coface present, as in a closed family."""
        new = self.copy()
        present, deg, up, free, count = new.present, new.deg, new.up, new.free, new.count
        below, sizes = self.cells.below, self.cells.sizes
        for i in ids:
            present[i] = 1
            count[sizes[i]] += 1
            ts = free[sizes[i] - 1]
            for j in below[i]:
                k = deg[j] + 1
                deg[j] = k
                up[j] ^= i
                if k == 1:
                    ts.add(j)
                elif k == 2:
                    ts.discard(j)
        return new

    def _remove(self, i: int) -> None:
        """Remove the facet i: each cell below it loses one degree and i from
        its up, entering the index as it falls to 1 and leaving it at 0."""
        cells = self.cells
        self.present[i] = 0
        size = cells.sizes[i]
        self.count[size] -= 1
        free = self.free[size - 1]
        deg, up = self.deg, self.up
        for j in cells.below[i]:
            k = deg[j] - 1
            deg[j] = k
            up[j] ^= i
            if k == 1:
                free.add(j)
            elif not k:
                free.discard(j)

    def coface(self, t: int) -> int:
        """The one present coface of the free cell t."""
        if self.deg[t] == 1:
            return self.up[t]
        m = self.cells.masks[t]
        face = tuple(v for i, v in enumerate(sorted(self.ground)) if m >> i & 1)
        raise StepError(f"face {face} has no coface")

    def collapse(self, t: int, c: int) -> None:
        self._remove(c)
        self._remove(t)

    def top_size(self) -> int:
        """The largest size of a present cell; 0 with none."""
        return max((s for s, k in enumerate(self.count) if k), default=0)

    def is_single_vertex(self) -> bool:
        return self.count[1] == 1 and sum(self.count) == 1

    def masks(self) -> list[int]:
        """The present cells' masks, ascending."""
        return list(compress(self.cells.masks, self.present))

    def to_complex(self) -> SimplicialComplex:
        masks = self.masks()
        return SimplicialComplex._from_masks(self.ground, [0, *masks] if masks else ())


# -- step check --------------------------------------------------------


def _step(faces: set[int], X: SimplicialComplex, step: StepPair, allow_trivial: bool) -> None:
    """Check one elementary move on a closed set of face masks over the
    ground set of X, the empty face kept as 0, by the definitions alone,
    and make it in place; StepError names the first failed condition."""
    t, c = X.mask_of(step.free), X.mask_of(step.coface)
    face = X.face_of
    if step.direction == COLLAPSE:
        if t == 0:
            if not allow_trivial:
                raise StepError("the empty face may only collapse with the trivial flag")
            # the empty face is free with coface c when c is the only
            # vertex, so that the faces are 0 and c
            if faces != {0, c}:
                raise StepError("trivial collapse needs a single-vertex complex")
        else:
            if t not in faces:
                raise StepError(f"free face {face(t)} is not in the complex")
            if c not in faces:
                raise StepError(f"coface {face(c)} is not in the complex")
            # t is free when c is its only cover: no face t | b for a vertex
            # b outside c.  Then c is a facet, for a face covering c would
            # contain a second cover of t.
            rest = ((1 << len(X.ground_set)) - 1) & ~c
            while rest:
                b = rest & -rest
                rest ^= b
                if t | b in faces:
                    raise StepError(f"{face(t)} is not free with coface {face(c)}")
        faces.discard(c)
        faces.discard(t)
    else:
        if t in faces:
            raise StepError(f"added face {face(t)} is already present")
        if c in faces:
            raise StepError(f"added coface {face(c)} is already present")
        if t == 0 and not allow_trivial:
            raise StepError("the empty face may only expand with the trivial flag")
        # every facet of c but t must be present, so that t comes out free
        rest = c
        while rest:
            b = rest & -rest
            rest ^= b
            if c ^ b != t and c ^ b not in faces:
                raise StepError(
                    f"facet {face(c ^ b)} of {face(c)} is missing; "
                    "only the added free face may be absent"
                )
        faces.add(t)
        faces.add(c)


# -- public operations -------------------------------------------------


def free_faces(X: SimplicialComplex, allow_trivial: bool = False) -> list[StepPair]:
    """All currently available collapse pairs (free face, unique coface).

    The free side is contained in exactly one other face, which forces that
    face to be a facet one dimension up.  With the trivial flag, a lone
    vertex yields the pair (empty face, vertex).
    """
    wb = _Workbench(X)
    face, masks = X.face_of, wb.cells.masks
    free = sorted(t for ts in wb.free for t in ts)  # ids ascend with masks
    pairs = [StepPair(face(masks[t]), face(masks[wb.coface(t)]), COLLAPSE) for t in free]
    if allow_trivial and wb.is_single_vertex():
        pairs.append(StepPair(EMPTY_FACE, face(wb.masks()[0]), COLLAPSE))
    return pairs


def apply_step(
    X: SimplicialComplex, step: StepPair, allow_trivial: bool = False
) -> SimplicialComplex:
    """Apply one validated elementary move; the ground set never changes."""
    faces = set(X._masks)
    _step(faces, X, step, allow_trivial)
    return SimplicialComplex._from_masks(X.ground_set, faces)


def replay(X: SimplicialComplex, cert: Certificate) -> SimplicialComplex:
    """Replay a certificate from its start complex, revalidating every step.

    Raises StepError if any precondition or digest fails; returns the end
    complex on success.
    """
    if digest(X) != cert.start_hash:
        raise StepError("certificate start digest does not match the complex")
    faces = set(X._masks)
    for step in cert.steps:
        if step.direction != cert.kind:
            raise StepError("certificate mixes step directions")
        _step(faces, X, step, True)
    end = SimplicialComplex._from_masks(X.ground_set, faces)
    if digest(end) != cert.end_hash:
        raise StepError("certificate end digest does not match the replayed complex")
    return end


def certificate_matching(cert: Certificate) -> Matching:
    """The (acyclic) matching formed by a certificate's step pairs."""
    return Matching(frozenset((s.free, s.coface) for s in cert.steps if s.free))


def core_erosion(X: SimplicialComplex) -> tuple[SimplicialComplex, bool]:
    """Exhaust top-dimensional collapses and report d-collapsibility.

    Repeatedly removes a (d-1)-face lying in exactly one d-face together
    with that d-face, until no such pair remains.  The boolean is True iff
    no d-faces survive; when False, the top-dimensional part of the residue
    is a core (every (d-1)-face of it lies in at least two d-faces), which
    certifies that no collapse order can do better.
    """
    d = X.dim
    if d < 1:
        raise InputError("erosion needs a complex of dimension at least 1")
    wb = _Workbench(X)
    masks, index, below, deg = wb.cells.masks, wb.cells.index, wb.cells.below, wb.deg
    # The top core is the same for every order, but the faces left below it
    # are not.  The ridges, the free (d-1)-faces, are taken in the order a
    # set of their masks pops them, filled in the order of a set of the
    # faces of X and updated after each collapse as the free index is, so
    # the residue is the one test_core_erosion_residues_pinned pins.
    faces = set(X._masks)
    faces.discard(0)
    ridges = {m for m in faces if m.bit_count() == d and deg[index[m]] == 1}
    while ridges:
        t = index[ridges.pop()]
        c = wb.coface(t)
        wb.collapse(t, c)
        for j in below[c]:
            if deg[j] == 1:
                ridges.add(masks[j])
            elif not deg[j]:
                ridges.discard(masks[j])
    return wb.to_complex(), not wb.count[d + 1]


def _greedy_collapse(wb: _Workbench, rng: Random) -> list[tuple[int, int]]:
    """Randomized greedy collapses, a uniform free pair of top coface each,
    until a single vertex or no free pair is left; the steps taken, as
    masks.

    The top free size only goes down, so one counter tracks it: collapsing
    (t, c) with t of k vertices lowers degrees only on the faces of c, of
    size k, and on those of t, of size k - 1, so no larger face turns free.
    rng.choice(seq) draws seq[rng.randrange(len(seq))], from the same
    generator state."""
    steps: list[tuple[int, int]] = []
    masks, up, free = wb.cells.masks, wb.up, wb.free
    remove = wb._remove
    choice = rng.choice
    size = len(free) - 1
    while True:
        while size and not free[size]:
            size -= 1
        if not size:
            return steps
        t = choice(sorted(free[size]))
        c = up[t]  # t is free: its one present coface
        remove(c)
        remove(t)
        steps.append((masks[t], masks[c]))


# verdicts of the collapse search
FOUND = "found"
REFUTED = "refuted-by-core"
UNKNOWN = "unknown"


def _collapse_masks(
    wb: _Workbench, rng_seed: int, restarts: int
) -> tuple[str, _Workbench, list[tuple[int, int]]]:
    """The one collapse search, without building a certificate: seeded
    greedy restarts.  Returns the verdict with the end workbench and mask
    steps of the last run: FOUND when a run collapses to a vertex, REFUTED
    when a run stops with a face of the starting top size left and that
    size is at least 2, UNKNOWN otherwise.  wb must hold a vertex and is
    left as it was.

    A run that stops with a face of the starting top size left ends the
    search at once.  Greedy takes free ridges first, so every run does the
    whole top erosion, whose fixed point, the top core, does not depend on
    the order; a face of the core keeps every ridge at degree 2 or more, so
    no collapse order ever removes it.

    On a complex with at most 25 faces above the vertices, UNKNOWN also
    means not collapsible, so no exhaustive search could do better:
    - X has dimension at most 3, since a 4-simplex alone has 26 faces above
      its vertices.  A run stops only when no free face is left, and
      collapses keep the homotopy type.
    - If a run stops with the top core gone and X were collapsible, the
      rest S would be contractible, of dimension at most 2, not a point and
      without a free face.  Each component of the triangle part of S would
      then be Z-acyclic with every edge in at least 2 triangles, so
      v - e + t = 1 and 25 >= e + t >= 5(v - 1), hence v <= 6.
    - v = 6 puts every edge in exactly 2 triangles; the sum of all the
      triangles is then a 2-cycle over GF(2), which a Z-acyclic complex
      cannot have.
    - v <= 5 is ruled out by the brute force of
      test_stuck_family_search_agrees_with_brute_force at (5, 2).
    """
    top = wb.top_size()
    if not top:
        raise InputError("collapse search needs at least one vertex")
    rng = Random(rng_seed)
    for _ in range(max(1, restarts)):
        run = wb.copy()
        steps = _greedy_collapse(run, rng)
        if run.is_single_vertex():
            return FOUND, run, steps
        if run.count[top]:
            return (REFUTED if top > 1 else UNKNOWN), run, steps  # a nonempty top core
    return UNKNOWN, run, steps


def search_collapse(
    X: SimplicialComplex, rng_seed: int = 0, restarts: int = 64
) -> Optional[Certificate]:
    """Look for a full collapse of X to a single vertex.

    Randomized greedy (free pairs with top-dimensional coface, uniform
    choice) with seeded restarts (_collapse_masks).  Absence of a
    certificate is not a proof of non-collapsibility, except on complexes
    with at most 25 faces above the vertices, where a greedy run that
    stops already proves it.
    """
    verdict, end, steps = _collapse_masks(_Workbench(X), rng_seed, restarts)
    if verdict != FOUND:
        return None
    face = X.face_of
    pairs = tuple(StepPair(face(t), face(c), COLLAPSE) for t, c in steps)
    return Certificate(COLLAPSE, pairs, digest(X), digest(end.to_complex()))


def random_discrete_morse(
    X: SimplicialComplex, rng_seed: int = 0
) -> tuple[MorseVector, Matching]:
    """Random collapses dimension by dimension, deleting a random top face
    as a critical cell whenever no free pair exists, until nothing remains.

    Returns the per-dimension critical cell counts and the acyclic matching
    of collapsed pairs.  A run returning (1, 0, ..., 0) certifies
    collapsibility.
    """
    if not X.n_faces(0):
        raise InputError("the random collapse procedure needs at least one vertex")
    rng = Random(rng_seed)
    wb = _Workbench(X)
    face, sizes = X.face_of, wb.cells.sizes
    counts = [0] * (X.dim + 1)
    pairs: list[tuple[Face, Face]] = []
    while any(wb.count):
        pairs += [(face(t), face(c)) for t, c in _greedy_collapse(wb, rng)]
        if wb.is_single_vertex():
            counts[0] += 1
            wb._remove(wb.present.index(1))
        else:
            size = wb.top_size()
            top = [i for i, p in enumerate(wb.present) if p and sizes[i] == size]
            victim = top[rng.randrange(len(top))]
            counts[size - 1] += 1
            wb._remove(victim)
    return MorseVector(tuple(counts)), Matching(frozenset(pairs))


def verify_matching_acyclic(X: SimplicialComplex, matching: Matching) -> bool:
    """Decide acyclicity of the orientation induced by a matching.

    Unmatched cover edges point up and matched ones point down; a directed
    cycle must then alternate matched and unmatched edges between two
    consecutive dimensions (down-edges are never adjacent, and a cycle with
    as many ups as downs and no two adjacent downs alternates strictly).
    So it suffices to search the pair graph, with each pair named by its
    coface: pair p reaches pair q when the free face of p lies in the coface
    of q.
    """
    cofaces = {high for _, high in matching.pairs}
    reaches: dict[Face, list[Face]] = {}
    for low, high in sorted(matching.pairs):
        if low not in X or high not in X:
            raise InputError(f"pair ({low}, {high}) is not a face pair of the complex")
        ups = (tuple(sorted(low + (v,))) for v in X.ground_set - set(low))
        reaches[high] = [up for up in ups if up != high and up in cofaces]
    try:
        TopologicalSorter(reaches).prepare()
    except CycleError:
        return False
    return True


# -- non-evasiveness ---------------------------------------------------


def is_non_evasive(X: SimplicialComplex) -> bool:
    """Recursive vertex-elimination test.

    A single vertex passes; otherwise some vertex must have both its link
    and its deletion pass recursively.  Memoized, within one call, on the
    facet list, which fixes every face the recursion reads.
    """
    return _non_evasive(X, {})


def _non_evasive(X: SimplicialComplex, memo: dict[tuple, bool]) -> bool:
    support = X.support
    if not support:
        return False
    key = X.facets()
    if len(key) == 1:
        return True  # a simplex, a single vertex included, is a cone
    if key not in memo:
        memo[key] = any(
            _non_evasive(lk, memo) and _non_evasive(dl, memo)
            for lk, dl in (link_and_del(X, v) for v in sorted(support))
        )
    return memo[key]
