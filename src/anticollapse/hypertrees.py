"""Random generation and classification of rationally acyclic complexes.

A d-dimensional hypertree on n vertices (here always with complete (d-1)-
skeleton when generated) is a complex with vanishing reduced rational
homology everywhere: the d-dimensional analogue of a spanning tree.  The
generator processes the candidate top faces in a seeded random order and
keeps exactly those that do not create a rational cycle, stopping at the
spanning count C(n-1, d).  The processing order is not a uniform sampler
over hypertrees.

The generator's elimination already holds the invariant factors of the
top boundary map of what it keeps, so a survey trial takes |H_(d-1)| from
it; is_hypertree, given any complex, computes the torsion itself.
Classification only asks whether a complex and its dual collapse, so it
runs the collapse searches without building any certificate or dual
complex; callers that want one use search_collapse or is_anticollapsible.

A survey trial rebuilds nothing that depends on (n, d) alone: the
candidates' boundary columns and the complete skeletons under X and under
its dual are made once and copied.  A set is a face of the dual exactly
when its complement is not a face of X, so the dual of the complete
(d-1)-skeleton with the top set T is the complete (n-d-3)-skeleton with
the complements of the d-faces outside T.
"""
from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, prod
from random import Random
from typing import Iterable, Iterator, Optional

from .collapse import FOUND, REFUTED, UNKNOWN, _Workbench, _collapse_masks
from .complexes import SimplicialComplex, check_face_count
from .duality import _check_dual_size, _dual_collapse, _dual_masks
from .errors import InputError, SizeError
from .homology import (
    IncrementalRank,
    _mask_column,
    homology,
    smith_invariant_factors,
)


def _derive_seed(master: int, counter: int) -> int:
    return (master * 6364136223846793005 + counter * 1442695040888963407 + 1) % (1 << 63)


def complete_skeleton(n: int, d: int) -> list[int]:
    """Masks of the d-faces on {1..n} (bit i is vertex i + 1) in the
    lexicographic order of their vertex tuples, which seeded draws index:
    (1, 4) = 0b1001 comes before (2, 3) = 0b0110."""
    return [sum(c) for c in combinations([1 << i for i in range(n)], d + 1)]


@lru_cache(maxsize=8)
def _skeleton(n: int, k: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """complete_skeleton(n, k) and the row index of its masks, made once per
    (n, k) and shared: callers must not change them."""
    masks = tuple(complete_skeleton(n, k))
    return masks, {m: i for i, m in enumerate(masks)}


@lru_cache(maxsize=8)
def _skeleton_cells(n: int, k: int) -> tuple[frozenset[int], dict[int, int]]:
    """The nonempty faces of the complete k-skeleton on {1..n} and their
    coface degrees in it, a workbench's skeleton: a face of s vertices lies
    in the n - s faces of s + 1 vertices above it when s <= k, and in none
    at the top size k + 1.  Made once per (n, k) and shared: callers must
    not change them."""
    deg: dict[int, int] = {}
    for j in range(k + 1):
        deg.update(dict.fromkeys(complete_skeleton(n, j), n - j - 1 if j < k else 0))
    return frozenset(deg), deg


def _with_full_skeleton(n: int, d: int, tops: Iterable[int]) -> SimplicialComplex:
    """The complete (d-1)-skeleton on {1..n} together with the top masks."""
    faces = {0, *tops}
    faces.update(_skeleton_cells(n, d - 1)[0])
    return SimplicialComplex._from_masks(range(1, n + 1), faces)


def kruskal_generate(n: int, d: int, rng_seed: int) -> SimplicialComplex:
    """Grow a random d-hypertree on {1..n} over the complete (d-1)-skeleton.

    Candidate d-faces are visited in a seeded random order, once each, and a
    candidate is kept exactly when its boundary column is independent of the
    kept ones over Q.  Stops at C(n-1, d) kept faces.  Raises SizeError,
    before building anything, when the complete d-skeleton has more than
    MAX_FACES faces.
    """
    return _with_full_skeleton(n, d, _kruskal(n, d, rng_seed)[0])


def _kruskal(n: int, d: int, rng_seed: int) -> tuple[list[int], int]:
    """The top masks kruskal_generate keeps, and |H_(d-1)| of the complex
    they span over the complete (d-1)-skeleton.

    With B_k the boundary map on the k-faces, the torsion of
    H_(d-1) = ker B_(d-1) / im B_d is that of coker B_d = C_(d-1) / im B_d,
    because C_(d-1) / ker B_(d-1) is isomorphic to im B_(d-1), which is
    free.  The kept columns of B_d have full rank, so that torsion is the
    product of all their invariant factors, which the elimination that
    chose them already holds.
    """
    if d + 1 < 2 or n < d + 1:
        raise InputError(f"need n >= d+1 >= 2, got n={n}, d={d}")
    check_face_count(sum(comb(n, k + 1) for k in range(d + 1)),
                     f"the complete {d}-skeleton on {n} vertices")
    rng = Random(rng_seed)
    candidates = list(_kruskal_columns(n, d))
    rng.shuffle(candidates)  # the permutation depends on the length alone
    state = IncrementalRank()
    target = comb(n - 1, d)
    accepted: list[int] = []
    for sigma, column in candidates:
        if len(accepted) == target:
            break
        if state.add(column):
            accepted.append(sigma)
    if len(accepted) != target:
        raise RuntimeError("candidate pool exhausted before the spanning count")
    return accepted, prod(state.factors())


@lru_cache(maxsize=8)
def _kruskal_columns(n: int, d: int) -> tuple[tuple[int, dict[int, int]], ...]:
    """The d-faces on {1..n} in complete_skeleton order, each with its
    boundary column over the (d-1)-faces.  Made once per (n, d) and shared:
    IncrementalRank copies the columns it files, and nobody may change them."""
    row_index = _skeleton(n, d - 1)[1]
    return tuple((m, _mask_column(m, row_index)) for m in _skeleton(n, d)[0])


def spanning_torsion_order(X: SimplicialComplex, d: int) -> int:
    """|H_(d-1)| of a spanning complex with complete (d-1)-skeleton.

    Uses the reduced top boundary matrix with rows restricted to the
    (d-1)-faces avoiding the largest vertex of the ground set, which may be
    any set of labels; for such complexes the absolute determinant equals
    the order of the torsion group (the d = 1 case is the classical reduced
    incidence matrix of a spanning tree).  The determinant is the product of
    the invariant factors, and 0 when there are fewer factors than columns.
    Survey trials skip this second elimination: the generator hands on the
    same product from its own (see _kruskal).
    """
    top = sorted(X._by_size.get(d + 1, ()))
    if len(top) != comb(len(X.ground_set) - 1, d):
        raise InputError("spanning torsion shortcut needs exactly C(n-1, d) top faces")
    last = 1 << (len(X.ground_set) - 1)
    row_index = {m: i for i, m in enumerate(sorted(X._by_size.get(d, ()))) if not m & last}
    columns = [_mask_column(m, row_index) for m in top]
    factors = smith_invariant_factors(columns)
    return prod(factors) if len(factors) == len(top) else 0


@dataclass
class HypertreeReport:
    """Classification of one candidate hypertree."""

    complex: SimplicialComplex
    facet_count: int
    q_acyclic: bool
    torsion_order: int
    collapsible: str
    anticollapsible: str
    free_face_count: int

    @property
    def d_collapsible(self) -> bool:
        """The top erodes completely: no top core refutes a collapse."""
        return self.collapsible != REFUTED

    @property
    def no_free_faces(self) -> bool:
        return self.free_face_count == 0

    def is_class_a(self) -> bool:
        """Collapsible but provably not anticollapsible."""
        return self.collapsible == FOUND and self.anticollapsible == REFUTED

    def is_class_b(self) -> bool:
        """Provably neither collapsible nor anticollapsible."""
        return self.collapsible == REFUTED and self.anticollapsible == REFUTED


def _has_complete_lower_skeleton(X: SimplicialComplex, d: int) -> bool:
    n = len(X.ground_set)
    return all(X.n_faces(k) == comb(n, k + 1) for k in range(d))


def is_hypertree(
    X: SimplicialComplex,
    d: int,
    rng_seed: int = 0,
    restarts: int = 64,
) -> HypertreeReport:
    """Verify rational acyclicity and classify collapse behaviour.

    The collapsible / anticollapsible flags are three-valued, the verdicts
    of the collapse searches on the complex and on its dual: a collapse was
    found, the property was refuted by a top core left when a greedy run
    stopped, or unknown within the search budget.  No certificate is built;
    the found cases are exactly those where search_collapse and
    is_anticollapsible, with the same seeds, return one.
    """
    if d < 1:
        raise InputError(f"hypertrees have dimension at least 1, got {d}")
    if X.dim != d:
        raise InputError(f"expected a complex of dimension {d}, got {X.dim}")
    n = len(X.ground_set)
    if _has_complete_lower_skeleton(X, d) and X.n_faces(d) == comb(n - 1, d):
        # complete lower skeleton: the boundary maps below d have the ranks
        # of the full simplex, C(n-1, k), so only the top rank can fail.  The
        # only cycle on the faces through the largest vertex is 0, so the
        # square matrix on the other rows has the kernel of the full one.
        torsion = spanning_torsion_order(X, d)
    else:
        profile = homology(X)
        torsion = 0 if any(profile.betti) else prod(profile.torsion[d - 1])
    wb, dual_wb = _Workbench(X), _Workbench(X, _dual_masks(X))
    return _classify(X, d, torsion, rng_seed, restarts, wb, dual_wb)


def _classify(
    X: SimplicialComplex,
    d: int,
    torsion: int,
    rng_seed: int,
    restarts: int,
    wb: _Workbench,
    dual_wb: _Workbench,
) -> HypertreeReport:
    """The report of is_hypertree on a d-complex X, given |H_(d-1)(X)|, or
    0 when X is not rationally acyclic, and workbenches of X and its dual."""
    collapsible = _collapse_masks(wb, rng_seed, restarts)[0]
    anticollapsible = _dual_collapse(X, dual_wb, _derive_seed(rng_seed, 1), restarts)[0]
    return HypertreeReport(
        complex=X,
        facet_count=X.n_faces(d),
        q_acyclic=torsion != 0,
        torsion_order=torsion,
        collapsible=collapsible,
        anticollapsible=anticollapsible,
        free_face_count=sum(map(len, wb.free)),
    )


def kalai_check(n: int, d: int) -> tuple[int, int, bool]:
    """Exhaustively sum squared torsion orders over all spanning complexes.

    Enumerates every complex with complete (d-1)-skeleton and exactly
    C(n-1, d) top faces, sums |H_(d-1)|^2 over the rationally acyclic ones,
    and compares with n^C(n-2, d).
    """
    total_candidates = comb(n, d + 1)
    if total_candidates > 25:
        raise SizeError(
            f"exhaustive enumeration guard: C({n},{d + 1}) = {total_candidates} > 25"
        )
    target = comb(n - 1, d)
    columns = [column for _, column in _kruskal_columns(n, d)]
    weighted_sum = 0
    for subset in combinations(columns, target):
        factors = smith_invariant_factors(list(subset))
        if len(factors) == target:  # full rank: rationally acyclic
            weighted_sum += prod(factors) ** 2
    expected = n ** comb(n - 2, d)
    return weighted_sum, expected, weighted_sum == expected


@dataclass
class SurveySummary:
    trials: int
    class_a_seeds: list[int]
    class_b_seeds: list[int]
    no_free_face_seeds: list[int]
    invalid_seeds: list[int]


def survey(
    n: int,
    d: int,
    trials: int,
    rng_seed: int,
) -> Iterator[tuple[int, HypertreeReport]]:
    """Generate and classify one hypertree per trial, yielding (seed, report).

    Per-trial seeds are derived from the master seed by a counter, so any
    single trial can be replayed in isolation from its recorded seed.
    """
    if trials < 1:
        raise InputError("at least one trial")
    for t in range(trials):
        seed = _derive_seed(rng_seed, t)
        tops, torsion = _kruskal(n, d, seed)
        X = _with_full_skeleton(n, d, tops)
        yield seed, _classify(X, d, torsion, seed, 64, *_spanning_workbenches(X, d, tops))


def _spanning_workbenches(
    X: SimplicialComplex, d: int, tops: list[int]
) -> tuple[_Workbench, _Workbench]:
    """Workbenches of X, the complete (d-1)-skeleton on {1..n} with the top
    masks, and of its dual, built on cached skeletons.

    A set S is a face of the dual exactly when its complement is not a face
    of X.  The complement of S has n - |S| vertices and is a face of X when
    that is at most d, or d + 1 with the complement among the tops.  So the
    dual is the complete (n-d-3)-skeleton, every S of at most n - d - 2
    vertices, with the complements of the d-faces that are not tops.
    """
    n = len(X.ground_set)
    wb = _Workbench(X, tops, _skeleton_cells(n, d - 1))
    _check_dual_size(n)
    full = (1 << n) - 1
    kept = set(tops)
    dual_tops = [full ^ m for m in _skeleton(n, d)[0] if m not in kept]
    return wb, _Workbench(X, dual_tops, _skeleton_cells(n, n - d - 3))


def run_survey(
    n: int,
    d: int,
    trials: int,
    rng_seed: int,
    csv_path: Optional[str] = None,
) -> SurveySummary:
    """Drive a survey, optionally writing one CSV row per trial."""
    summary = SurveySummary(0, [], [], [], [])
    sink = nullcontext() if csv_path is None else open(csv_path, "w", newline="", encoding="utf-8")
    with sink as handle:  # closed even when a trial raises
        writer = None if handle is None else csv.writer(handle)
        if writer is not None:
            writer.writerow(["seed", "facets", "q_acyclic", "torsion", "dcollapsible",
                             "collapsible", "anticollapsible", "free_faces"])
        for seed, report in survey(n, d, trials, rng_seed):
            summary.trials += 1
            if not report.q_acyclic or report.facet_count != comb(n - 1, d):
                summary.invalid_seeds.append(seed)
            if report.is_class_a():
                summary.class_a_seeds.append(seed)
            if report.is_class_b():
                summary.class_b_seeds.append(seed)
            if report.no_free_faces:
                summary.no_free_face_seeds.append(seed)
            if writer is not None:
                writer.writerow([seed, report.facet_count, report.q_acyclic,
                                 report.torsion_order, report.d_collapsible, report.collapsible,
                                 report.anticollapsible, report.free_face_count])
    return summary
