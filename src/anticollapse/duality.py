"""Combinatorial duality against a fixed ground set.

The dual of X on ground set V has as faces the complements of the non-faces
of X.  Taking faces literally (so that the full simplex dualizes to the
complex with no faces, and the complex with only the empty face dualizes to
the full boundary) makes the construction an exact involution.

Every elementary collapse on X transports to an elementary anticollapse on
the dual, which is how expansion certificates are produced here: on the
face masks, a collapse (t, c) of the dual is the anticollapse
(full ^ c, full ^ t), full being the ground set's mask.  The transported
certificate is replayed once, on the complex it expands.  Only callers that
print or store an expansion certificate get one built: classification asks
whether the dual collapses and builds no certificate.
"""
from __future__ import annotations

from typing import Collection, Iterable, Optional

from .collapse import (
    ANTICOLLAPSE,
    COLLAPSE,
    FOUND,
    UNKNOWN,
    Certificate,
    StepPair,
    _Workbench,
    _collapse_masks,
    replay,
)
from .complexes import SimplicialComplex, check_face_count, digest
from .errors import InputError
from .homology import _betti_numbers, _check_ring


def alexander_dual(X: SimplicialComplex) -> SimplicialComplex:
    """The dual complex on the same ground set.

    Its faces are the complements of the non-faces of X, so the rule is an
    exact involution, the void and the empty complex included.  A ground
    set with more than MAX_FACES subsets raises SizeError.
    """
    return SimplicialComplex._from_masks(X.ground_set, _dual_masks(X))


def _dual_masks(X: SimplicialComplex) -> set[int]:
    """The face masks of the dual of X, over the ground set of X."""
    full = (1 << len(X.ground_set)) - 1
    _check_dual_size(len(X.ground_set))
    # m is a face of the dual iff its complement full ^ m is not a face of X
    return set(range(full + 1)).difference(full ^ m for m in X._masks)


def _check_dual_size(n: int) -> None:
    """SizeError unless a dual over n ground vertices, with up to 2^n faces,
    may be built."""
    check_face_count(1 << n, "the dual")


def dual_step(step: StepPair, ground: frozenset[int]) -> StepPair:
    """Transport one move through complementation.

    A collapse removing (free, coface) becomes the anticollapse adding
    (coface complement, free complement), and conversely.
    """
    free_c = tuple(sorted(ground - set(step.coface)))
    coface_c = tuple(sorted(ground - set(step.free)))
    direction = ANTICOLLAPSE if step.direction == COLLAPSE else COLLAPSE
    return StepPair(free_c, coface_c, direction)


def dual_certificate(X: SimplicialComplex, cert: Certificate) -> Certificate:
    """Transport a collapse certificate on X to an expansion certificate on
    the dual of X.

    When the collapse ends at a single vertex, the transported sequence is
    finished with the dual of the trivial final collapse, so the output
    expands the dual of X all the way to the full simplex.  Otherwise the
    expansion ends at the dual of the collapse's end.
    """
    if cert.kind != COLLAPSE:
        raise InputError("only collapse certificates are transported")
    end = replay(X, cert)  # the certificate is outside input
    steps = [(X.mask_of(s.free), X.mask_of(s.coface)) for s in cert.steps]
    return _transport(alexander_dual(X), steps, end._masks)


def _transport(
    start: SimplicialComplex, mask_steps: Iterable[tuple[int, int]], end_masks: Collection[int]
) -> Certificate:
    """The expansion of start whose steps complement the collapse steps
    (t, c) of its dual, replayed once.  end_masks are the faces where the
    collapse stops; a lone vertex v gets the trivial collapse (0, v), whose
    complement adds the top face, and the void end dualizes to the simplex.
    """
    full = (1 << len(start.ground_set)) - 1
    steps = list(mask_steps)
    if len(end_masks) == 2:  # the empty face and one vertex
        steps.append((0, max(end_masks)))
        end_masks = ()
    face = start.face_of
    pairs = tuple(StepPair(face(full ^ c), face(full ^ t), ANTICOLLAPSE) for t, c in steps)
    end = alexander_dual(SimplicialComplex._from_masks(start.ground_set, end_masks))
    transported = Certificate(ANTICOLLAPSE, pairs, digest(start), digest(end))
    replay(start, transported)
    return transported


def _dual_workbench(X: SimplicialComplex) -> Optional[_Workbench]:
    """A workbench of the dual's faces with the ground set of X, or None when
    X is the simplex and its dual void."""
    masks = _dual_masks(X)
    return _Workbench(X, masks) if masks else None


def _dual_collapse(
    dual_wb: Optional[_Workbench], rng_seed: int, restarts: int
) -> tuple[str, Optional[_Workbench], list[tuple[int, int]]]:
    """Whether the dual of a complex X collapses, searched on dual_wb, a
    workbench of the dual's faces over the ground set of X, or None when X
    is the simplex: no dual complex is made.  Returns the verdict of the
    search with its end workbench and mask steps, FOUND with no workbench
    and no step for the simplex, whose void dual expands to it, and UNKNOWN
    when the dual carries no vertex.
    """
    if dual_wb is None:
        return FOUND, None, []
    if not any(dual_wb.count):
        return UNKNOWN, dual_wb, []  # dual carries no vertex, nothing can collapse
    return _collapse_masks(dual_wb, rng_seed, restarts)


def is_anticollapsible(
    X: SimplicialComplex, rng_seed: int = 0, restarts: int = 64
) -> Optional[Certificate]:
    """Search for an expansion of X to the full simplex on its ground set.

    Runs the collapse search of search_collapse (seeded greedy restarts) on
    the dual and transports the result back.  Success gives a replayable
    expansion certificate; failure within budget proves nothing, except on
    a dual with at most 25 faces above its vertices (see _collapse_masks).
    """
    if not len(X):
        raise InputError("expansion search needs a nonvoid complex")
    verdict, end, steps = _dual_collapse(_dual_workbench(X), rng_seed, restarts)
    if verdict != FOUND:
        return None
    return _transport(X, steps, () if end is None else end.to_complex()._masks)


def check_alexander_duality(X: SimplicialComplex, field: int | str = "Q") -> bool:
    """Field-coefficient rank duality between X and its dual.

    Checks that the reduced Betti number of X in dimension i equals that of
    the dual in dimension n - i - 3 for every i, n the ground set size.
    """
    _check_ring(field)
    n = len(X.ground_set)
    mine = _betti_numbers(X, field)
    theirs = _betti_numbers(alexander_dual(X), field)
    return all(mine.get(i, 0) == theirs.get(n - i - 3, 0) for i in range(-1, n + 1))
