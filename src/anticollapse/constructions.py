"""Reference complexes, dimension-raising moves, and the main constructor.

For every admissible pair (n, d) the constructor produces a d-dimensional
complex on n vertices that expands to the full simplex by elementary
anticollapses yet has no free face at all, together with a replayable
expansion certificate.  Inadmissible pairs get a principled refusal.

The 8-vertex bases in dimensions 2 and 3 are shipped as golden files,
written by the same writer as construct's output and re-verified on load.
An exhaustive search over the families of d-faces that a stuck complex
must have finds such bases without randomness, and finds no family at all
for the small refused pairs.  The dimension-4 base is the dual of a bundled
reference complex.  Higher cases follow by the double cone (n, d) ->
(n+1, d+1) and the stacking move (n, 2) -> (n+1, 2).  Both moves have
explicit expansions, so every certificate is composed from the bases' with
no search and depends on (n, d) only.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import combinations
from pathlib import Path
from typing import Iterator, Optional, Union

from .collapse import (
    ANTICOLLAPSE,
    Certificate,
    Matching,
    StepPair,
    core_erosion,
    free_faces,
    replay,
    search_collapse,
    verify_matching_acyclic,
)
from .complexes import (
    Face,
    SimplicialComplex,
    _closure,
    check_face_count,
    digest,
    from_facets,
    parse_facet_text,
    relabeled,
    write_facet_file,
)
from .duality import alexander_dual, is_anticollapsible
from .errors import InputError
from .homology import homology
from .hypertrees import complete_skeleton

# -- bundled reference complexes ---------------------------------------
#
# Facet lists are kept in their published order; loaders expose them both
# verbatim and as complexes on ground set {1..8}.

Y28_2_FACETS: tuple[Face, ...] = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 3, 8), (1, 6, 8),
    (1, 7, 8), (2, 3, 7), (3, 4, 6), (2, 4, 6), (2, 5, 8), (2, 6, 7),
    (2, 7, 8), (3, 4, 7), (3, 5, 7), (3, 5, 8), (4, 5, 8), (4, 6, 8),
    (4, 7, 8), (5, 6, 7), (1, 2, 6),
)

Y38_3_FACETS: tuple[Face, ...] = (
    (4, 6, 7, 8), (2, 5, 7, 8), (1, 5, 7, 8), (3, 4, 7, 8), (2, 4, 7, 8),
    (2, 3, 7, 8), (1, 3, 7, 8), (2, 5, 6, 8), (3, 4, 6, 8), (1, 4, 6, 8),
    (2, 3, 6, 8), (1, 3, 6, 8), (3, 4, 5, 8), (2, 4, 5, 8), (1, 3, 5, 8),
    (1, 2, 5, 8), (2, 3, 4, 8), (1, 2, 4, 8), (4, 5, 6, 7), (3, 5, 6, 7),
    (2, 5, 6, 7), (1, 4, 6, 7), (1, 3, 6, 7), (1, 2, 6, 7), (1, 4, 5, 7),
    (1, 3, 4, 7), (1, 2, 4, 7), (3, 4, 5, 6), (1, 4, 5, 6), (2, 3, 5, 6),
    (2, 3, 4, 6), (1, 2, 4, 6), (1, 3, 4, 5), (1, 2, 3, 5), (1, 2, 3, 4),
)

C38_3_FACETS: tuple[Face, ...] = (
    (1, 5, 7, 8), (3, 4, 5, 8), (1, 2, 6, 7), (1, 2, 3, 5), (1, 3, 4, 6),
    (2, 4, 7, 8), (4, 5, 6, 7), (2, 3, 7, 8), (1, 3, 5, 6), (2, 4, 5, 8),
    (1, 3, 4, 8), (2, 3, 4, 5), (1, 2, 4, 6), (2, 4, 6, 7), (2, 4, 5, 7),
    (1, 3, 5, 7), (1, 3, 4, 5), (2, 3, 6, 7), (3, 5, 7, 8), (3, 4, 5, 7),
    (1, 3, 4, 7), (2, 3, 6, 8), (2, 3, 4, 6), (1, 3, 7, 8), (1, 5, 6, 7),
    (2, 5, 6, 8), (4, 6, 7, 8), (1, 5, 6, 8), (2, 3, 5, 6), (1, 2, 3, 8),
    (3, 4, 6, 8), (1, 2, 5, 7), (1, 2, 4, 8), (5, 6, 7, 8), (3, 4, 6, 7),
)

CLAIM_COLLAPSIBLE = "collapsible"
CLAIM_ANTICOLLAPSIBLE = "anticollapsible"
CLAIM_NO_FREE_FACES = "no-free-faces"
CLAIM_Q_ACYCLIC = "q-acyclic"
CLAIM_Z_ACYCLIC = "z-acyclic"
CLAIM_CONTRACTIBLE = "contractible-certified"
CLAIM_TOP_CORE = "top-core"
CLAIM_DUAL_TOP_CORE = "dual-top-core"

CATALOG_NAMES = (
    "Y28_2",
    "Y38_3",
    "C38_3",
    "dual_Y28_2",
    "dual_Y38_3",
    "dual_C38_3",
)

# what every no-free-face expandable witness on its own ground set claims
_WITNESS_CLAIMS = frozenset(
    {CLAIM_ANTICOLLAPSIBLE, CLAIM_NO_FREE_FACES, CLAIM_Q_ACYCLIC, CLAIM_Z_ACYCLIC,
     CLAIM_CONTRACTIBLE}
)

# The 35-facet 3-dimensional list admits exactly four expansion moves, so
# its dual keeps four free faces; the no-free-face claim holds only for the
# dual of the 2-dimensional list.
_CATALOG_CLAIMS: dict[str, frozenset[str]] = {
    "Y28_2": frozenset(
        {CLAIM_COLLAPSIBLE, CLAIM_Q_ACYCLIC, CLAIM_Z_ACYCLIC, CLAIM_CONTRACTIBLE,
         CLAIM_DUAL_TOP_CORE}
    ),
    "Y38_3": frozenset(
        {CLAIM_COLLAPSIBLE, CLAIM_Q_ACYCLIC, CLAIM_Z_ACYCLIC, CLAIM_CONTRACTIBLE,
         CLAIM_DUAL_TOP_CORE}
    ),
    "C38_3": frozenset(
        {CLAIM_Q_ACYCLIC, CLAIM_Z_ACYCLIC, CLAIM_TOP_CORE, CLAIM_DUAL_TOP_CORE}
    ),
    "dual_Y28_2": _WITNESS_CLAIMS,
    "dual_Y38_3": frozenset(
        {CLAIM_ANTICOLLAPSIBLE, CLAIM_Q_ACYCLIC, CLAIM_Z_ACYCLIC,
         CLAIM_CONTRACTIBLE}
    ),
    "dual_C38_3": frozenset(
        {CLAIM_Q_ACYCLIC, CLAIM_Z_ACYCLIC, CLAIM_TOP_CORE, CLAIM_DUAL_TOP_CORE}
    ),
}

_CATALOG_VERIFY_SEED = 0x5EED

# Canonical digests of the bundled complexes; the reproduction table checks
# these so that any edit to a facet list or golden file is caught.
EXPECTED_DIGESTS = {
    "Y28_2": "dc2f9d22237258de79f36a00563f03df56637630685669a707897b89376568b0",
    "Y38_3": "5e6c2331a67a3739ca66f1cac015fdec0a7b24e74342b517b56d58e336552a4d",
    "C38_3": "d8b2f39a7b4d59e1cb9ef346191e2235a9deabafe3650d38de99e37f3415c154",
    "dual_Y28_2": "c6243d3e236d0e372f7ce4f6af4b44db30847b99713dc9b210ebaa9151321649",
    "dual_Y38_3": "4bd2f1e1b7246abd9f03e3a863d8fb641181852f28634ac572e2ba06cd5da5c1",
    "dual_C38_3": "2441255fcd1f9b96cb49641473b496694ca23ece4a0dd5f4d1c59acfed9f3fb9",
    "base_8_2": "a12476cacbad1cfc7948f4ed23234622b4e84e3dacd7373234f928af7ff8a2bb",
    "base_8_3": "c52194b106b6d2d3212248888eb3aa283acead2ef044dbfe19192c520c8aa4ba",
}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    complex: SimplicialComplex
    claims: frozenset[str]
    facets_listed: tuple[Face, ...]
    certificate: Optional[Certificate] = None


class ClaimVerificationError(RuntimeError):
    """A bundled complex failed one of its advertised properties."""


def _verify_claims(
    name: str,
    X: SimplicialComplex,
    claims: frozenset[str],
    certificate: Optional[Certificate] = None,
) -> Optional[Certificate]:
    """Re-check every claimed flag; returns a certificate when one exists.

    A given expansion certificate must replay from X to the full simplex;
    without one, the collapse and expansion claims are searched for.
    """
    profile = None
    if {CLAIM_Q_ACYCLIC, CLAIM_Z_ACYCLIC} & claims:
        profile = homology(X)
    for claim in sorted(claims):
        if claim == CLAIM_NO_FREE_FACES:
            ok = not free_faces(X)
        elif claim == CLAIM_Q_ACYCLIC:
            ok = not any(profile.betti)
        elif claim == CLAIM_Z_ACYCLIC:
            ok = profile.is_trivial()
        elif claim == CLAIM_COLLAPSIBLE:
            cert = search_collapse(X, rng_seed=_CATALOG_VERIFY_SEED, restarts=64)
            ok = cert is not None
            certificate = certificate or cert
        elif claim == CLAIM_ANTICOLLAPSIBLE and certificate is not None:
            ok = certificate.kind == ANTICOLLAPSE and replay(X, certificate).is_simplex()
        elif claim == CLAIM_ANTICOLLAPSIBLE:
            certificate = is_anticollapsible(X, rng_seed=_CATALOG_VERIFY_SEED, restarts=64)
            ok = certificate is not None
        elif claim == CLAIM_CONTRACTIBLE:
            ok = certificate is not None
        elif claim == CLAIM_TOP_CORE:
            ok = not core_erosion(X)[1]
        elif claim == CLAIM_DUAL_TOP_CORE:
            ok = not core_erosion(alexander_dual(X))[1]
        else:
            raise InputError(f"unknown claim {claim!r}")
        if not ok:
            raise ClaimVerificationError(f"{name}: claim {claim!r} failed verification")
    return certificate


def _check_witness(
    name: str, X: SimplicialComplex, d: int, certificate: Certificate, claims: frozenset[str]
) -> None:
    """Check a witness's shape, d-dimensional with support {1..n} for its
    ground set of size n, and then its claims against its certificate."""
    if X.dim != d or X.support != frozenset(range(1, len(X.ground_set) + 1)):
        raise ClaimVerificationError(f"{name}: wrong dimension or support")
    _verify_claims(name, X, claims, certificate)


_CATALOG_FACETS = {"Y28_2": Y28_2_FACETS, "Y38_3": Y38_3_FACETS, "C38_3": C38_3_FACETS}


@lru_cache(maxsize=None)
def catalog(name: str) -> CatalogEntry:
    """A bundled reference complex with its claims re-verified on load."""
    if name not in CATALOG_NAMES:
        raise InputError(f"unknown catalog name {name!r}")
    listed = _CATALOG_FACETS[name.removeprefix("dual_")]
    X = from_facets(listed, ground=range(1, 9))
    if name.startswith("dual_"):
        X = alexander_dual(X)
        listed = X.facets()
    claims = _CATALOG_CLAIMS[name]
    certificate = _verify_claims(name, X, claims)
    return CatalogEntry(name, X, claims, listed, certificate)


# -- dimension-raising constructions -----------------------------------


def _fresh_labels(used: frozenset[int], count: int) -> list[int]:
    labels = []
    v = 1
    while len(labels) < count:
        if v not in used:
            labels.append(v)
        v += 1
    return labels


def double_cone_labels(X: SimplicialComplex, x: int) -> tuple[int, int]:
    """The two cone labels: the smallest integers unused once x is retired."""
    used = X.ground_set - {x}
    a, b = _fresh_labels(used, 2)
    return a, b


def double_cone(X: SimplicialComplex, x: int) -> SimplicialComplex:
    """Union of two cones over copies of X that differ in one vertex.

    The distinguished vertex x is re-labeled b in the copy coned over a and
    re-labeled a in the copy coned over b, so the result lives on one more
    vertex and gains one dimension.  When x is not a vertex of X both cones
    are taken over X itself.
    """
    if not len(X):
        raise InputError("the double cone needs a nonvoid complex")
    a, b = double_cone_labels(X, x)
    # the cone over a copy is the closure of its facets, each with the apex
    facets = [f + (a,) for f in relabeled(X, {x: b}).facets()]
    facets += [f + (b,) for f in relabeled(X, {x: a}).facets()]
    return from_facets(facets, ground=(X.ground_set - {x}) | {a, b})


def lift_matching(X: SimplicialComplex, x: int, matching: Matching) -> Matching:
    """Lift an acyclic matching on X to one on the double cone over x.

    Every pair lifts through the first cone label; pairs whose free face
    avoids the relabeled vertex survive unchanged; pairs whose coface also
    avoids it lift through the second label as well.  Critical cells of the
    result are exactly the double cone of the input's critical cells
    whenever those form a subcomplex.
    """
    if not verify_matching_acyclic(X, matching):
        raise InputError("input matching is not acyclic")
    a, b = double_cone_labels(X, x)

    def to_b(face: Face) -> Face:
        return tuple(sorted(b if v == x else v for v in face))

    pairs: set[tuple[Face, Face]] = set()
    for low, high in matching.pairs:
        tau, sigma = to_b(low), to_b(high)
        pairs.add((tuple(sorted((a,) + tau)), tuple(sorted((a,) + sigma))))
        if b not in tau:
            pairs.add((tau, sigma))
        if b not in sigma:
            pairs.add((tuple(sorted((b,) + tau)), tuple(sorted((b,) + sigma))))
    return Matching(frozenset(pairs))


def stacking_move(X: SimplicialComplex, sigma: Face) -> SimplicialComplex:
    """Replace a top-dimensional facet by the cone over its boundary.

    The cone point is a fresh vertex, so the result has one more vertex,
    the same dimension, and d more top-dimensional faces than before.
    """
    sigma = tuple(sorted(sigma))
    if sigma not in X.facets() or len(sigma) - 1 != X.dim:
        raise InputError(f"{sigma} is not a top-dimensional facet")
    (v,) = _fresh_labels(X.ground_set, 1)
    # the cone keeps every proper face of sigma; the other facets stay
    facets = [f for f in X.facets() if f != sigma]
    facets += [rho + (v,) for rho in combinations(sigma, len(sigma) - 1)]
    return from_facets(facets, ground=X.ground_set | {v})


# -- exhaustive search for stuck families ------------------------------


def _stuck_families(n: int, d: int) -> Iterator[list[int]]:
    """Every family of d-face masks on {1..n} (bit i is vertex i + 1) that
    contains {1..d+1}, puts each ridge in no member or in at least two, and
    has boundaries independent over GF(2); each is yielded once, sorted.

    The d-faces of a stuck d-complex form such a family up to relabeling:
    having no free face, it puts each ridge in 0 or >= 2 d-faces, and
    expanding to the simplex, it is Z-acyclic, so its top boundary map is
    injective over GF(2).  Hence no family means no stuck d-complex on at
    most n vertices.  The search branches on the least ridge, by mask value,
    that lies in exactly one member: it tries that ridge's cofaces in
    increasing mask order, each sibling tried before excluded, and drops a
    coface whose boundary depends on the chosen ones, as the dependence
    persists in every larger family.  A boundary is an int bitset over the
    ridges, which are numbered in mask order.
    """
    ridges = sorted(complete_skeleton(n, d - 1))
    bit = {r: 1 << i for i, r in enumerate(ridges)}
    ridges_of = {m: [bit[m ^ 1 << v] for v in range(n) if m >> v & 1]
                 for m in complete_skeleton(n, d)}
    boundary = {m: sum(rs) for m, rs in ridges_of.items()}
    cofaces = [sorted(r | 1 << v for v in range(n) if not r >> v & 1) for r in ridges]
    count = dict.fromkeys(bit.values(), 0)
    first = (1 << d + 1) - 1
    chosen = [first]
    taken = {first}  # the chosen faces and the siblings tried before them
    basis = {boundary[first] & -boundary[first]: boundary[first]}  # by lowest bit
    ones = 0  # the bitset of ridges that lie in exactly one chosen face

    def place(m: int, step: int) -> None:
        nonlocal ones
        for b in ridges_of[m]:
            k = count[b] = count[b] + step
            if k == 1 or k == 1 + step:  # the count reached one or left it
                ones ^= b

    def grow() -> Iterator[list[int]]:
        if not ones:
            yield sorted(chosen)
            return
        tried = []
        for c in cofaces[(ones & -ones).bit_length() - 1]:
            if c in taken:
                continue
            v = boundary[c]
            while v and (p := basis.get(v & -v)):
                v ^= p
            if not v:
                continue
            basis[v & -v] = v
            taken.add(c)
            chosen.append(c)
            place(c, 1)
            yield from grow()
            place(c, -1)
            chosen.pop()
            del basis[v & -v]
            tried.append(c)
        taken.difference_update(tried)

    place(first, 1)
    yield from grow()


def find_base(n: int, d: int, out_dir: Optional[str] = None) -> Optional[CatalogEntry]:
    """A stuck d-complex on n vertices with its expansion certificate: the
    closure of the first stuck family that has support {1..n}, is
    integrally acyclic and expands to the full simplex.

    The witness is checked like a shipped one before it is returned or
    written to out_dir.  None once the families run out; as the expansion
    search may miss, that proves no witness exists only when the search
    yields no family at all, as it does for every refused pair with
    2 <= d and n <= 12.
    """
    name = f"base_{n}_{d}"
    for family in _stuck_families(n, d):
        X = SimplicialComplex._from_masks(range(1, n + 1), _closure(family))
        if len(X.support) < n or not homology(X).is_trivial():
            continue
        cert = is_anticollapsible(X, rng_seed=_CATALOG_VERIFY_SEED, restarts=64)
        if cert is None:
            continue
        _check_witness(name, X, d, cert, _WITNESS_CLAIMS)
        if out_dir is not None:
            write_witness(out_dir, name, X, cert, [f"{name} found by the stuck-family search"])
        return CatalogEntry(name, X, _WITNESS_CLAIMS, X.facets(), cert)
    return None


def write_witness(out_dir, name: str, X: SimplicialComplex, certificate: Certificate,
                  comments: list[str]) -> None:
    """Write name.facets, headed by the comment lines, and name.cert."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_facet_file(out / f"{name}.facets", X, header_comments=comments)
    (out / f"{name}.cert").write_text(certificate.to_json() + "\n", encoding="utf-8")


# -- golden base-case loading ------------------------------------------


@lru_cache(maxsize=None)
def load_base_case(d: int) -> CatalogEntry:
    """Load a shipped 8-vertex base witness and re-verify everything.

    The facet file and certificate are package data; verification checks
    the dimension, the support, the absence of free faces, integral
    acyclicity, and that the certificate replays from the complex to the
    full simplex.
    """
    if d not in (2, 3):
        raise InputError("golden bases exist for dimensions 2 and 3 only")
    name = f"base_8_{d}"
    pkg = resources.files("anticollapse.data")
    X = parse_facet_text((pkg / f"{name}.facets").read_text(encoding="utf-8"))
    cert = Certificate.from_json((pkg / f"{name}.cert").read_text(encoding="utf-8"))
    _check_witness(name, X, d, cert, _WITNESS_CLAIMS)
    return CatalogEntry(name, X, _WITNESS_CLAIMS, X.facets(), cert)


# -- the constructor ----------------------------------------------------

REFUSE_DIM_ZERO = "d=0"
REFUSE_DIM_ONE = "d=1"
REFUSE_TOP_DIMS = "d>=n-3"
REFUSE_SMALL_N = "n<=7"

_REFUSAL_TEXT = {
    REFUSE_DIM_ZERO: "a stuck complex of dimension 0 would be a single vertex, "
    "which is the trivial end state, never a stuck one",
    REFUSE_DIM_ONE: "a 1-dimensional contractible complex is a tree and a tree "
    "always has a leaf, which is a free face",
    REFUSE_TOP_DIMS: "any contractible complex on n vertices of dimension at "
    "least n-3 has a free face",
    REFUSE_SMALL_N: "on up to 7 vertices every contractible complex is "
    "collapsible, so none of them is ever stuck",
}


@dataclass(frozen=True)
class Refusal:
    reason: str
    citation: str

    def __str__(self) -> str:
        return f"refusal: {self.reason} ({self.citation})"


def _refusal(reason: str) -> Refusal:
    return Refusal(reason, _REFUSAL_TEXT[reason])


def admissible(n: int, d: int) -> bool:
    """Pairs for which a no-free-face expandable witness exists: n >= 8 and
    2 <= d <= n - 4."""
    return n >= 8 and 2 <= d <= n - 4


ConstructionResult = Union[tuple[SimplicialComplex, Certificate], Refusal]


@lru_cache(maxsize=None)
def _witness(n: int, d: int) -> tuple[SimplicialComplex, array, array]:
    """The witness for an admissible pair and its expansion steps to the
    full simplex, composed from the 8-vertex bases by the two lemmas.

    Step i adds the free face free[i] with its coface coface[i], both masks
    over {1..n} with bit i for vertex i + 1, as inside the witness.  A mask
    stays below 2^64, the bound of array('Q'): MAX_FACES admits n <= 18.
    The cached arrays are shared by every caller and never changed.
    """
    if n == 8:
        base = load_base_case(d) if d < 4 else catalog("dual_Y28_2")
        X, steps = base.complex, base.certificate.steps
        return (X, array("Q", [X.mask_of(s.free) for s in steps]),
                array("Q", [X.mask_of(s.coface) for s in steps]))
    if d >= 3:
        # X = a*W[x->b] + b*W[x->a].  Each non-face S of X (equally, of W) off
        # a and b, added with S + a, fills in the simplex on G - b; then W's
        # expansion with x renamed a, coned over b, ends at the simplex on G.
        # W lives on {1..n-1}, so x = 1 and (a, b) = (1, n): renaming x to a
        # is the identity, and W's masks are X's.  Should that change, the
        # replay in theorem2_construct fails loudly.
        W, inner_free, inner_coface = _witness(n - 1, d - 1)
        x = min(W.support)
        a, b = double_cone_labels(W, x)
        X = double_cone(W, x)
        rest = [1 << v - 1 for v in sorted(X.ground_set - {a, b})]
        free = array("Q", [S for k in range(len(rest) + 1)
                           for S in map(sum, combinations(rest, k)) if S not in W._masks])
        coface = array("Q", [S | 1 << a - 1 for S in free])
        free.extend(t | 1 << b - 1 for t in inner_free)
        coface.extend(c | 1 << b - 1 for c in inner_coface)
        return X, free, coface
    # Stacking X = W - sigma + v*(boundary of sigma): put sigma back with
    # sigma + v, expand W to the simplex on G - v, then add each missing
    # face t + v together with t + v + w, w the least vertex of sigma.
    W, inner_free, inner_coface = _witness(n - 1, 2)
    sigma = min(W.faces_of_dim(2))
    X = stacking_move(W, sigma)
    (v,) = X.ground_set - W.ground_set
    s, v_bit, w_bit = X.mask_of(sigma), 1 << v - 1, 1 << sigma[0] - 1
    rest = [1 << u - 1 for u in sorted(X.ground_set - {v, sigma[0]})]
    tops = [t | v_bit for k in range(1, len(rest) + 1)
            for t in map(sum, combinations(rest, k)) if t & ~s]
    free = array("Q", [s, *inner_free, *tops])
    coface = array("Q", [s | v_bit, *inner_coface, *(t | w_bit for t in tops)])
    return X, free, coface


def theorem2_construct(n: int, d: int) -> ConstructionResult:
    """Either a verified witness for (n, d) or a principled refusal.

    A witness is a d-dimensional complex on n vertices with zero free faces
    and a replayable expansion certificate to the full simplex.  Witnesses
    exist exactly for n >= 8 with 2 <= d <= n - 4; every other pair is
    refused with the matching reason.  The certificate is composed from the
    bases' by the double-cone and stacking lemmas: no search, (n, d) only.
    A faulty composition raises ClaimVerificationError or StepError, and an
    n whose simplex has more than MAX_FACES faces raises SizeError.
    """
    if not isinstance(n, int) or not isinstance(d, int) or n < 1 or d < 0:
        raise InputError(f"need integers n >= 1 and d >= 0, got n={n}, d={d}")
    if d == 0:
        return _refusal(REFUSE_DIM_ZERO)
    if d == 1:
        return _refusal(REFUSE_DIM_ONE)
    if d >= n - 3:
        return _refusal(REFUSE_TOP_DIMS)
    if n <= 7:
        return _refusal(REFUSE_SMALL_N)
    check_face_count(1 << n, f"a witness on {n} vertices, expanded to the simplex,")
    X, free, coface = _witness(n, d)
    face = X.face_of
    steps = tuple(StepPair(face(t), face(c), ANTICOLLAPSE) for t, c in zip(free, coface))
    certificate = Certificate(ANTICOLLAPSE, steps, digest(X), digest(SimplicialComplex.simplex(n)))
    # one free-face scan and one replay, so a faulty composition fails here
    _check_witness(f"witness_{n}_{d}", X, d, certificate,
                   frozenset({CLAIM_NO_FREE_FACES, CLAIM_ANTICOLLAPSIBLE}))
    return X, certificate
