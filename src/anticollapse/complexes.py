"""Simplicial complexes as downward-closed families of faces.

A face is a tuple of strictly increasing positive integer vertex labels; the
empty tuple is the empty face (dimension -1).  A complex stores an explicit
ground set, which may be larger than the support of its faces: the
combinatorial dual is only well defined against a fixed ground set.

Two degenerate complexes are distinguished on purpose:

* the "empty complex" on a ground set, whose only face is the empty face;
* the "void complex", which has no faces at all (it arises as the dual of
  the full simplex and is needed for the dual of a complex to be an exact
  involution).
"""
from __future__ import annotations

import hashlib
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import InputError

Face = tuple[int, ...]

EMPTY_FACE: Face = ()


def make_face(vertices: Iterable[int]) -> Face:
    """Validate and canonicalize a face: sorted, no repeats, positive labels."""
    face = tuple(sorted(vertices))
    for v in face:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InputError(f"vertex labels must be positive integers, got {v!r}")
    if len(set(face)) != len(face):
        raise InputError(f"face {face} has a repeated vertex")
    return face


class SimplicialComplex:
    """Immutable downward-closed face family over an explicit ground set."""

    __slots__ = ("_ground", "_faces", "_by_dim", "_facets", "_hash")

    def __init__(self, ground: Iterable[int], faces: Iterable[Face], _checked: bool = False):
        ground_set = frozenset(ground)
        face_set = frozenset(faces)
        if not _checked:
            for v in ground_set:
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    raise InputError(f"ground labels must be positive integers, got {v!r}")
            for f in face_set:
                if f != make_face(f):
                    raise InputError(f"face {f} is not in canonical form")
                if not set(f) <= ground_set:
                    raise InputError(f"face {f} leaves the ground set")
            for f in face_set:
                if not f:
                    continue
                for g in combinations(f, len(f) - 1):
                    if g not in face_set:
                        raise InputError(f"family is not downward closed at {f} / {g}")
            if face_set and EMPTY_FACE not in face_set:
                raise InputError("a nonvoid complex must contain the empty face")
        self._ground = ground_set
        self._faces = face_set
        by_dim: dict[int, set[Face]] = {}
        for f in face_set:
            by_dim.setdefault(len(f) - 1, set()).add(f)
        self._by_dim = {d: frozenset(fs) for d, fs in by_dim.items()}
        self._facets: tuple[Face, ...] | None = None
        self._hash: int | None = None

    # -- construction -------------------------------------------------

    @staticmethod
    def void(ground: Iterable[int]) -> "SimplicialComplex":
        """The complex with no faces at all."""
        return SimplicialComplex(ground, (), _checked=True)

    @staticmethod
    def empty(ground: Iterable[int]) -> "SimplicialComplex":
        """The complex whose only face is the empty face."""
        return SimplicialComplex(ground, (EMPTY_FACE,), _checked=True)

    @staticmethod
    def simplex(n: int) -> "SimplicialComplex":
        """The full simplex on ground set {1..n}."""
        if n < 1:
            raise InputError("a simplex needs at least one vertex")
        return from_facets([tuple(range(1, n + 1))])

    @staticmethod
    def simplex_boundary(n: int) -> "SimplicialComplex":
        """The boundary of the simplex on {1..n}: all proper subsets."""
        if n < 2:
            raise InputError("a simplex boundary needs at least two vertices")
        verts = tuple(range(1, n + 1))
        return from_facets(list(combinations(verts, n - 1)))

    # -- basic queries -------------------------------------------------

    @property
    def ground_set(self) -> frozenset[int]:
        return self._ground

    @property
    def faces(self) -> frozenset[Face]:
        return self._faces

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex, -2 for void."""
        if not self._faces:
            return -2
        return max(self._by_dim)

    def faces_of_dim(self, d: int) -> frozenset[Face]:
        return self._by_dim.get(d, frozenset())

    def n_faces(self, d: int) -> int:
        return len(self._by_dim.get(d, ()))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for (v,) in self._by_dim.get(0, ()))

    def __contains__(self, face: Face) -> bool:
        return face in self._faces

    def __len__(self) -> int:
        return len(self._faces)

    def facets(self) -> tuple[Face, ...]:
        """Maximal faces, canonically sorted."""
        if self._facets is None:
            # In a downward-closed family a face is maximal iff it is not a
            # subface, one dimension down, of another face.
            covered: set[Face] = set()
            for f in self._faces:
                if f:
                    covered.update(combinations(f, len(f) - 1))
            self._facets = tuple(sorted(self._faces - covered))
        return self._facets

    def is_simplex(self) -> bool:
        """True iff this is the full simplex on its ground set."""
        n = len(self._ground)
        return len(self._faces) == 2 ** n

    def euler_characteristic(self) -> int:
        """Reduced Euler characteristic; -1 for the empty complex, 0 for void."""
        total = 0
        for d, fs in self._by_dim.items():
            if d >= 0:
                total += (-1) ** d * len(fs)
        return total - 1 if self._faces else 0

    # -- equality ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._ground == other._ground and self._faces == other._faces

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._ground, self._faces))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(ground={sorted(self._ground)}, "
            f"facets={[list(f) for f in self.facets()]})"
        )


def _closure(facets: Iterable[Face]) -> set[Face]:
    faces: set[Face] = {EMPTY_FACE}
    for facet in facets:
        for k in range(1, len(facet) + 1):
            faces.update(combinations(facet, k))
    return faces


def from_facets(
    facets: Sequence[Iterable[int]], ground: Iterable[int] | None = None
) -> SimplicialComplex:
    """Downward closure of a facet list.

    Redundant (non-maximal) input faces are absorbed.  With no facets the
    result is the empty complex (only the empty face).  The ground set
    defaults to the union of the facet vertices and must contain it when
    given explicitly.
    """
    canon = [make_face(f) for f in facets]
    support: set[int] = set()
    for f in canon:
        support.update(f)
    if ground is None:
        ground_set = frozenset(support)
    else:
        ground_set = frozenset(ground)
        if not support <= ground_set:
            raise InputError("ground set does not contain all facet vertices")
    return SimplicialComplex(ground_set, _closure(canon), _checked=True)


def link_and_del(X: SimplicialComplex, v: int) -> tuple[SimplicialComplex, SimplicialComplex]:
    """The link and the deletion of a vertex, both on ground set minus v.

    link(v, X) = { s in X : v not in s, s + v in X }
    del(v, X)  = { s in X : v not in s }
    """
    if v not in X.ground_set:
        raise InputError(f"vertex {v} is not in the ground set")
    ground = X.ground_set - {v}
    link_faces = set()
    del_faces = set()
    for f in X.faces:
        if v in f:
            link_faces.add(tuple(u for u in f if u != v))
        else:
            del_faces.add(f)
    return (
        SimplicialComplex(ground, link_faces, _checked=True),
        SimplicialComplex(ground, del_faces, _checked=True),
    )


def join(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes on disjoint ground sets: all unions of faces."""
    if X.ground_set & Y.ground_set:
        raise InputError("join requires disjoint ground sets")
    faces = {
        tuple(sorted(f + g))
        for f in X.faces
        for g in Y.faces
    }
    return SimplicialComplex(X.ground_set | Y.ground_set, faces, _checked=True)


def skeleton(X: SimplicialComplex, j: int) -> SimplicialComplex:
    """Faces of dimension at most j, same ground set."""
    faces = {f for f in X.faces if len(f) - 1 <= j}
    return SimplicialComplex(X.ground_set, faces, _checked=True)


def pure_part(X: SimplicialComplex) -> SimplicialComplex:
    """Downward closure of the top-dimensional faces only."""
    d = X.dim
    if d < 0:
        return X
    return from_facets(sorted(X.faces_of_dim(d)), ground=X.ground_set)


def relabeled(X: SimplicialComplex, mapping: dict[int, int]) -> SimplicialComplex:
    """Apply a vertex relabeling; labels not in the mapping are kept."""
    def move(v: int) -> int:
        return mapping.get(v, v)

    ground = {move(v) for v in X.ground_set}
    if len(ground) != len(X.ground_set):
        raise InputError("relabeling is not injective on the ground set")
    faces = {make_face(move(v) for v in f) for f in X.faces}
    return SimplicialComplex(ground, faces, _checked=True)


def hasse_edges(X: SimplicialComplex, include_empty: bool = True) -> Iterator[tuple[Face, Face]]:
    """Edges (lower, upper) of the face poset between consecutive dimensions."""
    lowest = -1 if include_empty else 0
    for d in sorted(X._by_dim):
        if d < lowest or d + 1 not in X._by_dim:
            continue
        uppers = X._by_dim[d + 1]
        for upper in uppers:
            for lower in combinations(upper, len(upper) - 1):
                if lower in X.faces and len(lower) - 1 >= lowest:
                    yield (lower, upper)


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


# -- canonical digests and the facet file format ----------------------


def digest(X: SimplicialComplex) -> str:
    """Hex digest of the canonical serialization (ground size + sorted facets)."""
    lines = [f"ground {len(X.ground_set)}"]
    for f in sorted(X.facets()):
        lines.append(" ".join(str(v) for v in f))
    if not X.faces:
        lines.append("void")
    payload = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def format_facet_file(X: SimplicialComplex, header_comments: Sequence[str] = ()) -> str:
    """Render a complex in the one-facet-per-line text format.

    The format can only express ground sets of the form {1..n}.
    """
    n = len(X.ground_set)
    if X.ground_set != frozenset(range(1, n + 1)):
        raise InputError("facet files require ground sets of the form {1..n}")
    lines = [f"# {c}" for c in header_comments]
    lines.append(f"ground {len(X.ground_set)}")
    if not X.faces:
        lines.append("void")
    else:
        for f in sorted(X.facets()):
            if f:
                lines.append(" ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"


def parse_facet_text(text: str) -> SimplicialComplex:
    """Parse the facet file format.

    One facet per line as space-separated positive integers.  Lines starting
    with '#' are comments.  An optional first directive line "ground n" fixes
    the ground set to {1..n}; otherwise the ground set is the support.  A
    single directive line "void" denotes the complex with no faces.
    """
    ground: frozenset[int] | None = None
    facets: list[Face] = []
    is_void = False
    saw_data = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("ground"):
            if saw_data:
                raise InputError("'ground' directive must precede the facets")
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise InputError(f"bad ground directive: {line!r}")
            ground = frozenset(range(1, int(parts[1]) + 1))
            continue
        if line == "void":
            is_void = True
            saw_data = True
            continue
        saw_data = True
        try:
            facets.append(make_face(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise InputError(f"bad facet line {line!r}: {exc}") from exc
    if is_void:
        if facets:
            raise InputError("'void' directive cannot be mixed with facets")
        return SimplicialComplex.void(ground or frozenset())
    return from_facets(facets, ground=ground)


def read_facet_file(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_facet_text(fh.read())


def write_facet_file(path, X: SimplicialComplex, header_comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_facet_file(X, header_comments))
