"""Simplicial complexes as downward-closed families of faces.

A face is a tuple of strictly increasing positive integer vertex labels; the
empty tuple is the empty face (dimension -1).  A complex stores an explicit
ground set, which may be larger than the support of its faces: the
combinatorial dual is only well defined against a fixed ground set.

Inside a complex each face is an int bitmask over the sorted ground set:
bit i is the i-th smallest label (so any label costs one bit) and 0 is the
empty face.  Tuples are made only at the boundary (make_face, parsing and
printing, the public accessors); mask_of and face_of serve certificate steps.

Two degenerate complexes are distinguished on purpose:

* the "empty complex" on a ground set, whose only face is the empty face;
* the "void complex", which has no faces at all (it arises as the dual of
  the full simplex and is needed for the dual of a complex to be an exact
  involution).
"""
from __future__ import annotations

import hashlib
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError, SizeError

Face = tuple[int, ...]

EMPTY_FACE: Face = ()

MAX_GROUND = 4096  # largest "ground n": about 1 MB of bits

# The most faces one complex may have, checked before a closure, dual or
# witness is built: 2^18 faces take about 50 MB as a set of masks, and the
# largest construct row in use (n = 16) needs 2^16.
MAX_FACES = 1 << 18


def check_face_count(count: int, what: str) -> None:
    """SizeError, before any allocation, when what would have more than
    MAX_FACES faces; count may be any upper bound on its face count."""
    if count > MAX_FACES:
        raise SizeError(f"{what} would have more than {MAX_FACES} faces")


def make_face(vertices: Iterable[int]) -> Face:
    """Validate and canonicalize a face: sorted, no repeats, positive labels."""
    face = tuple(sorted(vertices))
    for v in face:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InputError(f"vertex labels must be positive integers, got {v!r}")
    if len(set(face)) != len(face):
        raise InputError(f"face {face} has a repeated vertex")
    return face


def _bits_of(ground: Iterable[int]) -> dict[int, int]:
    """Each ground label mapped to its bit, in sorted label order."""
    return {v: 1 << i for i, v in enumerate(sorted(ground))}


def _mask(bits: dict[int, int], face: Iterable[int]) -> int:
    m = 0
    for v in face:
        b = bits.get(v)
        if b is None:
            raise InputError(f"vertex {v} is outside the ground set")
        m |= b
    return m


class SimplicialComplex:
    """Immutable downward-closed face family over an explicit ground set.
    Its facets, digest and boundary invariant factors are computed once."""

    __slots__ = ("_ground", "_labels", "_bits", "_masks", "_by_size", "_faces", "_facets",
                 "_hash", "_digest", "_factors")

    def __init__(self, ground: Iterable[int], faces: Iterable[Face]):
        ground_set = frozenset(ground)
        face_set = frozenset(faces)
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
        bits = _bits_of(ground_set)
        self._setup(ground_set, bits, {_mask(bits, f) for f in face_set})
        self._faces = face_set

    @classmethod
    def _from_masks(cls, ground: Iterable[int], masks: Iterable[int]) -> "SimplicialComplex":
        """The private constructor: masks over the sorted ground, which must
        form a downward-closed family.  Nothing is checked."""
        X = cls.__new__(cls)
        ground_set = frozenset(ground)
        X._setup(ground_set, _bits_of(ground_set), masks)
        return X

    def _setup(self, ground: frozenset[int], bits: dict[int, int], masks: Iterable[int]) -> None:
        self._ground = ground
        self._labels = tuple(bits)
        self._bits = bits
        self._masks = frozenset(masks)
        self._by_size: dict[int, set[int]] = {}
        for m in self._masks:
            self._by_size.setdefault(m.bit_count(), set()).add(m)
        self._faces = self._facets = self._hash = self._digest = self._factors = None

    # -- construction -------------------------------------------------

    @staticmethod
    def void(ground: Iterable[int]) -> "SimplicialComplex":
        """The complex with no faces at all."""
        return SimplicialComplex._from_masks(ground, ())

    @staticmethod
    def empty(ground: Iterable[int]) -> "SimplicialComplex":
        """The complex whose only face is the empty face."""
        return SimplicialComplex._from_masks(ground, (0,))

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

    # -- masks and faces -----------------------------------------------

    def mask_of(self, face: Iterable[int]) -> int:
        """The bitmask of a face; InputError for a vertex outside the ground set."""
        return _mask(self._bits, face)

    def face_of(self, mask: int) -> Face:
        """The face tuple of a bitmask over the sorted ground set."""
        labels = self._labels
        face = []
        while mask:
            low = mask & -mask
            face.append(labels[low.bit_length() - 1])
            mask ^= low
        return tuple(face)

    # -- basic queries -------------------------------------------------

    @property
    def ground_set(self) -> frozenset[int]:
        return self._ground

    @property
    def faces(self) -> frozenset[Face]:
        if self._faces is None:
            self._faces = frozenset(map(self.face_of, self._masks))
        return self._faces

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex, -2 for void."""
        if not self._masks:
            return -2
        return max(self._by_size) - 1

    def faces_of_dim(self, d: int) -> frozenset[Face]:
        return frozenset(map(self.face_of, self._by_size.get(d + 1, ())))

    def n_faces(self, d: int) -> int:
        return len(self._by_size.get(d + 1, ()))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._labels[m.bit_length() - 1] for m in self._by_size.get(1, ()))

    def __contains__(self, face: Face) -> bool:
        return face in self.faces

    def __len__(self) -> int:
        return len(self._masks)

    def facets(self) -> tuple[Face, ...]:
        """Maximal faces, canonically sorted."""
        if self._facets is None:
            # In a downward-closed family a face is maximal iff adding any
            # one vertex to it gives a non-face.
            masks = self._masks
            full = (1 << len(self._labels)) - 1
            tops = []
            for m in masks:
                rest = full ^ m
                while rest:
                    b = rest & -rest
                    if m | b in masks:
                        break
                    rest ^= b
                else:
                    tops.append(m)
            self._facets = tuple(sorted(map(self.face_of, tops)))
        return self._facets

    def is_simplex(self) -> bool:
        """True iff this is the full simplex on its ground set."""
        return len(self._masks) == 1 << len(self._labels)

    def euler_characteristic(self) -> int:
        """Reduced Euler characteristic; -1 for the empty complex, 0 for void."""
        return sum((-1) ** (k + 1) * len(ms) for k, ms in self._by_size.items())

    # -- equality ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._ground == other._ground and self._masks == other._masks

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._ground, self._masks))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(ground={sorted(self._ground)}, "
            f"facets={[list(f) for f in self.facets()]})"
        )


def _closure(tops: Iterable[int]) -> set[int]:
    """Every submask of every mask in tops, the empty face included."""
    faces: set[int] = {0}
    for m in tops:
        sub = m if m not in faces else 0  # a face already in has all its subfaces
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
    return faces


def from_facets(
    facets: Sequence[Iterable[int]], ground: Iterable[int] | None = None
) -> SimplicialComplex:
    """Downward closure of a facet list.

    Redundant (non-maximal) input faces are absorbed.  With no facets the
    result is the empty complex (only the empty face).  The ground set
    defaults to the union of the facet vertices and must contain it when
    given explicitly.  A closure that may exceed MAX_FACES faces raises
    SizeError before it is built.
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
    # the closure holds at most 2^|f| faces per facet, and 2^n on n labels
    check_face_count(min(sum(1 << len(f) for f in canon), 1 << len(ground_set)),
                     "the closure of the facet list")
    bits = _bits_of(ground_set)
    return SimplicialComplex._from_masks(ground_set, _closure(_mask(bits, f) for f in canon))


def link_and_del(X: SimplicialComplex, v: int) -> tuple[SimplicialComplex, SimplicialComplex]:
    """The link and the deletion of a vertex, both on ground set minus v.

    link(v, X) = { s in X : v not in s, s + v in X }
    del(v, X)  = { s in X : v not in s }
    """
    if v not in X.ground_set:
        raise InputError(f"vertex {v} is not in the ground set")
    bit = X._bits[v]
    low = bit - 1
    link_faces = set()
    del_faces = set()
    for m in X._masks:
        # drop v's bit and move the bits above it down by one
        (link_faces if m & bit else del_faces).add((m & low) | ((m >> 1) & ~low))
    ground = X.ground_set - {v}
    return (
        SimplicialComplex._from_masks(ground, link_faces),
        SimplicialComplex._from_masks(ground, del_faces),
    )


def join(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes on disjoint ground sets: all unions of faces."""
    if X.ground_set & Y.ground_set:
        raise InputError("join requires disjoint ground sets")
    ground = X.ground_set | Y.ground_set
    bits = _bits_of(ground)
    left = [_mask(bits, f) for f in X.faces]
    right = [_mask(bits, g) for g in Y.faces]
    return SimplicialComplex._from_masks(ground, {f | g for f in left for g in right})


def skeleton(X: SimplicialComplex, j: int) -> SimplicialComplex:
    """Faces of dimension at most j, same ground set."""
    return SimplicialComplex._from_masks(
        X.ground_set, (m for m in X._masks if m.bit_count() <= j + 1)
    )


def relabeled(X: SimplicialComplex, mapping: dict[int, int]) -> SimplicialComplex:
    """Apply a vertex relabeling; labels not in the mapping are kept."""
    moves = {v: mapping.get(v, v) for v in X.ground_set}
    ground = make_face(set(moves.values()))
    if len(ground) != len(X.ground_set):
        raise InputError("relabeling is not injective on the ground set")
    bits = _bits_of(ground)
    moved = [bits[moves[v]] for v in X._labels]  # bit i of a mask goes to moved[i]

    def image(m: int) -> int:
        out = 0
        while m:
            low = m & -m
            out |= moved[low.bit_length() - 1]
            m ^= low
        return out

    return SimplicialComplex._from_masks(ground, map(image, X._masks))


# -- canonical digests and the facet file format ----------------------


def digest(X: SimplicialComplex) -> str:
    """Hex digest of the canonical serialization (ground size + sorted facets)."""
    if X._digest is None:
        lines = [f"ground {len(X.ground_set)}"]
        lines.extend(" ".join(map(str, f)) for f in X.facets())
        if not X._masks:
            lines.append("void")
        X._digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return X._digest


def format_facet_file(X: SimplicialComplex, header_comments: Sequence[str] = ()) -> str:
    """Render a complex in the one-facet-per-line text format.

    The format can only express ground sets of the form {1..n}.
    """
    n = len(X.ground_set)
    if X.ground_set != frozenset(range(1, n + 1)):
        raise InputError("facet files require ground sets of the form {1..n}")
    lines = [f"# {c}" for c in header_comments]
    lines.append(f"ground {len(X.ground_set)}")
    if not len(X):
        lines.append("void")
    else:
        for f in X.facets():
            if f:
                lines.append(" ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"


def _is_number(token: str) -> bool:
    """ASCII decimal digits only; int() also takes signs, underscores and
    any Unicode digit."""
    return token.isascii() and token.isdigit()


def parse_facet_text(text: str) -> SimplicialComplex:
    """Parse the facet file format.

    One facet per line as space-separated positive integers.  Lines starting
    with '#' are comments.  An optional first directive line "ground n", with
    n <= MAX_GROUND, fixes the ground set to {1..n}; otherwise it is the
    support.  A single directive line "void" denotes the complex with no
    faces.  Each directive may appear at most once.  Every number is ASCII
    decimal digits.
    """
    ground: frozenset[int] | None = None
    facets: list[Face] = []
    is_void = False
    saw_data = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "ground":
            if saw_data:
                raise InputError("'ground' directive must precede the facets")
            if ground is not None:
                raise InputError("'ground' directive given twice")
            n = parts[1] if len(parts) == 2 else ""
            try:
                ok = _is_number(n) and 0 < int(n) <= MAX_GROUND
            except ValueError:  # more digits than int() converts
                ok = False
            if not ok:
                raise InputError(f"bad ground directive {line!r}: n must be 1..{MAX_GROUND}")
            ground = frozenset(range(1, int(n) + 1))
            continue
        if line == "void":
            if is_void:
                raise InputError("'void' directive given twice")
            is_void = True
            saw_data = True
            continue
        saw_data = True
        try:
            if not _is_number("".join(parts)):  # one test for every token
                raise InputError("vertices must be ASCII decimal numbers")
            facets.append(make_face(map(int, parts)))
        except ValueError as exc:  # InputError, or a token past int()'s digit limit
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
