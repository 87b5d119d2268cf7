"""Seeded inputs for the ``verify`` workload, made without the package.

Each input is the full simplex on [n] collapsed in a seeded random order
until its dimension is at most d, written as facet text, together with the
reversed moves as an anticollapse certificate in JSON.  Only the standard
library is used, so the inputs do not depend on the code under test.
"""
from __future__ import annotations

import hashlib
import json
from random import Random


def _bits(m: int):
    while m:
        b = m & -m
        yield b
        m ^= b


def _tuple(m: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(m.bit_length()) if m >> i & 1)


def digest_of(n: int, facets: list[tuple[int, ...]]) -> str:
    """The package's documented digest: ground size plus sorted facets."""
    lines = [f"ground {n}"] + [" ".join(map(str, f)) for f in sorted(facets)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class _Collapser:
    """Faces of a complex as bitmasks with coface degrees and free pairs."""

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        self.all = (1 << n) - 1
        self.faces = set(range(1, self.all + 1))
        self.deg = {m: n - m.bit_count() for m in self.faces}
        self.high = sum(1 for m in self.faces if m.bit_count() > d + 1)
        self.free: set[int] = set()
        for m in self.faces:
            self._update(m)

    def coface(self, t: int) -> int:
        for b in _bits(self.all & ~t):
            if t | b in self.faces:
                return t | b
        raise AssertionError("face without coface")

    def is_free(self, t: int) -> bool:
        return (
            t in self.faces
            and self.deg[t] == 1
            and self.deg[self.coface(t)] == 0
        )

    def _update(self, t: int) -> None:
        # only pairs whose coface has dimension above d are collapsed
        if t.bit_count() > self.d and self.is_free(t):
            self.free.add(t)
        else:
            self.free.discard(t)

    def collapse(self, t: int, c: int) -> None:
        touched = set()
        for face in (c, t):
            self.faces.discard(face)
            self.free.discard(face)
            if face.bit_count() > self.d + 1:
                self.high -= 1
            for b in _bits(face):
                s = face ^ b
                if s and s in self.faces:
                    self.deg[s] -= 1
                    touched.add(s)
        for s in list(touched):
            if self.deg[s] == 0:
                touched.update(s ^ b for b in _bits(s) if s ^ b)
        for s in touched:
            self._update(s)

    def free_pair_count(self) -> int:
        """Free pairs of every dimension, as ``free_faces`` counts them."""
        return sum(
            1 for t in self.faces if self.deg[t] == 1 and self.deg[self.coface(t)] == 0
        )


def collapsed_simplex(n: int, d: int, rng: Random):
    """Collapse the simplex on [n] to dimension at most d.

    Returns (facets, moves, free_pair_count).  A run that gets stuck above
    dimension d is restarted from the simplex.
    """
    while True:
        state = _Collapser(n, d)
        moves = []
        while state.high and state.free:
            t = sorted(state.free)[rng.randrange(len(state.free))]
            c = state.coface(t)
            state.collapse(t, c)
            moves.append((t, c))
        if not state.high:
            break
    facets = sorted(_tuple(m) for m in state.faces if state.deg[m] == 0)
    return facets, moves, state.free_pair_count()


def verify_input(n: int, d: int, seed: int) -> dict:
    """One ``verify`` input: facet text, certificate JSON and expectations."""
    facets, moves, free_count = collapsed_simplex(n, d, Random(seed))
    text = f"ground {n}\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets)
    cert = {
        "kind": "anticollapse",
        "start": digest_of(n, facets),
        "end": digest_of(n, [tuple(range(1, n + 1))]),
        "steps": [[list(_tuple(t)), list(_tuple(c))] for t, c in reversed(moves)],
    }
    return {"d": d, "facet_text": text, "cert_json": json.dumps(cert), "free_faces": free_count}
