"""A fixed reference computation that measures how fast the machine runs.

The 2-vCPU box this benchmark was built on changes speed by up to 30 % for
minutes at a time (its neighbours share the host), so wall and CPU times of
the same work drift together from run to run.  Every worker therefore
interleaves short chunks of this computation with its timed operations and
``run.py`` divides every time a run measured by the run's speed factor, the
median chunk time over ``NOMINAL_CHUNK_S``: a normalized time is the time
the work would take at the speed the machine had when that constant was
fixed.  A change to the program moves its normalized times in full; a
slower machine moves both the operations and the chunks, and cancels out.

The factor is one per run, the median over all its chunks, and not one per
operation or round: the speed drifts over tens of seconds to minutes, while
the median of the few chunks next to one operation, or within one round of
a few seconds, varies by several per cent of its own and would widen the
spread it is meant to narrow.

The chunk is pure Python of the kinds the package spends its time on:
dictionaries and sets of integer bitmasks (a seeded collapse of a simplex,
as ``inputs.py`` makes them), fraction-free elimination on big integers,
and hashing and sorting of frozensets and tuples.  It uses only the
standard library and never the package, so no change to the program can
change it.
"""
from __future__ import annotations

import time
from itertools import combinations
from random import Random

import inputs

# About the median duration of one chunk on the 2-vCPU x86_64 box (Python
# 3.11.7) the baseline was recorded on.  It only sets the scale of normalized times.
NOMINAL_CHUNK_S = 0.004
# Reference chunks run for this share of the operations' time.
CHUNK_SHARE = 0.25

_rng = Random(11)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]
_FACES = [frozenset(c) for c in combinations(range(10), 4)]


def _bareiss(rows: list[list[int]]) -> int:
    m = [r[:] for r in rows]
    n, prev = len(m), 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def _ridges() -> int:
    cofaces: dict[frozenset, list[frozenset]] = {}
    for face in _FACES:
        for v in face:
            cofaces.setdefault(face - {v}, []).append(face)
    return len(sorted(tuple(sorted(k)) for k in cofaces))


def chunk() -> None:
    """One chunk of fixed work, about 4 ms on the baseline machine."""
    for seed in (3, 4):
        inputs.verify_input(7, 2, seed)
    _bareiss(_MATRIX)
    _ridges()
    _ridges()


class Meter:
    """Times operations and runs reference chunks between them.

    After each operation, chunks run until they have taken ``CHUNK_SHARE``
    of the time the operations took so far, so every stretch of the timed
    phase has chunks next to it.
    """

    def __init__(self):
        self.ops: list[float] = []  # seconds of each operation
        self.chunks: list[float] = []  # seconds of each reference chunk
        self.op_s = 0.0
        self.chunk_s = 0.0

    def run_chunk(self) -> None:
        t = time.perf_counter()
        chunk()
        dt = time.perf_counter() - t
        self.chunks.append(dt)
        self.chunk_s += dt

    def warm_up(self, count: int) -> None:
        """Chunks before the first operation, which also measure set-up."""
        for _ in range(count):
            self.run_chunk()

    def record(self, started: float) -> None:
        """Close the operation that began at ``started``, then pay chunks."""
        dt = time.perf_counter() - started
        self.ops.append(dt)
        self.op_s += dt
        while self.chunk_s < CHUNK_SHARE * self.op_s:
            self.run_chunk()
