"""One round of a benchmark workload, run in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with ``src`` on
``PYTHONPATH``; ``run.py`` starts it and reads the JSON result it prints as
its last line.  A fresh interpreter per round is the cold-state rule: the
package's process-wide caches (``lru_cache`` on ``catalog``,
``_construct_complex`` and ``_witness_certificate``, and
``_SKELETON_RANK_CACHE``) would otherwise make repeated rounds nearly free.

The worker sees the package only through public calls.  It does its set-up
(import and input generation), then runs whole units (a survey trial, a
``construct`` row, a ``verify`` pass) while the next unit is expected to fit
in its time budget, then checks the outputs outside the timed phase.
Between operations it runs chunks of the reference computation
(``reference.py``) and reports their times next to the operations', so
``run.py`` can normalize for the machine's speed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from math import comb
from pathlib import Path

import inputs
from reference import Meter
from spans import Tracer

WARM_UP_CHUNKS = 25  # reference chunks run before the first timed operation

# Canonical digests of the constructed witnesses.  They depend on (n, d)
# only, never on the seed or on how the certificate was found.
WITNESS_DIGESTS = {
    (9, 2): "cb59ca39fc416d386e260ff582a8fdd73e2f1a420e06c240636e0c467610e3c0",
    (9, 3): "6d771e433f51ad6583c1be7bbf47a8dfea080958ca5d2604d149b69e9378d054",
    (9, 4): "ed171addc7b450ce346f09714ad6f3ccea7217341c7be953fbc5787d51f4bb80",
    (9, 5): "8fe50d10d42fe1604197a3e0f51604b8ec68c0a08883e1f5a99b939e2bb0b401",
    (12, 2): "ec3a5e3486bb7b9d7d3405abb9e454e448165d40ca69fcea7f6ff2d3074dca47",
    (12, 3): "523ae3739c2f13ac30f2fac75e72e3914a6df8294d37bd040cdfe626a987b4c5",
    (12, 4): "3e9120b90bd80858ff2f0ba07d319f35a4fee97ae45dfa83e405e674e972a712",
    (12, 5): "2cf44488829796f5d3779279039fa0764e8d3e89ed6e2b40ecb9464049b7acca",
    (12, 6): "e2c3c5e616c03073fb0e32a90bc3ac5384befa85c5098bd05436634b068317e6",
    (12, 7): "1caa80cd26fbff491a7679892c7f7b979d17fe7e055047397d9da2a7149b3ee0",
    (12, 8): "a8c5589420ccfa7612c4d39e25b38d421123b183e2a86d7610f1d92e3e7ea0f7",
}


def _short(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_units(budget_s: float, max_units: int, run_unit) -> float:
    """Run units while the next one is expected to fit; returns seconds,
    reference chunks included."""
    units = 0
    started = time.perf_counter()
    last = 0.0
    while units < max_units:
        elapsed = time.perf_counter() - started
        if units and elapsed + last > budget_s:
            break
        t = time.perf_counter()
        run_unit(units)
        last = time.perf_counter() - t
        units += 1
    return time.perf_counter() - started


def survey_round(spec: dict, tracer, meter: Meter, result: dict) -> None:
    import anticollapse

    n, d = spec["n"], spec["d"]
    spanning = comb(n - 1, d)
    trials = anticollapse.survey(n, d, 10**9, spec["seed"])

    def unit(op):
        if tracer is not None:
            tracer.op = op
        t = time.perf_counter()
        seed, r = next(trials)
        meter.record(t)
        # keep only the row, so memory does not grow with the trial count
        result["rows"].append(_short(
            f"{seed},{r.facet_count},{r.q_acyclic},{r.torsion_order},"
            f"{r.d_collapsible},{r.collapsible},{r.anticollapsible},{r.free_face_count}"))
        if not (r.q_acyclic and r.facet_count == spanning):
            result["failures"].append(f"trial {seed}: not a Q-acyclic spanning complex")

    result["setup_s"] = time.monotonic() - spec["t_spawn"]
    meter.warm_up(WARM_UP_CHUNKS)
    result["phase_s"] = _timed_units(spec["budget_s"], spec["max_units"], unit)
    trials.close()


def construct_round(spec: dict, tracer, meter: Meter, result: dict) -> None:
    from anticollapse import cli

    n, seed = spec["n"], spec["seed"]
    out = Path(spec["out_dir"])
    dims = range(2, n - 3)
    codes = {}

    def unit(_):
        for d in dims:
            if tracer is not None:
                tracer.op = d
            argv = ["construct", "--n", str(n), "--d", str(d), "--seed", str(seed),
                    "--out", str(out)]
            t = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes[d] = cli.main(argv)
            meter.record(t)

    result["setup_s"] = time.monotonic() - spec["t_spawn"]
    meter.warm_up(WARM_UP_CHUNKS)
    result["phase_s"] = _timed_units(spec["budget_s"], spec["max_units"], unit)
    # the checks below are not part of the measured work
    result["rss_mb"] = _peak_rss_mb()
    _timings(meter, result)
    if tracer is not None:
        result["trace"] = tracer.summary()
    from anticollapse import Certificate, digest, free_faces, read_facet_file, replay

    for d in dims:
        stem = out / f"witness_{n}_{d}"
        if codes[d] != 0:
            result["failures"].append(f"construct ({n}, {d}) exited {codes[d]}")
            continue
        X = read_facet_file(f"{stem}.facets")
        cert_text = Path(f"{stem}.cert").read_text(encoding="utf-8")
        witness = digest(X)
        result["witness"][str(d)] = witness
        result["rows"].append(_short(f"{d},{witness},{cert_text}"))
        problems = []
        if X.dim != d or X.support != frozenset(range(1, n + 1)):
            problems.append("wrong dimension or support")
        if free_faces(X):
            problems.append("free faces present")
        if not replay(X, Certificate.from_json(cert_text)).is_simplex():
            problems.append("certificate does not reach the simplex")
        if witness != WITNESS_DIGESTS[(n, d)]:
            problems.append("witness digest differs from the pinned one")
        if problems:
            result["failures"].append(f"construct ({n}, {d}): " + ", ".join(problems))


def verify_round(spec: dict, tracer, meter: Meter, result: dict) -> None:
    from anticollapse import (Certificate, check_alexander_duality, free_faces,
                              homology, is_acyclic, replay)
    from anticollapse.complexes import parse_facet_text

    n, seed = spec["n"], spec["seed"]
    cases = [inputs.verify_input(n, d, seed * 1000 + d) for d in range(2, n - 3)]

    def unit(_):
        for k, case in enumerate(cases):
            if tracer is not None:
                tracer.op = k
            t = time.perf_counter()
            # parse from text every time, so no instance cache carries over
            X = parse_facet_text(case["facet_text"])
            end = replay(X, Certificate.from_json(case["cert_json"]))
            free = len(free_faces(X))
            profile = homology(X)
            checks = {
                "replays to the simplex": end.is_simplex(),
                "free face count": free == case["free_faces"],
                "integral homology vanishes": profile.is_trivial(),
                "acyclic over GF(2)": is_acyclic(X, 2),
                "Alexander duality over GF(3)": check_alexander_duality(X, 3),
            }
            meter.record(t)
            result["rows"].append(_short(f"{case['d']},{free},{profile}"))
            bad = [name for name, ok in checks.items() if not ok]
            if bad:
                result["failures"].append(f"verify d={case['d']}: " + ", ".join(bad))

    result["setup_s"] = time.monotonic() - spec["t_spawn"]
    meter.warm_up(WARM_UP_CHUNKS)
    result["phase_s"] = _timed_units(spec["budget_s"], spec["max_units"], unit)


ROUNDS = {"survey": survey_round, "construct": construct_round, "verify": verify_round}


def _timings(meter: Meter, result: dict) -> None:
    """Operation and reference chunk times, as measured."""
    result["lat_ms"] = [1e3 * dt for dt in meter.ops]
    result["timed_s"] = meter.op_s
    result["chunk_s"] = meter.chunks


def main() -> None:
    spec = json.loads(sys.argv[1])
    import anticollapse  # noqa: F401  (the import is part of the measured set-up)

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    meter = Meter()
    result = {"rows": [], "failures": [], "witness": {}}
    ROUNDS[spec["workload"]](spec, tracer, meter, result)
    result.setdefault("rss_mb", _peak_rss_mb())
    if "lat_ms" not in result:
        _timings(meter, result)
    if tracer is not None:
        result.setdefault("trace", tracer.summary())
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans[: result["trace"]["spans"]], fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
