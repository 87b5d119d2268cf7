"""Benchmark of the anticollapse package: one command, three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload survey|construct|verify \\
        --seed N --seconds S --trace 0|1 [--smoke]

Every round runs in a fresh interpreter (``worker.py``) that imports
``src/`` through ``PYTHONPATH``; rounds run one after another, one process
with one thread at a time.  With ``--trace 0`` rounds repeat until about S
seconds of timed work are done and the end-to-end metrics are printed.
With ``--trace 1`` a fixed amount of work runs once untraced and twice
traced, and the per-layer metrics are printed together with the tracing
overhead.  ``--smoke`` shrinks every workload to a few seconds.

Every reported time is normalized to the machine speed that chunks of a
fixed reference computation, run between the timed operations, measured
(``reference.py``); the text lines before the JSON give the times as
measured too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check holds, 1 when one fails, and 2 when the benchmark
cannot run at all (for example without ``src/anticollapse``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_CHUNK_S
from spans import LABELS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
DEADLINE_S = 170.0  # every run must end within 180 s

SURVEY_ROUNDS = 8  # survey set-up is measured this many times per run
TRACE_SURVEY_TRIALS = 200
HASHED_ROWS = 100  # the printed output digest covers this many leading rows

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run prints."""
    metrics = []
    for label in LABELS:
        metrics.append((f"{label}.calls", "count", "lower"))
        metrics.append((f"{label}.self_s", "s", "lower"))
    metrics += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    metrics += [
        ("collapse.replay.steps", "count", "lower"),
        ("collapse.search_collapse.found_ratio", "ratio", "higher"),
        ("duality.is_anticollapsible.found_ratio", "ratio", "higher"),
        ("collapse.core_erosion.stuck_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.count_mismatches", "count", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return metrics


class WorkerError(RuntimeError):
    """A round crashed or timed out; the benchmark has no result."""


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.deadline = time.monotonic() + DEADLINE_S
        self.out_dir = RUN_DIR / f"{workload}-{os.getpid()}"

    def spec(self, k: int, trace: bool, budget_s: float, max_units: int) -> dict:
        """Round k; untraced rounds after the first use derived seeds, so a
        run averages over several inputs instead of repeating one."""
        seed = self.seed if trace or not k else (self.seed * 1_000_003 + k) % (1 << 62)
        spec = {"workload": self.workload, "trace": trace, "budget_s": budget_s,
                "max_units": max_units, "seed": seed,
                "spans_path": str(RUN_DIR / f"spans_{self.workload}_{k}.json")}
        if self.workload == "survey":
            spec.update(n=8, d=3)
        elif self.workload == "construct":
            spec.update(n=9 if self.smoke else 12, out_dir=str(self.out_dir / f"round{k}"))
        else:
            spec.update(n=9 if self.smoke else 11)
        return spec

    def spawn(self, spec: dict) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        spec["t_spawn"] = time.monotonic()
        timeout = self.deadline - spec["t_spawn"]
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{self.workload} round exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise WorkerError(f"{self.workload} round exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def untraced_rounds(self) -> list[dict]:
        """Fresh-interpreter rounds until about ``seconds`` of timed work."""
        survey = self.workload == "survey"
        per_round = self.seconds / SURVEY_ROUNDS if survey else 0.0
        max_units = (5 if self.smoke else 10**9) if survey else 1
        rounds: list[dict] = []
        timed = 0.0
        while True:
            budget = min(per_round, self.seconds - timed)
            rounds.append(self.spawn(self.spec(len(rounds), False, budget, max_units)))
            timed += rounds[-1]["phase_s"]
            if self.smoke and len(rounds) == 2:
                return rounds
            if self.seconds - timed < rounds[-1]["phase_s"] / 2:
                return rounds

    def traced_rounds(self) -> list[dict]:
        """The same fixed work once untraced, then twice traced."""
        units = (5 if self.smoke else TRACE_SURVEY_TRIALS) if self.workload == "survey" else 1
        return [self.spawn(self.spec(k, k > 0, float("inf"), units)) for k in range(3)]


def _output_failures(workload: str, rounds: list[dict], traced: bool) -> tuple[list[str], str]:
    """Cross-round output checks; returns failures and the outputs' digest.

    Traced runs repeat one fixed piece of work in every round, so their
    output rows must be equal; ``construct`` rounds with other seeds must
    still build the same witnesses.  The digest covers outputs that are the
    same in every run of one seed, traced or not.
    """
    witnesses = [json.dumps(r["witness"], sort_keys=True) for r in rounds]
    if traced:
        keyed = ["".join(r["rows"]) for r in rounds]
    else:
        keyed = witnesses if workload == "construct" else []
    failures = [f"round {k} outputs differ from round 0"
                for k, key in enumerate(keyed[1:], start=1) if key != keyed[0]]
    hashed = witnesses[0] if workload == "construct" else "".join(rounds[0]["rows"][:HASHED_ROWS])
    return failures, hashlib.sha256(hashed.encode()).hexdigest()[:16]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speed_factor(rounds: list[dict]) -> float:
    """Mean reference chunk time of ``rounds`` over nominal; above 1 means
    the machine ran slower than when the nominal was fixed.

    Chunks run after each operation until they have taken a fixed share of
    the operations' time, so the mean is weighted like the operations' time
    and the rounds' time divided by it is their time at nominal speed.
    """
    return statistics.fmean(x for r in rounds for x in r["chunk_s"]) / NOMINAL_CHUNK_S


def latencies_ms(workload: str, rounds: list[dict], normalize: bool = True) -> list[float]:
    """Samples for the latency percentiles; each round's are divided by its
    speed factor unless ``normalize`` is false.

    A survey run has hundreds of similar trials, so each trial is a sample.
    ``construct`` and ``verify`` have a few dozen operations of very unequal
    cost (one per d), whose percentiles jump between the cost levels; there
    each round's mean operation latency is a sample instead.
    """
    factors = [speed_factor([r]) if normalize else 1.0 for r in rounds]
    if workload == "survey":
        return [x / f for r, f in zip(rounds, factors) for x in r["lat_ms"]]
    return [1e3 * r["timed_s"] / f / len(r["lat_ms"]) for r, f in zip(rounds, factors)]


def end_to_end(workload: str, rounds: list[dict], normalize: bool = True) -> dict:
    """The end-to-end metrics; every time of a round is divided by the
    round's speed factor unless ``normalize`` is false."""
    factors = [speed_factor([r]) if normalize else 1.0 for r in rounds]
    ops = sum(len(r["lat_ms"]) for r in rounds)
    lat = latencies_ms(workload, rounds, normalize)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    values = {
        "setup_s": statistics.median(r["setup_s"] / f for r, f in zip(rounds, factors)),
        "ops_per_s": ops / sum(r["timed_s"] / f for r, f in zip(rounds, factors)),
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": p90,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(plain: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """The per-layer metrics; times are normalized like the end-to-end ones."""
    factors = [speed_factor([t]) for t in traced]
    first, second = traced[0]["trace"], traced[1]["trace"]
    mismatches = [
        name
        for kind in ("calls", "counts")
        for name in first[kind]
        if first[kind][name] != second[kind][name]
    ]
    values = {}
    for label in LABELS:
        values[f"{label}.calls"] = first["calls"][label]
        values[f"{label}.self_s"] = statistics.mean(
            t["trace"]["self_s"][label] / f for t, f in zip(traced, factors))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            values[f"{label}.self_s"] for label in LABELS if label.split(".")[0] == layer
        )
    counts = first["counts"]
    values["collapse.replay.steps"] = counts["collapse.replay.steps"]

    def ratio(part: str, base: str) -> float:
        calls = first["calls"][base]
        return counts[part] / calls if calls else 0.0

    values["collapse.search_collapse.found_ratio"] = ratio(
        "collapse.search_collapse.found", "collapse.search_collapse")
    values["duality.is_anticollapsible.found_ratio"] = ratio(
        "duality.is_anticollapsible.found", "duality.is_anticollapsible")
    values["collapse.core_erosion.stuck_ratio"] = ratio(
        "collapse.core_erosion.stuck", "collapse.core_erosion")
    traced_s = statistics.mean(t["timed_s"] / f for t, f in zip(traced, factors))
    plain_s = plain["timed_s"] / speed_factor([plain])
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / plain_s
    values["trace.count_mismatches"] = len(mismatches)
    values["trace.spans"] = first["spans"]
    metrics = {name: _metric(values[name], unit) for name, unit, _ in per_layer_metrics()}
    return metrics, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["survey", "construct", "verify"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "anticollapse" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, args.smoke)
    RUN_DIR.mkdir(exist_ok=True)
    try:
        rounds = bench.traced_rounds() if args.trace else bench.untraced_rounds()
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.out_dir, ignore_errors=True)

    failures = [f for r in rounds for f in r["failures"]]
    cross, outputs = _output_failures(args.workload, rounds, traced=bool(args.trace))
    failures += cross
    attempted = sum(len(r["lat_ms"]) for r in rounds)
    failed = min(len(failures), attempted)
    for message in failures:
        print(f"FAIL {args.workload}: {message}", file=sys.stderr)

    if args.trace:
        metrics, mismatches = per_layer(rounds[0], rounds[1:])
        if mismatches:
            print("counter mismatch between the two traced rounds: " + ", ".join(mismatches),
                  file=sys.stderr)
        plain_s = rounds[0]["timed_s"] / speed_factor(rounds[:1])
        print(f"{args.workload} traced: overhead {metrics['trace.overhead_s']['value']:.3f} s "
              f"({100 * metrics['trace.overhead_ratio']['value']:.1f}% of {plain_s:.3f} s "
              f"untraced), {len(mismatches)} counter mismatches")
    else:
        metrics = end_to_end(args.workload, rounds)
        measured = end_to_end(args.workload, rounds, normalize=False)
        lat_samples = len(latencies_ms(args.workload, rounds))
        samples = {"setup_s": len(rounds), "ops_per_s": attempted,
                   "op_ms_p50": lat_samples, "op_ms_p90": lat_samples, "peak_rss_mb": len(rounds)}
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
                  f"(n={samples[name]}; {measured[name]['value']:.6g} as measured)")
    factors = [speed_factor([r]) for r in rounds]
    print(f"{args.workload} machine speed factor = {speed_factor(rounds):.4g} (mean reference "
          f"chunk over {NOMINAL_CHUNK_S * 1e3:g} ms; rounds {min(factors):.4g} to "
          f"{max(factors):.4g}; above 1 is slower than nominal)")
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"{args.workload} outputs sha256 = {outputs} over {len(rounds)} rounds")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
