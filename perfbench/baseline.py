"""Run the benchmark over several seeds and record medians and spreads.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --label baseline \\
        --out perfbench/BENCH_baseline.json

For every workload in ``BENCHMARK.json`` this makes ``--runs`` untraced runs
with seeds ``--first-seed``, ``--first-seed + 1``, ... and one traced run
with the first seed.  For each end-to-end metric it records the values, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
which is the distance between the quartiles as a share of the median.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--label", default="baseline")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in config["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"label": args.label, "machine": f"{platform.machine()}, {platform.python_version()}",
              "run_seconds": config["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, config["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        traced = run_once(workload, seeds[0], config["run_seconds"], 1)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs], bound)
            for name, bound in bounds.items()
        }
        for name, s in metrics.items():
            flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "  (over a third of the bound)"
            print(f"{workload} {name}: median {s['median']:.5g}, spread {s['spread']:.4f}, "
                  f"bound {s['bound']}{flag}", flush=True)
        report["workloads"][workload] = {
            "end_to_end": metrics,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "traced": {"seed": seeds[0], "wall_s": round(traced["wall_s"], 2),
                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
