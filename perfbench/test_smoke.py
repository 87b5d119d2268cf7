"""Smoke test of the benchmark at tiny sizes; it does not gate on timings.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

``--smoke`` runs ``survey`` with 5 trials per round, ``construct`` at n = 9
and ``verify`` at n = 9.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 3, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    code, lines, err = run_bench(workload, trace)
    assert code == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONFIG["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(line.startswith(f"{workload} fail_ratio = 0 ") for line in lines)
    if trace:
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_repeat_for_one_seed_and_under_tracing(workload):
    digests = set()
    for trace in (0, 0, 1):
        code, lines, err = run_bench(workload, trace)
        assert code == 0, err
        digests.add(next(line for line in lines if " outputs sha256 = " in line).split()[3])
    assert len(digests) == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines, _ = run_bench("survey", 0, root=tmp_path)
    assert code != 0
    assert not lines
