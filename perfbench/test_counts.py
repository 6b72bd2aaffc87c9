"""Self-checks of the benchmark.

    python3 -m pytest perfbench -q

Two traced runs with the same seed must report identical work counts
(pivots, nodes, LP calls, ascent steps, epochs, fallbacks, resamples),
every run must report exactly the metrics BENCHMARK.json declares, and
a directory holding only the benchmark must fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# wall-clock metrics; every other per-layer metric is a count or a ratio of counts
TIMED_SUFFIXES = (".self_s", ".overhead_frac")


def run(root, workload, trace, seconds, seed=5):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(res):
    return {name: metric["unit"] for name, metric in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first = result(run(ROOT, workload, 1, seconds=2))
    second = result(run(ROOT, workload, 1, seconds=2))
    counts = [{name: metric["value"] for name, metric in res["metrics"].items()
               if not name.endswith(TIMED_SUFFIXES)} for res in (first, second)]
    assert counts[0] == counts[1]
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result(run(ROOT, workload, 0, seconds=1))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0, seconds=1)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
