"""Tests of the benchmark itself: exact count determinism, output shape, refusal without sources.

Run with `python3 -m pytest -q perfbench` from the root of a checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def traced_counts(workload: str, seed: int) -> dict:
    """The counts of the traced run that run.py --trace 1 reports."""
    out = run.worker(workload, seed, "fixed", traced=1)
    return {
        "calls": {name: s[0] for name, s in out["stats"].items()},
        "counts": out["counts"],
        "errors": out["errors"],
        "rep_diagram": (out["rep_hits"], out["rep_misses"]),
        "failed": out["failed"],
        "probes": {k: v for k, v in out["probes"].items() if k != "detail"},
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = traced_counts(workload, 3)
    second = traced_counts(workload, 3)
    assert first == second
    assert first["failed"] == 0
    assert any(first["calls"].values())


def test_short_run_prints_a_correct_result():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "operad", "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rings", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "g-operad", "--seed", "3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
