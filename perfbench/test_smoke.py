"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced, checks that each metric named in
BENCHMARK.json is reported with its unit, that the run record and the
failure ratio are printed, and that the cost curve runs.
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD_KEYS = {"seed", "inputs_digest", "git_commit", "source_digest", "python", "nproc",
               "loadavg_start", "loadavg_end", "lru_caches"}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_with_its_unit(workload: str, trace: int):
    out = run("perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
              "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("failed_ops_ratio") for line in lines)
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    assert RECORD_KEYS <= set(record) and record["seed"] == 7 and record["lru_caches"] == 16


def test_traced_time_adds_up():
    out = run("perfbench/run.py", "--workload", "certify", "--seed", "7", "--seconds", "1",
              "--trace", "1", "--smoke")
    metrics = {k: v["value"] for k, v in json.loads(out.stdout.strip().splitlines()[-1])["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in
                 ("partitions", "boundary", "littlewood", "corners", "weights", "operators"))
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.op_s"])
    assert metrics["operators.apply_Dt.calls"] > 0 and metrics["stage.crosscheck_s"] > 0


def test_same_seed_same_inputs():
    digests = set()
    for _ in range(2):
        out = run("perfbench/run.py", "--workload", "layer-sums", "--seed", "5", "--seconds", "0.1",
                  "--smoke")
        digests.add(json.loads(next(l for l in out.stdout.splitlines() if l.startswith("record "))[7:])
                    ["inputs_digest"])
    assert len(digests) == 1


def test_fails_without_the_package(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run("perfbench/run.py", "--workload", "layer-sums", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


def test_cost_curve_tiny():
    out = run("perfbench/curve.py", "--t", "2", "--n-max", "2")
    assert out.returncode == 0, out.stderr
    rows = out.stdout.strip().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith("True") for row in rows)
