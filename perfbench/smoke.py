"""Smoke test of the benchmark: tiny-size runs of every workload.

Run from the root of a checkout:

    python3 -m pytest perfbench/smoke.py

The file name keeps it out of the repository's default test collection;
pytest collects it when given explicitly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _record(workload: str, trace: int, seed: int = 3) -> dict:
    path = ROOT / ".perfbench_runs" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = spans.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    if trace:
        assert _record(workload, trace)["missing_spans"] == []
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_same_output_hashes():
    hashes = []
    for _ in range(2):
        assert _run("ladder", 0, seed=5).returncode == 0
        hashes.append(_record("ladder", 0, seed=5)["output_hashes"])
    assert hashes[0] and hashes[0] == hashes[1]


def test_refuses_a_directory_without_the_program(tmp_path):
    proc = _run("fields", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == sorted(workloads.SIZES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
