"""Tiny traced runs of the benchmark, so it cannot silently rot.

The benchmark in ``perfbench/`` wraps the program's cross-module calls and
reads ``GreedyProjector.cand_order``; a change that breaks either shows up
here as a failed check or a span that never fired. ``fields`` covers the
map and projection layers, ``ladder`` the design, sampler and scoring ones,
``spatial`` the predictive-process sampler and scorer.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tiny_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--scale", "tiny",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"], proc.stderr
    assert summary["failed"] == 0
    record_line = next(ln for ln in lines if ln.startswith("record: "))
    record = json.loads((ROOT / record_line.removeprefix("record: ")).read_text())
    assert record["missing_spans"] == []


def test_fields_tiny_traced_run():
    tiny_traced_run("fields")


def test_ladder_tiny_traced_run():
    tiny_traced_run("ladder")


def test_spatial_tiny_traced_run():
    tiny_traced_run("spatial")
