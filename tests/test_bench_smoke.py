"""One tiny traced run of the benchmark, so it cannot silently rot.

The benchmark in ``perfbench/`` wraps the program's cross-module calls and
reads ``GreedyProjector.cand_order``; a change that breaks either shows up
here as a failed check or a span that never fired.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fields_tiny_traced_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fields", "--scale", "tiny",
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
