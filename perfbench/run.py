#!/usr/bin/env python3
"""Benchmark of `stvar pipeline` on three seeded workloads.

Run from the root of an stvar checkout:

    python3 perfbench/run.py --workload fields --seed 1 --seconds 30 --trace 0

and, for every end-to-end metric of all three workloads,

    for w in fields ladder spatial; do python3 perfbench/run.py --workload $w --seed 1 --seconds 30; done

Workloads (see workloads.py for why each was chosen): ``fields``, ``ladder``
and ``spatial``. One run:

1. Sets up three times, each in a fresh process: start the interpreter,
   import stvar from ``src/`` and write the seeded inputs. ``setup_s`` is the
   median wall time of those processes. The three sets of inputs must be
   byte-identical.
2. Runs the workload's pipeline config through ``stvar.cli.dispatch``, one
   fresh process per repetition, until ``--seconds`` have passed (at least
   two repetitions). ``wall_s`` is the median dispatch time, ``peak_rss_mb``
   the median peak resident memory of the repetition's process, and
   ``output_mb`` the median bytes written to its output directory.
3. Checks every repetition: each stage must exit 0, the workload's output
   checks must pass, and every repetition's non-manifest outputs must have
   the same sha256 as the first's. ``ok_frac`` is the share of these
   operations that passed; a failure also sets ``correct`` to false.

With ``--trace 1`` half the time goes to untraced repetitions and half to
traced ones, whose spans (recorded by wrappers in spans.py; the program is
not edited) give the per-layer metrics, as medians over traced repetitions.
``trace.overhead_s`` is the traced minus the untraced median ``wall_s``.
Every expected span that never fired is listed and counts as a failure.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of
the run (environment, every repetition, output hashes, checks, missing
spans, span totals) is written to ``.perfbench_runs/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3
# BLAS and OpenMP threads for every child process: one, which is at or below
# any machine's core count and keeps runs on a shared machine steady.
THREADS = 1
# A run must end within 180 s; a child still running past this is killed.
BUDGET_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
    ("ok_frac", "fraction"),
)


class Ledger:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Runner:
    """Starts child processes for one benchmark run and waits for each."""

    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=str(THREADS),
            OMP_NUM_THREADS=str(THREADS),
            MKL_NUM_THREADS=str(THREADS),
            PYTHONDONTWRITEBYTECODE="1",
        )

    def child(self, mode: str, name: str, traced: bool, extra=()):
        """Run child.py once; returns (result or None, seconds, error text)."""
        d = self.work / name
        d.mkdir()
        result_path = d / "result.json"
        a = self.args
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--root", str(self.root),
               "--workload", a.workload, "--seed", str(a.seed), "--scale", a.scale,
               "--dir", str(d), "--result", str(result_path), *extra]
        if traced:
            cmd.append("--trace")
        started = time.perf_counter()
        with open(d / "log.txt", "w") as log:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                      timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                return None, time.perf_counter() - started, f"{name}: timed out"
        elapsed = time.perf_counter() - started
        if proc.returncode != 0 or not result_path.exists():
            tail = (d / "log.txt").read_text()[-2000:]
            return None, elapsed, f"{name}: exit {proc.returncode}\n{tail}"
        return json.loads(result_path.read_text()), elapsed, None


def _setups(runner: Runner, ledger: Ledger, traced: bool) -> tuple[list, list[float]]:
    results, times = [], []
    for k in range(SETUPS):
        result, elapsed, error = runner.child("setup", f"setup{k}", traced)
        ledger.record(result is not None, error or "")
        if result is None:
            continue
        if results:
            same = result["input_hashes"] == results[0]["input_hashes"]
            ledger.record(same, f"setup{k}: inputs differ from setup0's for the same seed")
        results.append(result)
        times.append(elapsed)
    return results, times


def _repetitions(runner: Runner, ledger: Ledger, inputs: Path, traced: bool,
                 seconds: float, min_reps: int, reps: list) -> None:
    """Run the pipeline for about `seconds` in one process; append its
    repetitions to `reps` and record each one's operations."""
    name = "traced" if traced else "untraced"
    result, _, error = runner.child("pipeline", name, traced, [
        "--inputs", str(inputs), "--seconds", str(seconds), "--min-reps", str(min_reps)])
    if result is None:
        ledger.record(False, error)
        return
    for k, rep in enumerate(result["reps"]):
        rep_name = f"{name} repetition {k}"
        for i in range(rep["stages"]):
            ledger.record(i < rep["stages_ok"], f"{rep_name}: stage {i} did not complete "
                          f"(pipeline exit {rep['exit_code']})")
        for check, ok in rep["checks"].items():
            ledger.record(ok, f"{rep_name}: check {check} failed {rep.get('check_error', '')}")
        if reps:
            ledger.record(rep["hashes"] == reps[0]["hashes"],
                          f"{rep_name}: output hashes differ from the first repetition's")
        rep["traced"] = traced
        reps.append(rep)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else []


def _environment(root: Path, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_omp_threads": THREADS,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu": cpu,
        "git_commit": commit,
        "seed": seed,
    }


def _end_to_end(untraced: list, setup_times: list[float], ledger: Ledger) -> dict:
    ok = ledger.attempted - len(ledger.failures)
    values = {
        "wall_s": _median([r["wall_s"] for r in untraced]),
        "setup_s": _median(setup_times),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "output_mb": _median([r["output_bytes"] / 1e6 for r in untraced]),
        "ok_frac": ok / max(ledger.attempted, 1),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_layer(untraced: list, traced: list, setups: list, workload: str,
               ledger: Ledger) -> tuple[dict, dict]:
    setup_spans = [s["spans"] for s in setups]
    per_rep = [spans.layer_metrics(r["spans"], r.get("projector")) for r in traced]
    values = {name: _median([m[name] for m in per_rep]) for name in per_rep[0]} if per_rep else {}
    values["synthetic.simulate_var_s"] = _median([
        spans.span_totals(sp).get("synthetic.simulate_var", 0.0) for sp in setup_spans])
    values["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                  - _median([r["wall_s"] for r in untraced]))
    fired = {s["name"] for r in traced for s in r["spans"]}
    fired |= {s["name"] for sp in setup_spans for s in sp}
    missing = sorted(workloads.EXPECTED_SPANS[workload] - fired)
    for name in sorted(workloads.EXPECTED_SPANS[workload]):
        ledger.record(name not in missing, f"expected span {name} never fired")
    totals = [spans.span_totals(r["spans"]) for r in traced]
    shares = [spans.wall_shares(r["spans"]) for r in traced]
    detail = {
        "missing_spans": missing,
        "span_totals_s": {k: _median([t.get(k, 0.0) for t in totals])
                          for k in sorted(set().union(*totals))},
        "wall_shares": {k: _median([s[k] for s in shares]) for k in shares[0]} if shares else {},
    }
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in spans.PER_LAYER}
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "stvar" / "__init__.py").is_file():
        print("perfbench: run from the root of an stvar checkout; src/stvar is missing",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench_runs" / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    runner = Runner(args, root, work)
    traced = bool(args.trace)
    reps: list = []
    try:
        setups, setup_times = _setups(runner, ledger, traced)
        if setups:
            inputs = work / "setup0" / "inputs"
            budget = args.seconds / 2 if traced else args.seconds
            _repetitions(runner, ledger, inputs, False, budget, 1 if traced else 2, reps)
            if traced:
                _repetitions(runner, ledger, inputs, True, budget, 1, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if not untraced or (traced and not traced_reps):
        ledger.record(False, "no repetition completed")
    detail = {}
    if traced:
        metrics, detail = _per_layer(untraced, traced_reps, setups, args.workload, ledger)
    else:
        metrics = _end_to_end(untraced, setup_times, ledger)

    record = {
        "workload": args.workload,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(root, args.seed),
        "setup_s": setup_times,
        "wall_s": {"untraced": [r["wall_s"] for r in untraced],
                   "traced": [r["wall_s"] for r in traced_reps],
                   "untraced_quartiles": _quartiles([r["wall_s"] for r in untraced])},
        "input_hashes": setups[0]["input_hashes"] if setups else {},
        "output_hashes": reps[0]["hashes"] if reps else {},
        "checks": [r["checks"] for r in reps],
        "failures": ledger.failures,
        "metrics": metrics,
        **detail,
    }
    results = root / ".perfbench_runs" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:40s} {m['value']:14.6g} {m['unit']}")
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"record: {record_path.relative_to(root)}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
