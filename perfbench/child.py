"""One fresh process of a benchmark run: set-up, or repeated pipeline runs.

    python3 perfbench/child.py setup    --root R --workload W --seed N --scale S --dir D --result F [--trace]
    python3 perfbench/child.py pipeline --root R --workload W --seed N --scale S --dir D --result F
                                        --inputs I --seconds T --min-reps K [--trace]

``setup`` imports stvar and writes the seeded inputs to ``D/inputs``.
``pipeline`` runs the workload's config on the inputs in ``I`` through
``stvar.cli.dispatch``, the path a user's ``stvar pipeline`` takes, again and
again for about ``T`` seconds (at least ``K`` times), each time into a new
output directory under ``D``. After each repetition, outside its timed
region, it hashes and checks the outputs and deletes them. Either mode
writes its findings as JSON to ``F``. stvar is imported from ``R/src`` only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402


def _import_stvar(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import stvar
    import stvar.cli

    if src not in Path(stvar.__file__).resolve().parents:
        raise SystemExit(f"stvar imported from {stvar.__file__}, not from {src}")
    return stvar


def _file_hashes(directory: Path) -> dict[str, str]:
    """sha256 of every file except manifests, which carry wall times."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file() and not p.name.endswith(".manifest.json")
    }


def run_setup(stvar, args, tracer) -> dict:
    if tracer is not None:
        tracer.patch(stvar.synthetic, "simulate_var", "synthetic.simulate_var")
    inputs = args.dir / "inputs"
    workloads.write_inputs(stvar, args.workload, args.seed, args.scale, inputs)
    result = {"input_hashes": _file_hashes(inputs)}
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


def _distinct_orderings(stvar, out: Path) -> dict:
    """Unique node orderings among the projector's grid candidates."""
    import numpy as np

    projector = stvar.GreedyProjector(stvar.load_som(out / "som_sammon.json"))
    return {
        "distinct_orderings": int(np.unique(projector.cand_order, axis=0).shape[0]),
        "candidates": int(projector.cand_order.shape[0]),
    }


def _one_pipeline(stvar, args, dispatch, tracer, out: Path) -> dict:
    stage_list = workloads.stages(args.workload, args.scale, args.inputs, out)
    config = out.with_suffix(".json")
    config.write_text(json.dumps({"seed": args.seed, "out": str(out), "stages": stage_list}))
    out.mkdir()
    if tracer is not None:
        tracer.spans = []
    started = time.perf_counter()
    code = dispatch(["pipeline", "--config", str(config)])
    wall = time.perf_counter() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    written = [p for p in out.iterdir() if p.is_file()]
    # every stage that succeeded wrote one manifest; the pipeline wrote one more
    stages_ok = sum(1 for p in written if p.name.endswith(".manifest.json")
                    and p.name != "pipeline.manifest.json")
    result = {
        "exit_code": code,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "output_bytes": sum(p.stat().st_size for p in written),
        "stages": len(stage_list),
        "stages_ok": stages_ok,
        "hashes": _file_hashes(out),
        "checks": {},
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    if code == 0:
        try:
            result["checks"] = workloads.check_outputs(stvar, args.workload, out)
        except Exception:  # a check that cannot run is a failed check
            result["checks"] = {"checks_ran": False}
            result["check_error"] = traceback.format_exc()
        if tracer is not None and args.workload == "fields":
            result["projector"] = _distinct_orderings(stvar, out)
    shutil.rmtree(out)
    return result


def run_pipeline(stvar, args, tracer) -> dict:
    dispatch = stvar.cli.dispatch
    if tracer is not None:
        spans.install_pipeline_spans(tracer, stvar)
        dispatch = tracer.wrap("cli", dispatch)
    started = time.monotonic()
    reps: list[dict] = []
    while True:
        spent = time.monotonic() - started
        # start another repetition only if it should end within the time given
        if len(reps) >= args.min_reps and spent + spent / len(reps) > args.seconds:
            break
        reps.append(_one_pipeline(stvar, args, dispatch, tracer, args.dir / f"out{len(reps)}"))
    return {"reps": reps}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pipeline"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    stvar = _import_stvar(args.root)
    tracer = spans.Tracer() if args.trace else None
    result = (run_setup if args.mode == "setup" else run_pipeline)(stvar, args, tracer)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
