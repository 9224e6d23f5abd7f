"""Command-line front end wiring the pipeline stages together.

Every run writes its outputs plus one ``*.manifest.json`` describing the
resolved configuration, the input and output paths, the seed, and the tool
version. Reruns with identical inputs and configuration produce byte-identical
outputs; only the manifest's wall-time and write-timestamp entries differ.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

from . import __version__
from .data_model import StateSeries, as_matrix, load_series, save_series, standardize
from .errors import DataError, NumericalError
from .evaluate import (
    empirical_transitions,
    model_transitions,
    node_field_maps,
    node_frequencies,
    score_model,
    score_to_dict,
    transition_distances,
    var_lag_aic,
)
from .mcmc import McmcConfig, load_chain, predict_series, run_chain, save_chain
from .models import Calendar, resolve_spec
from .projection import (
    PlanarSeries,
    Tessellation,
    load_planar,
    project_series,
    sammon_embed,
    save_planar,
)
from .som import SomConfig, SomModel, load_som, save_som, train_batch, train_online
from .synthetic import DEFAULT_SIGMA, default_tessellation, ladder_truth, simulate_var


class UsageError(Exception):
    """Bad flags or missing required arguments; exit code 1."""


class _StageFailure(Exception):
    def __init__(self, code: int):
        super().__init__(f"stage failed with exit code {code}")
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _g17(x) -> str:
    """Full-precision text for files (lossless for float64)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _g5(x) -> str:
    """Report precision: 5 significant digits."""
    return format(float(x), ".5g")


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument(
        "--out", default=".", help="output directory, created if missing"
    )
    common.add_argument(
        "--config",
        default=None,
        help="JSON file of default argument values (pipeline: the stage list)",
    )

    parser = _Parser(prog="stvar", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"stvar {__version__}")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser(
        "simulate", parents=[common], help="draw a synthetic planar trajectory"
    )
    p.add_argument("--model", default="model1", help="model alias or spec JSON path")
    p.add_argument("--days", type=int, default=2000)
    p.add_argument("--start-date", default=None, help="ISO date of day 0")
    p.add_argument("--cells", type=int, default=12, help="tessellation size")
    p.add_argument("--sigma-scale", type=float, default=1.0)

    p = sub.add_parser(
        "standardize", parents=[common], help="scale a raw series to zero mean, unit sd"
    )
    p.add_argument("--series", default=None, help="raw series file")
    p.add_argument("--per-cell", action="store_true")

    p = sub.add_parser(
        "train-som", parents=[common], help="fit a self-organizing map to state vectors"
    )
    p.add_argument("--series", default=None)
    p.add_argument("--nodes", type=int, default=12)
    p.add_argument("--mode", choices=("batch", "online"), default="batch")
    p.add_argument("--kernel", choices=("gaussian", "bubble"), default="gaussian")
    p.add_argument("--space", choices=("map", "data"), default="map")
    p.add_argument(
        "--phase-steps", default=None, help="two comma-separated step counts"
    )

    p = sub.add_parser(
        "sammon", parents=[common], help="embed map nodes in the plane by Sammon stress"
    )
    p.add_argument("--som", default=None)

    p = sub.add_parser(
        "project", parents=[common], help="project each day onto the node plane"
    )
    p.add_argument("--som", default=None, help="map with planar coordinates")
    p.add_argument("--series", default=None, help="state series file")

    p = sub.add_parser(
        "fit", parents=[common], help="sample a model posterior along a trajectory"
    )
    p.add_argument("--spec", default=None, help="model alias or spec JSON path")
    p.add_argument("--series", default=None, help="planar trajectory file")
    p.add_argument("--som", default=None, help="tessellation from this map")
    p.add_argument("--tessellation", default=None, help="JSON file with cell sites")
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--burn-in", type=int, default=2000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument(
        "--sigma-mode", choices=("full_conditional", "fixed_scale"),
        default="full_conditional",
    )

    p = sub.add_parser(
        "predict", parents=[common], help="one-step predictive summaries per day"
    )
    p.add_argument("--chain", default=None)
    p.add_argument("--series", default=None)
    p.add_argument("--draws", type=int, default=500)

    p = sub.add_parser(
        "evaluate", parents=[common], help="score one or more chains on a trajectory"
    )
    p.add_argument("--chain", action="append", default=None, help="repeatable")
    p.add_argument("--series", default=None)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--draws", type=int, default=500)
    p.add_argument("--method", choices=("ellipse", "rect"), default="ellipse")

    p = sub.add_parser(
        "transitions", parents=[common], help="cell-to-cell transition matrices"
    )
    p.add_argument("--series", default=None)
    p.add_argument("--som", default=None)
    p.add_argument("--tessellation", default=None)
    p.add_argument("--chain", default=None, help="adds the model-implied matrix")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--season", default=None, help="restrict source days to a season")
    p.add_argument("--draws", type=int, default=200)

    p = sub.add_parser(
        "frequencies", parents=[common], help="node occupancy counts"
    )
    p.add_argument("--series", default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--by", choices=("season", "year", "season_year"), default=None)

    p = sub.add_parser(
        "maps", parents=[common], help="node reference vectors as per-variable grids"
    )
    p.add_argument("--som", default=None)
    p.add_argument("--series", default=None, help="series supplying grid and scaling")
    p.add_argument(
        "--kind", choices=("standardized", "raw", "anomaly"), default="standardized"
    )

    p = sub.add_parser(
        "lag-scan", parents=[common], help="adjusted AIC over autoregression orders"
    )
    p.add_argument("--series", default=None)
    p.add_argument("--max-lag", type=int, default=5)

    sub.add_parser(
        "pipeline", parents=[common], help="run a JSON-configured list of stages"
    )
    return parser


def _need(args, name: str):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise UsageError(f"--{name} is required")
    return value


def _apply_config_file(args, argv: list[str]) -> None:
    """Fill argument defaults from the --config JSON (flags still win)."""
    if args.config is None or args.cmd == "pipeline":
        return
    cfg = _read_json(args.config)
    if not isinstance(cfg, dict):
        raise DataError("config file must hold a JSON object")
    known = set(vars(args)) - {"cmd", "config"}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise DataError(f"unknown config key {key!r}")
        flag = f"--{key.replace('_', '-')}"
        if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
            continue
        setattr(args, dest, value)


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def _write_manifest(args, payload: dict, wall_time: float) -> Path:
    skip = {"cmd", "config"}
    config = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip
    }
    config.update(payload.get("extra_config", {}))
    manifest = {
        "command": args.cmd,
        "config": config,
        "inputs": sorted(str(p) for p in payload.get("inputs", [])),
        "outputs": sorted(str(p) for p in payload.get("outputs", [])),
        "seed": args.seed,
        "version": __version__,
        "wall_time_s": round(wall_time, 6),
        "written_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    name = payload.get("name", args.cmd)
    path = Path(args.out) / f"{name}.manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Small shared loaders


def _load_tessellation(args) -> Tessellation | None:
    if getattr(args, "som", None) and getattr(args, "tessellation", None):
        raise DataError("give either --som or --tessellation, not both")
    if getattr(args, "som", None):
        return Tessellation.from_som(load_som(args.som))
    if getattr(args, "tessellation", None):
        blob = _read_json(args.tessellation)
        if not isinstance(blob, dict) or "sites" not in blob:
            raise DataError("tessellation file needs a 'sites' array")
        return Tessellation(sites=np.asarray(blob["sites"], dtype=float))
    return None


def _parse_date(text):
    if text is None:
        return None
    try:
        return _dt.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"bad date {text!r}: {exc}") from exc


def _spec_slug(spec) -> str:
    label = spec.name or f"{spec.a_structure}-{spec.eta_structure}"
    return label.replace("/", "-")


def _write_matrix_csv(path: Path, probs: np.ndarray, labels: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from/to"] + labels)
        for label, row in zip(labels, probs):
            writer.writerow([label] + [_g17(v) for v in row])


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the manifest payload


def cmd_simulate(args) -> dict:
    spec = resolve_spec(_need(args, "model"))
    if args.days < 2:
        raise DataError("--days must be at least 2")
    tess = default_tessellation(args.cells)
    start = _parse_date(args.start_date)
    sigma = None if args.sigma_scale == 1.0 else args.sigma_scale * DEFAULT_SIGMA
    truth = ladder_truth(
        spec, tess=tess, start_date=start, n_days=args.days, sigma=sigma
    )
    series = simulate_var(
        truth, args.days, tess=tess, start_date=start, seed=args.seed
    )
    out = Path(args.out)
    series_path = out / "series.planar"
    save_planar(series, series_path)
    tess_path = out / "tessellation.json"
    tess_path.write_text(
        json.dumps({"sites": tess.sites.tolist()}, indent=1) + "\n"
    )
    truth_path = out / "truth.json"
    truth_blob = {
        "model": spec.name or f"{spec.a_structure}/{spec.eta_structure}",
        "a_structure": spec.a_structure,
        "eta_structure": spec.eta_structure,
        "a_labels": list(truth.info.a_labels),
        "eta_labels": list(truth.info.eta_labels),
        "phi": truth.phi.tolist(),
        "sigma": truth.sigma.tolist(),
        "spectral_radii": [float(r) for r in truth.spectral_radii()],
    }
    truth_path.write_text(json.dumps(truth_blob, indent=1) + "\n")
    print(f"simulated {args.days} days from {truth_blob['model']}")
    return {
        "inputs": [],
        "outputs": [series_path, tess_path, truth_path],
        "extra_config": {"resolved_model": truth_blob["model"]},
    }


def cmd_standardize(args) -> dict:
    path = _need(args, "series")
    data = load_series(path)
    if isinstance(data, StateSeries):
        raise DataError("series already carries standardization constants")
    state = standardize(data, per_cell=args.per_cell)
    out_path = Path(args.out) / "series.state"
    save_series(state, out_path)
    print(f"standardized {state.n_days} days, {state.grid.d} components")
    return {
        "inputs": [path],
        "outputs": [out_path, Path(str(out_path) + ".meta.json")],
    }


def cmd_train_som(args) -> dict:
    path = _need(args, "series")
    data = load_series(path)
    phase_steps = None
    if args.phase_steps:
        parts = str(args.phase_steps).split(",")
        if len(parts) != 2:
            raise DataError("--phase-steps needs two comma-separated integers")
        phase_steps = (int(parts[0]), int(parts[1]))
    config = SomConfig(
        n_nodes=args.nodes,
        kernel=args.kernel,
        neighborhood_space=args.space,
        phase_steps=phase_steps,
        rng_seed=args.seed,
    )
    train = train_batch if args.mode == "batch" else train_online
    model, _ = train(as_matrix(data), config)
    out_path = Path(args.out) / "som.json"
    save_som(model, out_path)
    print(f"trained {args.nodes}-node map ({args.mode})")
    return {"inputs": [path], "outputs": [out_path]}


def cmd_sammon(args) -> dict:
    path = _need(args, "som")
    som = load_som(path)
    distances = squareform(pdist(som.nodes))
    result = sammon_embed(distances)
    embedded = SomModel(
        nodes=som.nodes,
        planar=result.coords,
        config=som.config,
        provenance=som.provenance,
    )
    out = Path(args.out)
    som_path = out / "som_sammon.json"
    save_som(embedded, som_path)
    report_path = out / "sammon.json"
    report_path.write_text(
        json.dumps(
            {
                "stress": result.stress,
                "n_iter": result.n_iter,
                "converged": result.converged,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"sammon stress {_g5(result.stress)} after {result.n_iter} iterations")
    return {"inputs": [path], "outputs": [som_path, report_path]}


def cmd_project(args) -> dict:
    som_path = _need(args, "som")
    series_path = _need(args, "series")
    som = load_som(som_path)
    data = load_series(series_path)
    planar = project_series(data, som)
    if planar.dates is None and data.dates is not None:
        planar = PlanarSeries(
            points=planar.points,
            node_assignment=planar.node_assignment,
            dates=data.dates,
        )
    out_path = Path(args.out) / "days.planar"
    save_planar(planar, out_path)
    print(f"projected {planar.n_days} days")
    return {"inputs": [som_path, series_path], "outputs": [out_path]}


def cmd_fit(args) -> dict:
    spec = resolve_spec(_need(args, "spec"))
    series_path = _need(args, "series")
    series = load_planar(series_path)
    tess = _load_tessellation(args)
    config = McmcConfig(
        n_iter=args.iters,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=args.seed,
        sigma_mode=args.sigma_mode,
    )
    chain = run_chain(series, spec, config, tess=tess)
    slug = _spec_slug(spec)
    out_path = Path(args.out) / f"{slug}.chain"
    save_chain(chain, out_path)
    inputs = [series_path] + [p for p in (args.som, args.tessellation) if p]
    print(
        f"fit {slug}: {chain.n_draws} draws kept, "
        f"max split R-hat {_g5(chain.rhat_max)}"
    )
    return {
        "inputs": inputs,
        "outputs": [out_path],
        "name": f"fit_{slug}",
        "extra_config": {"resolved_spec": slug, "converged": chain.converged,
                         **chain.tuning},
    }


def cmd_predict(args) -> dict:
    chain_path = _need(args, "chain")
    series_path = _need(args, "series")
    chain = load_chain(chain_path)
    series = load_planar(series_path)
    pred = predict_series(
        chain, series, n_draws=args.draws, seed=args.seed, include_noise=True
    )
    lo = np.quantile(pred.draws, 0.025, axis=0)
    hi = np.quantile(pred.draws, 0.975, axis=0)
    mean = pred.mean
    out_path = Path(args.out) / "predictions.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["date", "actual_x", "actual_y", "mean_x", "mean_y",
             "q025_x", "q975_x", "q025_y", "q975_y"]
        )
        for t in range(mean.shape[0]):
            date = pred.dates[t].isoformat() if pred.dates is not None else ""
            writer.writerow(
                [date]
                + [_g17(v) for v in (
                    pred.actual[t, 0], pred.actual[t, 1],
                    mean[t, 0], mean[t, 1],
                    lo[t, 0], hi[t, 0], lo[t, 1], hi[t, 1],
                )]
            )
    print(f"predicted {mean.shape[0]} steps with {pred.draws.shape[0]} draws each")
    return {"inputs": [chain_path, series_path], "outputs": [out_path]}


def cmd_evaluate(args) -> dict:
    chain_paths = args.chain
    if not chain_paths:
        raise UsageError("--chain is required (repeat it to compare models)")
    if isinstance(chain_paths, str):
        chain_paths = [chain_paths]
    series_path = _need(args, "series")
    series = load_planar(series_path)
    scores = []
    for path in chain_paths:
        chain = load_chain(path)
        scores.append(
            score_model(
                chain,
                series,
                level=args.level,
                n_draws=args.draws,
                seed=args.seed,
                method=args.method,
            )
        )
    out = Path(args.out)
    scores_path = out / "scores.json"
    scores_path.write_text(
        json.dumps([score_to_dict(s) for s in scores], indent=1) + "\n"
    )
    header = ["model", "rmspe", "dic", "p_d", "coverage"]
    rows = [
        [s.model, _g5(s.rmspe), _g5(s.dic), _g5(s.p_d), _g5(s.coverage)]
        for s in scores
    ]
    widths = [
        max(len(header[j]), *(len(r[j]) for r in rows)) for j in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()
    ]
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    report = "\n".join(lines) + "\n"
    report_path = out / "report.txt"
    report_path.write_text(report)
    print(report, end="")
    return {
        "inputs": list(chain_paths) + [series_path],
        "outputs": [scores_path, report_path],
    }


def cmd_transitions(args) -> dict:
    series_path = _need(args, "series")
    series = load_planar(series_path)
    inputs = [series_path]
    tess = _load_tessellation(args)
    chain = None
    if args.chain:
        chain = load_chain(args.chain)
        inputs.append(args.chain)
        if tess is None:
            tess = chain.tessellation()
    if tess is not None:
        assignment = tess.assign(series.points)
        n_cells = tess.n_cells
    else:
        assignment = series.node_assignment
        if assignment is None:
            raise DataError("series carries no assignments; give --som or --tessellation")
        n_cells = args.nodes if args.nodes else int(assignment.max()) + 1
    if args.som:
        inputs.append(args.som)
    if args.tessellation:
        inputs.append(args.tessellation)

    select = None
    if args.season:
        if series.dates is None:
            raise DataError("--season needs a dated series")
        cal = Calendar()
        select = np.array(
            [cal.season(d) == args.season for d in series.dates[:-1]], dtype=bool
        )

    out = Path(args.out)
    labels = [str(k) for k in range(n_cells)]
    outputs = []

    empirical = empirical_transitions(assignment, n_cells, select=select)
    emp_path = out / "transitions_empirical.csv"
    _write_matrix_csv(emp_path, empirical.probs, labels)
    outputs.append(emp_path)

    if chain is not None:
        implied = model_transitions(
            chain, series, tess=tess, n_draws=args.draws, seed=args.seed,
            select=select,
        )
        model_path = out / "transitions_model.csv"
        _write_matrix_csv(model_path, implied.probs, labels)
        outputs.append(model_path)

    distances = transition_distances(series)
    qs = (0.05, 0.25, 0.50, 0.75, 0.95)
    dist_path = out / "distance_quantiles.csv"
    with open(dist_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "count"] + [f"q{int(100 * q):02d}" for q in qs])
        src = np.asarray(assignment)[:-1]
        mask_all = np.ones(src.shape, dtype=bool) if select is None else select
        for k in range(n_cells):
            here = distances[(src == k) & mask_all]
            row = [str(k), str(here.size)]
            row += [_g17(v) for v in np.quantile(here, qs)] if here.size else [""] * 5
            writer.writerow(row)
        pooled = distances[mask_all]
        writer.writerow(
            ["all", str(pooled.size)] + [_g17(v) for v in np.quantile(pooled, qs)]
        )
    outputs.append(dist_path)
    kept = int(empirical.counts.sum())
    print(f"tabulated {kept} transitions over {n_cells} cells")
    return {"inputs": inputs, "outputs": outputs}


def cmd_frequencies(args) -> dict:
    series_path = _need(args, "series")
    series = load_planar(series_path)
    assignment = series.node_assignment
    if assignment is None:
        raise DataError("series carries no node assignments")
    n_cells = args.nodes if args.nodes else int(assignment.max()) + 1
    freq = node_frequencies(
        assignment, n_cells, dates=series.dates, by=args.by
    )
    blocks = {"all": freq} if isinstance(freq, np.ndarray) else freq
    out_path = Path(args.out) / "frequencies.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block"] + [f"node_{k}" for k in range(n_cells)])
        for label, counts in blocks.items():
            writer.writerow([label] + [_g17(v) for v in counts])
    print(f"counted {series.n_days} days over {len(blocks)} block(s)")
    return {"inputs": [series_path], "outputs": [out_path]}


def cmd_maps(args) -> dict:
    som_path = _need(args, "som")
    series_path = _need(args, "series")
    som = load_som(som_path)
    data = load_series(series_path)
    standardization = getattr(data, "standardization", None)
    fields = node_field_maps(som, data.grid, standardization, kind=args.kind)
    out = Path(args.out)
    outputs = []
    for k in range(fields.shape[0]):
        for v, name in enumerate(data.grid.variables):
            path = out / f"map_node{k:02d}_{name}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                for row in fields[k, v]:
                    writer.writerow([_g17(x) for x in row])
            outputs.append(path)
    print(f"wrote {len(outputs)} {args.kind} grids")
    return {"inputs": [som_path, series_path], "outputs": outputs}


def cmd_lag_scan(args) -> dict:
    series_path = _need(args, "series")
    series = load_planar(series_path)
    result = var_lag_aic(series, args.max_lag)
    out_path = Path(args.out) / "lag_scan.json"
    out_path.write_text(
        json.dumps(
            {"aic": result.aic.tolist(), "best_lag": result.best_lag}, indent=1
        )
        + "\n"
    )
    aics = ", ".join(_g5(a) for a in result.aic)
    print(f"best lag {result.best_lag} (aic by lag: {aics})")
    return {"inputs": [series_path], "outputs": [out_path]}


_PIPELINE_KEYS = {"stages", "seed", "out"}
_STAGE_KEYS = {"run", "args"}


def cmd_pipeline(args) -> dict | None:
    config_path = args.config
    if config_path is None:
        raise UsageError("pipeline needs --config pointing at a stage list")
    cfg = _read_json(config_path)
    if not isinstance(cfg, dict):
        raise DataError("pipeline config must be a JSON object")
    unknown = set(cfg) - _PIPELINE_KEYS
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    stages = cfg.get("stages", [])
    if not isinstance(stages, list):
        raise DataError("'stages' must be a list")
    if not stages:
        return None

    seed = cfg.get("seed", args.seed)
    out_dir = cfg.get("out", args.out)
    args.out = str(out_dir)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    ran = []
    for i, stage in enumerate(stages):
        if not isinstance(stage, dict):
            raise DataError(f"stage {i} must be a JSON object")
        unknown = set(stage) - _STAGE_KEYS
        if unknown:
            raise DataError(f"stage {i}: unknown keys {sorted(unknown)}")
        run = stage.get("run")
        if not isinstance(run, str) or run == "pipeline" or run not in _HANDLERS:
            raise DataError(f"stage {i}: no such stage command {run!r}")
        argv = [run, "--seed", str(seed), "--out", str(out_dir)]
        stage_args = stage.get("args", {})
        if not isinstance(stage_args, dict):
            raise DataError(f"stage {i}: 'args' must be a JSON object")
        for key, value in stage_args.items():
            flag = f"--{str(key).replace('_', '-')}"
            if value is True:
                argv.append(flag)
            elif value is False or value is None:
                continue
            elif isinstance(value, list):
                for item in value:
                    argv += [flag, str(item)]
            else:
                argv += [flag, str(value)]
        code = _execute(argv)
        if code != 0:
            print(f"pipeline: stage {i} ({run}) failed", file=sys.stderr)
            raise _StageFailure(code)
        ran.append(run)
    print(f"pipeline: {len(ran)} stage(s) complete")
    return {
        "inputs": [config_path],
        "outputs": [],
        "extra_config": {"stages_run": ran},
    }


_HANDLERS = {
    "simulate": cmd_simulate,
    "standardize": cmd_standardize,
    "train-som": cmd_train_som,
    "sammon": cmd_sammon,
    "project": cmd_project,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "transitions": cmd_transitions,
    "frequencies": cmd_frequencies,
    "maps": cmd_maps,
    "lag-scan": cmd_lag_scan,
    "pipeline": cmd_pipeline,
}


def _execute(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _apply_config_file(args, argv)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        payload = _HANDLERS[args.cmd](args)
        if payload is not None:
            _write_manifest(args, payload, time.perf_counter() - started)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _StageFailure as exc:
        return exc.code
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def dispatch(argv=None) -> int:
    """Parse and run one command; returns the process exit code."""
    return _execute(list(sys.argv[1:] if argv is None else argv))


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
