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
import dataclasses
import datetime as _dt
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__, _doc, _lapack
from .data_model import StateSeries, load_series, save_series, standardize
from .errors import DataError, EmptySeries, NumericalError
from .evaluate import (
    draw_quantiles,
    empirical_transitions,
    model_transitions,
    node_field_maps,
    node_frequencies,
    score_model,
    score_to_dict,
    scored_draws,
    transition_distances,
    var_lag_aic,
)
from .mcmc import McmcConfig, SeriesPrediction, load_chain, predict_series, run_chain, save_chain
from .models import SEASONS, _label_codes, resolve_spec
from .projection import (
    Tessellation,
    load_planar,
    project_series,
    sammon_embed,
    save_planar,
)
from .som import SomConfig, load_som, replace_planar, save_som, train_batch, train_online
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


def _seed(text: str) -> int:
    """Type of --seed: numpy's generators take no negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0, help="random seed (default 0)")
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
    p.add_argument("--iters", type=int, default=McmcConfig.n_iter)
    p.add_argument("--burn-in", type=int, default=McmcConfig.burn_in)
    p.add_argument("--thin", type=int, default=McmcConfig.thin)

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
    p.add_argument("--season", choices=SEASONS, default=None,
                   help="restrict source days to a season")
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


def _parse_config(parser, head: list[str], doc, kind: str, tail=()):
    """Parse `head`, then JSON object `doc` of option values for command
    head[0] as flags, then `tail`, whose options win over `doc`'s. In `doc`
    true gives the bare flag, false and null nothing, a list one flag per
    item. Since the flags come from a file, a bad one, or one holding a NUL
    character that no path may hold, is a data error."""
    known = set(vars(parser.parse_args(head[:1]))) - {"cmd", "config"}
    given = {tok.split("=", 1)[0] for tok in tail}
    argv = list(head)
    for key, value in _doc.check(doc, kind, None, dict).items():
        if key.replace("-", "_") not in known:
            raise DataError(f"{kind}: unknown key {key!r}")
        flag = "--" + key.replace("_", "-")
        if flag in given or value is False or value is None:
            continue
        if value is True:
            argv.append(flag)
            continue
        for item in value if isinstance(value, list) else [value]:
            argv.append(f"{flag}={_doc.check(item, kind, key, (str, int, float))}")
    for tok in argv:
        if "\0" in tok:
            raise DataError(f"{kind}: NUL character in {tok.split('=', 1)[0]}")
    try:
        return parser.parse_args(argv + list(tail))
    except UsageError as exc:
        raise DataError(f"{kind}: {exc}") from None


def _inputs(args) -> list:
    """The files the input options of `args` name."""
    named = [getattr(args, k, None) for k in ("series", "som", "tessellation", "chain", "config")]
    return [p for v in named for p in (v if isinstance(v, list) else [v]) if p]


def _write_manifest(args, payload: dict, wall_time: float) -> Path:
    """The run's manifest. Its inputs are the files the input options name."""
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("cmd", "config")}
    config.update(payload.get("extra_config", {}))
    manifest = {
        "command": args.cmd,
        "config": config,
        "inputs": sorted(str(p) for p in _inputs(args)),
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
# Inputs: one store per dispatch


def _read_only(value):
    """`value` with every array it holds, in nested dataclasses too, made
    read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _read_only(getattr(value, f.name))
    return value


@_doc.names_path
def _read_tessellation(path) -> Tessellation:
    doc = _doc.fields(_doc.read_json(path, "tessellation"), "tessellation", {"sites": list})
    return Tessellation(sites=_doc.array(doc["sites"], "tessellation", "sites", (None, 2)))


def _prediction_key(chain_path, args) -> tuple:
    """What a chain's predictive draws depend on: the chain and series
    files, the draw count and the seed."""
    return (os.path.realpath(chain_path), os.path.realpath(args.series), args.draws, args.seed)


class _Store:
    """What the stages of one `dispatch` call share: its parser, which parses
    a pipeline's stages, the files it reads, each loaded and checked once,
    and the predictive draws `evaluate` hands to a later `predict` stage.

    Files are keyed by loader and resolved path and handed out with read-only
    arrays, so no stage changes what a later one reads. A file is kept only
    while a later stage names it. The files a stage writes drop their
    entries, and the draws made from them, so the next stage that names a
    written file reads it again. A store lives for one dispatch; nothing is
    kept across runs.
    """

    def __init__(self, parser: _Parser):
        self.parser = parser
        self._files: dict = {}
        self._expected = Counter()  # prediction key -> predict stages yet to run
        self._predictions: dict = {}

    def load(self, loader, path):
        """`loader(path)`, called once per loader and resolved path."""
        key = (loader, os.path.realpath(path))
        if key not in self._files:
            self._files[key] = _read_only(loader(path))
        return self._files[key]

    def retain(self, named) -> None:
        """Drop every file that no path in `named` names."""
        keep = {os.path.realpath(p) for p in named}
        self._files = {k: v for k, v in self._files.items() if k[1] in keep}

    def forget(self, written) -> None:
        """Drop every entry read from, or predicted from, a written file."""
        gone = {os.path.realpath(p) for p in written}
        self._files = {k: v for k, v in self._files.items() if k[1] not in gone}
        self._predictions = {k: v for k, v in self._predictions.items()
                             if not gone.intersection(k[:2])}

    def expect(self, key: tuple) -> None:
        """A later predict stage will ask for the draws of `key`."""
        self._expected[key] += 1

    def wants(self, key: tuple) -> bool:
        return self._expected[key] > 0

    def keep(self, key: tuple, prediction: SeriesPrediction) -> None:
        self._predictions[key] = _read_only(prediction)

    def take(self, key: tuple) -> SeriesPrediction | None:
        """The kept draws of `key`, if any, for the predict stage now running."""
        if self.wants(key):
            self._expected[key] -= 1
        return self._predictions.pop(key, None)


def _load_tessellation(args, store: _Store) -> Tessellation | None:
    if getattr(args, "som", None) and getattr(args, "tessellation", None):
        raise DataError("give either --som or --tessellation, not both")
    if getattr(args, "som", None):
        return Tessellation.from_som(store.load(load_som, args.som))
    if getattr(args, "tessellation", None):
        return store.load(_read_tessellation, args.tessellation)
    return None


def _spec_slug(spec) -> str:
    label = spec.name or f"{spec.a_structure}-{spec.eta_structure}"
    return label.replace("/", "-")


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _write_csv(path: Path, rows) -> Path:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def _write_table(path: Path, header: list[str], labels, values: np.ndarray) -> Path:
    """`header`, then per label a row of it and its `values` at full
    precision: what `_write_csv` writes of `_g17` texts, one format per row.
    The labels are dates or numbers, which need no quoting."""
    row = "%s" + ",%.17g" * values.shape[1] + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(row % (label, *vals.tolist()) for label, vals in zip(labels, values))
    return path


def _cells(series, tess: Tessellation | None, nodes: int | None) -> tuple[np.ndarray, int]:
    """Each day's cell and the number of cells: from `tess` when given, else
    the series' node assignments (a loaded series always has them), of
    which --nodes may give the count."""
    if series.n_days == 0:
        raise EmptySeries("series has no days")
    if tess is None:
        cells = series.node_assignment
        return cells, nodes if nodes is not None else int(cells.max()) + 1
    if nodes is not None and nodes != tess.n_cells:
        raise DataError(f"--nodes {nodes} disagrees with the tessellation's {tess.n_cells} cells")
    return tess.assign(series.points), tess.n_cells


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the files it wrote (and any manifest
# name or extra configuration). The manifest lists inputs from the options.


def cmd_simulate(args, store: _Store) -> dict:
    spec = resolve_spec(_need(args, "model"))
    tess = default_tessellation(args.cells)
    sigma = None if args.sigma_scale == 1.0 else args.sigma_scale * DEFAULT_SIGMA
    truth = ladder_truth(
        spec, tess=tess, start_date=args.start_date, n_days=args.days, sigma=sigma
    )
    series = simulate_var(
        truth, args.days, tess=tess, start_date=args.start_date, seed=args.seed
    )
    out = Path(args.out)
    series_path = out / "series.planar"
    save_planar(series, series_path)
    tess_path = _write_json(out / "tessellation.json", {"sites": tess.sites.tolist()})
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
    truth_path = _write_json(out / "truth.json", truth_blob)
    print(f"simulated {args.days} days from {truth_blob['model']}")
    return {
        "outputs": [series_path, tess_path, truth_path],
        "extra_config": {"resolved_model": truth_blob["model"]},
    }


def cmd_standardize(args, store: _Store) -> dict:
    data = store.load(load_series, _need(args, "series"))
    if isinstance(data, StateSeries):
        raise DataError("series already carries standardization constants")
    state = standardize(data, per_cell=args.per_cell)
    out_path = Path(args.out) / "series.state"
    save_series(state, out_path)
    print(f"standardized {state.n_days} days, {state.grid.d} components")
    return {"outputs": [out_path]}


def cmd_train_som(args, store: _Store) -> dict:
    data = store.load(load_series, _need(args, "series"))
    phase_steps = None
    if args.phase_steps:
        parts = args.phase_steps.split(",")
        if len(parts) != 2 or not all(p.strip().isdecimal() for p in parts):
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
    model, _ = train(data, config)
    out_path = Path(args.out) / "som.json"
    save_som(model, out_path)
    print(f"trained {args.nodes}-node map ({args.mode})")
    return {"outputs": [out_path]}


def cmd_sammon(args, store: _Store) -> dict:
    som = store.load(load_som, _need(args, "som"))
    distances = _lapack.cdist(som.nodes, som.nodes)
    result = sammon_embed(distances)
    out = Path(args.out)
    som_path = out / "som_sammon.json"
    save_som(replace_planar(som, result.coords), som_path)
    report_path = _write_json(
        out / "sammon.json",
        {
            "stress": result.stress,
            "n_iter": result.n_iter,
            "converged": result.converged,
        },
    )
    print(f"sammon stress {_g5(result.stress)} after {result.n_iter} iterations")
    return {"outputs": [som_path, report_path]}


def cmd_project(args, store: _Store) -> dict:
    som = store.load(load_som, _need(args, "som"))
    data = store.load(load_series, _need(args, "series"))
    planar = project_series(data, som)
    out_path = Path(args.out) / "days.planar"
    save_planar(planar, out_path)
    print(f"projected {planar.n_days} days")
    return {"outputs": [out_path]}


def cmd_fit(args, store: _Store) -> dict:
    spec = resolve_spec(_need(args, "spec"))
    series = store.load(load_planar, _need(args, "series"))
    tess = _load_tessellation(args, store)
    config = McmcConfig(
        n_iter=args.iters,
        burn_in=args.burn_in,
        thin=args.thin,
        seed=args.seed,
    )
    chain = run_chain(series, spec, config, tess=tess)
    slug = _spec_slug(spec)
    out_path = Path(args.out) / f"{slug}.chain"
    save_chain(chain, out_path)
    print(
        f"fit {slug}: {chain.n_draws} draws kept, "
        f"max split R-hat {_g5(chain.rhat_max)}"
    )
    return {
        "outputs": [out_path],
        "name": f"fit_{slug}",
        "extra_config": {"resolved_spec": slug, "converged": chain.converged,
                         **chain.tuning},
    }


def cmd_predict(args, store: _Store) -> dict:
    chain_path = _need(args, "chain")
    chain = store.load(load_chain, chain_path)
    series = store.load(load_planar, _need(args, "series"))
    pred = store.take(_prediction_key(chain_path, args))
    if pred is None:
        pred = predict_series(chain, series, n_draws=args.draws, seed=args.seed)
    lo, hi = draw_quantiles(pred.draws, [0.025, 0.975])
    mean = pred.mean
    n = mean.shape[0]
    dates = [""] * n if pred.dates is None else (d.isoformat() for d in pred.dates)
    out_path = _write_table(
        Path(args.out) / "predictions.csv",
        ["date", "actual_x", "actual_y", "mean_x", "mean_y",
         "q025_x", "q975_x", "q025_y", "q975_y"],
        dates,
        np.column_stack([pred.actual, mean, lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]]),
    )
    print(f"predicted {n} steps with {pred.draws.shape[0]} draws each")
    return {"outputs": [out_path]}


def cmd_evaluate(args, store: _Store) -> dict:
    chain_paths = args.chain
    if not chain_paths:
        raise UsageError("--chain is required (repeat it to compare models)")
    series = store.load(load_planar, _need(args, "series"))
    chains = [store.load(load_chain, path) for path in chain_paths]
    for chain in chains:
        scored_draws(chain, args.draws)
    if not 0.0 < args.level < 1.0:
        raise DataError("level must be in (0, 1)")
    scores = []
    for path, chain in zip(chain_paths, chains):
        key = _prediction_key(path, args)
        score = score_model(
            chain,
            series,
            level=args.level,
            n_draws=args.draws,
            seed=args.seed,
            method=args.method,
            keep_prediction=store.wants(key),
        )
        if score.prediction is not None:
            store.keep(key, score.prediction)
        scores.append(score)
    out = Path(args.out)
    scores_path = _write_json(out / "scores.json", [score_to_dict(s) for s in scores])
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
    return {"outputs": [scores_path, report_path]}


def cmd_transitions(args, store: _Store) -> dict:
    series = store.load(load_planar, _need(args, "series"))
    tess = _load_tessellation(args, store)
    chain = None
    if args.chain:
        chain = store.load(load_chain, args.chain)
        tess = chain.tessellation(tess)
    assignment, n_cells = _cells(series, tess, args.nodes)

    select = None
    if args.season:
        if series.dates is None:
            raise DataError("--season needs a dated series")
        select = _label_codes(None, series.dates[:-1])["season"] == SEASONS.index(args.season)

    out = Path(args.out)
    labels = [str(k) for k in range(n_cells)]
    header = ["from/to"] + labels
    outputs = []

    empirical = empirical_transitions(assignment, n_cells, select=select)
    outputs.append(_write_table(out / "transitions_empirical.csv", header, labels, empirical.probs))

    if chain is not None:
        implied = model_transitions(
            chain, series, tess=tess, n_draws=args.draws, seed=args.seed,
            select=select,
        )
        outputs.append(_write_table(out / "transitions_model.csv", header, labels, implied.probs))

    distances = transition_distances(series)
    qs = (0.05, 0.25, 0.50, 0.75, 0.95)
    rows = [["cell", "count"] + [f"q{int(100 * q):02d}" for q in qs]]
    src = np.asarray(assignment)[:-1]
    mask = np.ones(src.shape, dtype=bool) if select is None else select
    for label, where in [(str(k), src == k) for k in range(n_cells)] + [("all", True)]:
        here = distances[where & mask]
        row = [label, str(here.size)]
        row += [_g17(v) for v in np.quantile(here, qs)] if here.size else [""] * 5
        rows.append(row)
    outputs.append(_write_csv(out / "distance_quantiles.csv", rows))
    kept = int(empirical.counts.sum())
    print(f"tabulated {kept} transitions over {n_cells} cells")
    return {"outputs": outputs}


def cmd_frequencies(args, store: _Store) -> dict:
    series = store.load(load_planar, _need(args, "series"))
    assignment, n_cells = _cells(series, None, args.nodes)
    freq = node_frequencies(
        assignment, n_cells, dates=series.dates, by=args.by
    )
    blocks = {"all": freq} if isinstance(freq, np.ndarray) else freq
    rows = [["block"] + [f"node_{k}" for k in range(n_cells)]]
    rows += [[label] + [_g17(v) for v in counts] for label, counts in blocks.items()]
    out_path = _write_csv(Path(args.out) / "frequencies.csv", rows)
    print(f"counted {series.n_days} days over {len(blocks)} block(s)")
    return {"outputs": [out_path]}


def cmd_maps(args, store: _Store) -> dict:
    som = store.load(load_som, _need(args, "som"))
    data = store.load(load_series, _need(args, "series"))
    standardization = getattr(data, "standardization", None)
    fields = node_field_maps(som, data.grid, standardization, kind=args.kind)
    out = Path(args.out)
    outputs = []
    for k in range(fields.shape[0]):
        for v, name in enumerate(data.grid.variables):
            rows = [[_g17(x) for x in row] for row in fields[k, v]]
            outputs.append(_write_csv(out / f"map_node{k:02d}_{name}.csv", rows))
    print(f"wrote {len(outputs)} {args.kind} grids")
    return {"outputs": outputs}


def cmd_lag_scan(args, store: _Store) -> dict:
    series = store.load(load_planar, _need(args, "series"))
    result = var_lag_aic(series, args.max_lag)
    out_path = _write_json(
        Path(args.out) / "lag_scan.json",
        {"aic": result.aic.tolist(), "best_lag": result.best_lag},
    )
    aics = ", ".join(_g5(a) for a in result.aic)
    print(f"best lag {result.best_lag} (aic by lag: {aics})")
    return {"outputs": [out_path]}


def cmd_pipeline(args, store: _Store) -> dict | None:
    if args.config is None:
        raise UsageError("pipeline needs --config pointing at a stage list")
    kind = f"pipeline config {args.config}"
    cfg = _doc.fields(_doc.read_json(args.config, kind), kind,
                      optional={"stages": list, "seed": int, "out": str}, closed=True)
    seed, out = cfg.get("seed", args.seed), cfg.get("out", args.out)
    parser = store.parser
    stages = []
    for i, stage in enumerate(cfg.get("stages", [])):
        stage = _doc.fields(stage, f"{kind}: stage {i}", {"run": str}, {"args": dict},
                            closed=True)
        run = stage["run"]
        if run == "pipeline" or run not in _HANDLERS:
            raise DataError(f"{kind}: stage {i}: no such stage command {run!r}")
        label = f"stage {i} ({run})"
        head = [run, f"--seed={seed}", f"--out={out}"]
        stages.append((label, _parse_config(parser, head, stage.get("args", {}),
                                            f"{kind}: {label}")))
    if not stages:
        return None
    for _, stage_args in stages:
        if stage_args.cmd == "predict" and stage_args.chain and stage_args.series:
            store.expect(_prediction_key(stage_args.chain, stage_args))

    args.out = out
    Path(out).mkdir(parents=True, exist_ok=True)
    for i, (label, stage_args) in enumerate(stages):
        code = _run(parser, stage_args, [], store, f"{kind}: {label}")
        if code != 0:
            print(f"pipeline: {label} failed", file=sys.stderr)
            raise _StageFailure(code)
        store.retain(p for _, later in stages[i + 1:] for p in _inputs(later))
    print(f"pipeline: {len(stages)} stage(s) complete")
    return {
        "outputs": [],
        "extra_config": {"stages_run": [a.cmd for _, a in stages]},
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


def dispatch(argv=None) -> int:
    """Parse and run one command; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
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
    return _run(parser, args, argv, _Store(parser))


def _run(parser, args, argv: list[str], store: _Store, stage: str | None = None) -> int:
    """Run one parsed command (after merging its --config file) on the
    dispatch's `store`; returns the exit code. A pipeline `stage` takes every
    flag from the pipeline config, so a usage error there is a data error."""
    try:
        if args.config is not None and args.cmd != "pipeline":
            kind = f"config {args.config}"
            args = _parse_config(parser, argv[:1], _doc.read_json(args.config, kind), kind,
                                 argv[1:])
        Path(args.out).mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        payload = _HANDLERS[args.cmd](args, store)
        if payload is not None:
            store.forget(payload["outputs"])
            _write_manifest(args, payload, time.perf_counter() - started)
        return 0
    except UsageError as exc:
        if stage is None:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        print(f"data error: {stage}: {exc}", file=sys.stderr)
        return 2
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


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
