"""The three benchmark workloads: seeded inputs, one pipeline config each,
the spans each must fire, and the checks on each one's outputs.

Every workload is one `stvar pipeline` config. Its inputs are written during
set-up from the workload seed, so the program receives only files.

- ``fields``: gridded fields -> SOM -> Sammon -> projection -> frequencies
  and empirical transitions. Greedy projection dominates and no model is
  fitted, so a sampler or scoring change predicts no change here.
- ``ladder``: a model9 (A by cell x year) truth fitted by model1 and model9,
  both scored, model9 predicted, its implied transitions tabulated and a lag
  scan run. This is the dense-design path: ``build_design`` with its SVD,
  dense-X Gibbs sweeps, per-draw scoring loops, and chain files written and
  read back. model1 (p = 2) is the contrast case where the design is tiny.
- ``spatial``: a model11 (constant A + predictive-process intercept) truth,
  fitted, scored and predicted. Theta Metropolis and per-draw kriging
  dominate while the design has p = 2, so a dense-design change predicts no
  change here, and a predictive-process change predicts none on ``fields``.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from pathlib import Path

# Sizes per scale. "full" is the benchmark; "tiny" is the smoke test. Scoring
# needs at least 100 kept draws (iters - burn) for its coverage check.
SIZES = {
    "fields": {
        "full": {"days": 400, "rows": 10, "cols": 10, "variables": 2, "nodes": 12},
        "tiny": {"days": 60, "rows": 3, "cols": 4, "variables": 2, "nodes": 6},
    },
    "ladder": {
        "full": {"days": 7300, "cells": 12, "iters1": 250, "burn1": 130,
                 "iters9": 250, "burn9": 130, "draws": 100, "trans_draws": 50},
        "tiny": {"days": 400, "cells": 4, "iters1": 130, "burn1": 30,
                 "iters9": 130, "burn9": 30, "draws": 100, "trans_draws": 20},
    },
    "spatial": {
        "full": {"days": 1500, "cells": 12, "iters": 220, "burn": 110, "draws": 100},
        "tiny": {"days": 200, "cells": 4, "iters": 130, "burn": 30, "draws": 100},
    },
}

START_DATE = "1990-01-01"
# Predictive intervals are checked against this band around the 0.95 level.
COVERAGE_BAND = (0.90, 0.99)


def _dates(n_days: int):
    d0 = _dt.date.fromisoformat(START_DATE)
    return tuple(d0 + _dt.timedelta(days=i) for i in range(n_days))


# ---------------------------------------------------------------------------
# Inputs


def _write_fields(stvar, seed: int, size: dict, inputs: Path) -> None:
    """Two AR(1) latent factors through smooth spatial loadings plus noise."""
    import numpy as np

    grid = stvar.GridSpec(
        n_rows=size["rows"], n_cols=size["cols"],
        variables=tuple(f"v{k}" for k in range(size["variables"])),
    )
    rng = np.random.default_rng(seed)
    rows, cols = np.meshgrid(np.arange(grid.n_rows), np.arange(grid.n_cols), indexing="ij")
    loadings = np.empty((2, grid.n_variables, grid.n_cells))
    for v in range(grid.n_variables):
        phase = 2.0 * np.pi * v / grid.n_variables
        loadings[0, v] = np.cos(rows / 2.0 + phase).ravel()
        loadings[1, v] = np.sin(cols / 3.0 - phase).ravel()
    n = size["days"]
    z = np.zeros((n, 2))
    for t in range(1, n):
        z[t] = 0.92 * z[t - 1] + rng.standard_normal(2)
    fields = np.einsum("tk,kvc->tvc", z, loadings)
    fields += 0.4 * rng.standard_normal(fields.shape)
    raw = stvar.RawSeries(values=fields, grid=grid, dates=_dates(n))
    stvar.save_series(raw, inputs / "fields.series")


def _write_trajectory(stvar, model: str, seed: int, size: dict, inputs: Path) -> None:
    """A seeded draw from the ladder truth of `model`, with its tessellation."""
    tess = stvar.default_tessellation(size["cells"])
    truth = stvar.ladder_truth(model, tess=tess, start_date=START_DATE, n_days=size["days"])
    series = stvar.synthetic.simulate_var(
        truth, size["days"], tess=tess, start_date=START_DATE, seed=seed
    )
    stvar.save_planar(series, inputs / "series.planar")
    (inputs / "tessellation.json").write_text(
        json.dumps({"sites": tess.sites.tolist()}) + "\n"
    )


def write_inputs(stvar, workload: str, seed: int, scale: str, inputs: Path) -> None:
    size = SIZES[workload][scale]
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "fields":
        _write_fields(stvar, seed, size, inputs)
    else:
        _write_trajectory(stvar, "model9" if workload == "ladder" else "model11",
                          seed, size, inputs)


# ---------------------------------------------------------------------------
# Pipeline configs


def stages(workload: str, scale: str, inputs: Path, out: Path) -> list[dict]:
    size = SIZES[workload][scale]
    if workload == "fields":
        state, som, embedded, days = (str(out / n) for n in
                                      ("series.state", "som.json", "som_sammon.json", "days.planar"))
        return [
            {"run": "standardize", "args": {"series": str(inputs / "fields.series")}},
            {"run": "train-som", "args": {"series": state, "nodes": size["nodes"], "mode": "batch"}},
            {"run": "sammon", "args": {"som": som}},
            {"run": "project", "args": {"som": embedded, "series": state}},
            {"run": "frequencies", "args": {"series": days, "by": "season"}},
            {"run": "transitions", "args": {"series": days, "som": embedded}},
        ]
    series = str(inputs / "series.planar")
    if workload == "ladder":
        m1, m9 = str(out / "model1.chain"), str(out / "model9.chain")
        return [
            {"run": "fit", "args": {"spec": "model1", "series": series,
                                    "iters": size["iters1"], "burn-in": size["burn1"]}},
            {"run": "fit", "args": {"spec": "model9", "series": series,
                                    "tessellation": str(inputs / "tessellation.json"),
                                    "iters": size["iters9"], "burn-in": size["burn9"]}},
            {"run": "evaluate", "args": {"chain": [m1, m9], "series": series,
                                         "draws": size["draws"]}},
            {"run": "predict", "args": {"chain": m9, "series": series, "draws": size["draws"]}},
            {"run": "transitions", "args": {"chain": m9, "series": series,
                                            "draws": size["trans_draws"]}},
            {"run": "lag-scan", "args": {"series": series, "max-lag": 5}},
        ]
    m11 = str(out / "model11.chain")
    return [
        {"run": "fit", "args": {"spec": "model11", "series": series,
                                "iters": size["iters"], "burn-in": size["burn"]}},
        {"run": "evaluate", "args": {"chain": m11, "series": series, "draws": size["draws"]}},
        {"run": "predict", "args": {"chain": m11, "series": series, "draws": size["draws"]}},
    ]


# Spans a traced run of each workload must fire; any that does not is a
# wrapper the program no longer goes through.
EXPECTED_SPANS = {
    "fields": {
        "cli", "cli.pipeline", "cli.standardize", "cli.train-som", "cli.sammon",
        "cli.project", "cli.frequencies", "cli.transitions",
        "data_model.load_series", "data_model.save_series", "data_model.standardize",
        "som.train_batch", "som.assign", "projection.sammon_embed",
        "projection.project_series", "projection.load_planar", "projection.save_planar",
    },
    "ladder": {
        "cli", "cli.pipeline", "cli.fit", "cli.evaluate", "cli.predict",
        "cli.transitions", "cli.lag-scan", "projection.load_planar",
        "models.build_design", "mcmc.run_chain", "mcmc.save_chain", "mcmc.load_chain",
        "mcmc.predict_series", "evaluate.score_model", "evaluate.dic",
        "evaluate.model_transitions", "evaluate.var_lag_aic", "synthetic.simulate_var",
    },
    "spatial": {
        "cli", "cli.pipeline", "cli.fit", "cli.evaluate", "cli.predict",
        "projection.load_planar", "models.build_design", "mcmc.run_chain",
        "mcmc.save_chain", "mcmc.load_chain", "mcmc.predict_series",
        "evaluate.score_model", "evaluate.dic", "synthetic.simulate_var",
    },
}


# ---------------------------------------------------------------------------
# Output checks


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_outputs(stvar, workload: str, out: Path) -> dict[str, bool]:
    """Named pass/fail checks on one run's outputs."""
    import numpy as np

    if workload == "fields":
        som = stvar.load_som(out / "som_sammon.json")
        days = stvar.load_planar(out / "days.planar")
        nearest = stvar.Tessellation.from_som(som).assign(days.points)
        stress = json.loads((out / "sammon.json").read_text())["stress"]
        return {
            "nearest_planar_node_is_winner": bool(np.array_equal(nearest, days.node_assignment)),
            "sammon_stress_finite": _finite(stress),
        }
    checks = {}
    for path in sorted(out.glob("*.chain")):
        chain = stvar.load_chain(path)
        arrays = [chain.phi, chain.sigma] + [
            a for a in (chain.theta, chain.q, chain.wstar) if a is not None
        ]
        checks[f"{path.stem}_draws_finite"] = all(np.isfinite(a).all() for a in arrays)
    lo, hi = COVERAGE_BAND
    for score in json.loads((out / "scores.json").read_text()):
        m = score["model"]
        checks[f"{m}_scores_finite"] = all(_finite(score[k]) for k in ("rmspe", "dic", "p_d"))
        checks[f"{m}_coverage_in_band"] = _finite(score["coverage"]) and lo <= score["coverage"] <= hi
    return checks
