"""Spans recorded from outside the program.

The program is not edited. A traced run replaces, in each stvar module, the
name through which it calls a public function of another layer (for example
``stvar.cli.run_chain`` or ``stvar.evaluate.predict_series``) with a wrapper
that records one span: name, start, end and parent. A layer is a module, so
a span name is ``<module>.<function>``; the stage handlers of the command-line
front end are ``cli.<command>`` and the whole dispatch is ``cli``.

Only layer boundaries are wrapped. Helpers called once per sweep or per draw
(``chol_spd``, ``exp_corr``, ``coregional_eta``) are left alone: a span per
call would cost more than the work it times, and their time is counted in
the self time of the sampler or scorer that calls them.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path


class Tracer:
    """Keeps spans in memory; one tracer per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """Return fn recording a span per call; attrs(args, kwargs, result)
        may add counts taken where the work happens."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
                "attrs": {},
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, attrs=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), attrs))


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _model_name(chain) -> str:
    spec = chain.spec
    return spec.name or f"{spec.a_structure}-{spec.eta_structure}"


def _chain_attrs(args, kwargs, chain):
    return {"model": _model_name(chain), "acceptance": dict(chain.acceptance),
            "n_iter": chain.config.n_iter}


def _design_attrs(args, kwargs, design):
    return {"n": int(design.n), "p": int(design.p)}


def _save_chain_attrs(args, kwargs, _):
    return {"bytes": Path(_arg(args, kwargs, 1, "path")).stat().st_size}


def _draws_attrs(args, kwargs, pred):
    return {"draws": int(pred.draws.shape[0])}


def _score_attrs(args, kwargs, score):
    chain = _arg(args, kwargs, 0, "chain")
    return {"model": _model_name(chain),
            "draws": int(chain.draw_indices(kwargs.get("n_draws", 500)).size)}


def _project_attrs(args, kwargs, planar):
    return {"days": int(planar.n_days)}


def _som_attrs(args, kwargs, result):
    return {"epochs": int(result[1].n_epochs)}


def _sammon_attrs(args, kwargs, result):
    return {"iters": int(result.n_iter)}


def install_pipeline_spans(tracer: Tracer, stvar) -> None:
    """Wrap every layer boundary a `stvar pipeline` run crosses."""
    cli, mcmc, evaluate, projection = stvar.cli, stvar.mcmc, stvar.evaluate, stvar.projection
    for cmd, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[cmd] = tracer.wrap(f"cli.{cmd}", handler)
    for attr in ("load_series", "save_series", "standardize"):
        tracer.patch(cli, attr, f"data_model.{attr}")
    tracer.patch(cli, "train_batch", "som.train_batch", _som_attrs)
    tracer.patch(projection, "assign", "som.assign")
    tracer.patch(cli, "sammon_embed", "projection.sammon_embed", _sammon_attrs)
    tracer.patch(cli, "project_series", "projection.project_series", _project_attrs)
    tracer.patch(cli, "load_planar", "projection.load_planar")
    tracer.patch(cli, "save_planar", "projection.save_planar")
    tracer.patch(mcmc, "build_design", "models.build_design", _design_attrs)
    tracer.patch(cli, "run_chain", "mcmc.run_chain", _chain_attrs)
    tracer.patch(cli, "save_chain", "mcmc.save_chain", _save_chain_attrs)
    tracer.patch(cli, "load_chain", "mcmc.load_chain")
    tracer.patch(cli, "predict_series", "mcmc.predict_series", _draws_attrs)
    tracer.patch(evaluate, "predict_series", "mcmc.predict_series", _draws_attrs)
    tracer.patch(cli, "score_model", "evaluate.score_model", _score_attrs)
    tracer.patch(evaluate, "dic", "evaluate.dic")
    tracer.patch(cli, "model_transitions", "evaluate.model_transitions")
    tracer.patch(cli, "var_lag_aic", "evaluate.var_lag_aic")


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


STAGES = ("standardize", "train-som", "sammon", "project", "frequencies",
          "transitions", "fit", "evaluate", "predict", "lag-scan")
MODELS = ("model1", "model9", "model11")

# Every per-layer metric a traced run reports, with its unit. A metric of a
# layer the workload does not run reads 0.
PER_LAYER = (
    [(f"cli.{stage}_s", "s") for stage in STAGES]
    + [
        ("cli.self_s", "s"),
        ("data_model.load_series_s", "s"),
        ("data_model.save_series_s", "s"),
        ("data_model.standardize_s", "s"),
        ("som.train_batch_s", "s"),
        ("som.epochs", "count"),
        ("som.assign_s", "s"),
        ("projection.sammon_embed_s", "s"),
        ("projection.sammon_iters", "count"),
        ("projection.project_series_self_s", "s"),
        ("projection.project_ms_per_day", "ms"),
        ("projection.distinct_orderings", "count"),
        ("projection.candidates", "count"),
        ("projection.load_planar_s", "s"),
        ("projection.save_planar_s", "s"),
        ("models.build_design_s", "s"),
        ("models.design_mb", "MB_computed"),
        ("models.design_cols", "count"),
    ]
    + [(f"mcmc.run_chain_self_s.{m}", "s") for m in MODELS]
    + [(f"mcmc.sweep_ms.{m}", "ms") for m in MODELS]
    + [
        ("mcmc.theta_accept", "fraction"),
        ("mcmc.save_chain_s", "s"),
        ("mcmc.load_chain_s", "s"),
        ("mcmc.chain_mb", "MB"),
        ("mcmc.predict_series_s", "s"),
        ("mcmc.predict_ms_per_draw", "ms"),
    ]
    + [(f"evaluate.score_model_self_s.{m}", "s") for m in MODELS]
    + [
        ("evaluate.dic_s", "s"),
        ("evaluate.score_ms_per_draw", "ms"),
        ("evaluate.model_transitions_s", "s"),
        ("evaluate.var_lag_aic_s", "s"),
        ("synthetic.simulate_var_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(pipeline_spans: list[dict], projector: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run.

    `_s` is total span time; `_self_s` is span time minus the time its child
    spans cover. The caller adds synthetic.simulate_var_s from the set-up's
    spans and trace.overhead_s.
    """
    total = span_totals(pipeline_spans)
    selfs = self_times(pipeline_spans)
    own: dict[str, float] = {}
    for span, self_s in zip(pipeline_spans, selfs):
        own[span["name"]] = own.get(span["name"], 0.0) + self_s

    def tot(name):
        return total.get(name, 0.0)

    def attrs(name):  # spans that raised carry no attrs
        return [s["attrs"] for s in pipeline_spans if s["name"] == name and s["attrs"]]

    def self_by_model(name):
        out = dict.fromkeys(MODELS, 0.0)
        for span, t in zip(pipeline_spans, selfs):
            if span["name"] == name and span["attrs"].get("model") in out:
                out[span["attrs"]["model"]] += t
        return out

    m = {f"cli.{stage}_s": tot(f"cli.{stage}") for stage in STAGES}
    m["cli.self_s"] = sum(v for k, v in own.items() if k == "cli" or k.startswith("cli."))
    for name in ("load_series", "save_series", "standardize"):
        m[f"data_model.{name}_s"] = tot(f"data_model.{name}")
    m["som.train_batch_s"] = tot("som.train_batch")
    m["som.epochs"] = sum(a["epochs"] for a in attrs("som.train_batch"))
    m["som.assign_s"] = tot("som.assign")
    m["projection.sammon_embed_s"] = tot("projection.sammon_embed")
    m["projection.sammon_iters"] = sum(a["iters"] for a in attrs("projection.sammon_embed"))
    m["projection.project_series_self_s"] = own.get("projection.project_series", 0.0)
    days = sum(a["days"] for a in attrs("projection.project_series"))
    m["projection.project_ms_per_day"] = 1e3 * _ratio(m["projection.project_series_self_s"], days)
    m["projection.distinct_orderings"] = (projector or {}).get("distinct_orderings", 0)
    m["projection.candidates"] = (projector or {}).get("candidates", 0)
    m["projection.load_planar_s"] = tot("projection.load_planar")
    m["projection.save_planar_s"] = tot("projection.save_planar")
    designs = attrs("models.build_design")
    m["models.build_design_s"] = tot("models.build_design")
    # computed, not measured: the bytes of the largest dense n x p float64 design
    m["models.design_mb"] = max((a["n"] * a["p"] * 8 / 1e6 for a in designs), default=0.0)
    m["models.design_cols"] = max((a["p"] for a in designs), default=0)

    chains = attrs("mcmc.run_chain")
    chain_self = self_by_model("mcmc.run_chain")
    iters = {a["model"]: a["n_iter"] for a in chains}
    for model in MODELS:
        m[f"mcmc.run_chain_self_s.{model}"] = chain_self[model]
        m[f"mcmc.sweep_ms.{model}"] = 1e3 * _ratio(chain_self[model], iters.get(model, 0))
    rates = [r for a in chains for r in a["acceptance"].values()]
    m["mcmc.theta_accept"] = _ratio(sum(rates), len(rates))
    m["mcmc.save_chain_s"] = tot("mcmc.save_chain")
    m["mcmc.load_chain_s"] = tot("mcmc.load_chain")
    m["mcmc.chain_mb"] = sum(a["bytes"] for a in attrs("mcmc.save_chain")) / 1e6
    m["mcmc.predict_series_s"] = tot("mcmc.predict_series")
    m["mcmc.predict_ms_per_draw"] = 1e3 * _ratio(
        m["mcmc.predict_series_s"], sum(a["draws"] for a in attrs("mcmc.predict_series")))

    score_self = self_by_model("evaluate.score_model")
    for model in MODELS:
        m[f"evaluate.score_model_self_s.{model}"] = score_self[model]
    m["evaluate.dic_s"] = tot("evaluate.dic")
    m["evaluate.score_ms_per_draw"] = 1e3 * _ratio(
        tot("evaluate.score_model"), sum(a["draws"] for a in attrs("evaluate.score_model")))
    m["evaluate.model_transitions_s"] = tot("evaluate.model_transitions")
    m["evaluate.var_lag_aic_s"] = tot("evaluate.var_lag_aic")
    return m


def span_totals(pipeline_spans: list[dict]) -> dict[str, float]:
    """Total time per span name, for attributing a run's wall time."""
    out: dict[str, float] = {}
    for s in pipeline_spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def wall_shares(pipeline_spans: list[dict]) -> dict[str, float]:
    """Share of the traced dispatch spent in the layers each workload is
    chosen for: projection, and each model's fit plus scoring."""
    wall = span_totals(pipeline_spans).get("cli", 0.0)
    out = {"projection.project_series": 0.0}
    out.update({f"{m}.run_chain+score_model": 0.0 for m in MODELS})
    for s in pipeline_spans:
        if s["name"] == "projection.project_series":
            key = s["name"]
        elif s["name"] in ("mcmc.run_chain", "evaluate.score_model") and s["attrs"]:
            key = f"{s['attrs']['model']}.run_chain+score_model"
        else:
            continue
        if key in out:
            out[key] += (s["end"] - s["start"]) / wall
    return out
