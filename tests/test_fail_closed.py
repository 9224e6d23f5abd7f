"""Every reader fails closed: a malformed input file ends as a DataError
(exit 2 with a ``data error:`` line), never as another exception.

``TestProbes`` replays single mutations that once leaked a traceback or
ended with exit 0 or 1. ``test_reader_fails_closed`` is a hypothesis
property over every reader: truncated files, flipped bytes, dropped or
retyped JSON keys, non-finite numbers and wrong shapes either load a valid
object (exit 0 through the command line) or raise a DataError subclass
(exit 2). The default profile runs a few derandomized examples; for many
more, run ``pytest --hypothesis-profile=deep tests/test_fail_closed.py``.
"""

import contextlib
import datetime as dt
import copy
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stvar.cli import dispatch
from stvar.data_model import (
    GridSpec,
    RawSeries,
    StateSeries,
    Standardization,
    as_matrix,
    load_series,
    save_series,
    standardize,
)
from stvar.errors import DataError, DimensionMismatch
from stvar.evaluate import (
    coverage,
    model_transitions,
    node_frequencies,
    repair_pd,
    score_model,
    var_lag_aic,
)
from stvar.mcmc import (
    Chain,
    McmcConfig,
    chain_design,
    load_chain,
    predict_series,
    run_chain,
    save_chain,
)
from stvar.models import (
    DesignInfo,
    KnotGrid,
    ModelSpec,
    PredictiveProcess,
    build_design,
    domain_diameter,
    exp_corr,
    pp_basis,
    resolve_spec,
    spec_to_dict,
)
from stvar.projection import (
    GreedyProjector,
    PlanarSeries,
    SammonConfig,
    Tessellation,
    load_planar,
    sammon_embed,
    save_planar,
)
from stvar.som import SomConfig, SomModel, lattice_coords, load_som, save_som, train_batch
from stvar.synthetic import (
    DEFAULT_SIGMA,
    TruthBundle,
    default_tessellation,
    ladder_truth,
    simulate_uniform_cloud,
    simulate_var,
)

START = "2001-01-01"

# The series' metadata document: dates and standardization constants. It was
# once a sidecar file of this name and is now the series file's JSON line; a
# blob for it is written back into that line of state.series.
SERIES_META = "state.series.meta.json"


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid input files of every kind, and the JSON documents among them."""
    root = tmp_path_factory.mktemp("base")
    rng = np.random.default_rng(0)
    grid = GridSpec(n_rows=1, n_cols=2, variables=("u", "v"))
    dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(8))
    raw = RawSeries(values=rng.normal(size=(8, 2, 2)), grid=grid, dates=dates)
    save_series(standardize(raw), root / "state.series")

    tess = default_tessellation(4)
    truth = ladder_truth("model2", tess=tess, start_date=START, n_days=40)
    series = simulate_var(truth, 40, tess=tess, start_date=START, seed=1)
    save_planar(series, root / "series.planar")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = run_chain(series, "model2", McmcConfig(n_iter=130, burn_in=20), tess=tess)
    save_chain(chain, root / "model2.chain")

    som, _ = train_batch(rng.normal(size=(20, 3)),
                         SomConfig(n_nodes=4, phase_steps=(2, 2), max_epochs=6))
    save_som(som, root / "som.json")

    planar = str(root / "series.planar")
    docs = {
        "tessellation.json": {"sites": tess.sites.tolist()},
        "spec.json": spec_to_dict(ModelSpec("tessellation", "quarter",
                                            knot_grid=KnotGrid(n_x=4, n_y=5))),
        "config.json": {"max_lag": 2, "seed": 5},
        "pipeline.json": {"seed": 3, "stages": [
            {"run": "lag-scan", "args": {"series": planar, "max-lag": 2}},
            {"run": "frequencies", "args": {"series": planar, "by": "season"}},
        ]},
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    docs["som.json"] = json.loads((root / "som.json").read_text())
    docs[SERIES_META] = json.loads((root / "state.series").read_bytes().split(b"\n", 2)[1])
    return root, docs


def quiet_dispatch(argv):
    """Exit code and stderr of one command; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch([str(a) for a in argv])
    return code, err.getvalue()


def commands(root, work, name):
    """The command that reads file `name` from `work`, other inputs from `root`."""
    planar, path, out = root / "series.planar", work / file_of(name), work / "out"
    return {
        "tessellation.json": ["transitions", "--series", planar, "--tessellation", path],
        "som.json": ["sammon", "--som", path],
        "spec.json": ["fit", "--spec", path, "--series", planar, "--iters", 30,
                      "--burn-in", 20, "--tessellation", root / "tessellation.json"],
        "state.series": ["train-som", "--series", path, "--nodes", 2,
                         "--phase-steps", "1,1"],
        SERIES_META: ["train-som", "--series", path, "--nodes", 2, "--phase-steps", "1,1"],
        "model2.chain": ["predict", "--chain", path, "--series", planar, "--draws", 5],
        "series.planar": ["lag-scan", "--series", path],
        "config.json": ["lag-scan", "--series", planar, "--config", path],
        "pipeline.json": ["pipeline", "--config", path],
    }[name] + ["--out", out]


# A loader per file, where the library has one; the rest are read only by the
# command line.
LOADERS = {
    "som.json": (load_som, SomModel),
    "spec.json": (lambda p: resolve_spec(str(p)), ModelSpec),
    "state.series": (load_series, (RawSeries, StateSeries)),
    SERIES_META: (load_series, (RawSeries, StateSeries)),
    "model2.chain": (load_chain, Chain),
    "series.planar": (load_planar, PlanarSeries),
}


def file_of(name):
    """The file that holds input `name`."""
    return "state.series" if name == SERIES_META else name


def prepare(root, work, name, blob):
    """Write `blob` as input `name` in `work`; the command reads every other
    input from `root`."""
    work.mkdir(exist_ok=True)
    if name == SERIES_META:
        blob = with_meta(root / "state.series", blob)
    (work / file_of(name)).write_bytes(blob)


def valid_blob(root, docs, name):
    """The bytes of input `name` as the base fixture wrote it."""
    if name == SERIES_META:
        return json.dumps(docs[name], sort_keys=True).encode()
    return (root / name).read_bytes()


def edited(docs, name, edit):
    doc = copy.deepcopy(docs[name])
    edit(doc)
    return json.dumps(doc).encode()


def with_ff(root, name, marker):
    """The file with one byte after `marker` replaced by 0xff."""
    blob = (root / name).read_bytes()
    at = blob.index(marker) + len(marker)
    return blob[:at] + b"\xff" + blob[at + 1:]


def with_meta(path, meta: bytes):
    """The framed file at `path` with `meta` as its metadata line."""
    magic, _, body = path.read_bytes().split(b"\n", 2)
    return b"\n".join([magic, meta, body])


def meta_edited(path, edit):
    """The framed file at `path` with `edit` applied to its metadata object."""
    meta = json.loads(path.read_bytes().split(b"\n", 2)[1])
    edit(meta)
    return with_meta(path, json.dumps(meta, sort_keys=True).encode())


def _v1_series(path):
    """The series in the retired format: header line, name line, then the
    payload, which is unchanged."""
    _, meta, body = path.read_bytes().split(b"\n", 2)
    meta = json.loads(meta)
    R, C, names = (meta["grid"][k] for k in ("n_rows", "n_cols", "variables"))
    head = f"STVAR-SERIES v1 T={meta['n_days']} V={len(names)} R={R} C={C}\n{','.join(names)}\n"
    return head.encode() + body


def _v1_planar(path):
    """The planar series in the retired text format, one `x y node date`
    row per day."""
    s = load_planar(path)
    rows = [f"{x:.17g} {y:.17g} {k} {d.isoformat()}"
            for (x, y), k, d in zip(s.points, s.node_assignment, s.dates)]
    return "\n".join([f"STVAR-PLANAR v1 T={s.n_days}", *rows, ""]).encode()


def _lag_stage(docs, **top):
    return json.dumps({**top, "stages": docs["pipeline.json"]["stages"][:1]}).encode()


def _chain_rows(path):
    """The chain's two header lines as bytes and its draws as rows."""
    magic, meta, payload = path.read_bytes().split(b"\n", 2)
    n_draws = json.loads(meta)["n_draws"]
    return magic + b"\n" + meta + b"\n", np.frombuffer(payload, "<f8").reshape(n_draws, -1)


def _extra_draws(path):
    """The chain with its first draw's bytes appended after the last draw."""
    head, rows = _chain_rows(path)
    return head + rows.tobytes() + rows[0].tobytes()


def _n_draws(path, n):
    """The chain with its metadata declaring n draws."""
    head, rows = _chain_rows(path)
    return re.sub(rb'"n_draws": \d+', b'"n_draws": %d' % n, head) + rows.tobytes()


def _zero_draws(path):
    """The chain's magic and metadata lines, declaring no draws."""
    head, _ = _chain_rows(path)
    return re.sub(rb'"n_draws": \d+', b'"n_draws": 0', head)


def _nan_draw(path, k):
    """The chain with one value of draw k (counting from 1) made NaN."""
    head, rows = _chain_rows(path)
    rows = rows.copy()
    rows[k - 1, -1] = np.nan
    return head + rows.tobytes()


def _text_chain(path):
    """The chain in the retired text format: its metadata line, then one
    line of 17-digit numbers per draw."""
    head, rows = _chain_rows(path)
    meta = head.split(b"\n")[1].decode()
    lines = ["STVAR-CHAIN v1", meta] + [" ".join(f"{v:.17g}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# probe: (file it replaces, its bytes from (root, docs), text the data error
# line must contain or None). None ended as exit 2 before every reader went
# through stvar._doc.
PROBES = {
    "tess-sites-text": ("tessellation.json", lambda r, d: b'{"sites": "abc"}', None),
    "tess-sites-ragged": ("tessellation.json", lambda r, d: b'{"sites": [[1, 2], [3]]}', None),
    "tess-sites-word": ("tessellation.json", lambda r, d: b'{"sites": [[1, "x"]]}', None),
    "som-no-config": ("som.json", lambda r, d: edited(d, "som.json", lambda m: m.pop("config")),
                      None),
    "som-no-kernel": ("som.json",
                      lambda r, d: edited(d, "som.json", lambda m: m["config"].pop("kernel")),
                      None),
    "som-n_nodes-text": ("som.json",
                         lambda r, d: edited(d, "som.json", lambda m: m.update(n_nodes="x")),
                         None),
    "som-alpha-number": ("som.json", lambda r, d: edited(
        d, "som.json", lambda m: m["config"].update(alpha=5)), None),
    "som-node-word": ("som.json", lambda r, d: edited(
        d, "som.json", lambda m: m["nodes"][0].__setitem__(0, "x")), None),
    "spec-n_x-text": ("spec.json", lambda r, d: edited(
        d, "spec.json", lambda m: m.update(knot_grid={"n_x": "a"})), None),
    "spec-knot_grid-number": ("spec.json", lambda r, d: edited(
        d, "spec.json", lambda m: m.update(knot_grid=5)), None),
    "spec-initial-null": ("spec.json", lambda r, d: edited(
        d, "spec.json", lambda m: m.update(jitter_policy={"initial": None})), None),
    "series-meta-not-json": ("state.series",
                             lambda r, d: with_meta(r / "state.series", b"{not json"),
                             "series metadata: not JSON"),
    "series-meta-no-sd": ("state.series", lambda r, d: meta_edited(
        r / "state.series", lambda m: m["standardization"].pop("sd")), "missing key 'sd'"),
    "series-meta-dates-number": ("state.series", lambda r, d: meta_edited(
        r / "state.series", lambda m: m.update(dates=5)), "'dates' must be list or null"),
    "series-meta-list": ("state.series", lambda r, d: with_meta(r / "state.series", b"[1]"),
                         "series metadata must be dict"),
    "series-meta-date-word": ("state.series", lambda r, d: meta_edited(
        r / "state.series", lambda m: m["dates"].__setitem__(3, "x")), "bad date"),
    "series-v1": ("state.series", lambda r, d: _v1_series(r / "state.series"),
                  "STVAR-SERIES v1 is the retired series format"),
    "planar-v1": ("series.planar", lambda r, d: _v1_planar(r / "series.planar"),
                  "STVAR-PLANAR v1 is the retired text planar format"),
    "chain-a_keys-nested": ("model2.chain", lambda r, d: (r / "model2.chain").read_bytes()
                            .replace(b'"a_keys": [[0], ', b'"a_keys": [[1, [2]], '), None),
    "chain-extra-draw": ("model2.chain", lambda r, d: _extra_draws(r / "model2.chain"), None),
    "chain-one-byte-short": ("model2.chain",
                             lambda r, d: (r / "model2.chain").read_bytes()[:-1], "payload has"),
    "chain-n_draws-huge": ("model2.chain", lambda r, d: _n_draws(r / "model2.chain", 10**30),
                           "header implies"),
    "chain-nan-draw": ("model2.chain", lambda r, d: _nan_draw(r / "model2.chain", 7),
                       "draw 7: non-finite value"),
    "chain-text-v1": ("model2.chain", lambda r, d: _text_chain(r / "model2.chain"),
                      "STVAR-CHAIN v1 is the retired text chain format; refit"),
    "chain-zero-draws": ("model2.chain", lambda r, d: _zero_draws(r / "model2.chain"),
                         "'n_draws' must be at least 1, got 0"),
    "chain-knots-nonspatial": ("model2.chain", lambda r, d: (r / "model2.chain").read_bytes()
                               .replace(b'"knots": null', b'"knots": [[0, 0]]'),
                               "'knots' must be set just when"),
    "config-max_lag-text": ("config.json", lambda r, d: edited(
        d, "config.json", lambda m: m.update(max_lag="x")), None),
    "pipeline-stage-args": ("pipeline.json", lambda r, d: json.dumps({"stages": [
        {"run": "lag-scan", "args": {"max_lag": "x"}}]}).encode(), "stage 0 (lag-scan)"),
    "pipeline-seed-text": ("pipeline.json", lambda r, d: _lag_stage(d, seed="abc"), "'seed'"),
    "pipeline-out-list": ("pipeline.json", lambda r, d: _lag_stage(d, out=[1]), "'out'"),
    "pipeline-seed-negative": ("pipeline.json", lambda r, d: _lag_stage(d, seed=-1),
                               "stage 0 (lag-scan): argument --seed"),
    "config-seed-negative": ("config.json", lambda r, d: edited(
        d, "config.json", lambda m: m.update(seed=-1)), "argument --seed"),
    "pipeline-path-nul": ("pipeline.json", lambda r, d: json.dumps({"stages": [
        {"run": "lag-scan", "args": {"series": "a\u0000b"}}]}).encode(),
                          "stage 0 (lag-scan): NUL character in --series"),
    "ff-series-names": ("state.series", lambda r, d: with_ff(r, "state.series", b"\n"), None),
    "ff-planar": ("series.planar", lambda r, d: with_ff(r, "series.planar", b"\n"), None),
    "ff-chain": ("model2.chain", lambda r, d: with_ff(r, "model2.chain", b"\n"), None),
    "ff-tessellation": ("tessellation.json",
                        lambda r, d: with_ff(r, "tessellation.json", b"[["), None),
    "ff-pipeline": ("pipeline.json", lambda r, d: with_ff(r, "pipeline.json", b'"run'), None),
    # numpy reads a JSON true as 1, so these once loaded
    "tess-sites-true": ("tessellation.json", lambda r, d: b'{"sites": [[0, true], [1, 2]]}',
                        "tessellation: 'sites' must be a finite numeric array"),
    "planar-nodes-true": ("series.planar", lambda r, d: meta_edited(
        r / "series.planar", lambda m: m["nodes"].__setitem__(1, True)),
                          "planar metadata: 'nodes' must be a finite numeric array"),
    # a chain written while McmcConfig still had its five tuning fields
    "chain-config-retired": ("model2.chain", lambda r, d: meta_edited(
        r / "model2.chain", lambda m: m["config"].update(
            proposal_scale=0.5, target_accept=0.3, adapt_interval=50, q_prior_sd=10.0,
            rhat_threshold=1.2)),
                             "chain metadata config: unknown keys ['adapt_interval', "
                             "'proposal_scale', 'q_prior_sd', 'rhat_threshold', "
                             "'target_accept']"),
    # a chain written while McmcConfig still had its Sigma mode and theta bound
    "chain-config-sigma-retired": ("model2.chain", lambda r, d: meta_edited(
        r / "model2.chain", lambda m: m["config"].update(
            sigma_mode="full_conditional", theta_upper=None)),
                                   "chain metadata config: unknown keys ['sigma_mode', "
                                   "'theta_upper']"),
    # a seed numpy's generators cannot take
    "chain-seed-negative": ("model2.chain", lambda r, d: meta_edited(
        r / "model2.chain", lambda m: m["config"].update(seed=-1)),
                            "seed must be a non-negative integer, got -1"),
    "som-seed-negative": ("som.json", lambda r, d: edited(
        d, "som.json", lambda m: m["config"].update(rng_seed=-1)),
                          "rng_seed must be a non-negative integer, got -1"),
    # a chain written while the model spec still had its calendar and jitter ladder
    "chain-spec-retired": ("model2.chain", lambda r, d: meta_edited(
        r / "model2.chain", lambda m: m["spec"].update(
            season_calendar="meteorological",
            jitter_policy={"initial": 1e-10, "factor": 10.0, "max": 1e-6})),
                           "model spec: unknown keys ['jitter_policy', 'season_calendar']"),
}


class TestProbes:
    @pytest.mark.parametrize("name", sorted({f for f, _, _ in PROBES.values()} | {SERIES_META}))
    def test_valid_files_run(self, base, tmp_path, name):
        root, docs = base
        prepare(root, tmp_path, name, valid_blob(root, docs, name))
        code, err = quiet_dispatch(commands(root, tmp_path, name))
        assert code == 0, err

    @pytest.mark.parametrize("probe", PROBES)
    def test_probe_is_data_error(self, base, tmp_path, probe):
        root, docs = base
        name, make, named = PROBES[probe]
        prepare(root, tmp_path, name, make(root, docs))
        code, err = quiet_dispatch(commands(root, tmp_path, name))
        assert code == 2, err
        line = next(ln for ln in err.splitlines() if ln.startswith("data error:"))
        assert named is None or named in line
        if name in LOADERS:
            with pytest.raises(DataError):
                LOADERS[name][0](tmp_path / name)

    @pytest.mark.parametrize("probe", ["chain-zero-draws", "chain-knots-nonspatial"])
    def test_chain_probe_under_evaluate(self, base, tmp_path, probe):
        root, docs = base
        name, make, named = PROBES[probe]
        prepare(root, tmp_path, name, make(root, docs))
        code, err = quiet_dispatch(["evaluate", "--chain", tmp_path / name, "--series",
                                    root / "series.planar", "--out", tmp_path / "out"])
        assert code == 2 and err.startswith("data error:") and named in err, err
        assert "Traceback" not in err

    def test_too_few_draws_is_data_error(self, base, tmp_path):
        root, _ = base
        code, err = quiet_dispatch(["evaluate", "--chain", root / "model2.chain", "--series",
                                    root / "series.planar", "--draws", 5, "--out", tmp_path])
        assert (code, err) == (2, "data error: need at least 100 draws, got 5\n")
        assert not (tmp_path / "scores.json").exists()

    @pytest.mark.parametrize("bad, named", [
        ("zero", "'n_draws' must be at least 1, got 0"),
        ("short", "need at least 100 draws, got 60"),
    ])
    def test_every_chain_checked_before_any_scoring(self, base, tmp_path, monkeypatch,
                                                      bad, named):
        # a bad chain after a good one must fail before the good one is scored
        root, _ = base
        good = root / "model2.chain"
        if bad == "zero":
            blob = _zero_draws(good)
        else:
            head, rows = _chain_rows(good)
            blob = re.sub(rb'"n_draws": \d+', b'"n_draws": 60', head) + rows[:60].tobytes()
        (tmp_path / "bad.chain").write_bytes(blob)

        def refuse(*args, **kwargs):
            raise AssertionError("a chain was scored")

        monkeypatch.setattr("stvar.cli.score_model", refuse)
        code, err = quiet_dispatch(["evaluate", "--chain", good, "--chain", tmp_path / "bad.chain",
                                    "--series", root / "series.planar", "--out", tmp_path])
        assert code == 2 and err.startswith("data error:") and named in err, err
        assert not (tmp_path / "scores.json").exists()

    @pytest.mark.parametrize("command, where", [
        ("pipeline", "stage 0 (lag-scan)"),
        ("lag-scan", "config"),
    ])
    def test_nul_in_a_config_path_is_one_data_error(self, tmp_path, command, where):
        # the NUL reaches no path function, which would raise ValueError
        args = {"series": "a\u0000b"}
        doc = {"stages": [{"run": "lag-scan", "args": args}]} if command == "pipeline" else args
        (tmp_path / "c.json").write_text(json.dumps(doc))
        code, err = quiet_dispatch([command, "--config", tmp_path / "c.json",
                                    "--out", tmp_path / "out"])
        assert code == 2, err
        errors = [ln for ln in err.splitlines() if ln.startswith("data error:")]
        assert len(errors) == 1 and "Traceback" not in err, err
        path = tmp_path / "c.json"
        named = f"pipeline config {path}: {where}" if command == "pipeline" else f"{where} {path}"
        assert errors[0] == f"data error: {named}: NUL character in --series"

    @pytest.mark.parametrize("probe", ["tess-sites-true", "som-node-word", "spec-n_x-text",
                                       "pipeline-seed-text", "pipeline-out-list",
                                       "pipeline-stage-args", "pipeline-seed-negative",
                                       "pipeline-path-nul"])
    def test_json_field_error_names_the_file_once(self, base, tmp_path, probe):
        root, docs = base
        name, make, _ = PROBES[probe]
        prepare(root, tmp_path, name, make(root, docs))
        code, err = quiet_dispatch(commands(root, tmp_path, name))
        line = next(ln for ln in err.splitlines() if ln.startswith("data error:"))
        assert code == 2 and line.count(str(tmp_path / name)) == 1, err

    def test_start_date_past_the_calendar_is_data_error(self, tmp_path):
        code, err = quiet_dispatch(["simulate", "--days", 50, "--start-date", "9999-12-20",
                                    "--out", tmp_path])
        assert code == 2 and "Traceback" not in err, err
        assert err.startswith("data error: 50 days from 9999-12-20 run past 9999-12-31: "
                              "day 12 "), err

    def test_fit_without_residual_df_is_data_error(self, tmp_path):
        # 4 days give n = 3 transitions and model1 has p = 2 columns
        truth = ladder_truth("model1")
        series = simulate_var(truth, 4, tess=default_tessellation(4), seed=2)
        save_planar(series, tmp_path / "short.planar")
        code, err = quiet_dispatch(["fit", "--spec", "model1", "--series",
                                    tmp_path / "short.planar", "--out", tmp_path / "out"])
        assert code == 2 and "Traceback" not in err, err
        assert err.startswith("data error: n - p = 3 - 2 < 2: Sigma's posterior is "
                              "improper"), err

    def test_empty_dated_span_is_data_error(self, tmp_path):
        code, err = quiet_dispatch(["simulate", "--model", "model9", "--start-date", "1990-01-01",
                                    "--days", 0, "--out", tmp_path])
        assert code == 2 and "Traceback" not in err, err
        assert err.startswith("data error:"), err

    def test_phase_steps_word_is_data_error(self, base, tmp_path):
        root, _ = base
        code, err = quiet_dispatch(["train-som", "--series", root / "state.series",
                                    "--phase-steps", "a,b", "--out", tmp_path])
        assert code == 2 and err.startswith("data error:"), err


# every library entry point that takes a seed, called with seed -1
SEED_ENTRY_POINTS = {
    "McmcConfig": lambda r: McmcConfig(seed=-1),
    "SomConfig": lambda r: SomConfig(n_nodes=4, rng_seed=-1),
    "simulate_var": lambda r: simulate_var(ladder_truth("model1"), 10, seed=-1),
    "simulate_uniform_cloud": lambda r: simulate_uniform_cloud(10, seed=-1),
    "predict_series": lambda r: predict_series(load_chain(r / "model2.chain"),
                                               load_planar(r / "series.planar"), seed=-1),
    "score_model": lambda r: score_model(load_chain(r / "model2.chain"),
                                         load_planar(r / "series.planar"), seed=-1),
    "model_transitions": lambda r: model_transitions(load_chain(r / "model2.chain"),
                                                     load_planar(r / "series.planar"), seed=-1),
}


@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
def test_negative_seed_is_data_error(base, entry):
    root, _ = base
    with pytest.raises(DataError, match="seed must be a non-negative integer, got -1"):
        SEED_ENTRY_POINTS[entry](root)


# every library count that is not a seed, called with a value that is not an
# integer; the chain-reading entry points take n_draws
COUNT_ENTRY_POINTS = {
    "SomConfig.n_nodes": lambda r: SomConfig(n_nodes=2.5),
    "SomConfig.max_epochs": lambda r: SomConfig(n_nodes=4, max_epochs=2.5),
    "SomConfig.phase_steps": lambda r: SomConfig(n_nodes=4, phase_steps=(1.5, 2)),
    "KnotGrid.n_x": lambda r: KnotGrid(n_x=2.5),
    "SammonConfig.max_iter": lambda r: SammonConfig(max_iter=2.5),
    "lattice_coords": lambda r: lattice_coords(2.5),
    "predict_series": lambda r: predict_series(load_chain(r / "model2.chain"),
                                               load_planar(r / "series.planar"), n_draws=2.5),
    "score_model": lambda r: score_model(load_chain(r / "model2.chain"),
                                         load_planar(r / "series.planar"), n_draws=2.5),
    "model_transitions": lambda r: model_transitions(load_chain(r / "model2.chain"),
                                                     load_planar(r / "series.planar"),
                                                     n_draws=2.5),
    "var_lag_aic": lambda r: var_lag_aic(load_planar(r / "series.planar"), 1.5),
    "simulate_var": lambda r: simulate_var(ladder_truth("model1"), 100.5),
    "simulate_uniform_cloud": lambda r: simulate_uniform_cloud(2.5),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_fractional_count_is_data_error(base, entry):
    root, _ = base
    with pytest.raises(DataError, match=r"must be a non-negative integer, got \d+\.5"):
        COUNT_ENTRY_POINTS[entry](root)


def _model9(cells, n_days=30, **kw):
    """A model9 draw: a truth for 4 cells, walked over `cells`."""
    truth = ladder_truth("model9", tess=default_tessellation(4), start_date=START, n_days=n_days)
    return simulate_var(truth, n_days, tess=cells, start_date=START, **kw)


# values of the wrong shape: map schedules that are not two phases of two
# values (or two counts), points no tessellation cell can hold or no domain
# diameter can span, start points and rectangles of the wrong length, and a
# truth with more cells than its tessellation
SHAPE_PROBES = {
    "SomConfig.alpha": (lambda: SomConfig(n_nodes=4, alpha=((0.5, 0.05),)),
                        r"alpha must be two \(start, end\) phases"),
    "SomConfig.sigma": (lambda: SomConfig(n_nodes=4, sigma=((1.0, 1.0),)),
                        r"sigma must be two \(start, end\) phases"),
    "SomConfig.phase_steps-short": (lambda: SomConfig(n_nodes=4, phase_steps=(1,)),
                                    "phase_steps must be two counts"),
    "SomConfig.phase_steps-long": (lambda: SomConfig(n_nodes=4, phase_steps=(1, 2, 3)),
                                   "phase_steps must be two counts"),
    "Tessellation.assign": (lambda: Tessellation(sites=[[0.0, 0.0], [1.0, 0.0]]).assign(
        [[2.0, 0.0], [math.nan, 0.0], [math.inf, 0.0]]), "points row 1 .* is not finite"),
    "Tessellation.sites-words": (lambda: Tessellation(sites=[["a", "b"]]),
                                 "sites must be an array of real numbers"),
    "Tessellation.assign-words": (lambda: Tessellation(sites=[[0.0, 0.0]]).assign([["a", "b"]]),
                                  "points must be an array of real numbers"),
    "simulate_var.s0-three": (lambda: simulate_var(ladder_truth("model1"), 10,
                                                   s0=(1.0, 2.0, 3.0)),
                              r"s0 must have shape \(2\), got \(3,\)"),
    "simulate_var.tess-too-few-cells": (lambda: _model9(default_tessellation(3)),
                                        "transition block for cell 3, past the tessellation's "
                                        "3 cells"),
    "simulate_uniform_cloud.rect-three": (lambda: simulate_uniform_cloud(5, rect=(0, 1, 0)),
                                          r"rect must have shape \(4\), got \(3,\)"),
    "KnotGrid.build-no-points": (lambda: KnotGrid().build(np.empty((0, 2))),
                                 "a knot grid needs at least one point to span"),
    "domain_diameter-words": (lambda: domain_diameter([["a", "b"]]),
                              "points must be an array of real numbers"),
    "domain_diameter-no-points": (lambda: domain_diameter(np.empty((0, 2))),
                                  "a domain diameter needs at least one point"),
    "domain_diameter-nan": (lambda: domain_diameter([[0.0, 0.0], [math.nan, 1.0]]),
                            r"points row 1 .* is not finite"),
}


@pytest.mark.parametrize("entry", SHAPE_PROBES)
def test_wrong_shape_is_data_error(entry):
    call, message = SHAPE_PROBES[entry]
    with pytest.raises(DataError, match=message):
        call()


def _split(dates):
    return node_frequencies(np.array([0, 1]), 2, dates=dates, by="season")


def _year_truth(n_days, start_date="1990-01-01"):
    return ladder_truth("model9", tess=default_tessellation(4), start_date=start_date,
                        n_days=n_days)


# dates and simulated spans, each refused by the date rule of stvar.data_model
# or the span rule of synthetic._day_span
DATE_PROBES = {
    "node_frequencies-month-13": (lambda: _split(["2001-01-01", "2001-13-01"]), "bad date"),
    "node_frequencies-number": (lambda: _split(["2001-01-01", 5]), "bad date"),
    "ladder_truth-no-days": (lambda: _year_truth(0), "at least one day"),
    "ladder_truth-negative-days": (lambda: _year_truth(-1), "n_days must be a non-negative"),
    "ladder_truth-fractional-days": (lambda: _year_truth(1.5), "n_days must be a non-negative"),
    "ladder_truth-text-days": (lambda: _year_truth("10"), "n_days must be a non-negative"),
    "ladder_truth-number-start": (lambda: _year_truth(10, start_date=5), "bad start date 5"),
    "simulate_var-number-start": (lambda: simulate_var(ladder_truth("model1"), 10, start_date=5),
                                  "bad start date 5"),
    # a span is checked whatever the spec, and a lone start or count alone
    "ladder_truth-model4-both-bad": (lambda: ladder_truth("model4", tess=default_tessellation(4),
                                                          start_date=5, n_days=-1),
                                     "n_days must be a non-negative"),
    "ladder_truth-model1-both-bad": (lambda: ladder_truth("model1", start_date="2001-13-01",
                                                          n_days=1.5),
                                     "n_days must be a non-negative"),
    "ladder_truth-model3-number-start": (lambda: ladder_truth("model3",
                                                              tess=default_tessellation(4),
                                                              start_date=5, n_days=10),
                                         "bad start date 5"),
    "ladder_truth-lone-start": (lambda: ladder_truth("model1", start_date="2001-13-01"),
                                "bad start date '2001-13-01'"),
    "ladder_truth-lone-days": (lambda: ladder_truth("model1", n_days=0), "at least one day"),
}


@pytest.mark.parametrize("entry", DATE_PROBES)
def test_bad_date_or_span_is_data_error(entry):
    call, message = DATE_PROBES[entry]
    with pytest.raises(DataError, match=message):
        call()


# real-valued settings that are not finite numbers, each refused by name
# before its range is checked
REAL_PROBES = {
    "SomConfig.sigma-nan": (lambda: SomConfig(n_nodes=4, sigma=((math.nan, 1.0), (1.0, 1.0))),
                            "sigma"),
    "SomConfig.sigma-inf": (lambda: SomConfig(n_nodes=4, sigma=((math.inf, 1.0), (1.0, 1.0))),
                            "sigma"),
    "SomConfig.alpha-word": (lambda: SomConfig(n_nodes=4, alpha=(("a", "b"), (0.1, 0.1))),
                             "alpha"),
    "SomConfig.convergence_tol-word": (lambda: SomConfig(n_nodes=4, convergence_tol="x"),
                                       "convergence_tol"),
    "SammonConfig.tol-nan": (lambda: SammonConfig(tol=math.nan), "tol"),
    "SammonConfig.tol-inf": (lambda: SammonConfig(tol=math.inf), "tol"),
    "SammonConfig.tol-word": (lambda: SammonConfig(tol="x"), "tol"),
    "KnotGrid.padding-word": (lambda: KnotGrid(padding="x"), "padding"),
}


@pytest.mark.parametrize("entry", REAL_PROBES)
def test_non_finite_setting_is_data_error(entry):
    call, name = REAL_PROBES[entry]
    with pytest.raises(DataError, match=f"^{name} must be a finite real number, got "):
        call()


# Every array a library caller passes goes through one rule, stvar._doc.reals:
# each argument below, given its valid value or that value made malformed,
# constructs or ends as a DataError naming it (a DimensionMismatch for a shape).
_SITES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_GRID = GridSpec(n_rows=1, n_cols=2, variables=("u", "v"))


def _som(nodes=np.zeros((3, 4)), planar=_SITES):
    return SomModel(nodes=nodes, planar=planar, config=SomConfig(n_nodes=3))


def _spatial_truth(**blocks):
    """A model11-style truth with three knots, some blocks replaced."""
    spec = ModelSpec("constant", "spatial")
    valid = dict(phi=0.5 * np.eye(2), sigma=DEFAULT_SIGMA, knots=_SITES,
                 theta=np.array([1.0, 1.0]), q=np.eye(2), wstar=np.zeros((2, 3)))
    return TruthBundle(info=DesignInfo.from_declared(spec), **(valid | blocks))


_NODES = np.arange(12.0).reshape(3, 4) ** 2
_DISTANCES = np.sqrt(((_SITES[:, None] - _SITES[None]) ** 2).sum(axis=-1))

# argument: (call taking the value, valid value, name in the error, whether
# another trailing length is wrong); as_matrix and SomModel take any dimension
ARRAY_ARGUMENTS = {
    "Tessellation.sites": (lambda v: Tessellation(sites=v), _SITES, "sites", True),
    "Tessellation.assign": (lambda v: Tessellation(sites=_SITES).assign(v), _SITES, "points",
                            True),
    "PlanarSeries.points": (lambda v: PlanarSeries(points=v), _SITES, "points", True),
    "PlanarSeries.node_assignment": (lambda v: PlanarSeries(points=_SITES, node_assignment=v),
                                     np.array([0, 1, 2]), "node_assignment", True),
    "SomModel.nodes": (lambda v: _som(nodes=v), np.zeros((3, 4)), "nodes", False),
    "SomModel.planar": (lambda v: _som(planar=v), _SITES, "planar", True),
    "RawSeries.values": (lambda v: RawSeries(values=v, grid=_GRID), np.ones((3, 2, 2)),
                         "values", True),
    "StateSeries.matrix": (lambda v: StateSeries(matrix=v, grid=_GRID), np.ones((3, 4)),
                           "matrix", True),
    "Standardization.mean": (lambda v: Standardization(mean=v, sd=np.ones(2)), np.zeros(2),
                             "mean", True),
    "Standardization.sd": (lambda v: Standardization(mean=np.zeros(2), sd=v), np.ones(2), "sd",
                           True),
    "as_matrix": (as_matrix, np.ones((3, 4)), "data", False),
    **{f"TruthBundle.{name}": ((lambda name: lambda v: _spatial_truth(**{name: v}))(name),
                               value, name, True)
       for name, value in [("phi", 0.5 * np.eye(2)), ("sigma", DEFAULT_SIGMA),
                           ("knots", _SITES), ("theta", np.array([1.0, 1.0])),
                           ("q", np.eye(2)), ("wstar", np.zeros((2, 3)))]},
    "ladder_truth.sigma": (lambda v: ladder_truth("model1", sigma=v), DEFAULT_SIGMA, "sigma",
                           True),
    "KnotGrid.build": (KnotGrid().build, _SITES, "points", True),
    "GreedyProjector.project": (lambda v: GreedyProjector(_som(nodes=_NODES)).project(v),
                                _NODES[1], "point", True),
    "pp_basis.points": (lambda v: pp_basis(v, _SITES, 1.0), _SITES, "points", True),
    "PredictiveProcess.points": (lambda v: PredictiveProcess(_SITES, v), _SITES, "points", True),
    "exp_corr.a": (lambda v: exp_corr(v, _SITES, 1.0), _SITES, "a", True),
    "simulate_var.s0": (lambda v: simulate_var(ladder_truth("model1"), 5, s0=v),
                        np.array([0.0, 0.0]), "s0", True),
    "simulate_uniform_cloud.rect": (lambda v: simulate_uniform_cloud(5, rect=v),
                                    np.array([0.0, 1.0, 0.0, 1.0]), "rect", True),
    "sammon_embed.distances": (sammon_embed, _DISTANCES, "distances", True),
    "repair_pd": (repair_pd, DEFAULT_SIGMA, "sigma", True),
}


def _with_entry(valid, index, entry):
    """`valid` as nested lists with the entry at flat `index` replaced."""
    a = np.array(valid, dtype=object)
    a.flat[index] = entry
    return a.tolist()


def _ragged(valid):
    rows = valid.tolist()
    rows[0] = rows[0] + rows[0][:1] if valid.ndim > 1 else [rows[0], rows[0]]
    return rows


# case: (the valid value made malformed, the error class, its message)
MALFORMED = {
    "text": (lambda v: v.astype(str).tolist(), DataError, "{} must be an array of real numbers"),
    "bool": (lambda v: _with_entry(v, 0, True), DataError, "{} must be an array of real numbers"),
    "ragged": (_ragged, DataError, "{} must be an array of real numbers"),
    "nan": (lambda v: _with_entry(v, -1, math.nan), DataError,
            r"{} row \d+ \(row 0 is the first\) is not finite"),
    "inf": (lambda v: _with_entry(v, -1, math.inf), DataError,
            r"{} row \d+ \(row 0 is the first\) is not finite"),
    "trailing": (lambda v: np.concatenate([v, v[..., :1]], axis=-1), DimensionMismatch, None),
    "ndim": (lambda v: v[None], DimensionMismatch, None),
}
ARRAY_CASES = [(arg, case) for arg, (*_, trailing) in ARRAY_ARGUMENTS.items()
               for case in ["valid", *MALFORMED] if trailing or case != "trailing"]


@pytest.mark.parametrize("arg, case", ARRAY_CASES, ids=[f"{a}-{c}" for a, c in ARRAY_CASES])
def test_array_argument_fails_closed(arg, case):
    call, valid, name, _ = ARRAY_ARGUMENTS[arg]
    if case == "valid":
        call(valid)
        return
    make, error, message = MALFORMED[case]
    with pytest.raises(error, match=message and message.format(re.escape(name))):
        call(make(valid))


# values of the wrong type where the package wants a Tessellation, a grid's
# counts and variable names, a coverage level or node indices
TYPE_PROBES = {
    **{name: (call, "tess must be a Tessellation, not str") for name, call in {
        "ladder_truth.tess": lambda r: ladder_truth("model2", tess="x"),
        "simulate_var.tess": lambda r: simulate_var(ladder_truth("model1"), 5, tess="x"),
        "build_design.tess": lambda r: build_design(load_planar(r / "series.planar"), "model1",
                                                    tess="x"),
        "run_chain.tess": lambda r: run_chain(load_planar(r / "series.planar"), "model1",
                                              McmcConfig(n_iter=10, burn_in=0), tess="x"),
        "chain_design.tess": lambda r: chain_design(load_chain(r / "model2.chain"),
                                                    load_planar(r / "series.planar"), tess="x"),
        "predict_series.tess": lambda r: predict_series(load_chain(r / "model2.chain"),
                                                        load_planar(r / "series.planar"),
                                                        tess="x"),
        "score_model.tess": lambda r: score_model(load_chain(r / "model2.chain"),
                                                  load_planar(r / "series.planar"), tess="x"),
        "model_transitions.tess": lambda r: model_transitions(load_chain(r / "model2.chain"),
                                                              load_planar(r / "series.planar"),
                                                              tess="x"),
    }.items()},
    "Tessellation.from_som": (lambda r: Tessellation.from_som("x"),
                              "made from a SomModel, not str"),
    "GridSpec.n_rows-fractional": (lambda r: GridSpec(1.5, 1, ("v",)),
                                   "n_rows must be a non-negative integer, got 1.5"),
    "GridSpec.n_rows-text": (lambda r: GridSpec("a", 1, ("v",)),
                             "n_rows must be a non-negative integer, got 'a'"),
    "GridSpec.variables-number": (lambda r: GridSpec(1, 1, ("v", 5)),
                                  "variables must be a sequence of strings"),
    "GridSpec.variables-text": (lambda r: GridSpec(1, 1, "abc"),
                                "variables must be a sequence of strings"),
    "PlanarSeries.node_assignment-fractional": (
        lambda r: PlanarSeries(points=_SITES, node_assignment=[0.0, 0.5, 1.0]),
        "node assignments must be non-negative integers"),
    "coverage.level": (lambda r: coverage(predict_series(load_chain(r / "model2.chain"),
                                                         load_planar(r / "series.planar"),
                                                         n_draws=100), level="x"),
                       "level must be a finite real number, got 'x'"),
    "score_model.level": (lambda r: score_model(load_chain(r / "model2.chain"),
                                                load_planar(r / "series.planar"), level="x"),
                          "level must be a finite real number, got 'x'"),
}


@pytest.mark.parametrize("entry", TYPE_PROBES)
def test_wrong_type_is_data_error(base, entry):
    root, _ = base
    call, message = TYPE_PROBES[entry]
    with pytest.raises(DataError, match=message):
        call(root)


# a cell model's walk from a start point that is not finite: once refused by
# the assign of the finished path, now before the recursion
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_start_point_is_data_error(value):
    with pytest.raises(DataError):
        _model9(default_tessellation(4), s0=(0.0, value))


@pytest.fixture(scope="module")
def spatial_chain(base):
    """A saved model11 chain of 110 draws fitted to the base planar series."""
    root, _ = base
    spec = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=3, n_y=3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = run_chain(load_planar(root / "series.planar"), spec,
                          McmcConfig(n_iter=130, burn_in=20))
    save_chain(chain, root / "model11.chain")
    return root / "model11.chain"


@pytest.mark.parametrize("command", ["evaluate", "predict", "transitions"])
@pytest.mark.parametrize("block, at, value, named", [
    (None, None, None, None),
    ("q", (5, 0, 1), 0.3, "lower triangular"),
    ("q", (5, 1, 1), -0.2, "positive diagonal"),
    ("theta", (5, 0), 0.0, "decay rates must be positive"),
    ("sigma", 5, [[1.0, 0.0], [0.0, -1.0]], "draw 6: sigma must be positive definite"),
    ("sigma", 5, [[1.0, 0.5], [-0.5, 1.0]], "draw 6: sigma must be symmetric"),
    ("sigma", 5, [[0.0, 0.0], [0.0, 0.0]], "draw 6: sigma must be positive definite"),
], ids=["valid", "q-upper", "q-diagonal", "theta-zero", "sigma-non-pd", "sigma-asymmetric",
        "sigma-zero"])
def test_invalid_spatial_draw_is_data_error(base, spatial_chain, tmp_path, command,
                                            block, at, value, named):
    # every draw needs an exactly symmetric positive-definite sigma, and a
    # spatial intercept's positive decay rates and lower-triangular q with a
    # positive diagonal, scored or not; the chain holds enough draws for
    # evaluate to reach its scoring
    root, _ = base
    chain = load_chain(spatial_chain)
    if block is not None:
        getattr(chain, block)[at] = value
    save_chain(chain, tmp_path / "bad.chain")
    # the chain keeps no tessellation, and transitions needs one
    tess = ["--tessellation", root / "tessellation.json"] if command == "transitions" else []
    code, err = quiet_dispatch([command, "--chain", tmp_path / "bad.chain", "--series",
                                root / "series.planar", *tess, "--out", tmp_path / "out"])
    if block is None:
        assert code == 0, err
    else:
        assert code == 2 and err.startswith("data error:") and named in err, err
        assert "Traceback" not in err


class TestConfigFlags:
    """--config values pass through argparse like typed flags; flags win."""

    def evaluate(self, root, tmp_path, chain, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chain": str(chain), "draws": 100}))
        return quiet_dispatch(["evaluate", "--series", root / "series.planar",
                               "--config", cfg, "--out", tmp_path, *flags])

    def test_single_chain_from_config(self, base, tmp_path):
        root, _ = base
        code, err = self.evaluate(root, tmp_path, root / "model2.chain")
        assert code == 0, err
        manifest = json.loads((tmp_path / "evaluate.manifest.json").read_text())
        assert manifest["config"]["chain"] == [str(root / "model2.chain")]
        assert manifest["config"]["draws"] == 100

    def test_command_line_chain_wins(self, base, tmp_path):
        root, _ = base
        code, err = self.evaluate(root, tmp_path, tmp_path / "missing.chain",
                                  "--chain", root / "model2.chain")
        assert code == 0, err


# ---------------------------------------------------------------------------
# Property test


RETYPED = [None, True, "x", 7, 2.5, [], {}, [[1, "x"]]]
NON_FINITE = [math.nan, math.inf, -math.inf]


def positions(doc, path=()):
    """Every object key and list item of a JSON document, as index paths."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    out = []
    for k, v in items:
        out.append(path + (k,))
        out += positions(v, path + (k,))
    return out


@st.composite
def json_mutation(draw, doc):
    """`doc` with one key dropped, retyped, made non-finite or reshaped."""
    doc = copy.deepcopy(doc)
    spots = positions(doc)
    if not spots:
        return draw(st.sampled_from(RETYPED + NON_FINITE))
    path = draw(st.sampled_from(spots))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key, value = path[-1], parent[path[-1]]
    op = draw(st.sampled_from(["drop", "retype", "non-finite", "shape"]))
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = draw(st.sampled_from(RETYPED))
    elif op == "non-finite":
        parent[key] = draw(st.sampled_from(NON_FINITE))
    elif isinstance(value, list) and value:
        parent[key] = value[:-1] if draw(st.booleans()) else value + value[-1:]
    else:
        parent[key] = [value]
    return doc


@st.composite
def byte_mutation(draw, blob):
    """`blob` truncated at a random offset, or with a few bytes flipped."""
    if draw(st.booleans()):
        return blob[: draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


@st.composite
def value_mutation(draw, blob):
    """A framed file with one body value made non-finite, 8 bytes dropped,
    or one row (a draw or a day) duplicated; in a chain, also one draw's
    sigma made finite but invalid."""
    magic, line, payload = blob.split(b"\n", 2)
    meta = json.loads(line)
    n_rows = meta.get("n_draws", meta.get("n_days"))
    rows = np.frombuffer(payload, "<f8").reshape(n_rows, -1).copy()
    row = draw(st.integers(0, rows.shape[0] - 1))
    ops = ["nan", "inf", "-inf", "drop", "duplicate"] + ["sigma"] * ("n_draws" in meta)
    op = draw(st.sampled_from(ops))
    if op == "drop":
        at = 8 * draw(st.integers(0, rows.size - 1))
        payload = payload[:at] + payload[at + 8:]
    elif op == "duplicate":
        payload = np.insert(rows, row, rows[row], axis=0).tobytes()
    elif op == "sigma":
        # sigma's four values follow phi's; move the upper off-diagonal entry
        # off its mirror, or make a diagonal entry <= 0
        at = 2 * (2 * len(meta["a_keys"]) + len(meta["eta_keys"]))
        if draw(st.booleans()):
            rows[row, at + 1] = rows[row, at + 2] + draw(st.sampled_from([-1.0, 1e-12, 1e3]))
        else:
            rows[row, at + draw(st.sampled_from([0, 3]))] = -draw(st.floats(0.0, 1e300))
        payload = rows.tobytes()
    else:
        rows[row, draw(st.integers(0, rows.shape[1] - 1))] = float(op)
        payload = rows.tobytes()
    return b"\n".join([magic, line, payload])


def mutations(root, docs, name):
    blob = valid_blob(root, docs, name)
    strategies = [byte_mutation(blob)]
    if name in docs:
        strategies.append(json_mutation(docs[name]).map(lambda d: json.dumps(d).encode()))
    if name in ("state.series", "series.planar", "model2.chain"):
        magic, meta, payload = blob.split(b"\n", 2)
        strategies.append(value_mutation(blob))
        strategies.append(json_mutation(json.loads(meta)).map(
            lambda m: b"\n".join([magic, json.dumps(m, sort_keys=True).encode(), payload])))
    return st.one_of(strategies)


def all_finite(obj) -> bool:
    """Every float array a loaded object holds, in nested dataclasses too,
    is finite."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            if not np.isfinite(value).all():
                return False
        elif hasattr(value, "__dataclass_fields__") and not all_finite(value):
            return False
    return True


def sigmas_factor(chain) -> bool:
    """Every sigma draw of `chain` is exactly symmetric and has a Cholesky
    factor."""
    sigma = chain.sigma
    if (sigma != sigma.transpose(0, 2, 1)).any():
        return False
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return False
    return True


READERS = ["state.series", SERIES_META, "series.planar", "model2.chain",
           "som.json", "tessellation.json", "spec.json", "config.json", "pipeline.json"]


@pytest.mark.parametrize("name", READERS)
@given(data=st.data())
def test_reader_fails_closed(base, name, data):
    root, docs = base
    work = root.parent / f"fuzz-{name}"
    prepare(root, work, name, data.draw(mutations(root, docs, name)))
    if name in LOADERS:
        loader, kind = LOADERS[name]
        try:
            loaded = loader(work / file_of(name))
        except DataError:
            return
        assert isinstance(loaded, kind) and all_finite(loaded)
        assert not isinstance(loaded, Chain) or sigmas_factor(loaded)
    else:
        code, err = quiet_dispatch(commands(root, work, name))
        assert code in (0, 2), err
        assert code == 0 or any(ln.startswith("data error:") for ln in err.splitlines())
