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
from stvar.data_model import RawSeries, GridSpec, StateSeries, load_series, save_series, standardize
from stvar.errors import DataError
from stvar.mcmc import Chain, McmcConfig, load_chain, run_chain, save_chain
from stvar.models import KnotGrid, ModelSpec, resolve_spec, spec_to_dict
from stvar.projection import PlanarSeries, load_planar, save_planar
from stvar.som import SomConfig, SomModel, load_som, save_som, train_batch
from stvar.synthetic import default_tessellation, ladder_truth, simulate_var

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
        assert errors[0].startswith(f"data error: {where}")
        assert errors[0].endswith("NUL character in --series")

    @pytest.mark.parametrize("probe", ["tess-sites-true", "som-node-word", "spec-n_x-text"])
    def test_json_field_error_names_the_file_once(self, base, tmp_path, probe):
        root, docs = base
        name, make, _ = PROBES[probe]
        prepare(root, tmp_path, name, make(root, docs))
        code, err = quiet_dispatch(commands(root, tmp_path, name))
        line = next(ln for ln in err.splitlines() if ln.startswith("data error:"))
        assert code == 2 and line.count(str(tmp_path / name)) == 1, err

    def test_phase_steps_word_is_data_error(self, base, tmp_path):
        root, _ = base
        code, err = quiet_dispatch(["train-som", "--series", root / "state.series",
                                    "--phase-steps", "a,b", "--out", tmp_path])
        assert code == 2 and err.startswith("data error:"), err


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


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("block, at, value, named", [
    (None, None, None, None),
    ("q", (5, 0, 1), 0.3, "lower triangular"),
    ("q", (5, 1, 1), -0.2, "positive diagonal"),
    ("theta", (5, 0), 0.0, "decay rates must be positive"),
], ids=["valid", "q-upper", "q-diagonal", "theta-zero"])
def test_invalid_spatial_draw_is_data_error(base, spatial_chain, tmp_path, command,
                                            block, at, value, named):
    # every draw of a spatial intercept needs positive decay rates and a
    # lower-triangular q with a positive diagonal, scored or not
    root, _ = base
    chain = load_chain(spatial_chain)
    if block is not None:
        getattr(chain, block)[at] = value
    save_chain(chain, tmp_path / "bad.chain")
    code, err = quiet_dispatch([command, "--chain", tmp_path / "bad.chain", "--series",
                                root / "series.planar", "--out", tmp_path / "out"])
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
    or one row (a draw or a day) duplicated."""
    magic, line, payload = blob.split(b"\n", 2)
    meta = json.loads(line)
    n_rows = meta.get("n_draws", meta.get("n_days"))
    rows = np.frombuffer(payload, "<f8").reshape(n_rows, -1).copy()
    row = draw(st.integers(0, rows.shape[0] - 1))
    op = draw(st.sampled_from(["nan", "inf", "-inf", "drop", "duplicate"]))
    if op == "drop":
        at = 8 * draw(st.integers(0, rows.size - 1))
        payload = payload[:at] + payload[at + 8:]
    elif op == "duplicate":
        payload = np.insert(rows, row, rows[row], axis=0).tobytes()
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
    else:
        code, err = quiet_dispatch(commands(root, work, name))
        assert code in (0, 2), err
        assert code == 0 or any(ln.startswith("data error:") for ln in err.splitlines())
