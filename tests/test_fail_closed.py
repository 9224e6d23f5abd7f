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
    for name in ("som.json", "state.series.meta.json"):
        docs[name] = json.loads((root / name).read_text())
    return root, docs


def quiet_dispatch(argv):
    """Exit code and stderr of one command; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch([str(a) for a in argv])
    return code, err.getvalue()


def commands(root, work, name):
    """The command that reads file `name` from `work`, other inputs from `root`."""
    planar, path, out = root / "series.planar", work / name, work / "out"
    return {
        "tessellation.json": ["transitions", "--series", planar, "--tessellation", path],
        "som.json": ["sammon", "--som", path],
        "spec.json": ["fit", "--spec", path, "--series", planar, "--iters", 30,
                      "--burn-in", 20, "--tessellation", root / "tessellation.json"],
        "state.series.meta.json": ["train-som", "--series", work / "state.series",
                                   "--nodes", 2, "--phase-steps", "1,1"],
        "state.series": ["train-som", "--series", path, "--nodes", 2,
                         "--phase-steps", "1,1"],
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
    "state.series.meta.json": (lambda p: load_series(p.parent / "state.series"),
                               (RawSeries, StateSeries)),
    "model2.chain": (load_chain, Chain),
    "series.planar": (load_planar, PlanarSeries),
}


def prepare(root, work, name, blob):
    """Copy the valid files into `work`, then overwrite `name` with `blob`."""
    work.mkdir(exist_ok=True)
    for f in ("state.series", "state.series.meta.json", name):
        (work / f).write_bytes((root / f).read_bytes())
    (work / name).write_bytes(blob)


def edited(docs, name, edit):
    doc = copy.deepcopy(docs[name])
    edit(doc)
    return json.dumps(doc).encode()


def with_ff(root, name, marker):
    """The file with one byte after `marker` replaced by 0xff."""
    blob = (root / name).read_bytes()
    at = blob.index(marker) + len(marker)
    return blob[:at] + b"\xff" + blob[at + 1:]


def _lag_stage(docs, **top):
    return json.dumps({**top, "stages": docs["pipeline.json"]["stages"][:1]}).encode()


def _extra_draws(path):
    """The chain with two of its draw lines and a word appended."""
    text = path.read_bytes()
    return text + b"".join(text.splitlines(keepends=True)[2:4]) + b"garbage here\n"


def _zero_draws(path):
    """The chain's magic and metadata lines, declaring no draws."""
    head = b"".join(path.read_bytes().splitlines(keepends=True)[:2])
    return re.sub(rb'"n_draws": \d+', b'"n_draws": 0', head)


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
    "sidecar-not-json": ("state.series.meta.json", lambda r, d: b"{not json", None),
    "sidecar-no-sd": ("state.series.meta.json", lambda r, d: edited(
        d, "state.series.meta.json", lambda m: m["standardization"].pop("sd")), None),
    "sidecar-dates-number": ("state.series.meta.json", lambda r, d: edited(
        d, "state.series.meta.json", lambda m: m.update(dates=5)), None),
    "sidecar-list": ("state.series.meta.json", lambda r, d: b"[1]", None),
    "sidecar-date-word": ("state.series.meta.json", lambda r, d: edited(
        d, "state.series.meta.json", lambda m: m.update(dates=["x"])), None),
    "chain-a_keys-nested": ("model2.chain", lambda r, d: (r / "model2.chain").read_bytes()
                            .replace(b'"a_keys": [[0], ', b'"a_keys": [[1, [2]], '), None),
    "chain-extra-draw": ("model2.chain", lambda r, d: _extra_draws(r / "model2.chain"), None),
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
    "ff-series-names": ("state.series", lambda r, d: with_ff(r, "state.series", b"\n"), None),
    "ff-planar": ("series.planar", lambda r, d: with_ff(r, "series.planar", b"\n"), None),
    "ff-chain": ("model2.chain", lambda r, d: with_ff(r, "model2.chain", b"\n"), None),
    "ff-tessellation": ("tessellation.json",
                        lambda r, d: with_ff(r, "tessellation.json", b"[["), None),
    "ff-pipeline": ("pipeline.json", lambda r, d: with_ff(r, "pipeline.json", b'"run'), None),
}


class TestProbes:
    @pytest.mark.parametrize("name", sorted(set(f for f, _, _ in PROBES.values())))
    def test_valid_files_run(self, base, tmp_path, name):
        root, _ = base
        prepare(root, tmp_path, name, (root / name).read_bytes())
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
            lines = good.read_bytes().splitlines(keepends=True)
            blob = re.sub(rb'"n_draws": \d+', b'"n_draws": 60', b"".join(lines[:62]))
        (tmp_path / "bad.chain").write_bytes(blob)

        def refuse(*args, **kwargs):
            raise AssertionError("a chain was scored")

        monkeypatch.setattr("stvar.cli.score_model", refuse)
        code, err = quiet_dispatch(["evaluate", "--chain", good, "--chain", tmp_path / "bad.chain",
                                    "--series", root / "series.planar", "--out", tmp_path])
        assert code == 2 and err.startswith("data error:") and named in err, err
        assert not (tmp_path / "scores.json").exists()

    def test_phase_steps_word_is_data_error(self, base, tmp_path):
        root, _ = base
        code, err = quiet_dispatch(["train-som", "--series", root / "state.series",
                                    "--phase-steps", "a,b", "--out", tmp_path])
        assert code == 2 and err.startswith("data error:"), err


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
def token_mutation(draw, text):
    """A numeric text file with one token made non-finite, non-numeric or
    dropped, or one row duplicated."""
    lines = text.split("\n")
    row = draw(st.integers(2 if text.startswith("STVAR-CHAIN") else 1, len(lines) - 2))
    tokens = lines[row].split()
    op = draw(st.sampled_from(["nan", "inf", "-inf", "x", "drop", "duplicate"]))
    if op == "duplicate":
        lines.insert(row, lines[row])
    else:
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at: at + 1] = [] if op == "drop" else [op]
        lines[row] = " ".join(tokens)
    return "\n".join(lines)


def mutations(root, docs, name):
    blob = (root / name).read_bytes()
    strategies = [byte_mutation(blob)]
    if name in docs:
        strategies.append(json_mutation(docs[name]).map(lambda d: json.dumps(d).encode()))
    if name in ("series.planar", "model2.chain"):
        strategies.append(token_mutation(blob.decode()).map(str.encode))
    if name == "model2.chain":
        head, meta, body = blob.decode().split("\n", 2)
        strategies.append(json_mutation(json.loads(meta)).map(
            lambda m: "\n".join([head, json.dumps(m, sort_keys=True), body]).encode()))
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


READERS = ["state.series", "state.series.meta.json", "series.planar", "model2.chain",
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
            loaded = loader(work / name)
        except DataError:
            return
        assert isinstance(loaded, kind) and all_finite(loaded)
    else:
        code, err = quiet_dispatch(commands(root, work, name))
        assert code in (0, 2), err
        assert code == 0 or any(ln.startswith("data error:") for ln in err.splitlines())
