"""One `stvar pipeline` reads each input once and writes what its stages,
run one by one, write.

The stage lists are the benchmark workloads' own at their tiny scale,
imported from ``perfbench/workloads.py``, plus configs that overwrite a
chain between stages.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import stvar
import stvar.cli
from stvar.cli import _Store, build_parser, dispatch
from stvar.projection import load_planar

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402

SEED = 3


def quiet_dispatch(argv) -> tuple[int, str]:
    """Exit code and stderr of one command; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch([str(a) for a in argv])
    return code, err.getvalue()


def stage_argv(stage: dict, seed: int, out: Path) -> list[str]:
    """The command line that runs one pipeline stage on its own."""
    argv = [stage["run"], f"--seed={seed}", f"--out={out}"]
    for key, value in stage.get("args", {}).items():
        for item in value if isinstance(value, list) else [value]:
            argv.append(f"--{key}={item}")
    return argv


def output_hashes(out: Path) -> dict[str, str]:
    """sha256 of every output except manifests, which carry wall times."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if not p.name.endswith(".manifest.json")}


def run_pipeline(stage_list: list[dict], seed: int, out: Path) -> None:
    out.mkdir(parents=True)
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps({"seed": seed, "out": str(out), "stages": stage_list}))
    code, err = quiet_dispatch(["pipeline", "--config", config])
    assert code == 0, err


def replay(make_stages, seed: int, tmp_path: Path) -> dict[str, str]:
    """Run the stages `make_stages(out)` lists as one pipeline and as one
    dispatch per stage; require equal non-manifest outputs, and return
    their hashes."""
    whole, alone = tmp_path / "pipeline", tmp_path / "stages"
    run_pipeline(make_stages(whole), seed, whole)
    alone.mkdir()
    for stage in make_stages(alone):
        code, err = quiet_dispatch(stage_argv(stage, seed, alone))
        assert code == 0, (stage, err)
    hashes = output_hashes(whole)
    assert hashes == output_hashes(alone)
    return hashes


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The tiny inputs of each benchmark workload, by workload name."""
    root = tmp_path_factory.mktemp("inputs")
    for name in workloads.SIZES:
        workloads.write_inputs(stvar, name, SEED, "tiny", root / name)
    return root


@pytest.mark.parametrize("workload", sorted(workloads.SIZES))
def test_pipeline_writes_what_its_stages_write(inputs, tmp_path, workload):
    hashes = replay(lambda out: workloads.stages(workload, "tiny", inputs / workload, out),
                    SEED, tmp_path)
    assert hashes


def fit_model1(series: str, iters: int) -> dict:
    return {"run": "fit", "args": {"spec": "model1", "series": series,
                                   "iters": iters, "burn-in": 30}}


def overwrite_stages(series: str, out: Path, last: str) -> list[dict]:
    """fit model1, evaluate it, refit it with other --iters to the same
    path, then run `last` on the new chain."""
    chain = str(out / "model1.chain")
    use = {"run": "evaluate", "args": {"chain": chain, "series": series, "draws": 100}}
    then = {"run": last, "args": {"chain": chain, "series": series, "draws": 100}}
    return [fit_model1(series, 130), use, fit_model1(series, 150), then]


@pytest.mark.parametrize("last", ["evaluate", "predict"])
def test_a_rewritten_chain_is_read_again(inputs, tmp_path, last):
    series = str(inputs / "ladder" / "series.planar")
    hashes = replay(lambda out: overwrite_stages(series, out, last), SEED, tmp_path)
    assert {"scores.json", "model1.chain"} <= set(hashes)


def counting(monkeypatch, name: str) -> Counter:
    """Count the calls of `stvar.cli.<name>` by the resolved path of their
    first argument."""
    calls = Counter()
    real = getattr(stvar.cli, name)

    def counted(path, *args, **kwargs):
        calls[os.path.realpath(path)] += 1
        return real(path, *args, **kwargs)

    monkeypatch.setattr(stvar.cli, name, counted)
    return calls


def test_ladder_reads_each_file_once(inputs, tmp_path, monkeypatch):
    chains, planars = counting(monkeypatch, "load_chain"), counting(monkeypatch, "load_planar")
    out = tmp_path / "run"
    run_pipeline(workloads.stages("ladder", "tiny", inputs / "ladder", out), SEED, out)
    assert chains == {os.path.realpath(out / f"{m}.chain"): 1 for m in ("model1", "model9")}
    assert planars == {os.path.realpath(inputs / "ladder" / "series.planar"): 1}


def test_predict_takes_the_draws_evaluate_made(inputs, tmp_path, monkeypatch):
    calls = []
    real = stvar.cli.predict_series
    monkeypatch.setattr(stvar.cli, "predict_series",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    out = tmp_path / "run"
    run_pipeline(workloads.stages("ladder", "tiny", inputs / "ladder", out), SEED, out)
    assert (out / "predictions.csv").exists()
    assert calls == []


@pytest.mark.parametrize("change", [{"draws": 101}, {"seed": SEED + 1}])
def test_predict_with_other_draws_or_seed_predicts_anew(inputs, tmp_path, monkeypatch, change):
    calls = []
    real = stvar.cli.predict_series
    monkeypatch.setattr(stvar.cli, "predict_series",
                        lambda *a, **k: calls.append(a) or real(*a, **k))

    def make(out):
        stages = overwrite_stages(str(inputs / "ladder" / "series.planar"), out, "predict")
        stages[-1]["args"].update(change)
        return [stages[0], stages[1], stages[3]]

    replay(make, SEED, tmp_path)
    assert len(calls) == 2  # the pipeline's predict stage, and the one run alone


def test_a_pipeline_builds_one_parser(inputs, tmp_path, monkeypatch):
    built = []
    real = stvar.cli.build_parser
    monkeypatch.setattr(stvar.cli, "build_parser", lambda: built.append(1) or real())
    out = tmp_path / "run"
    run_pipeline(workloads.stages("ladder", "tiny", inputs / "ladder", out), SEED, out)
    assert built == [1]


def test_nothing_is_kept_across_dispatches(inputs, tmp_path, monkeypatch):
    planars = counting(monkeypatch, "load_planar")
    series = inputs / "ladder" / "series.planar"
    for _ in range(2):
        code, err = quiet_dispatch(["lag-scan", "--series", series, "--out", tmp_path])
        assert code == 0, err
    assert planars == {os.path.realpath(series): 2}


def test_store_hands_out_read_only_arrays(inputs):
    store, path = _Store(build_parser()), inputs / "ladder" / "series.planar"
    series = store.load(load_planar, path)
    assert store.load(load_planar, inputs / "ladder" / ".." / "ladder" / path.name) is series
    with pytest.raises(ValueError, match="read-only"):
        series.points[0, 0] = 0.0
    np.testing.assert_array_equal(series.points, load_planar(path).points)


def test_store_keeps_a_file_while_a_later_stage_names_it(inputs, monkeypatch):
    planars = counting(monkeypatch, "load_planar")
    store, path = _Store(build_parser()), inputs / "ladder" / "series.planar"
    store.load(stvar.cli.load_planar, path)
    store.retain([inputs / "ladder" / "." / path.name])
    store.load(stvar.cli.load_planar, path)
    store.retain([inputs / "ladder" / "tessellation.json"])
    store.load(stvar.cli.load_planar, path)
    assert planars == {os.path.realpath(path): 2}


def test_bad_chain_fails_at_the_first_stage_naming_it(inputs, tmp_path):
    series = str(inputs / "ladder" / "series.planar")
    chain = tmp_path / "model1.chain"
    chain.write_text("STVAR-CHAIN v2\n{}\n")
    config = tmp_path / "p.json"
    config.write_text(json.dumps({"seed": SEED, "out": str(tmp_path / "run"), "stages": [
        {"run": "lag-scan", "args": {"series": series}},
        {"run": "evaluate", "args": {"chain": str(chain), "series": series, "draws": 100}},
        {"run": "predict", "args": {"chain": str(chain), "series": series, "draws": 100}},
    ]}))
    code, err = quiet_dispatch(["pipeline", "--config", config])
    assert code == 2
    assert "stage 1 (evaluate) failed" in err
    assert "Traceback" not in err
