"""End-to-end tests for the command-line interface."""

import csv
import datetime as dt
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import stvar.evaluate
import stvar.projection
import stvar.som
from conftest import src_env
from oracles import cdist_winners, node_sums_add_at, walk_by_agreement_loop
from stvar.cli import _g17, dispatch
from stvar.data_model import GridSpec, RawSeries, StateSeries, as_matrix, load_series, save_series
from stvar.mcmc import load_chain, predict_series
from stvar.projection import PlanarSeries, load_planar, save_planar


def run(*args) -> int:
    return dispatch([str(a) for a in args])


def write_raw(path, n_days=80, n_rows=2, n_cols=3, seed=0):
    rng = np.random.default_rng(seed)
    grid = GridSpec(n_rows=n_rows, n_cols=n_cols, variables=("u", "v"))
    values = rng.standard_normal((n_days, 2, grid.n_cells)) * 3.0 + 5.0
    dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(n_days))
    save_series(RawSeries(values=values, grid=grid, dates=dates), path)
    return path


def simulate_into(out, model="model1", days=200, seed=3, extra=()):
    code = run(
        "simulate", "--model", model, "--days", days, "--seed", seed,
        "--out", out, *extra,
    )
    assert code == 0
    return out / "series.planar"


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A simulated trajectory with model0 and model1 chains fitted to it."""
    root = tmp_path_factory.mktemp("fitted")
    series = simulate_into(root, days=220, seed=5)
    assert run(
        "fit", "--spec", "model1", "--series", series, "--iters", 500,
        "--burn-in", 100, "--seed", 11, "--out", root,
    ) == 0
    assert run(
        "fit", "--spec", "model0", "--series", series, "--iters", 300,
        "--burn-in", 50, "--seed", 11, "--out", root,
    ) == 0
    return root


class TestDispatchBasics:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1
        assert "usage error" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert dispatch([]) == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert run("fit", "--help") == 0

    def test_version(self, capsys):
        assert run("--version") == 0

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stvar.cli", "--version"],
            env=src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "stvar" in proc.stdout


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        series = simulate_into(tmp_path, days=60, seed=2)
        loaded = load_planar(series)
        assert loaded.n_days == 60
        assert (tmp_path / "tessellation.json").exists()
        assert (tmp_path / "truth.json").exists()
        manifest = json.loads((tmp_path / "simulate.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 2
        assert manifest["config"]["days"] == 60
        assert len(manifest["outputs"]) == 3

    def test_deterministic_output_bytes(self, tmp_path):
        a = simulate_into(tmp_path / "a", days=50, seed=9)
        b = simulate_into(tmp_path / "b", days=50, seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = simulate_into(tmp_path / "a", days=50, seed=1)
        b = simulate_into(tmp_path / "b", days=50, seed=2)
        assert a.read_bytes() != b.read_bytes()

    def test_dated_series(self, tmp_path):
        series = simulate_into(
            tmp_path, days=40, seed=0, extra=("--start-date", "2001-06-01")
        )
        loaded = load_planar(series)
        assert loaded.dates[0] == dt.date(2001, 6, 1)

    def test_bad_date_is_data_error(self, tmp_path, capsys):
        code = run("simulate", "--start-date", "June 1st", "--out", tmp_path)
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code = run("simulate", "--days", 10, "--seed", -1, "--out", tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "series.planar").exists()

    def test_quarter_model_needs_start_date(self, tmp_path):
        assert run("simulate", "--model", "model4", "--out", tmp_path) == 2
        assert run(
            "simulate", "--model", "model4", "--days", 50,
            "--start-date", "2001-01-01", "--out", tmp_path,
        ) == 0

    def test_too_few_days(self, tmp_path):
        assert run("simulate", "--days", 1, "--out", tmp_path) == 2

    def test_unknown_model(self, tmp_path):
        assert run("simulate", "--model", "model99", "--out", tmp_path) == 2


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Raw series standardized, mapped, embedded, and projected."""
    root = tmp_path_factory.mktemp("sompath")
    raw = write_raw(root / "raw.series")
    assert run("standardize", "--series", raw, "--out", root) == 0
    assert run(
        "train-som", "--series", root / "series.state", "--nodes", 4,
        "--phase-steps", "3,5", "--seed", 1, "--out", root,
    ) == 0
    assert run("sammon", "--som", root / "som.json", "--out", root) == 0
    assert run(
        "project", "--som", root / "som_sammon.json",
        "--series", root / "series.state", "--out", root,
    ) == 0
    return root


class TestSomPath:
    def test_standardize_writes_no_sidecar(self, workspace):
        assert not (workspace / "series.state.meta.json").exists()
        manifest = json.loads((workspace / "standardize.manifest.json").read_text())
        assert manifest["outputs"] == [str(workspace / "series.state")]

    def test_copy_of_the_file_is_the_whole_series(self, workspace, tmp_path, capsys):
        # dates and standardization ride in the one file, not beside it
        copy = tmp_path / "copy.state"
        copy.write_bytes((workspace / "series.state").read_bytes())
        series = load_series(copy)
        assert isinstance(series, StateSeries)
        assert series.dates == load_series(workspace / "series.state").dates is not None
        assert run("standardize", "--series", copy, "--out", tmp_path / "again") == 2
        assert "series already carries standardization constants" in capsys.readouterr().err

    def test_standardize_rejects_standardized_input(self, workspace, tmp_path):
        code = run("standardize", "--series", workspace / "series.state",
                   "--out", tmp_path)
        assert code == 2

    def test_sammon_report(self, workspace):
        report = json.loads((workspace / "sammon.json").read_text())
        assert report["stress"] >= 0.0
        assert set(report) == {"stress", "n_iter", "converged"}

    def test_projection_keeps_dates(self, workspace):
        days = load_planar(workspace / "days.planar")
        assert days.n_days == 80
        assert days.dates is not None
        assert days.node_assignment.max() < 4

    def test_maps_standardized(self, workspace, tmp_path):
        code = run(
            "maps", "--som", workspace / "som.json",
            "--series", workspace / "series.state", "--out", tmp_path,
        )
        assert code == 0
        files = sorted(tmp_path.glob("map_node*.csv"))
        assert len(files) == 4 * 2
        grid = np.loadtxt(files[0], delimiter=",")
        assert grid.shape == (2, 3)

    def test_maps_raw_needs_standardization(self, workspace, tmp_path):
        raw = write_raw(tmp_path / "raw.series")
        code = run(
            "maps", "--som", workspace / "som.json", "--series", raw,
            "--kind", "raw", "--out", tmp_path,
        )
        assert code == 2

    def test_train_som_bytes_are_the_add_at_trainers(self, workspace, tmp_path, monkeypatch):
        # The maps `train-som` writes are those of the library trainers with
        # np.add.at's per-node sums, so a change to the sum step cannot
        # silently change a map.
        series = workspace / "series.state"
        for mode in ("batch", "online"):
            assert run(
                "train-som", "--series", series, "--nodes", 5, "--mode", mode,
                "--seed", 2, "--out", tmp_path / mode,
            ) == 0
        monkeypatch.setattr(stvar.som, "_node_sums", node_sums_add_at)
        x = as_matrix(load_series(series))
        config = stvar.som.SomConfig(n_nodes=5, rng_seed=2)
        for mode, train in (("batch", stvar.som.train_batch), ("online", stvar.som.train_online)):
            model, _ = train(x, config)
            stvar.som.save_som(model, tmp_path / f"{mode}.json")
            want = (tmp_path / f"{mode}.json").read_bytes()
            assert (tmp_path / mode / "som.json").read_bytes() == want

    def test_train_som_bytes_are_the_cdist_winners(self, workspace, tmp_path, monkeypatch):
        # Every epoch's winners are cdist's, so the screened winner search
        # cannot silently change a map.
        series = workspace / "series.state"
        assert run("train-som", "--series", series, "--nodes", 5, "--mode", "batch",
                   "--seed", 2, "--out", tmp_path / "screened") == 0
        monkeypatch.setattr(stvar.som, "_winners", lambda x, nodes, _: cdist_winners(x, nodes))
        assert run("train-som", "--series", series, "--nodes", 5, "--mode", "batch",
                   "--seed", 2, "--out", tmp_path / "cdist") == 0
        assert ((tmp_path / "screened" / "som.json").read_bytes()
                == (tmp_path / "cdist" / "som.json").read_bytes())

    def test_project_bytes_are_the_agreement_loop(self, workspace, tmp_path, monkeypatch):
        # The planar file `project` writes is the one made when every day is
        # scored by the agreement loop and assigned by cdist, so neither the
        # prefix walk nor the screened winner search can silently move a day.
        args = ("project", "--som", workspace / "som_sammon.json",
                "--series", workspace / "series.state")
        assert run(*args, "--out", tmp_path / "walk") == 0
        monkeypatch.setattr(stvar.projection.GreedyProjector, "_walk", walk_by_agreement_loop)
        monkeypatch.setattr(stvar.som, "_winners", lambda x, nodes, _: cdist_winners(x, nodes))
        assert run(*args, "--out", tmp_path / "loop") == 0
        assert ((tmp_path / "walk" / "days.planar").read_bytes()
                == (tmp_path / "loop" / "days.planar").read_bytes())

    def test_bad_phase_steps(self, workspace, tmp_path):
        code = run(
            "train-som", "--series", workspace / "series.state",
            "--phase-steps", "3", "--out", tmp_path,
        )
        assert code == 2


class TestFitEvaluate:
    def test_chain_file_loads(self, fitted):
        chain = load_chain(fitted / "model1.chain")
        assert chain.n_draws == 400
        assert chain.spec.name == "model1"

    def test_fit_deterministic(self, fitted, tmp_path):
        series = fitted / "series.planar"
        for sub in ("a", "b"):
            assert run(
                "fit", "--spec", "model0", "--series", series, "--iters", 200,
                "--burn-in", 40, "--seed", 4, "--out", tmp_path / sub,
            ) == 0
        assert (tmp_path / "a" / "model0.chain").read_bytes() == (
            tmp_path / "b" / "model0.chain"
        ).read_bytes()

    def test_manifest_stable_modulo_timestamps(self, fitted, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        series = fitted / "series.planar"
        blobs = []
        for sub in ("a", "b"):
            assert run(
                "fit", "--spec", "model0", "--series", series, "--iters", 150,
                "--burn-in", 30, "--seed", 4, "--out", sub,
            ) == 0
            blob = json.loads((tmp_path / sub / "fit_model0.manifest.json").read_text())
            blob.pop("wall_time_s")
            blob.pop("written_at")
            blob["config"].pop("out")
            blob["outputs"] = [p.rsplit("/", 1)[-1] for p in blob["outputs"]]
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    @pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
    def test_spatial_fit_manifest_records_tuning(self, tmp_path):
        series = simulate_into(tmp_path, model="model11", days=150, seed=6)
        tuned = []
        for sub in ("a", "b"):
            assert run(
                "fit", "--spec", "model11", "--series", series, "--iters", 120,
                "--burn-in", 60, "--seed", 4, "--out", tmp_path / sub,
            ) == 0
            blob = json.loads((tmp_path / sub / "fit_model11.manifest.json").read_text())
            tuned.append({k: blob["config"][k] for k in ("theta_log_step", "max_jitter")})
        assert tuned[0] == tuned[1]
        assert set(tuned[0]["theta_log_step"]) == {"theta1", "theta2"}
        assert tuned[0]["max_jitter"] >= 0.0

    def test_evaluate_scores_and_report(self, fitted, tmp_path, capsys):
        code = run(
            "evaluate", "--chain", fitted / "model1.chain",
            "--chain", fitted / "model0.chain",
            "--series", fitted / "series.planar",
            "--draws", 200, "--seed", 1, "--out", tmp_path,
        )
        assert code == 0
        scores = json.loads((tmp_path / "scores.json").read_text())
        assert [s["model"] for s in scores] == ["model1", "model0"]
        for s in scores:
            assert set(s) == {"model", "rmspe", "dic", "p_d", "coverage"}
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert report[0].split() == ["model", "rmspe", "dic", "p_d", "coverage"]
        assert len(report) == 3
        assert "model1" in capsys.readouterr().out

    @pytest.mark.parametrize("level", [1.5, 0.0, 1.0, -0.5])
    def test_bad_level_checked_before_any_scoring(self, fitted, tmp_path, capsys,
                                                  monkeypatch, level):
        def refuse(*args, **kwargs):
            raise AssertionError("mean paths computed before the level was checked")

        monkeypatch.setattr(stvar.evaluate, "mean_paths", refuse)
        code = run(
            "evaluate", "--chain", fitted / "model1.chain",
            "--series", fitted / "series.planar", "--level", level, "--out", tmp_path,
        )
        assert code == 2
        assert "level must be in (0, 1)" in capsys.readouterr().err

    def test_evaluate_needs_a_chain(self, fitted, tmp_path):
        code = run(
            "evaluate", "--series", fitted / "series.planar", "--out", tmp_path
        )
        assert code == 1

    def test_missing_chain_file(self, fitted, tmp_path):
        code = run(
            "evaluate", "--chain", fitted / "nope.chain",
            "--series", fitted / "series.planar", "--out", tmp_path,
        )
        assert code == 2

    def test_malformed_planar_row_is_data_error(self, fitted, tmp_path, capsys):
        magic, meta, body = (fitted / "series.planar").read_bytes().split(b"\n", 2)
        meta = json.loads(meta)
        meta["nodes"][4] = "north"
        bad = tmp_path / "bad.planar"
        bad.write_bytes(b"\n".join([magic, json.dumps(meta).encode(), body]))
        assert run("lag-scan", "--series", bad, "--out", tmp_path) == 2
        assert "planar metadata: 'nodes'" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["missing-key", "non-finite-draw"])
    def test_damaged_chain_is_data_error(self, fitted, tmp_path, damage):
        magic, meta, payload = (fitted / "model1.chain").read_bytes().split(b"\n", 2)
        if damage == "missing-key":
            meta = json.loads(meta)
            del meta["converged"]
            meta = json.dumps(meta).encode()
        else:
            payload = np.float64("nan").tobytes() + payload[8:]
        bad = tmp_path / "bad.chain"
        bad.write_bytes(b"\n".join([magic, meta, payload]))
        code = run(
            "evaluate", "--chain", bad, "--series", fitted / "series.planar",
            "--out", tmp_path,
        )
        assert code == 2

    def test_bad_chain_among_good_is_named(self, fitted, tmp_path, capsys):
        good = fitted / "model1.chain"
        bad = tmp_path / "bad.chain"
        bad.write_bytes(b"STVAR-CHAIN v3\n" + good.read_bytes().split(b"\n", 1)[1])
        code = run("evaluate", "--chain", good, "--chain", bad,
                   "--series", fitted / "series.planar", "--out", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "expected 'STVAR-CHAIN v2' on the first line" in err and str(bad) in err

    def test_cell_model_fitted_without_tessellation(self, tmp_path):
        # the chain records no tessellation; the series' node assignments
        # route its days to cells, at fit and at evaluation alike
        series = simulate_into(tmp_path, model="model2", days=400, seed=3)
        assert run(
            "fit", "--spec", "model2", "--series", series, "--iters", 150,
            "--burn-in", 30, "--out", tmp_path,
        ) == 0
        chain = tmp_path / "model2.chain"
        assert load_chain(chain).tess_sites is None
        assert run(
            "evaluate", "--chain", chain, "--series", series, "--draws", 100,
            "--out", tmp_path,
        ) == 0
        assert run(
            "predict", "--chain", chain, "--series", series, "--draws", 100,
            "--out", tmp_path,
        ) == 0

    def test_undated_series_against_seasonal_chain(self, tmp_path):
        dated = tmp_path / "dated"
        series = simulate_into(
            dated, model="model4", days=120, seed=6,
            extra=("--start-date", "2001-01-01"),
        )
        assert run(
            "fit", "--spec", "model4", "--series", series, "--iters", 200,
            "--burn-in", 40, "--seed", 2, "--out", dated,
        ) == 0
        undated = simulate_into(tmp_path / "plain", days=120, seed=6)
        code = run(
            "evaluate", "--chain", dated / "quarter-none.chain",
            "--series", undated, "--out", tmp_path,
        )
        assert code == 2


class TestPredict:
    def test_predictions_csv(self, fitted, tmp_path):
        code = run(
            "predict", "--chain", fitted / "model1.chain",
            "--series", fitted / "series.planar",
            "--draws", 150, "--seed", 8, "--out", tmp_path,
        )
        assert code == 0
        lines = (tmp_path / "predictions.csv").read_text().splitlines()
        assert lines[0].startswith("date,actual_x,actual_y,mean_x,mean_y")
        assert len(lines) == 1 + 219
        body = np.loadtxt(
            tmp_path / "predictions.csv", delimiter=",", skiprows=1,
            usecols=range(1, 9),
        )
        assert np.all(np.isfinite(body))
        assert np.all(body[:, 4] <= body[:, 5])


    @staticmethod
    def reference_csv(chain_path, series_path, draws, seed) -> str:
        """predictions.csv as written one `_g17` text per value through csv.writer."""
        pred = predict_series(load_chain(chain_path), load_planar(series_path),
                              n_draws=draws, seed=seed)
        lo = np.quantile(pred.draws, 0.025, axis=0)
        hi = np.quantile(pred.draws, 0.975, axis=0)
        mean = pred.mean
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["date", "actual_x", "actual_y", "mean_x", "mean_y",
                         "q025_x", "q975_x", "q025_y", "q975_y"])
        for t in range(mean.shape[0]):
            date = pred.dates[t].isoformat() if pred.dates is not None else ""
            writer.writerow([date] + [_g17(v) for v in (
                pred.actual[t, 0], pred.actual[t, 1], mean[t, 0], mean[t, 1],
                lo[t, 0], hi[t, 0], lo[t, 1], hi[t, 1])])
        return buf.getvalue()

    @pytest.mark.parametrize("dated", [False, True])
    def test_predictions_csv_matches_per_value_writer(self, fitted, tmp_path, dated):
        root = fitted
        if dated:
            root = tmp_path / "dated"
            simulate_into(root, days=160, seed=6, extra=("--start-date", "1999-12-30"))
            assert run("fit", "--spec", "model1", "--series", root / "series.planar",
                       "--iters", 150, "--burn-in", 30, "--out", root) == 0
        chain, series = root / "model1.chain", root / "series.planar"
        assert (load_planar(series).dates is not None) == dated
        out = tmp_path / "out"
        assert run("predict", "--chain", chain, "--series", series, "--draws", 100,
                   "--seed", 8, "--out", out) == 0
        written = (out / "predictions.csv").read_bytes().decode()
        assert written == self.reference_csv(chain, series, 100, 8)


class TestTransitionsFrequencies:
    def test_empirical_matrix_csv(self, fitted, tmp_path):
        code = run(
            "transitions", "--series", fitted / "series.planar",
            "--tessellation", fitted / "tessellation.json", "--out", tmp_path,
        )
        assert code == 0
        lines = (tmp_path / "transitions_empirical.csv").read_text().splitlines()
        assert lines[0] == "from/to," + ",".join(str(k) for k in range(12))
        assert len(lines) == 13
        quant = (tmp_path / "distance_quantiles.csv").read_text().splitlines()
        assert quant[0] == "cell,count,q05,q25,q50,q75,q95"
        assert quant[-1].startswith("all,219,")

    def test_model_matrix_with_chain(self, fitted, tmp_path):
        code = run(
            "transitions", "--series", fitted / "series.planar",
            "--tessellation", fitted / "tessellation.json",
            "--chain", fitted / "model1.chain",
            "--draws", 120, "--seed", 3, "--out", tmp_path,
        )
        assert code == 0
        assert (tmp_path / "transitions_model.csv").exists()

    def test_season_filter_needs_dates(self, fitted, tmp_path):
        code = run(
            "transitions", "--series", fitted / "series.planar",
            "--tessellation", fitted / "tessellation.json",
            "--season", "DJF", "--out", tmp_path,
        )
        assert code == 2

    @pytest.fixture(scope="class")
    def january(self, tmp_path_factory):
        """A 30-day series dated in January, with its tessellation."""
        root = tmp_path_factory.mktemp("january")
        simulate_into(root, days=30, seed=2, extra=("--start-date", "2001-01-01"))
        return root

    @pytest.mark.parametrize("season", ["XYZ", "djf"])
    def test_unknown_season_is_usage_error(self, january, tmp_path, capsys, season):
        code = run(
            "transitions", "--series", january / "series.planar",
            "--tessellation", january / "tessellation.json",
            "--season", season, "--out", tmp_path,
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("season", ["XYZ", "djf"])
    def test_unknown_season_from_files_is_data_error(self, january, tmp_path, capsys,
                                                     season):
        args = {"series": str(january / "series.planar"),
                "tessellation": str(january / "tessellation.json"), "season": season}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(args))
        assert run("transitions", "--config", cfg, "--out", tmp_path) == 2
        pipe = tmp_path / "pipe.json"
        pipe.write_text(json.dumps({"stages": [{"run": "transitions", "args": args}]}))
        assert run("pipeline", "--config", pipe, "--out", tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert [ln.split(":")[0] for ln in err] == ["data error"] * 2

    def test_season_without_source_days(self, january, tmp_path):
        code = run(
            "transitions", "--series", january / "series.planar",
            "--tessellation", january / "tessellation.json",
            "--season", "JJA", "--out", tmp_path,
        )
        assert code == 0
        quant = (tmp_path / "distance_quantiles.csv").read_text().splitlines()
        assert quant[-1] == "all,0,,,,,"
        assert all(ln.split(",")[1] == "0" for ln in quant[1:])

    def test_nodes_disagreeing_with_tessellation(self, fitted, tmp_path, capsys):
        args = {"series": str(fitted / "series.planar"),
                "tessellation": str(fitted / "tessellation.json"), "nodes": 3}
        code = run("transitions", "--series", args["series"],
                   "--tessellation", args["tessellation"], "--nodes", 3, "--out", tmp_path)
        assert code == 2
        pipe = tmp_path / "pipe.json"
        pipe.write_text(json.dumps({"stages": [{"run": "transitions", "args": args}]}))
        assert run("pipeline", "--config", pipe, "--out", tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == err[1] == "data error: --nodes 3 disagrees with the tessellation's 12 cells"
        assert not list(tmp_path.glob("*.csv"))

    def test_nodes_agreeing_with_tessellation(self, fitted, tmp_path):
        for name, extra in (("plain", ()), ("nodes", ("--nodes", 12))):
            assert run("transitions", "--series", fitted / "series.planar",
                       "--tessellation", fitted / "tessellation.json", *extra,
                       "--out", tmp_path / name) == 0
        for name in ("transitions_empirical.csv", "distance_quantiles.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "nodes" / name).read_bytes()

    @pytest.mark.parametrize("cmd", [("transitions", "--tessellation"), ("transitions",),
                                     ("frequencies",)])
    def test_series_without_days(self, fitted, tmp_path, capsys, cmd):
        empty = tmp_path / "empty.planar"
        save_planar(PlanarSeries(points=np.empty((0, 2)), node_assignment=np.empty(0, int)), empty)
        extra = [cmd[1], fitted / "tessellation.json"] if len(cmd) > 1 else []
        assert run(cmd[0], "--series", empty, *extra, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == "data error: series has no days\n"
        assert not list((tmp_path / "out").iterdir())

    def test_frequencies_plain(self, fitted, tmp_path):
        code = run(
            "frequencies", "--series", fitted / "series.planar",
            "--nodes", 12, "--out", tmp_path,
        )
        assert code == 0
        lines = (tmp_path / "frequencies.csv").read_text().splitlines()
        assert lines[0] == "block," + ",".join(f"node_{k}" for k in range(12))
        assert len(lines) == 2
        counts = [float(v) for v in lines[1].split(",")[1:]]
        assert sum(counts) == 220

    def test_frequencies_by_season(self, tmp_path):
        series = simulate_into(
            tmp_path, days=120, seed=4, extra=("--start-date", "2001-01-01")
        )
        code = run(
            "frequencies", "--series", series, "--by", "season",
            "--out", tmp_path,
        )
        assert code == 0
        lines = (tmp_path / "frequencies.csv").read_text().splitlines()
        blocks = [ln.split(",")[0] for ln in lines[1:]]
        assert blocks == ["DJF", "MAM"]


@pytest.mark.parametrize("n_days", [0, 1])
@pytest.mark.parametrize("cmd", ["evaluate", "predict", "transitions"])
def test_fewer_than_two_days_is_data_error(fitted, tmp_path, capsys, cmd, n_days):
    series = load_planar(fitted / "series.planar")
    short = tmp_path / "short.planar"
    save_planar(PlanarSeries(points=series.points[:n_days],
                             node_assignment=series.node_assignment[:n_days]), short)
    code = run(cmd, "--chain", fitted / "model1.chain", "--series", short,
               "--draws", 100, "--out", tmp_path / "out")
    assert code == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not list((tmp_path / "out").iterdir())


class TestLagScan:
    def test_writes_json(self, fitted, tmp_path):
        code = run(
            "lag-scan", "--series", fitted / "series.planar", "--max-lag", 3,
            "--out", tmp_path,
        )
        assert code == 0
        blob = json.loads((tmp_path / "lag_scan.json").read_text())
        assert len(blob["aic"]) == 3
        assert blob["best_lag"] in (1, 2, 3)

    def test_short_series_is_data_error(self, tmp_path):
        series = simulate_into(tmp_path, days=12, seed=0)
        assert run("lag-scan", "--series", series, "--max-lag", 4,
                   "--out", tmp_path) == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"days": 70, "model": "model0"}))
        assert run("simulate", "--config", cfg, "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "simulate.manifest.json").read_text())
        assert manifest["config"]["days"] == 70
        assert manifest["config"]["model"] == "model0"

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"days": 70}))
        assert run("simulate", "--config", cfg, "--days", 44,
                   "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "simulate.manifest.json").read_text())
        assert manifest["config"]["days"] == 44

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"dayz": 70}))
        assert run("simulate", "--config", cfg, "--out", tmp_path) == 2

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text("{nope")
        assert run("simulate", "--config", cfg, "--out", tmp_path) == 2


class TestPipeline:
    def test_empty_stages_no_outputs(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"stages": []}))
        out = tmp_path / "run"
        assert run("pipeline", "--config", cfg, "--out", out) == 0
        assert not list(out.glob("*")) if out.exists() else True

    def test_full_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({
            "seed": 13,
            "out": "run",
            "stages": [
                {"run": "simulate", "args": {"model": "model1", "days": 150}},
                {"run": "fit", "args": {
                    "spec": "model1", "series": "run/series.planar",
                    "iters": 300, "burn-in": 60,
                }},
                {"run": "evaluate", "args": {
                    "chain": ["run/model1.chain"],
                    "series": "run/series.planar", "draws": 150,
                }},
            ],
        }))
        assert run("pipeline", "--config", cfg) == 0
        out = tmp_path / "run"
        for name in (
            "series.planar", "model1.chain", "scores.json", "report.txt",
            "simulate.manifest.json", "fit_model1.manifest.json",
            "evaluate.manifest.json", "pipeline.manifest.json",
        ):
            assert (out / name).exists(), name
        scores = json.loads((out / "scores.json").read_text())
        assert scores[0]["model"] == "model1"

    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        cfg_blob = {
            "seed": 5,
            "out": "run",
            "stages": [
                {"run": "simulate", "args": {"days": 80}},
                {"run": "fit", "args": {
                    "spec": "model0", "series": "run/series.planar",
                    "iters": 150, "burn-in": 30,
                }},
            ],
        }
        results = {}
        for side in ("a", "b"):
            base = tmp_path / side
            base.mkdir()
            monkeypatch.chdir(base)
            cfg = base / "p.json"
            cfg.write_text(json.dumps(cfg_blob))
            assert run("pipeline", "--config", cfg) == 0
            results[side] = base / "run"
        for path_a in sorted(results["a"].iterdir()):
            path_b = results["b"] / path_a.name
            if path_a.name.endswith(".manifest.json"):
                blob_a = json.loads(path_a.read_text())
                blob_b = json.loads(path_b.read_text())
                for blob in (blob_a, blob_b):
                    blob.pop("wall_time_s")
                    blob.pop("written_at")
                    blob["inputs"] = [p.rsplit("/", 1)[-1] for p in blob["inputs"]]
                    blob["config"].pop("config", None)
                assert blob_a == blob_b, path_a.name
            else:
                assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    def test_stage_with_missing_input(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({
            "out": str(tmp_path / "run"),
            "stages": [
                {"run": "simulate", "args": {"days": 60}},
                {"run": "fit", "args": {"spec": "model1",
                                        "series": "nowhere.planar"}},
            ],
        }))
        assert run("pipeline", "--config", cfg) == 2
        # the completed first stage keeps its outputs and manifest
        assert (tmp_path / "run" / "series.planar").exists()
        assert (tmp_path / "run" / "simulate.manifest.json").exists()

    def test_unknown_stage_command(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"stages": [{"run": "explode"}]}))
        assert run("pipeline", "--config", cfg, "--out", tmp_path) == 2

    def test_unknown_top_level_key(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"stages": [], "extra": 1}))
        assert run("pipeline", "--config", cfg, "--out", tmp_path) == 2

    def test_unknown_stage_key(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps(
            {"stages": [{"run": "simulate", "arg": {}}]}
        ))
        assert run("pipeline", "--config", cfg, "--out", tmp_path) == 2

    def test_nested_pipeline_rejected(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"stages": [{"run": "pipeline"}]}))
        assert run("pipeline", "--config", cfg, "--out", tmp_path) == 2

    def test_config_required(self, tmp_path):
        assert run("pipeline", "--out", tmp_path) == 1


# Per command: its input options, each naming one or more files, and its
# other options.
MANIFEST_CASES = {
    "simulate": ({}, {"days": 30}),
    "standardize": ({"series": ["raw.series"]}, {}),
    "train-som": ({"series": ["series.state"]}, {"nodes": 2, "phase-steps": "1,1"}),
    "sammon": ({"som": ["som.json"]}, {}),
    "project": ({"som": ["som_sammon.json"], "series": ["series.state"]}, {}),
    "fit": ({"series": ["series.planar"], "tessellation": ["tessellation.json"]},
            {"spec": "model1", "iters": 30, "burn-in": 10}),
    "predict": ({"chain": ["model1.chain"], "series": ["series.planar"]}, {"draws": 5}),
    "evaluate": ({"chain": ["model1.chain", "model0.chain"], "series": ["series.planar"]},
                 {"draws": 100}),
    "transitions": ({"series": ["series.planar"], "tessellation": ["tessellation.json"],
                     "chain": ["model1.chain"]}, {"draws": 5}),
    "frequencies": ({"series": ["series.planar"]}, {}),
    "maps": ({"som": ["som.json"], "series": ["series.state"]}, {}),
    "lag-scan": ({"series": ["series.planar"]}, {"max-lag": 2}),
}


@pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
class TestManifestInputs:
    """A manifest's inputs are exactly the files its options name."""

    @pytest.fixture(scope="class")
    def files(self, workspace, fitted):
        names = {workspace: ("raw.series", "series.state", "som.json", "som_sammon.json"),
                 fitted: ("series.planar", "tessellation.json", "model1.chain", "model0.chain")}
        return {name: str(root / name) for root, group in names.items() for name in group}

    @pytest.mark.parametrize("via", ["flags", "config"])
    @pytest.mark.parametrize("cmd", sorted(MANIFEST_CASES))
    def test_inputs_are_the_named_files(self, files, tmp_path, cmd, via):
        named, other = MANIFEST_CASES[cmd]
        paths = {key: [files[n] for n in names] for key, names in named.items()}
        want = [p for group in paths.values() for p in group]
        out = tmp_path / "out"
        if via == "flags":
            argv = [cmd] + [a for key, group in paths.items() for p in group for a in (f"--{key}", p)]
            argv += [a for key, value in other.items() for a in (f"--{key}", value)]
        else:
            cfg = tmp_path / "cfg.json"
            doc = {key: group if len(group) > 1 else group[0] for key, group in paths.items()}
            cfg.write_text(json.dumps({**doc, **other}))
            argv = [cmd, "--config", cfg]
            want.append(str(cfg))
        assert run(*argv, "--out", out) == 0
        (manifest,) = out.glob("*.manifest.json")
        assert json.loads(manifest.read_text())["inputs"] == sorted(want)

    def test_pipeline_and_its_stages(self, files, tmp_path):
        series = files["series.planar"]
        cfg = tmp_path / "pipe.json"
        cfg.write_text(json.dumps(
            {"stages": [{"run": "lag-scan", "args": {"series": series, "max-lag": 2}}]}
        ))
        out = tmp_path / "out"
        assert run("pipeline", "--config", cfg, "--out", out) == 0
        inputs = {p.name: json.loads(p.read_text())["inputs"] for p in out.glob("*.manifest.json")}
        assert inputs == {"pipeline.manifest.json": [str(cfg)], "lag-scan.manifest.json": [series]}
