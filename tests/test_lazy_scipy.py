"""stvar imports scipy only when a routine needs it, with the same results.

`import stvar` loads numpy alone: `stvar._lapack` binds each scipy routine
at its first call. The commands that call none of them run with scipy
blocked and write the bytes of an unblocked run. The scipy calls that
stvar no longer makes (scipy.linalg's block_diag and cho_factor in
`models.Gram`, pdist and squareform for the Sammon targets and the first
decay rate) are held to their replacements bit for bit.
"""

import datetime as dt
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import pdist, squareform

import stvar.cli
import stvar.models
from conftest import src_env
from stvar import _lapack
from stvar.data_model import GridSpec, RawSeries, save_series
from stvar.errors import SingularDesign
from stvar.mcmc import McmcConfig, _Sampler
from stvar.models import (
    Gram,
    KnotGrid,
    ModelSpec,
    _block_grams,
    _dense_gram,
    build_design,
    domain_diameter,
)
from stvar.synthetic import default_tessellation, ladder_truth, simulate_var

TESS = default_tessellation(4)


def run_child(argv: list[str], block_scipy: bool) -> subprocess.CompletedProcess:
    """`stvar argv` in a fresh interpreter, with `import scipy` made to fail
    when block_scipy is set."""
    block = "sys.modules['scipy'] = None; " if block_scipy else ""
    code = (f"import sys; {block}from stvar.cli import dispatch; "
            f"sys.exit(dispatch({argv!r}))")
    return subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True)


def test_import_loads_no_scipy():
    code = ("import sys, stvar, stvar.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A raw series, its standardized state, a trained map and a dated
    planar trajectory, written by an unblocked process."""
    root = tmp_path_factory.mktemp("numpy_only")
    rng = np.random.default_rng(0)
    grid = GridSpec(n_rows=2, n_cols=3, variables=("u", "v"))
    values = rng.standard_normal((60, 2, grid.n_cells)) * 3.0 + 5.0
    dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(60))
    save_series(RawSeries(values=values, grid=grid, dates=dates), root / "raw.series")
    for argv in (["standardize", "--series", root / "raw.series"],
                 ["train-som", "--series", root / "series.state", "--nodes", 4,
                  "--phase-steps", "3,5", "--seed", 1],
                 ["simulate", "--model", "model3", "--days", 300, "--cells", 4,
                  "--start-date", "1990-01-01", "--seed", 2]):
        assert stvar.cli.dispatch([str(a) for a in argv] + ["--out", str(root)]) == 0
    return root


NUMPY_ONLY = {
    "standardize": ["standardize", "--series", "{root}/raw.series"],
    "frequencies": ["frequencies", "--series", "{root}/series.planar", "--by", "season"],
    "transitions": ["transitions", "--series", "{root}/series.planar", "--season", "DJF"],
    "lag-scan": ["lag-scan", "--series", "{root}/series.planar", "--max-lag", "3"],
    "maps": ["maps", "--som", "{root}/som.json", "--series", "{root}/series.state"],
    # a cell model's walk finds each day's cell in numpy; model1 assigns its
    # finished path through cdist, and model11's kriging needs scipy
    "simulate-model3": ["simulate", "--model", "model3", "--cells", "4",
                        "--start-date", "1990-01-01", "--days", "400"],
    "simulate-model9": ["simulate", "--model", "model9", "--cells", "4",
                        "--start-date", "1990-01-01", "--days", "400"],
    "help": ["--help"],
}


def outputs(out) -> dict[str, bytes]:
    """Every file a command wrote except its manifest, which carries wall times."""
    if not out.exists():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if not p.name.endswith(".manifest.json")}


@pytest.mark.parametrize("name", sorted(NUMPY_ONLY))
def test_numpy_only_command_runs_without_scipy(inputs, tmp_path, name):
    runs = {}
    for block in (False, True):
        out = tmp_path / ("blocked" if block else "free")
        argv = [a.format(root=inputs) for a in NUMPY_ONLY[name]]
        if name != "help":
            argv += ["--out", str(out)]
        proc = run_child(argv, block)
        assert proc.returncode == 0, proc.stderr
        runs[block] = (proc.stdout, outputs(out))
    assert runs[True] == runs[False]
    assert name == "help" or runs[True][1]


def design_of(model: str):
    truth = ladder_truth(model, tess=TESS, start_date="1990-01-01", n_days=900)
    series = simulate_var(truth, 900, tess=TESS, start_date="1990-01-01", seed=5)
    return build_design(series, model, tess=TESS)


# X'X factored whole: one transition block, and several with intercept
# columns, where the 2x2 block Grams are placed on the diagonal
@pytest.mark.parametrize("model", ["model1", "model3", "model5", "model6"])
def test_gram_equals_block_diag_and_cho_factor(model):
    design = design_of(model)
    gram = Gram(design)
    assert not gram.blocked
    k = 2 * design.info.n_a
    xtx = _dense_gram(design)
    if design.info.n_a > 1:
        blocks = scipy.linalg.block_diag(*_block_grams(design.source_points, design.a_idx,
                                                      design.info.n_a))
        assert xtx[:k, :k].tobytes() == blocks.tobytes()
    ref = Gram.__new__(Gram)
    ref.__dict__.update(p=gram.p, n_a=gram.n_a, blocked=False, xtx=xtx,
                        factor=scipy.linalg.cho_factor(xtx))
    B = np.random.default_rng(1).standard_normal((design.p, 3))
    assert gram.solve(B).tobytes() == ref.solve(B).tobytes()
    assert gram.inv_factor.tobytes() == ref.inv_factor.tobytes()


@pytest.mark.parametrize("xtx, error", [
    (np.array([[1.0, 2.0], [2.0, 1.0]]), SingularDesign),
    (np.array([[1.0, 0.0], [0.0, 0.0]]), SingularDesign),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), ValueError),
])
def test_bad_gram_fails_as_with_cho_factor(monkeypatch, xtx, error):
    design = design_of("model1")
    monkeypatch.setattr(stvar.models, "_dense_gram", lambda design: xtx.copy())
    with pytest.raises(error):
        Gram(design)
    with pytest.raises(np.linalg.LinAlgError if error is SingularDesign else ValueError):
        scipy.linalg.cho_factor(xtx)


def distance_cases():
    rng = np.random.default_rng(7)
    for case in range(300):
        m, d = int(rng.integers(2, 30)), int(rng.integers(1, 401))
        x = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-100.0, 100.0)
        if case % 4 == 0:
            x[rng.integers(m)] = x[0]  # a repeated point: a zero distance
        if case % 5 == 0:
            x = -x
        yield x


def test_cdist_equals_pdist_and_squareform():
    for x in distance_cases():
        got = _lapack.cdist(x, x)
        assert got.tobytes() == squareform(pdist(x)).tobytes()
        assert got[np.triu_indices(x.shape[0], k=1)].tobytes() == pdist(x).tobytes()


def test_first_decay_rate_is_the_pdist_median():
    spec = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=4, n_y=3))
    truth = ladder_truth("model11", tess=TESS, start_date="1990-01-01", n_days=200)
    series = simulate_var(truth, 200, tess=TESS, start_date="1990-01-01", seed=8)
    knots = spec.knot_grid.build(series.points)
    upper = 300.0 / domain_diameter(series.points)
    sampler = _Sampler(build_design(series, spec), McmcConfig(n_iter=2, burn_in=1),
                       np.random.default_rng(0), knots, upper)
    t0 = min(3.0 / float(np.median(pdist(knots))), upper)
    assert sampler.field.theta.tobytes() == np.array([t0, t0]).tobytes()
