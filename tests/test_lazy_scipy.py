"""stvar imports scipy only when a routine needs it, with the same results.

`import stvar` loads numpy alone: `stvar._lapack` binds each scipy routine
at its first call, LAPACK and BLAS from scipy's compiled modules with no
scipy package imported. The commands that call none of them, the tiny
`fields` pipeline among them, run with scipy blocked and write the bytes of
an unblocked run. The scipy calls that stvar no longer makes (scipy.linalg's
block_diag and cho_factor in `models.Gram`, pdist and squareform for the
Sammon targets and the first decay rate, cdist for the map, Sammon, cell and
knot distances) are held to their replacements bit for bit.
"""

import datetime as dt
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import cdist, pdist, squareform

import stvar.cli
import stvar.models
from conftest import src_env
from stvar import _lapack
from stvar.data_model import GridSpec, RawSeries, save_series
from stvar.errors import SingularDesign
from stvar.mcmc import McmcConfig, _Sampler
from stvar.models import (
    MODEL_ALIASES,
    Gram,
    KnotGrid,
    ModelSpec,
    _block_grams,
    _dense_gram,
    build_design,
    domain_diameter,
)
from stvar.synthetic import default_tessellation, ladder_truth, simulate_var
from test_pipeline_pins import PINS, output_hashes, run_pipeline

TESS = default_tessellation(4)


def run_child(argv: list[str], block_scipy: bool) -> subprocess.CompletedProcess:
    """`stvar argv` in a fresh interpreter, with `import scipy` made to fail
    when block_scipy is set."""
    block = "sys.modules['scipy'] = None; " if block_scipy else ""
    code = (f"import sys; {block}from stvar.cli import dispatch; "
            f"sys.exit(dispatch({argv!r}))")
    return subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True)


SCIPY_PACKAGES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_code(code: str, *args) -> str:
    """Standard output of `code` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=src_env(),
                          capture_output=True, text=True, check=True).stdout.strip()


def test_import_loads_no_scipy():
    assert run_code(f"import sys, stvar, stvar.cli; print({SCIPY_PACKAGES})") == "[]"


@pytest.mark.parametrize("walk", [
    "from stvar.cli import dispatch\n"
    "assert dispatch(['simulate', '--model', 'model11', '--days', '300', '--cells', '4',\n"
    "                 '--out', sys.argv[1]]) == 0",
    "from stvar.synthetic import default_tessellation, ladder_truth, simulate_var\n"
    "tess = default_tessellation(4)\n"
    "simulate_var(ladder_truth('model11', tess=tess), 300, tess=tess, seed=1)",
], ids=["cli", "library"])
def test_simulate_loads_no_scipy_package(tmp_path, walk):
    # model11's walk solves with scipy's compiled LAPACK, loaded from its
    # file, and measures its knot distances and cells in numpy
    code = (f"import sys\n{walk}\nfrom stvar import _lapack\n"
            f"print(type(_lapack._POTRS).__name__, {SCIPY_PACKAGES})")
    assert run_code(code, tmp_path).splitlines()[-1] == "fortran []"


BOUND = """
import sys
import numpy as np
from stvar import _lapack

def scipys():
    import scipy.linalg
    return (*scipy.linalg.get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=np.float64),
            *scipy.linalg.get_blas_funcs(("trsm", "trmm"), dtype=np.float64))

if sys.argv[1] == "scipy":
    theirs = scipys()
_lapack.cholesky(np.eye(2))
if sys.argv[1] == "stvar":
    theirs = scipys()
ours = (_lapack._POTRF, _lapack._POTRS, _lapack._TRTRS, _lapack.trsm, _lapack.trmm)
import scipy.linalg
print([a is b for a, b in zip(ours, theirs)],
      scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"],
      scipy.linalg._fblas is sys.modules["scipy.linalg._fblas"],
      scipy.linalg._flapack.dpotrf is _lapack._POTRF)
"""


@pytest.mark.parametrize("first", ["stvar", "scipy"])
def test_bound_routines_are_scipys_own(first):
    # the routines stvar binds are the objects scipy.linalg hands out,
    # whether scipy.linalg is imported before the binding or after it
    assert run_code(BOUND, first) == "[True, True, True, True, True] True True True"


def test_missing_scipy_fails_as_its_import(tmp_path):
    # an interpreter that finds numpy but no scipy: the first LAPACK call
    # raises what `import scipy.linalg` raises
    for path in Path(np.__file__).parents[1].glob("numpy*"):
        if path.is_dir() and not path.name.endswith("-info"):
            (tmp_path / path.name).symlink_to(path)
    code = """
import numpy as np
from stvar import _lapack

def error(call):
    try:
        call()
    except Exception as e:
        return type(e).__name__, str(e), e.name

def linalg():
    import scipy.linalg

print(error(lambda: _lapack.cholesky(np.eye(2))) == error(linalg), error(linalg))
"""
    env = src_env()
    env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], str(tmp_path)])
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == "True ('ModuleNotFoundError', \"No module named 'scipy'\", 'scipy')"


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
    "train-som": ["train-som", "--series", "{root}/series.state", "--nodes", "4",
                  "--phase-steps", "3,5", "--seed", "1"],
    "sammon": ["sammon", "--som", "{root}/som.json"],
    "project": ["project", "--som", "{root}/som.json", "--series", "{root}/series.state"],
    "transitions-som": ["transitions", "--series", "{root}/series.planar",
                        "--som", "{root}/som.json"],
    "frequencies": ["frequencies", "--series", "{root}/series.planar", "--by", "season"],
    "transitions": ["transitions", "--series", "{root}/series.planar", "--season", "DJF"],
    "lag-scan": ["lag-scan", "--series", "{root}/series.planar", "--max-lag", "3"],
    "maps": ["maps", "--som", "{root}/som.json", "--series", "{root}/series.state"],
    # every walk finds each day's cell in numpy; model11's kriging needs
    # scipy's compiled LAPACK (test_simulate_loads_no_scipy_package)
    **{f"simulate-{model}": ["simulate", "--model", model, "--cells", "4",
                             "--start-date", "1990-01-01", "--days", "400"]
       for model in sorted(MODEL_ALIASES) if model != "model11"},
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


def test_fields_pipeline_runs_without_scipy(tmp_path):
    # the map, the Sammon embedding, the projection and the cells measure
    # their distances in numpy: the pinned bytes, with scipy blocked
    run_pipeline("fields", tmp_path, "import sys; sys.modules['scipy'] = None\n")
    assert output_hashes(tmp_path) == PINS["fields"]


def test_ladder_pipeline_loads_no_scipy_package(tmp_path):
    # its solves bind scipy's compiled LAPACK, loaded from its file
    report = f"import atexit, sys; atexit.register(lambda: print({SCIPY_PACKAGES}))\n"
    assert run_pipeline("ladder", tmp_path, report).splitlines()[-1] == "[]"
    assert output_hashes(tmp_path) == PINS["ladder"]


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


SCALES = 10.0 ** np.arange(-200, 201, 25)  # squares that underflow or overflow
METRICS = ("euclidean", "sqeuclidean")


def quiet_cdist(a, b, metric):
    """stvar's cdist, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _lapack.cdist(a, b, metric)
    assert got.flags.c_contiguous
    return got


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
    for d in (1, 2, 3, 200):
        for m in (1, 12):
            x = rng.standard_normal((m, d))
            yield from (x * scale for scale in SCALES)


def planar_cases():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((40, 2)), rng.standard_normal((25, 2))
    yield "random", a, b
    yield "repeated", np.vstack([a[:5], a[:5]]), a[:5]
    for scale in SCALES:
        yield f"scale {scale:g}", a * scale, b * scale
    yield "shifted", a + 1e8, b + 1e8
    yield "no rows", np.empty((0, 2)), b
    yield "no columns", a, np.empty((0, 2))


def cdist_cases():
    """(id, a, b, metric, scales): the planar cases under both metrics, and
    0, 1 and 8191-8193 points of 1, 2, 3 and 200 columns against 12 points,
    at every scale (thousands of points of 200 columns at every fourth, from
    the least to the greatest, which keeps these tests to a few seconds)."""
    for name, a, b in planar_cases():
        yield name, a, b, "euclidean", (1.0,)
        yield f"{name} sqeuclidean", a, b, "sqeuclidean", (1.0,)
    rng = np.random.default_rng(13)
    for d in (1, 2, 3, 200):
        for n in (0, 1, 8191, 8192, 8193):
            a, b = rng.standard_normal((n, d)), rng.standard_normal((12, d))
            scales = SCALES if n * d < 10 ** 5 else SCALES[::4]
            for metric in METRICS:
                yield f"d={d} rows={n} {metric}", a, b, metric, scales


@pytest.mark.parametrize("a, b, metric, scales", [case[1:] for case in cdist_cases()],
                         ids=[case[0] for case in cdist_cases()])
def test_planar_distances_equal_cdist(a, b, metric, scales):
    # scipy's own cdist is the reference, with `a` as the longer point set
    # and as the shorter
    for scale in scales:
        for x, y in ((a * scale, b * scale), (b * scale, a * scale)):
            got, want = quiet_cdist(x, y, metric), cdist(x, y, metric)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_cdist_equals_pdist_and_squareform():
    for x in distance_cases():
        for metric in METRICS:
            got, want = quiet_cdist(x, x, metric), pdist(x, metric)
            assert got.tobytes() == squareform(want).tobytes()
            assert got[np.triu_indices(x.shape[0], k=1)].tobytes() == want.tobytes()


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
