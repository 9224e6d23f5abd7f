"""The sampler's direct LAPACK calls and two-term log-sum-exp against the
scipy wrappers they replace, bit for bit.

`stvar._lapack` calls scipy's own potrs, trtrs and potrf with the arguments
scipy.linalg's cho_solve, solve_triangular and cholesky would pass, and
`mcmc._logaddexp` writes out scipy.special.logsumexp's arithmetic for two
terms. Each must give the same bits as the wrapper, and a whole model11
chain and its scores must be byte-identical to the ones the wrappers give.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import stvar.mcmc
import stvar.models
from stvar import _lapack
from stvar.evaluate import score_model
from stvar.mcmc import McmcConfig, _logaddexp, _Sampler, run_chain, save_chain
from stvar.models import KnotGrid, ModelSpec, PredictiveProcess, build_design, domain_diameter
from stvar.synthetic import default_tessellation, ladder_truth, simulate_var

ORDERS = {"C": np.ascontiguousarray, "F": np.asfortranarray}


def spd(m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


def factor(m: int, lower: bool, order: str, seed: int) -> np.ndarray:
    L = np.linalg.cholesky(spd(m, seed))
    return ORDERS[order](L if lower else L.T)


def rhs(m: int, shape: str, order: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    if shape == "vector":
        return rng.standard_normal(m)
    return ORDERS[order](rng.standard_normal((m, 5)))


CASES = [(m, lower, a_order, shape, b_order)
         for m in (1, 2, 9, 64)
         for lower in (True, False)
         for a_order in "CF"
         for shape, b_order in (("vector", "C"), ("matrix", "C"), ("matrix", "F"))]


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m, lower, a_order, shape, b_order", CASES)
def test_cho_solve_matches_scipy(m, lower, a_order, shape, b_order):
    c, b = factor(m, lower, a_order, m), rhs(m, shape, b_order, m)
    for check in (True, False):
        got = _lapack.cho_solve((c, lower), b, check_finite=check)
        assert same_bits(got, scipy.linalg.cho_solve((c, lower), b, check_finite=check))


@pytest.mark.parametrize("m, lower, a_order, shape, b_order", CASES)
def test_solve_triangular_matches_scipy(m, lower, a_order, shape, b_order):
    a, b = factor(m, lower, a_order, m), rhs(m, shape, b_order, m)
    got = _lapack.solve_triangular(a, b, lower=lower)
    assert same_bits(got, scipy.linalg.solve_triangular(a, b, lower=lower))


@pytest.mark.parametrize("m", [1, 2, 9, 64])
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("order", "CF")
def test_cholesky_matches_scipy(m, lower, order):
    a = ORDERS[order](spd(m, m))
    assert same_bits(_lapack.cholesky(a, lower=lower), scipy.linalg.cholesky(a, lower=lower))


def test_cholesky_of_a_non_pd_matrix_raises_as_scipy():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    for fn in (_lapack.cholesky, scipy.linalg.cholesky):
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            fn(a, lower=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_where_scipy_checks(bad):
    c = factor(4, True, "C", 4)
    b = rhs(4, "vector", "C", 4)
    b_bad, c_bad = b.copy(), c.copy()
    b_bad[2] = bad
    c_bad[3, 1] = bad
    a_bad = spd(4, 4)
    a_bad[0, 0] = bad
    calls = [
        lambda mod: mod.cho_solve((c, True), b_bad),
        lambda mod: mod.cho_solve((c_bad, True), b),
        lambda mod: mod.solve_triangular(c, b_bad, lower=True),
        lambda mod: mod.solve_triangular(c_bad, b, lower=True),
        lambda mod: mod.cholesky(a_bad, lower=True),
    ]
    for call in calls:
        for mod in (_lapack, scipy.linalg):
            with pytest.raises(ValueError, match="infs or NaNs"):
                call(mod)


def scipy_logaddexp(x, y):
    return scipy.special.logsumexp([x, y], axis=0)


def assert_logaddexp_matches(pairs):
    for x, y in pairs:
        got, want = _logaddexp(x, y), scipy_logaddexp(x, y)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x, y, got, want)


def test_logaddexp_equal_terms():
    assert_logaddexp_matches((v, v) for v in
                             (0.0, -0.0, 1.5, -3.25, 700.0, -700.0, -np.inf, np.inf, 1e-300))


def test_logaddexp_minus_infinity_term():
    assert_logaddexp_matches([(-np.inf, 0.3), (2.0, -np.inf), (-np.inf, -745.0),
                              (-700.0, -np.inf), (-np.inf, 700.0)])


def test_logaddexp_large_magnitudes():
    assert_logaddexp_matches([(700.0, 699.5), (-700.0, -701.0), (700.0, -700.0),
                              (-700.0, 700.0), (709.7, 709.7 - 1e-13), (-700.0, -700.0 + 1e-12)])


def test_logaddexp_random_pairs():
    rng = np.random.default_rng(0)
    scale = 10.0 ** rng.uniform(-3, 2.8, size=(10_000, 1))
    pairs = rng.standard_normal((10_000, 2)) * scale
    pairs[::7, 1] = pairs[::7, 0] + rng.standard_normal(pairs[::7, 0].size) * 1e-9
    assert_logaddexp_matches(pairs.tolist())


def test_logaddexp_of_nan_is_nan():
    assert np.isnan(_logaddexp(np.nan, 0.0)) and np.isnan(_logaddexp(0.0, np.nan))


# ---------------------------------------------------------------------------
# Whole chains

SPEC = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=5, n_y=5))
TESS = default_tessellation(4)


def model11_series(n_days: int, seed: int):
    truth = ladder_truth("model11", tess=TESS, start_date="1990-01-01", n_days=n_days)
    return simulate_var(truth, n_days, tess=TESS, start_date="1990-01-01", seed=seed)


def fit_and_score(series, config, tmp_path, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = run_chain(series, SPEC, config)
    save_chain(chain, tmp_path / name)
    score = score_model(chain, series, n_draws=100, seed=3)
    return (tmp_path / name).read_bytes(), score


def use_scipy_wrappers(m):
    """Put the scipy calls, the full-array kernel and column_stack back."""
    m.setattr(_lapack, "cho_solve", scipy.linalg.cho_solve)
    m.setattr(_lapack, "solve_triangular", scipy.linalg.solve_triangular)
    m.setattr(_lapack, "cholesky", scipy.linalg.cholesky)
    m.setattr(stvar.mcmc, "_logaddexp", scipy_logaddexp)
    m.setattr(PredictiveProcess, "cross",
              lambda self, theta, out=None: np.exp(-theta * self.d_points))

    def coregionalize(q, w1, w2):
        return np.column_stack([q[0, 0] * w1, q[1, 0] * w1 + q[1, 1] * w2])

    m.setattr(stvar.models, "coregionalize", coregionalize)
    m.setattr(stvar.mcmc, "coregionalize", coregionalize)


def test_chain_and_scores_equal_the_scipy_wrappers(monkeypatch, tmp_path):
    series = model11_series(300, seed=41)
    config = McmcConfig(n_iter=220, burn_in=100, seed=5)
    blob, score = fit_and_score(series, config, tmp_path, "direct.chain")
    with monkeypatch.context() as m:
        use_scipy_wrappers(m)
        want_blob, want_score = fit_and_score(series, config, tmp_path, "wrapped.chain")
    assert blob == want_blob
    assert score == want_score


def test_chain_runs_without_the_scipy_wrappers(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a scipy wrapper was called")

    for name in ("cho_solve", "solve_triangular", "cholesky"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(scipy.special, "logsumexp", refuse)
    series = model11_series(200, seed=42)
    _, score = fit_and_score(series, McmcConfig(n_iter=160, burn_in=40, seed=2), tmp_path,
                             "a.chain")
    assert np.isfinite([score.rmspe, score.dic, score.p_d, score.coverage]).all()
    assert not hasattr(stvar.mcmc, "logsumexp")


def test_spare_kernel_buffer_is_never_a_field_kernel():
    series = model11_series(300, seed=43)
    design = build_design(series, SPEC)
    knots = SPEC.knot_grid.build(series.points)
    config = McmcConfig(n_iter=30, burn_in=1, seed=6)
    sampler = _Sampler(design, config, np.random.default_rng(6), knots,
                       300.0 / domain_diameter(series.points))
    field = sampler.field
    start = field.theta.copy()
    kernels = set()
    for _ in range(25):
        sampler.sweep(adapting=True)
        assert not np.shares_memory(field._spare, field.K[0])
        assert not np.shares_memory(field._spare, field.K[1])
        kernels.add(id(field._spare))
    # both decays moved, so accepted proposals swapped the spare in and out
    assert (field.theta != start).all()
    assert len(kernels) > 1
