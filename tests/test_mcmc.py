"""Tests for the Gibbs sampler, posterior prediction, and chain files."""

import dataclasses
import datetime as dt
import json
import struct

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import cdist
from scipy.stats import invwishart, truncnorm

import stvar.mcmc
from stvar.errors import (
    DataError,
    DimensionMismatch,
    EmptySeries,
    MalformedHeader,
    NonConvergenceWarning,
    NonPDScale,
    NonPositiveDecay,
    NumericalError,
    ShortRead,
    UnlabeledDate,
)
from stvar.evaluate import coverage, dic, rmspe, score_model
from stvar.mcmc import (
    ADAPT_INTERVAL,
    Q_PRIOR_SD,
    TARGET_ACCEPT,
    Chain,
    McmcConfig,
    SeriesPrediction,
    _Field,
    _Sampler,
    chain_design,
    check_draws,
    load_chain,
    mean_paths,
    predict_series,
    run_chain,
    save_chain,
    split_rhat,
)
import stvar.models
from stvar.models import (
    DesignPair,
    KnotGrid,
    ModelSpec,
    PredictiveProcess,
    build_design,
    chol_spd,
    domain_diameter,
    exp_corr,
    mle_var,
    pp_basis,
)
from stvar.projection import PlanarSeries, Tessellation
from stvar.synthetic import default_tessellation, ladder_truth, simulate_var

from oracles import coregional_eta, mean_paths_per_draw


def cloud_series(n=60, seed=0, spread=1.0, dates_from=None):
    rng = np.random.default_rng(seed)
    pts = spread * rng.standard_normal((n, 2))
    dates = None
    if dates_from is not None:
        d0 = dt.date.fromisoformat(dates_from)
        dates = tuple(d0 + dt.timedelta(days=i) for i in range(n))
    return PlanarSeries(points=pts, dates=dates)


def make_sampler(series, spec, config=None, tess=None):
    spec = spec if isinstance(spec, ModelSpec) else ModelSpec(*spec)
    config = config or McmcConfig(n_iter=10, burn_in=1)
    design = build_design(series, spec, tess=tess)
    knots = upper = None
    if spec.eta_structure == "spatial":
        knots = spec.knot_grid.build(series.points)
        upper = 300.0 / domain_diameter(series.points)
    rng = np.random.default_rng(config.seed)
    return _Sampler(design, config, rng, knots, upper), design


class TestMcmcConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(DataError):
            McmcConfig(n_iter=100, burn_in=100)
        with pytest.raises(DataError):
            McmcConfig(burn_in=-1)
        with pytest.raises(DataError):
            McmcConfig(thin=0)

    def test_kept_count(self):
        assert McmcConfig(n_iter=100, burn_in=20).n_kept == 80
        assert McmcConfig(n_iter=100, burn_in=20, thin=3).n_kept == 27


class TestSplitRhat:
    def test_hand_value(self):
        # halves [0,1,0,1] and [2,3,2,3]: W = 1/3, B-part = 8,
        # var_plus = 0.75/3 + 2 = 2.25, rhat = sqrt(6.75)
        x = np.array([0.0, 1.0, 0.0, 1.0, 2.0, 3.0, 2.0, 3.0])
        np.testing.assert_allclose(split_rhat(x), np.sqrt(6.75), rtol=1e-12)

    def test_white_noise_near_one(self):
        rng = np.random.default_rng(0)
        r = split_rhat(rng.standard_normal(4000))
        assert 0.99 < r < 1.01

    def test_trend_flagged(self):
        assert split_rhat(np.linspace(0.0, 1.0, 1000)) > 1.5

    def test_degenerate(self):
        assert np.isnan(split_rhat(np.ones(100)))
        assert np.isnan(split_rhat(np.array([1.0, 2.0, 3.0])))

    @pytest.mark.parametrize("n", [3, 4, 9, 120])
    def test_stack_equals_one_chain_at_a_time(self, n):
        # rows: noise at several scales, a trend, a constant
        rng = np.random.default_rng(n)
        x = rng.standard_normal((6, n)) * 10.0 ** np.arange(-3, 3)[:, None]
        x[4] = np.linspace(0.0, 1.0, n)
        x[5] = 2.5
        got = split_rhat(x)
        assert got.shape == (6,)
        for row, r in zip(x, got):
            assert same_float(r, split_rhat(row))


class TestPhiConditional:
    def test_matches_matrix_normal_moments(self):
        # holding Sigma fixed, Phi draws must have mean Phi-hat and
        # covariance Sigma kron (X'X)^{-1} in column-stacked order
        series = cloud_series(n=50, seed=1)
        sampler, design = make_sampler(series, ("constant", "constant"))
        sigma = np.array([[0.5, 0.2], [0.2, 0.9]])
        sampler.sigma = sigma
        phi_hat, _ = mle_var(design)

        B = 4000
        draws = np.empty((B, design.p * 2))
        for b in range(B):
            sampler.update_phi()
            draws[b] = sampler.phi.ravel(order="F")

        xtx_inv = np.linalg.inv(design.X.T @ design.X)
        K = np.kron(sigma, xtx_inv)
        mean_tol = 5.0 * np.sqrt(np.diag(K).max() / B)
        np.testing.assert_allclose(
            draws.mean(axis=0), phi_hat.ravel(order="F"), atol=mean_tol
        )
        cov = np.cov(draws, rowvar=False)
        cov_tol = 5.0 * np.abs(K).max() * np.sqrt(2.0 / B)
        np.testing.assert_allclose(cov, K, atol=cov_tol)


class TestSigmaConditional:
    def test_full_conditional_plumbing(self):
        # the update must call the inverse Wishart with df = n and the
        # residual scale of the CURRENT Phi
        series = cloud_series(n=40, seed=2)
        sampler, design = make_sampler(series, ("constant", "none"),
                                       McmcConfig(n_iter=10, burn_in=1, seed=5))
        sampler.phi = np.array([[0.3, -0.1], [0.2, 0.4]])
        resid = (design.Y - design.offset) - design.X @ sampler.phi
        scale = resid.T @ resid

        sampler.update_sigma()
        oracle = invwishart.rvs(
            df=design.n, scale=scale, random_state=np.random.default_rng(5)
        )
        np.testing.assert_allclose(sampler.sigma, 0.5 * (oracle + oracle.T), rtol=1e-12)

    def test_posterior_moments_match_conjugate_formulas(self):
        # marginal posterior: Sigma ~ IW(RSS, n - p), E[Phi] = Phi-hat
        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=300, seed=3)
        chain = run_chain(series, "model1", McmcConfig(n_iter=4000, burn_in=500, seed=0))
        design = build_design(series, "model1")
        phi_hat, sigma_mle = mle_var(design)
        n, p = design.n, design.p
        e_sigma = sigma_mle * n / (n - p - 3)

        sig_mean = chain.sigma.mean(axis=0)
        assert np.linalg.norm(sig_mean - e_sigma) < 0.03 * np.linalg.norm(e_sigma)
        phi_sd = chain.phi.std(axis=0)
        np.testing.assert_array_less(
            np.abs(chain.phi.mean(axis=0) - phi_hat), 0.15 * phi_sd
        )

    def test_collinear_increments_raise(self):
        series = PlanarSeries(points=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(NonPDScale):
            run_chain(series, "model0", McmcConfig(n_iter=10, burn_in=1))


class TestThetaKernelInvariance:
    def test_one_sweep_preserves_uniform_prior(self):
        # with Q = 0 the likelihood is flat in (theta, w*), so the exact
        # joint posterior is prior: theta uniform on (0, upper], w* | theta
        # Gaussian. One (theta, w*) sweep applied to a prior draw must leave
        # the theta marginal uniform; a missing Hastings term would skew it.
        spec = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=3, n_y=3))
        series = cloud_series(n=40, seed=6)
        design = build_design(series, spec)
        knots = spec.knot_grid.build(series.points)
        upper = 4.0
        cfg = McmcConfig(n_iter=10, burn_in=1)

        R = 2500
        kept = np.empty((R, 2))
        moved = 0
        for r in range(R):
            rng = np.random.default_rng(10_000 + r)
            sampler = _Sampler(design, cfg, rng, knots, upper)
            field = sampler.field
            field.q = np.zeros((2, 2))
            sampler.sigma = np.eye(2)
            sampler.phi = np.zeros((design.p, 2))
            field.theta = rng.uniform(0.0, upper, 2)
            field._refresh_field(0)
            field._refresh_field(1)
            field.wstar = np.vstack(
                [field.L[0] @ rng.standard_normal(9), field.L[1] @ rng.standard_normal(9)]
            )
            field._refresh_eta()
            before = field.theta.copy()
            resid, omega = sampler._field_inputs()
            field.update_theta(0, resid, omega, adapting=False)
            field.update_theta(1, resid, omega, adapting=False)
            field.update_wstar(resid, omega)
            kept[r] = field.theta
            moved += int(not np.array_equal(before, field.theta))

        # the kernel must actually move for the invariance check to bite
        assert moved / R > 0.25
        u = kept.ravel() / upper
        se_mean = 1.0 / np.sqrt(12.0 * u.size)
        assert abs(u.mean() - 0.5) < 5.0 * se_mean
        se_m2 = np.sqrt((1.0 / 5.0 - 1.0 / 9.0) / u.size)
        assert abs((u**2).mean() - 1.0 / 3.0) < 5.0 * se_m2

    def test_support_respected(self):
        spec = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=3, n_y=3))
        series = cloud_series(n=50, seed=7)
        design = build_design(series, spec)
        cfg = McmcConfig(n_iter=120, burn_in=40, seed=2)
        sampler = _Sampler(design, cfg, np.random.default_rng(cfg.seed),
                           spec.knot_grid.build(series.points), 0.9)
        theta = np.empty((cfg.n_iter, 2))
        for i in range(cfg.n_iter):
            sampler.sweep(adapting=i < cfg.burn_in)
            theta[i] = sampler.field.theta
        assert theta.min() > 0.0
        assert theta.max() <= 0.9


class TestWstarConditional:
    def test_decoupled_posterior_moments(self):
        # with Q = I and Sigma = I the two knot-value vectors decouple:
        # w1* | rest ~ N((W'W + C^{-1})^{-1} W'Rx, (W'W + C^{-1})^{-1})
        spec = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=3, n_y=3))
        series = cloud_series(n=40, seed=8)
        sampler, design = make_sampler(series, spec)
        field = sampler.field
        field.q = np.eye(2)
        sampler.sigma = np.eye(2)
        sampler.phi = np.zeros((design.p, 2))
        field.theta = np.array([0.7, 1.1])
        field._refresh_field(0)
        field._refresh_field(1)
        resid, omega = sampler._field_inputs()

        knots = field.pp.knots
        R = design.Y - design.offset

        def oracle(theta, y):
            C = np.exp(-theta * cdist(knots, knots))
            W = np.linalg.solve(C, np.exp(-theta * cdist(knots, series.points[:-1]))).T
            P = W.T @ W + np.linalg.inv(C)
            cov = np.linalg.inv(P)
            return cov @ (W.T @ y), cov

        m1, c1 = oracle(0.7, R[:, 0])
        m2, c2 = oracle(1.1, R[:, 1])

        B = 4000
        draws = np.empty((B, 2, 9))
        for b in range(B):
            field.update_wstar(resid, omega)
            draws[b] = field.wstar

        for k, (m, c) in enumerate([(m1, c1), (m2, c2)]):
            sd = np.sqrt(np.diag(c))
            np.testing.assert_allclose(
                draws[:, k, :].mean(axis=0), m, atol=5.0 * sd.max() / np.sqrt(B)
            )
            cov_hat = np.cov(draws[:, k, :], rowvar=False)
            assert np.abs(cov_hat - c).max() < 6.0 * np.abs(c).max() * np.sqrt(2.0 / B)


class TestQConditional:
    def test_scalar_conditionals(self):
        # Sigma = I removes the cross term; w2* = 0 makes q11 half-normal
        spec = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=3, n_y=3))
        series = cloud_series(n=40, seed=9)
        sampler, design = make_sampler(series, spec)
        field = sampler.field
        sampler.sigma = np.eye(2)
        sampler.phi = np.zeros((design.p, 2))
        rng_w = np.random.default_rng(99)
        field.wstar = np.vstack([rng_w.standard_normal(9), np.zeros(9)])
        field._refresh_eta()
        resid, omega = sampler._field_inputs()
        start_q = np.array([[1.0, 0.0], [0.3, 1.0]])
        tau = Q_PRIOR_SD

        w1 = pp_basis(design.source_points, field.pp.knots, field.theta[0]) @ field.wstar[0]
        R = design.Y - design.offset
        rx, ry = R[:, 0], R[:, 1]
        prec1 = float(w1 @ w1) + 1.0 / tau**2

        B = 4000
        draws = np.empty((B, 3))
        for b in range(B):
            field.q = start_q.copy()
            field.update_q(resid, omega)
            draws[b] = field.q[0, 0], field.q[1, 0], field.q[1, 1]

        # q00: truncated normal around the regression of Rx on w1
        mean = float(w1 @ rx) / prec1
        sd = 1.0 / np.sqrt(prec1)
        want = truncnorm.mean((0.0 - mean) / sd, np.inf, loc=mean, scale=sd)
        assert abs(draws[:, 0].mean() - want) < 5.0 * sd / np.sqrt(B)

        # q10: plain normal around the regression of Ry on w1
        np.testing.assert_allclose(
            draws[:, 1].mean(), float(w1 @ ry) / prec1, atol=5.0 / np.sqrt(prec1 * B)
        )
        np.testing.assert_allclose(
            draws[:, 1].var(), 1.0 / prec1, rtol=0.15
        )

        # q11: half-normal with scale = prior sd
        want11 = tau * np.sqrt(2.0 / np.pi)
        sd11 = tau * np.sqrt(1.0 - 2.0 / np.pi)
        assert abs(draws[:, 2].mean() - want11) < 5.0 * sd11 / np.sqrt(B)
        assert draws[:, 2].min() > 0.0


class TestRunChain:
    def test_deterministic(self):
        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=80, seed=10)
        cfg = McmcConfig(n_iter=60, burn_in=20, seed=3)
        a = run_chain(series, "model1", cfg)
        b = run_chain(series, "model1", cfg)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        c = run_chain(series, "model1", McmcConfig(n_iter=60, burn_in=20, seed=4))
        assert not np.array_equal(a.phi, c.phi)

    @pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
    def test_thinning_and_shapes(self):
        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=60, seed=11)
        cfg = McmcConfig(n_iter=50, burn_in=10, thin=4, seed=0)
        chain = run_chain(series, "model1", cfg)
        assert chain.n_draws == 10
        assert chain.phi.shape == (10, 2, 2)
        assert chain.sigma.shape == (10, 2, 2)
        assert chain.theta is None and chain.q is None and chain.wstar is None

    def test_recovers_truth_roughly(self):
        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=600, seed=12)
        chain = run_chain(series, "model1", McmcConfig(n_iter=1500, burn_in=300, seed=0))
        a_true = truth.a_block(0)
        a_mean = chain.phi.mean(axis=0).T
        a_sd = chain.phi.std(axis=0).T
        np.testing.assert_array_less(np.abs(a_mean - a_true), 4.0 * a_sd + 1e-12)

    def test_healthy_chain_does_not_warn(self):
        import warnings

        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=200, seed=13)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            run_chain(series, "model1", McmcConfig(n_iter=800, burn_in=200, seed=0))

    def test_spatial_chain_pieces(self):
        spec = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=4, n_y=4))
        series = cloud_series(n=120, seed=14)
        cfg = McmcConfig(n_iter=300, burn_in=100, seed=5)
        chain = run_chain(series, spec, cfg)
        assert chain.theta.shape == (200, 2)
        assert chain.q.shape == (200, 2, 2)
        assert chain.wstar.shape == (200, 2, 16)
        assert chain.knots.shape == (16, 2)
        assert (chain.q[:, 0, 0] > 0).all() and (chain.q[:, 1, 1] > 0).all()
        assert (chain.q[:, 0, 1] == 0).all()
        assert set(chain.acceptance) == {"theta1", "theta2"}
        upper = 300.0 / domain_diameter(series.points)
        assert chain.theta.max() <= upper

    @pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
    def test_only_a_spatial_fit_builds_a_field(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a spatial field was built")

        monkeypatch.setattr(stvar.mcmc, "_Field", refuse)
        cfg = McmcConfig(n_iter=40, burn_in=10, seed=1)
        for model in ("model1", "model9"):
            chain = run_chain(ladder_series(model, 300, seed=17), model, cfg, tess=TESS4)
            assert chain.theta is None and chain.acceptance == {} and chain.tuning == {}
        with pytest.raises(AssertionError, match="a spatial field was built"):
            run_chain(ladder_series("model11", 300, seed=17), SPATIAL_SPEC, cfg)

    def test_cell_model_records_sites(self):
        tess = default_tessellation()
        truth = ladder_truth("model2", tess=tess)
        series = simulate_var(truth, n_days=400, tess=tess, seed=15)
        chain = run_chain(series, "model2", McmcConfig(n_iter=40, burn_in=10, seed=0), tess=tess)
        np.testing.assert_array_equal(chain.tess_sites, tess.sites)
        assert chain.info == build_design(series, "model2", tess=tess).info

    def test_posterior_mean_symmetric(self):
        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=80, seed=16)
        chain = run_chain(series, "model1", McmcConfig(n_iter=60, burn_in=20, seed=0))
        pm = chain.posterior_mean()
        assert isinstance(pm, Chain) and pm.n_draws == 1
        np.testing.assert_array_equal(pm.sigma[0], pm.sigma[0].T)


def noise_free(chain, series, tess=None, n_draws=500):
    """The mean paths of the draws predict_series would take."""
    return mean_paths(chain, chain_design(chain, series, tess), chain.draw_indices(n_draws))


def manual_chain(spec, a_keys, eta_keys, phi, sigma, n_draws=3, tess_sites=None):
    phi = np.repeat(np.asarray(phi, float)[None, :, :], n_draws, axis=0)
    sigma = np.repeat(np.asarray(sigma, float)[None, :, :], n_draws, axis=0)
    return Chain(
        spec=spec,
        a_keys=tuple(a_keys),
        eta_keys=tuple(eta_keys),
        phi=phi,
        sigma=sigma,
        theta=None,
        q=None,
        wstar=None,
        knots=None,
        tess_sites=None if tess_sites is None else np.asarray(tess_sites, float),
        n_obs=10,
        config=McmcConfig(n_iter=2, burn_in=0),
    )


class TestPrediction:
    def test_constant_model_mean(self):
        A = np.array([[0.6, 0.1], [-0.2, 0.5]])
        chain = manual_chain(ModelSpec("constant"), [()], [], A.T, np.eye(2))
        series = PlanarSeries(points=np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]]))
        means = noise_free(chain, series)
        want = series.points[:-1] @ A.T
        assert means.shape == (3, 2, 2)
        for b in range(3):
            np.testing.assert_allclose(means[b], want, atol=1e-12)
        np.testing.assert_allclose(means.mean(axis=0), want, atol=1e-12)
        np.testing.assert_array_equal(predict_series(chain, series).actual, series.points[1:])

    def test_random_walk_mean_is_today(self):
        chain = manual_chain(
            ModelSpec("random_walk"), [], [], np.zeros((0, 2)), np.eye(2)
        )
        series = PlanarSeries(points=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(noise_free(chain, series).mean(axis=0), series.points[:-1])

    def test_noise_uses_sigma(self):
        sigma = np.array([[4.0, 0.0], [0.0, 0.25]])
        chain = manual_chain(
            ModelSpec("random_walk"), [], [], np.zeros((0, 2)), sigma, n_draws=400
        )
        series = PlanarSeries(points=np.zeros((300, 2)))
        pred = predict_series(chain, series, n_draws=None, seed=1)
        devs = pred.draws - 0.0
        np.testing.assert_allclose(devs[..., 0].std(), 2.0, rtol=0.05)
        np.testing.assert_allclose(devs[..., 1].std(), 0.5, rtol=0.05)
        again = predict_series(chain, series, n_draws=None, seed=1)
        np.testing.assert_array_equal(pred.draws, again.draws)

    def test_cell_blocks_routed_by_tessellation(self):
        A0 = 0.5 * np.eye(2)
        A1 = np.array([[0.0, 0.3], [-0.3, 0.0]])
        phi = np.vstack([A0.T, A1.T])
        chain = manual_chain(
            ModelSpec("tessellation"),
            [(0,), (1,)],
            [],
            phi,
            np.eye(2),
            tess_sites=[[-1.0, 0.0], [1.0, 0.0]],
        )
        series = PlanarSeries(points=np.array([[-1.0, 0.5], [2.0, 0.0], [0.5, 0.5]]))
        mean = noise_free(chain, series).mean(axis=0)
        np.testing.assert_allclose(mean[0], A0 @ [-1.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(mean[1], A1 @ [2.0, 0.0], atol=1e-12)

    def test_unseen_block_raises(self):
        chain = manual_chain(ModelSpec("quarter"), [("DJF",)], [], np.eye(2), np.eye(2))
        series = PlanarSeries(
            points=np.array([[0.0, 0.0], [1.0, 1.0]]),
            dates=(dt.date(2000, 7, 1), dt.date(2000, 7, 2)),
        )
        with pytest.raises(UnlabeledDate):
            predict_series(chain, series)

    def test_one_step(self):
        A = np.array([[0.6, 0.1], [-0.2, 0.5]])
        chain = manual_chain(ModelSpec("constant"), [()], [], A.T, np.eye(2))
        series = PlanarSeries(points=np.array([[1.0, 2.0], [0.0, 0.0]]))
        draws = noise_free(chain, series)[:, 0]
        assert draws.shape == (3, 2)
        np.testing.assert_allclose(draws[0], A @ [1.0, 2.0], atol=1e-12)

    def test_tessellation_given_wins_over_fitted(self):
        chain = manual_chain(ModelSpec("tessellation"), [(0,), (1,)], [], np.vstack([np.eye(2)] * 2),
                             np.eye(2), tess_sites=[[-1.0, 0.0], [1.0, 0.0]])
        other = Tessellation(sites=np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0]]))
        assert chain.tessellation(other) is other
        np.testing.assert_array_equal(chain.tessellation().sites, chain.tess_sites)
        assert manual_chain(ModelSpec("constant"), [()], [], np.eye(2),
                            np.eye(2)).tessellation() is None

    @pytest.mark.parametrize("n_days", [0, 1])
    def test_fewer_than_two_days_is_empty_series(self, n_days):
        chain = manual_chain(ModelSpec("constant"), [()], [], 0.5 * np.eye(2), np.eye(2))
        series = PlanarSeries(points=np.zeros((n_days, 2)), node_assignment=np.zeros(n_days))
        for call in (chain_design, predict_series, score_model):
            with pytest.raises(EmptySeries):
                call(chain, series)

    def test_draw_indices(self):
        chain = manual_chain(
            ModelSpec("constant"), [()], [], 0.5 * np.eye(2), np.eye(2), n_draws=10
        )
        np.testing.assert_array_equal(chain.draw_indices(None), np.arange(10))
        np.testing.assert_array_equal(chain.draw_indices(25), np.arange(10))
        idx = chain.draw_indices(4)
        assert idx[0] == 0 and idx[-1] == 9 and len(idx) == 4
        with pytest.raises(DataError):
            chain.draw_indices(0)


@pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
class TestChainFiles:
    def test_round_trip(self, tmp_path):
        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=80, seed=17)
        chain = run_chain(series, "model1", McmcConfig(n_iter=30, burn_in=10, seed=0))
        path = tmp_path / "chain.bin"
        save_chain(chain, path)
        back = load_chain(path)
        np.testing.assert_array_equal(back.phi, chain.phi)
        np.testing.assert_array_equal(back.sigma, chain.sigma)
        assert back.spec == chain.spec
        assert back.a_keys == chain.a_keys
        assert back.config == chain.config
        assert back.n_obs == chain.n_obs
        assert back.rhat_max == pytest.approx(chain.rhat_max, nan_ok=True)

    def test_round_trip_spatial(self, tmp_path):
        spec = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=3, n_y=3))
        series = cloud_series(n=60, seed=18)
        chain = run_chain(series, spec, McmcConfig(n_iter=25, burn_in=5, seed=1))
        path = tmp_path / "chain.bin"
        save_chain(chain, path)
        back = load_chain(path)
        np.testing.assert_array_equal(back.theta, chain.theta)
        np.testing.assert_array_equal(back.q, chain.q)
        np.testing.assert_array_equal(back.wstar, chain.wstar)
        np.testing.assert_array_equal(back.knots, chain.knots)
        assert back.acceptance == chain.acceptance

    def test_round_trip_cell_keys(self, tmp_path):
        tess = default_tessellation()
        truth = ladder_truth("model2", tess=tess)
        series = simulate_var(truth, n_days=400, tess=tess, seed=19)
        chain = run_chain(series, "model2", McmcConfig(n_iter=12, burn_in=2, seed=0), tess=tess)
        path = tmp_path / "chain.bin"
        save_chain(chain, path)
        back = load_chain(path)
        assert back.a_keys == chain.a_keys
        assert all(isinstance(k[0], int) for k in back.a_keys)
        np.testing.assert_array_equal(back.tess_sites, tess.sites)
        # a loaded chain predicts without the original objects
        pred = predict_series(back, series, n_draws=2)
        assert pred.draws.shape[1] == series.n_days - 1

    def test_lines_after_the_declared_draws(self, tmp_path):
        # bytes after the last declared draw, even blank lines, are trailing bytes
        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=60, seed=20)
        chain = run_chain(series, "model1", McmcConfig(n_iter=20, burn_in=10, seed=0))
        path = tmp_path / "chain.bin"
        save_chain(chain, path)
        blob = path.read_bytes()
        for tail in (b"\n  \n", chain._rows()[:2].tobytes() + b"garbage here\n"):
            path.write_bytes(blob + tail)
            with pytest.raises(DimensionMismatch, match=f"{len(tail)} trailing bytes"):
                load_chain(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "chain.bin"
        path.write_text("NOT-A-CHAIN\n{}\n")
        with pytest.raises(MalformedHeader):
            load_chain(path)

    def test_text_chain_is_refused(self, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text('STVAR-CHAIN v1\n{"n_draws": 1}\n0.5 0.25\n')
        with pytest.raises(MalformedHeader, match="STVAR-CHAIN v1 .* refit"):
            load_chain(path)

    def test_bad_metadata(self, tmp_path):
        path = tmp_path / "chain.bin"
        path.write_text("STVAR-CHAIN v2\nnot json at all {\n")
        with pytest.raises(MalformedHeader):
            load_chain(path)

    def test_truncated_draws(self, tmp_path):
        path, head, rows = self._saved(tmp_path)
        path.write_bytes(head + rows[:-3].tobytes())
        with pytest.raises(ShortRead, match=f"payload has {rows[:-3].nbytes} bytes"):
            load_chain(path)

    def test_payload_one_byte_short(self, tmp_path):
        path, head, rows = self._saved(tmp_path)
        path.write_bytes(head + rows.tobytes()[:-1])
        with pytest.raises(ShortRead, match=f"payload has {rows.nbytes - 1} bytes"):
            load_chain(path)

    def test_wrong_token_count(self, tmp_path):
        # one value more than the header declares
        path, head, rows = self._saved(tmp_path)
        path.write_bytes(head + rows.tobytes() + np.float64(99.0).tobytes())
        with pytest.raises(DimensionMismatch, match="8 trailing bytes"):
            load_chain(path)

    def _saved(self, tmp_path):
        """The path of a saved model1 chain, its two header lines as bytes, and
        its draws as (n_draws, 8) float64 rows."""
        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=60, seed=22)
        chain = run_chain(series, "model1", McmcConfig(n_iter=20, burn_in=10, seed=0))
        path = tmp_path / "chain.bin"
        save_chain(chain, path)
        blob = path.read_bytes()
        end = blob.index(b"\n", blob.index(b"\n") + 1) + 1
        return path, blob[:end], np.frombuffer(blob[end:], "<f8").reshape(chain.n_draws, 8)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.pop("n_obs"),
            lambda meta: meta.pop("spec"),
            lambda meta: meta.update(n_draws="many"),
            lambda meta: meta.update(config=[1, 2]),
            lambda meta: meta.update(a_keys=5),
            lambda meta: meta.update(knots=3.0),
        ],
        ids=["no-n_obs", "no-spec", "n_draws-text", "config-list", "a_keys-number",
             "knots-scalar"],
    )
    def test_bad_metadata_field(self, tmp_path, edit):
        path, head, rows = self._saved(tmp_path)
        magic, meta, _ = head.split(b"\n")
        meta = json.loads(meta)
        edit(meta)
        path.write_bytes(b"\n".join([magic, json.dumps(meta).encode(), rows.tobytes()]))
        with pytest.raises(MalformedHeader):
            load_chain(path)

    def test_payload_is_rows_as_little_endian_float64(self, tmp_path):
        truth = ladder_truth("model1")
        series = simulate_var(truth, n_days=60, seed=23)
        chain = run_chain(series, "model1", McmcConfig(n_iter=40, burn_in=10, seed=0))
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**64, size=chain.phi.size, dtype=np.uint64, endpoint=False)
        phi = bits.view(np.float64).reshape(chain.phi.shape)
        phi.flat[:8] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                        0.1, 1 / 3, 2.0**-1074 * 3, 123456789.12345678]
        chain = dataclasses.replace(chain, phi=phi)
        path = tmp_path / "chain.bin"
        save_chain(chain, path)
        blob = path.read_bytes()
        magic, meta, payload = blob.split(b"\n", 2)
        assert magic == b"STVAR-CHAIN v2" and json.loads(meta)["n_draws"] == chain.n_draws
        # draw by draw, blocks in layout order, each row-major; every bit kept
        want = b"".join(struct.pack(f"<{block[i].size}d", *block[i].ravel())
                        for i in range(chain.n_draws) for block in (chain.phi, chain.sigma))
        assert payload == want

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_draw_rejected(self, tmp_path, token):
        # the error names the first non-finite draw, counting from 1
        path, head, rows = self._saved(tmp_path)
        rows = rows.copy()
        rows[[1, 4], [0, 5]] = float(token)
        path.write_bytes(head + rows.tobytes())
        with pytest.raises(DataError, match="^draw 2: non-finite"):
            load_chain(path)


def listed_chain_rhat(chain):
    """The worst split R-hat as a scan over hand-listed blocks and columns."""
    series = [chain.phi.reshape(chain.n_draws, -1), chain.sigma.reshape(chain.n_draws, -1)[:, [0, 1, 3]]]
    if chain.is_spatial:
        series.append(chain.theta)
        series.append(chain.q.reshape(chain.n_draws, -1)[:, [0, 2, 3]])
        series.append(chain.wstar.reshape(chain.n_draws, -1))
    worst = float("nan")
    for block in series:
        for j in range(block.shape[1]):
            r = split_rhat(block[:, j])
            if np.isfinite(r) and not (r <= worst):
                worst = r
    return worst


# model: (a_keys, eta_keys, knots); p = 2 * len(a_keys) + len(eta_keys)
LAYOUTS = {
    "model0": ([], [], None),
    "model2": ([(0,), (1,), (2,)], [], None),
    "model11": ([()], [], np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])),
}


def random_chain(model, seed, n_draws=40, constant=()):
    """A chain of random draws in `model`'s layout. The blocks named in
    `constant` repeat one whole-number draw, so their split R-hat is nan;
    phi[:, 0] and wstar[:, 1] repeat one draw."""
    a_keys, eta_keys, knots = LAYOUTS[model]
    rng = np.random.default_rng(seed)
    p = 2 * len(a_keys) + len(eta_keys)
    m = None if knots is None else knots.shape[0]
    shapes = {"phi": (p, 2), "sigma": (2, 2)}
    if m is not None:
        shapes.update(theta=(2,), q=(2, 2), wstar=(2, m))
    blocks = dict.fromkeys(["theta", "q", "wstar"])
    for name, shape in shapes.items():
        draws = rng.standard_normal((n_draws, *shape)) * 10.0 ** rng.integers(-3, 4)
        if name in constant:
            draws[:] = np.round(draws[0])
        blocks[name] = draws
    if p:
        blocks["phi"][:, 0] = blocks["phi"][0, 0]
    # load_chain refuses an asymmetric or non-positive-definite sigma, and a
    # non-positive decay rate or q diagonal
    sigma = blocks["sigma"]
    blocks["sigma"] = sigma @ sigma.transpose(0, 2, 1) + np.eye(2)
    blocks["sigma"][:, 1, 0] = blocks["sigma"][:, 0, 1]
    if m is not None:
        blocks["theta"] = np.abs(blocks["theta"])
        blocks["q"][:, [0, 1], [0, 1]] = np.abs(blocks["q"][:, [0, 1], [0, 1]])
        blocks["q"][:, 0, 1] = 0.0
        blocks["wstar"][:, 1] = blocks["wstar"][0, 1]
    return Chain(spec=stvar.models.resolve_spec(model), a_keys=tuple(a_keys),
                 eta_keys=tuple(eta_keys), **blocks, knots=knots, tess_sites=None,
                 n_obs=100, config=McmcConfig(n_iter=n_draws + 5, burn_in=5))


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


class TestDrawLayout:
    @pytest.mark.parametrize("model", LAYOUTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_rhat_equals_the_listed_scan(self, model, seed):
        for n_draws, constant in [(40, ()), (7, ("sigma",)), (5, ()), (3, ()),
                                  (40, ("phi", "sigma", "theta", "q", "wstar"))]:
            chain = random_chain(model, seed, n_draws, constant)
            assert same_float(stvar.mcmc._chain_rhat(chain), listed_chain_rhat(chain))
        assert np.isnan(stvar.mcmc._chain_rhat(chain))

    @pytest.mark.parametrize("model", LAYOUTS)
    def test_saving_a_loaded_chain_gives_the_same_bytes(self, model, tmp_path):
        chain = random_chain(model, seed=8, constant=("sigma",))
        chain.rhat_max = stvar.mcmc._chain_rhat(chain)
        save_chain(chain, tmp_path / "a.chain")
        back = load_chain(tmp_path / "a.chain")
        save_chain(back, tmp_path / "b.chain")
        assert (tmp_path / "b.chain").read_bytes() == (tmp_path / "a.chain").read_bytes()
        for name in ("phi", "sigma", "theta", "q", "wstar"):
            np.testing.assert_array_equal(getattr(back, name), getattr(chain, name))

    def test_spatial_chain_without_knots(self, tmp_path):
        save_chain(random_chain("model11", seed=9), tmp_path / "a.chain")
        magic, meta, payload = (tmp_path / "a.chain").read_bytes().split(b"\n", 2)
        meta = json.loads(meta)
        meta["knots"] = None
        (tmp_path / "a.chain").write_bytes(b"\n".join([magic, json.dumps(meta).encode(), payload]))
        with pytest.raises(MalformedHeader, match="'knots' must be set just when"):
            load_chain(tmp_path / "a.chain")


def valid_draws(n_draws=4, m=6, p=2):
    """Blocks of n_draws valid draws of the spatial layout with p columns."""
    return {"phi": np.zeros((n_draws, p, 2)),
            "sigma": np.tile([[1.0, 0.3], [0.3, 0.8]], (n_draws, 1, 1)),
            "theta": np.tile([0.5, 1.0], (n_draws, 1)),
            "q": np.tile([[1.0, 0.0], [0.2, 0.8]], (n_draws, 1, 1)),
            "wstar": np.zeros((n_draws, 2, m))}


class TestCheckDraws:
    def test_spatial_rules(self):
        check_draws(valid_draws(), 2, 6)
        for name, at, value, error, what in [
            ("theta", (2, 1), -1.0, NonPositiveDecay, "decay rates must be positive"),
            ("q", (2, 0, 1), 0.3, DataError, "q must be lower triangular"),
            ("q", (2, 0, 0), -1.0, DataError, "q must have a positive diagonal"),
        ]:
            blocks = valid_draws()
            blocks[name][at] = value
            with pytest.raises(error, match=f"^draw 3: {what}$"):
                check_draws(blocks, 2, 6)
        with pytest.raises(DataError, match=r"wstar shape \(2, 5\)"):
            check_draws({**valid_draws(), "wstar": np.zeros((4, 2, 5))}, 2, 6)

    @pytest.mark.parametrize("sigma, what", [
        ([[1.0, 0.5], [-0.5, 1.0]], "sigma must be symmetric"),
        ([[1.0, 0.0], [0.0, -1.0]], "sigma must be positive definite"),
        ([[0.0, 0.0], [0.0, 0.0]], "sigma must be positive definite"),
        ([[-1.0, 0.0], [0.0, -1.0]], "sigma must be positive definite"),
        ([[1.0, 2.0], [2.0, 1.0]], "sigma must be positive definite"),
        ([[1.0, 1.0 + 2**-52], [1.0, 1.0]], "sigma must be symmetric"),
    ])
    def test_sigma_rules(self, sigma, what):
        # sigma is checked exactly, with or without a spatial intercept
        for m in (None, 6):
            blocks = valid_draws()
            if m is None:
                blocks = {name: blocks[name] for name in ("phi", "sigma")}
            blocks["sigma"][1] = sigma
            with pytest.raises(DataError, match=f"^draw 2: {what}$"):
                check_draws(blocks, 2, m)

    def test_first_bad_draw_named_by_its_first_rule(self):
        # draw 3 breaks q and sigma, draw 4 holds a NaN: draw 3's first rule wins
        blocks = valid_draws()
        blocks["q"][2, 0, 1] = 0.1
        blocks["sigma"][2] = [[1.0, 0.0], [0.0, -1.0]]
        blocks["phi"][3, 0, 0] = np.nan
        with pytest.raises(DataError, match="^draw 3: sigma must be positive definite$"):
            check_draws(blocks, 2, 6)

    def test_blocks_must_match_the_layout(self):
        with pytest.raises(DataError, match="do not match the layout"):
            check_draws(valid_draws(), 2, None)
        blocks = valid_draws()
        del blocks["q"]
        with pytest.raises(DataError, match="do not match the layout"):
            check_draws(blocks, 2, 6)
        with pytest.raises(DataError, match=r"phi shape \(3, 2\)"):
            check_draws(valid_draws(p=3), 2, 6)


class DenseOracleSampler(_Sampler):
    """The Phi and Sigma conditionals computed from the dense n x p X: Phi
    is drawn around a least-squares refit on every sweep and the Sigma
    scale comes from the n x 2 residuals. The field's conditionals are its
    own, fed the residuals Yc - X Phi of the dense X."""

    def __init__(self, design, config, rng, knots, upper):
        super().__init__(design, config, rng, knots, upper)
        X = self.X = design.X
        self.xtx_factor = scipy.linalg.cho_factor(X.T @ X)
        inv = scipy.linalg.cho_solve(self.xtx_factor, np.eye(self.p))
        self.L_xx = np.linalg.cholesky(0.5 * (inv + inv.T))
        phi0 = scipy.linalg.cho_solve(self.xtx_factor, X.T @ self.Yc)
        resid = self.Yc - X @ phi0
        sig0 = resid.T @ resid / self.n
        sig0 = 0.5 * (sig0 + sig0.T)
        self.phi = phi0
        self.sigma = self._pd_init(sig0)

    def update_phi(self):
        Yeff = self.Yc if self.field is None else self.Yc - self.field.eta
        phi_hat = scipy.linalg.cho_solve(self.xtx_factor, self.X.T @ Yeff)
        z = self.rng.standard_normal((self.p, 2))
        L_sig = np.linalg.cholesky(self.sigma)
        self.phi = phi_hat + self.L_xx @ z @ L_sig.T

    def update_sigma(self):
        resid = self.Yc.copy() if self.field is None else self.Yc - self.field.eta
        resid = resid - self.X @ self.phi
        scale = resid.T @ resid
        sig = invwishart.rvs(df=self.n, scale=scale, random_state=self.rng)
        self.sigma = 0.5 * (sig + sig.T)

    def _field_inputs(self):
        return self.Yc - self.X @ self.phi, super()._field_inputs()[1]


def dense_oracle_chain(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(stvar.mcmc, "_Sampler", DenseOracleSampler)
        return run_chain(*args, **kwargs)


def max_rel_diff(a, b):
    return float((np.abs(a - b) / np.abs(b)).max())


TESS4 = default_tessellation(4)


def ladder_series(model, n_days, seed):
    truth = ladder_truth(model, tess=TESS4, start_date="1990-01-01", n_days=n_days)
    return simulate_var(truth, n_days, tess=TESS4, start_date="1990-01-01", seed=seed)


class TestDenseOracle:
    """The sufficient-statistic sampler against the dense-X conditionals."""

    # Sigma is drawn from its full conditional in every case
    @pytest.mark.parametrize("model", ["model1", "model3", "model9"],
                             ids=lambda model: f"{model}-full_conditional")
    def test_same_seed_chain_matches_to_rounding(self, monkeypatch, model):
        series = ladder_series(model, 1200, seed=31)
        cfg = McmcConfig(n_iter=150, burn_in=50, seed=4)
        chain = run_chain(series, model, cfg, tess=TESS4)
        oracle = dense_oracle_chain(monkeypatch, series, model, cfg, tess=TESS4)
        assert chain.phi.shape == oracle.phi.shape
        assert max_rel_diff(chain.phi, oracle.phi) <= 1e-9
        assert max_rel_diff(chain.sigma, oracle.sigma) <= 1e-9

    @pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
    def test_spatial_chain_is_bitwise_equal(self, monkeypatch):
        spec = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=3, n_y=3))
        series = ladder_series("model11", 150, seed=32)
        cfg = McmcConfig(n_iter=80, burn_in=30, seed=6)
        chain = run_chain(series, spec, cfg)
        oracle = dense_oracle_chain(monkeypatch, series, spec, cfg)
        for name in ("phi", "sigma", "theta", "q", "wstar"):
            np.testing.assert_array_equal(getattr(chain, name), getattr(oracle, name))

    def test_model9_never_builds_the_dense_design(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the dense X was built")

        series = ladder_series("model9", 800, seed=33)
        monkeypatch.setattr(DesignPair, "X", property(refuse))
        chain = run_chain(series, "model9", McmcConfig(n_iter=60, burn_in=20, seed=1),
                          tess=TESS4)
        pred = predict_series(chain, series, tess=TESS4, n_draws=20)
        assert np.isfinite(pred.draws).all()
        assert np.isfinite(dic(chain, series, tess=TESS4).dic)


def basis_factor(knots, points, theta):
    """Cholesky of C*(theta) and the explicit n x m interpolation basis."""
    L, _ = chol_spd(exp_corr(knots, knots, theta))
    return L, scipy.linalg.cho_solve((L, True), exp_corr(knots, points, theta)).T


class BasisOracleField(_Field):
    """The spatial conditionals through the explicit n x m basis
    W_k = (C*^{-1} K_k)', rebuilt on every theta proposal: field values are
    W_k w*_k, the w* Gram blocks W_j' W_k and its right-hand side W_k' r.
    Patched in as stvar.mcmc._Field it replaces the field alone: the Phi and
    Sigma conditionals are the sampler's own."""

    def __init__(self, knots, points, upper, rng):
        self.points, self.W = points, [None, None]
        super().__init__(knots, points, upper, rng)

    def _refresh_field(self, k):
        self.L[k], self.W[k] = basis_factor(self.pp.knots, self.points, float(self.theta[k]))
        self._grams = None

    def _gram(self):
        if self._grams is None:
            eye = np.eye(self.m)
            (W1, W2), (L1, L2) = self.W, self.L
            self._grams = (
                W1.T @ W1,
                W2.T @ W2,
                W1.T @ W2,
                scipy.linalg.cho_solve((L1, True), eye),
                scipy.linalg.cho_solve((L2, True), eye),
            )
        return self._grams

    def _refresh_eta(self):
        w1 = self.W[0] @ self.wstar[0]
        w2 = self.W[1] @ self.wstar[1]
        self._eta = np.column_stack(
            [self.q[0, 0] * w1, self.q[1, 0] * w1 + self.q[1, 1] * w2]
        )

    def _logpost(self, k, L, W, R, omega):
        w1 = (W if k == 0 else self.W[0]) @ self.wstar[0]
        w2 = (W if k == 1 else self.W[1]) @ self.wstar[1]
        eta = np.column_stack(
            [self.q[0, 0] * w1, self.q[1, 0] * w1 + self.q[1, 1] * w2]
        )
        e = R - eta
        loglik = -0.5 * float(np.einsum("ni,ij,nj->", e, omega, e))
        v = scipy.linalg.solve_triangular(L, self.wstar[k], lower=True)
        logprior = -0.5 * float(v @ v) - float(np.log(np.diag(L)).sum())
        return loglik + logprior

    def update_theta(self, k, R, omega, adapting):
        cur = float(self.theta[k])
        step = float(np.exp(self._log_step[k]))
        prop = cur * float(np.exp(step * self.rng.standard_normal()))
        self._window_n[k] += 1
        if not adapting:
            self._kept_n[k] += 1
        accepted = False
        if 0.0 < prop <= self.upper:
            try:
                L_prop, W_prop = basis_factor(self.pp.knots, self.points, prop)
            except NumericalError:
                L_prop = None
            if L_prop is not None:
                lp_prop = self._logpost(k, L_prop, W_prop, R, omega)
                lp_cur = self._logpost(k, self.L[k], self.W[k], R, omega)
                log_alpha = lp_prop - lp_cur + np.log(prop) - np.log(cur)
                if np.log(self.rng.uniform()) < log_alpha:
                    self.theta[k] = prop
                    self.L[k], self.W[k] = L_prop, W_prop
                    self._grams = None
                    self._refresh_eta()
                    accepted = True
        if accepted:
            self._window_acc[k] += 1
            if not adapting:
                self._kept_acc[k] += 1
        if adapting and self._window_n[k] >= ADAPT_INTERVAL:
            rate = self._window_acc[k] / self._window_n[k]
            self._log_step[k] += 0.8 * (rate - TARGET_ACCEPT)
            self._log_step[k] = float(np.clip(self._log_step[k], np.log(1e-3), np.log(100.0)))
            self._window_acc[k] = 0
            self._window_n[k] = 0

    def update_wstar(self, R, omega):
        u = self.q[:, 0]
        v = self.q[:, 1]
        a11 = float(u @ omega @ u)
        a12 = float(u @ omega @ v)
        a22 = float(v @ omega @ v)
        g11, g22, g12, c1inv, c2inv = self._gram()
        m = self.m
        P = np.empty((2 * m, 2 * m))
        P[:m, :m] = a11 * g11 + c1inv
        P[:m, m:] = a12 * g12
        P[m:, :m] = a12 * g12.T
        P[m:, m:] = a22 * g22 + c2inv
        b = np.concatenate([self.W[0].T @ (R @ (omega @ u)), self.W[1].T @ (R @ (omega @ v))])
        Lp, _ = chol_spd(P)
        mean = scipy.linalg.cho_solve((Lp, True), b)
        z = self.rng.standard_normal(2 * m)
        draw = mean + scipy.linalg.solve_triangular(Lp.T, z, lower=False)
        self.wstar = draw.reshape(2, m)
        self._refresh_eta()

    def update_q(self, R, omega):
        o00, o01, o11 = omega[0, 0], omega[0, 1], omega[1, 1]
        tau2 = Q_PRIOR_SD**2
        w1 = self.W[0] @ self.wstar[0]
        w2 = self.W[1] @ self.wstar[1]
        rx, ry = R[:, 0], R[:, 1]
        tiny = np.finfo(float).tiny

        e_y = ry - self.q[1, 0] * w1 - self.q[1, 1] * w2
        prec = o00 * float(w1 @ w1) + 1.0 / tau2
        lin = o00 * float(w1 @ rx) + o01 * float(w1 @ e_y)
        mean, sd = lin / prec, 1.0 / np.sqrt(prec)
        q00 = truncnorm.rvs((0.0 - mean) / sd, np.inf, loc=mean, scale=sd,
                            random_state=self.rng)
        self.q[0, 0] = max(float(q00), tiny)

        e_x = rx - self.q[0, 0] * w1
        prec = o11 * float(w1 @ w1) + 1.0 / tau2
        lin = o11 * float(w1 @ (ry - self.q[1, 1] * w2)) + o01 * float(w1 @ e_x)
        self.q[1, 0] = lin / prec + np.sqrt(1.0 / prec) * self.rng.standard_normal()

        prec = o11 * float(w2 @ w2) + 1.0 / tau2
        lin = o11 * float(w2 @ (ry - self.q[1, 0] * w1)) + o01 * float(w2 @ e_x)
        mean, sd = lin / prec, 1.0 / np.sqrt(prec)
        q11 = truncnorm.rvs((0.0 - mean) / sd, np.inf, loc=mean, scale=sd,
                            random_state=self.rng)
        self.q[1, 1] = max(float(q11), tiny)
        self._refresh_eta()


def draw_eta(chain, points, i):
    """Draw i's spatial intercept at `points` from the explicit basis, or
    None without one."""
    if not chain.is_spatial:
        return None
    return coregional_eta(points, chain.knots, chain.theta[i], chain.q[i], chain.wstar[i])


def three_pass_draws(chain, series, tess, n_draws, seed, include_noise):
    """predict_series, or with include_noise False mean_paths, as one
    per-draw pass that forms the basis per draw."""
    design = chain_design(chain, series, tess)
    idx = chain.draw_indices(n_draws)
    out = np.empty((idx.size, design.n, 2))
    rng = np.random.default_rng(seed)
    for b, i in enumerate(idx):
        mean = design.offset + design.xphi(chain.phi[i])
        if chain.is_spatial:
            mean = mean + draw_eta(chain, design.source_points, i)
        if include_noise:
            L = np.linalg.cholesky(chain.sigma[i])
            mean = mean + rng.standard_normal((design.n, 2)) @ L.T
        out[b] = mean
    return out


def three_pass_dic(chain, series, tess, n_draws):
    """(dic, p_d, d_bar, d_hat) from a third per-draw pass."""
    from stvar.evaluate import _gauss_deviance, repair_pd

    design = chain_design(chain, series, tess)
    idx = chain.draw_indices(n_draws)

    def deviance(phi, sigma, eta):
        mean = design.offset + design.xphi(phi)
        if eta is not None:
            mean = mean + eta
        return _gauss_deviance(design.Y - mean, sigma)

    devs = np.empty(idx.size)
    for b, i in enumerate(idx):
        devs[b] = deviance(chain.phi[i], chain.sigma[i], draw_eta(chain, design.source_points, i))
    d_bar = float(devs.mean())
    pm = chain.posterior_mean()
    d_hat = deviance(pm.phi[0], repair_pd(pm.sigma[0]), draw_eta(pm, design.source_points, 0))
    return d_bar + (d_bar - d_hat), d_bar - d_hat, d_bar, d_hat


def three_pass_score(chain, series, tess, n_draws, seed):
    """(rmspe, dic, p_d, coverage) from noisy draws, noise-free draws and DIC
    computed in three separate passes."""
    actual = series.points[1:]
    pred = three_pass_draws(chain, series, tess, n_draws, seed, include_noise=True)
    means = three_pass_draws(chain, series, tess, n_draws, seed, include_noise=False)
    d, p_d, _, _ = three_pass_dic(chain, series, tess, n_draws)
    cover = coverage(SeriesPrediction(draws=pred, actual=actual, dates=None))
    return rmspe(means.mean(axis=0), actual), d, p_d, cover


def max_block_diff(a, b):
    """Largest absolute difference relative to the block's largest |value|."""
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestMeanPaths:
    """Block-gathered mean paths against the per-draw offset + X phi + eta
    loop."""

    @pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
    @pytest.mark.parametrize("model", [f"model{i}" for i in range(12)])
    def test_bitwise_equal_to_one_draw_at_a_time(self, model):
        from stvar.evaluate import _gauss_deviance, repair_pd

        series = ladder_series(model, 900, seed=41)
        chain = run_chain(series, model, McmcConfig(n_iter=63, burn_in=20, seed=5), tess=TESS4)
        design = chain_design(chain, series, TESS4)
        pp = None
        if chain.is_spatial:
            pp = PredictiveProcess(chain.knots, design.source_points)
        assert chain.n_draws % stvar.mcmc._MEAN_BLOCK != 0
        for n_draws in (1, 7, None):
            idx = chain.draw_indices(n_draws)
            np.testing.assert_array_equal(mean_paths(chain, design, idx),
                                          mean_paths_per_draw(chain, design, idx, pp))
        # dic's one call on the posterior mean
        pm = chain.posterior_mean()
        mean = mean_paths(pm, design, [0])
        np.testing.assert_array_equal(mean, mean_paths_per_draw(pm, design, [0], pp))
        d = dic(chain, series, tess=TESS4)
        assert d.d_hat == _gauss_deviance(design.Y - mean[0], repair_pd(pm.sigma[0]))


@pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
@pytest.mark.parametrize("model", ["model9", "model11"])
def test_loaded_chain_scores_and_predicts_as_in_memory(model, tmp_path):
    # a loaded chain's blocks are strided views of one payload, read-only in
    # the command line's store; scoring and prediction gather from them
    from stvar.cli import _read_only

    series = ladder_series(model, 900, seed=42)
    spec = SPATIAL_SPEC if model == "model11" else model
    chain = run_chain(series, spec, McmcConfig(n_iter=150, burn_in=40, seed=6), tess=TESS4)
    save_chain(chain, tmp_path / "a.chain")
    back = _read_only(load_chain(tmp_path / "a.chain"))
    assert not back.phi.flags.c_contiguous and not back.phi.flags.writeable
    want, got = (score_model(c, series, tess=TESS4, n_draws=None, seed=3) for c in (chain, back))
    assert (got.rmspe, got.dic, got.p_d, got.coverage) == (
        want.rmspe, want.dic, want.p_d, want.coverage)
    np.testing.assert_array_equal(predict_series(back, series, tess=TESS4, n_draws=None).draws,
                                  predict_series(chain, series, tess=TESS4, n_draws=None).draws)


SPATIAL_SPEC = ModelSpec("constant", "spatial", knot_grid=KnotGrid(n_x=4, n_y=4))


@pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
class TestPredictiveProcessOracle:
    """The cached-geometry sampler and the one-pass scorer against the
    explicit-basis conditionals and the three-pass scorer."""

    def test_spatial_chain_matches_basis_conditionals(self, monkeypatch):
        series = ladder_series("model11", 400, seed=35)
        cfg = McmcConfig(n_iter=150, burn_in=50, seed=7)
        chain = run_chain(series, SPATIAL_SPEC, cfg)
        with monkeypatch.context() as m:
            m.setattr(stvar.mcmc, "_Field", BasisOracleField)
            oracle = run_chain(series, SPATIAL_SPEC, cfg)
        # the Metropolis steps must both accept and reject for this to bite
        assert all(0.0 < r < 1.0 for r in chain.acceptance.values())
        assert chain.acceptance == oracle.acceptance
        np.testing.assert_array_equal(chain.theta, oracle.theta)
        for name in ("phi", "sigma", "q", "wstar"):
            assert max_block_diff(getattr(chain, name), getattr(oracle, name)) <= 1e-9, name

    @pytest.mark.parametrize("model", ["model1", "model9"])
    def test_scoring_is_bitwise_equal_to_three_passes(self, model):
        series = ladder_series(model, 800, seed=36)
        chain = run_chain(series, model, McmcConfig(n_iter=200, burn_in=60, seed=2),
                          tess=TESS4)
        score = score_model(chain, series, tess=TESS4, n_draws=120, seed=5)
        assert (score.rmspe, score.dic, score.p_d, score.coverage) == three_pass_score(
            chain, series, TESS4, 120, 5)
        np.testing.assert_array_equal(
            predict_series(chain, series, tess=TESS4, n_draws=120, seed=5).draws,
            three_pass_draws(chain, series, TESS4, 120, 5, include_noise=True),
        )
        np.testing.assert_array_equal(
            noise_free(chain, series, tess=TESS4, n_draws=120),
            three_pass_draws(chain, series, TESS4, 120, 5, include_noise=False),
        )
        d = dic(chain, series, tess=TESS4, n_draws=120)
        assert (d.dic, d.p_d, d.d_bar, d.d_hat) == three_pass_dic(chain, series, TESS4, 120)

    def test_spatial_scoring_never_forms_the_basis(self, monkeypatch):
        series = ladder_series("model11", 300, seed=37)
        with monkeypatch.context() as m:
            def refuse(*args, **kwargs):
                raise AssertionError("the n x m basis was formed")

            m.setattr(stvar.models, "pp_basis", refuse)
            chain = run_chain(series, SPATIAL_SPEC, McmcConfig(n_iter=200, burn_in=50, seed=3))
            score = score_model(chain, series, n_draws=100)
            pred = predict_series(chain, series, n_draws=10)
        assert np.isfinite([score.rmspe, score.dic, score.p_d, score.coverage]).all()
        assert np.isfinite(pred.draws).all()

        design = chain_design(chain, series)
        pp = PredictiveProcess(chain.knots, design.source_points)
        idx = chain.draw_indices(100)
        means = mean_paths(chain, design, idx)
        for b, i in enumerate(idx):
            eta = draw_eta(chain, design.source_points, i)
            assert max_block_diff(pp.eta(chain.theta[i], chain.q[i], chain.wstar[i]), eta) <= 1e-12
            want = design.offset + design.xphi(chain.phi[i]) + eta
            assert max_block_diff(means[b], want) <= 1e-12

    def test_cached_fields_follow_the_state(self):
        series = ladder_series("model11", 300, seed=39)
        sampler, design = make_sampler(series, SPATIAL_SPEC, McmcConfig(n_iter=10, burn_in=1, seed=8))
        field = sampler.field
        start = field.theta.copy()
        steps = [sampler.update_phi, sampler.update_sigma,
                 lambda: field.update_theta(0, *sampler._field_inputs(), adapting=True),
                 lambda: field.update_theta(1, *sampler._field_inputs(), adapting=True),
                 lambda: field.update_wstar(*sampler._field_inputs()),
                 lambda: field.update_q(*sampler._field_inputs())]
        for _ in range(25):
            for step in steps:
                step()
                want = coregional_eta(design.source_points, field.pp.knots, field.theta,
                                      field.q, field.wstar)
                np.testing.assert_allclose(field.eta, want, rtol=0,
                                           atol=1e-12 * np.abs(want).max())
        assert (field.theta != start).all()

    def test_wstar_update_leaves_eta_to_update_q(self, monkeypatch):
        series = ladder_series("model11", 150, seed=39)
        sampler, _ = make_sampler(series, SPATIAL_SPEC, McmcConfig(n_iter=10, burn_in=1, seed=8))
        sampler.sweep(adapting=True)
        field, (R, omega) = sampler.field, sampler._field_inputs()
        calls = []
        real = stvar.mcmc.coregionalize
        monkeypatch.setattr(stvar.mcmc, "coregionalize",
                            lambda *args: calls.append(args) or real(*args))
        field.update_wstar(R, omega)
        field.update_q(R, omega)
        assert len(calls) == 1  # update_q's; update_wstar forms no eta
        assert field.eta.tobytes() == real(field.q, *field.w).tobytes()

    def test_tuning_is_deterministic(self):
        series = ladder_series("model11", 200, seed=38)
        cfg = McmcConfig(n_iter=120, burn_in=60, seed=4)
        a = run_chain(series, SPATIAL_SPEC, cfg).tuning
        b = run_chain(series, SPATIAL_SPEC, cfg).tuning
        assert a == b
        assert set(a) == {"theta_log_step", "max_jitter"}
        assert set(a["theta_log_step"]) == {"theta1", "theta2"}
        # 60 burn-in proposals include one adaptation window of 50
        assert a["theta_log_step"] != {"theta1": np.log(0.5), "theta2": np.log(0.5)}
        assert a["max_jitter"] >= 0.0
        assert run_chain(series, "model1", cfg).tuning == {}


@pytest.mark.filterwarnings("ignore::stvar.errors.NonConvergenceWarning")
def test_gram_blocks_cached_per_field():
    series = ladder_series("model11", 300, seed=40)
    sampler, _ = make_sampler(series, SPATIAL_SPEC, McmcConfig(n_iter=10, burn_in=1, seed=9))
    field = sampler.field
    start = field.theta.copy()
    for _ in range(25):
        sampler.sweep(adapting=True)
    assert (field.theta != start).all()
    cached = field._gram()
    field._own_grams, field._cross_gram = [None, None], None
    fresh = field._gram()
    for got, want in zip(cached, fresh):
        np.testing.assert_array_equal(got, want)
    # a theta_1 move rebuilds W_1'W_1, W_1'W_2 and C_1^{-1}; field 2's blocks survive
    field._set_field(0, field.L[0], field.K[0])
    g11, g22, g12, c1inv, c2inv = field._gram()
    assert g22 is fresh[1] and c2inv is fresh[4]
    assert g11 is not fresh[0] and g12 is not fresh[2] and c1inv is not fresh[3]
    field._set_field(1, field.L[1], field.K[1])
    after = field._gram()
    assert after[0] is g11 and after[3] is c1inv and after[1] is not g22


def test_cell_model_fitted_from_node_assignments_can_be_scored():
    tess = default_tessellation()
    series = simulate_var(ladder_truth("model2", tess=tess), n_days=400, tess=tess, seed=34)
    assert series.node_assignment is not None
    chain = run_chain(series, "model2", McmcConfig(n_iter=150, burn_in=30, seed=0))
    assert chain.tess_sites is None
    score = score_model(chain, series, n_draws=100)
    assert np.isfinite([score.rmspe, score.dic, score.p_d, score.coverage]).all()
    # the node assignments route days as the tessellation they came from does
    np.testing.assert_array_equal(
        predict_series(chain, series, n_draws=5).draws,
        predict_series(chain, series, tess=tess, n_draws=5).draws,
    )
