"""Tests for scoring, DIC, and transition/occupancy summaries."""

import datetime as dt

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

import stvar.evaluate
from stvar.data_model import GridSpec, Standardization
from stvar.errors import (
    DataError,
    DegenerateDraws,
    EmptySeries,
    GridMismatch,
    LengthMismatch,
    NumericalError,
    UnlabeledDate,
)
from stvar.evaluate import (
    DicResult,
    LagScanResult,
    ModelScore,
    TransitionMatrix,
    coverage,
    dic,
    draw_quantiles,
    empirical_transitions,
    model_transitions,
    node_field_maps,
    node_frequencies,
    node_table,
    repair_pd,
    rmspe,
    score_model,
    score_to_dict,
    transition_distances,
    var_lag_aic,
)
from stvar.mcmc import Chain, McmcConfig, SeriesPrediction, predict_series, run_chain
from stvar.models import ModelSpec
from stvar.projection import PlanarSeries, Tessellation
from stvar.som import SomConfig, SomModel
from stvar.synthetic import default_tessellation


def fixed_chain(spec, a_keys, eta_keys, phi, sigma, n_draws=3, tess_sites=None):
    """A chain whose draws are all identical; handy for exact predictions."""
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


def ar1_series(n=260, seed=0, a=(0.6, 0.4)):
    rng = np.random.default_rng(seed)
    pts = np.zeros((n, 2))
    A = np.diag(a)
    for t in range(1, n):
        pts[t] = A @ pts[t - 1] + rng.standard_normal(2)
    return PlanarSeries(points=pts)


@pytest.fixture(scope="module")
def small_fit():
    """One short healthy chain on AR(1) data, reused across scoring tests."""
    series = ar1_series(n=300, seed=7)
    config = McmcConfig(n_iter=700, burn_in=200, seed=3)
    with np.errstate(all="ignore"):
        chain = run_chain(series, ModelSpec("constant"), config)
    return chain, series


class TestRmspe:
    def test_hand_value(self):
        pred = np.array([[0.0, 0.0], [1.0, 1.0]])
        actual = np.array([[0.0, 1.0], [1.0, 3.0]])
        # per-day squared errors 1 and 4, so the answer is sqrt(2.5)
        assert rmspe(pred, actual) == pytest.approx(np.sqrt(2.5), rel=1e-15)

    def test_zero_when_exact(self):
        x = np.arange(10, dtype=float).reshape(5, 2)
        assert rmspe(x, x.copy()) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmspe(np.zeros((4, 2)), np.zeros((5, 2)))


QUANTILE_LEVELS = [0.0, 1.0, 0.025, 0.975, 0.95]


@st.composite
def draw_stacks(draw):
    """A (B, n) or (B, n, 2) draw stack, B in 1..300, and the quantile
    levels to take of it; rounded stacks hold ties."""
    B = draw(st.integers(1, 300))
    shape = (B, draw(st.integers(1, 4))) + draw(st.sampled_from([(), (2,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(shape) * 3.0
    if draw(st.booleans()):
        values = np.round(values) + 0.0  # ties, with no -0.0 to reorder
    qs = QUANTILE_LEVELS + draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    return values, qs


class TestDrawQuantiles:
    @given(draw_stacks())
    def test_equals_numpy_quantile(self, case):
        values, qs = case
        before = values.copy()
        got = draw_quantiles(values, qs)
        want = np.quantile(values, qs, axis=0)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        for q in qs:
            assert np.array_equal(draw_quantiles(values, q), np.quantile(values, q, axis=0))
        np.testing.assert_array_equal(values, before)


def gaussian_pred(n_days, n_draws, seed, rho=0.0, actual=None):
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    draws = rng.standard_normal((n_draws, n_days, 2)) @ L.T
    if actual is None:
        actual = rng.standard_normal((n_days, 2)) @ L.T
    return SeriesPrediction(draws=draws, actual=np.asarray(actual, float), dates=None)


class TestCoverage:
    def test_calibrated_ellipse(self):
        pred = gaussian_pred(n_days=800, n_draws=2000, seed=1)
        got = coverage(pred, level=0.95, method="ellipse")
        assert abs(got - 0.95) < 0.025

    def test_calibrated_rect(self):
        # The box applies the level marginally, so with independent
        # coordinates the joint hit rate is level squared.
        pred = gaussian_pred(n_days=800, n_draws=2000, seed=2)
        got = coverage(pred, level=0.95, method="rect")
        assert abs(got - 0.95**2) < 0.025
        # the same figure as one np.quantile pass per tail
        lo = np.quantile(pred.draws, (1.0 - 0.95) / 2.0, axis=0)
        hi = np.quantile(pred.draws, 1.0 - (1.0 - 0.95) / 2.0, axis=0)
        inside = np.all((pred.actual >= lo) & (pred.actual <= hi), axis=-1)
        assert got == float(inside.mean())

    def test_half_level(self):
        pred = gaussian_pred(n_days=800, n_draws=2000, seed=3)
        got = coverage(pred, level=0.50, method="ellipse")
        assert abs(got - 0.50) < 0.045

    def test_ellipse_uses_correlation(self):
        # Draws lie along the diagonal; (1.5, -1.5) sits across it, far in
        # Mahalanobis terms but inside both marginal intervals.
        pred = gaussian_pred(
            n_days=1, n_draws=4000, seed=4, rho=0.9, actual=[[1.5, -1.5]]
        )
        assert coverage(pred, level=0.95, method="ellipse") == 0.0
        assert coverage(pred, level=0.95, method="rect") == 1.0

    def test_far_point_misses(self):
        pred = gaussian_pred(n_days=1, n_draws=500, seed=5, actual=[[50.0, 50.0]])
        assert coverage(pred, method="ellipse") == 0.0
        assert coverage(pred, method="rect") == 0.0

    def test_center_point_covered(self):
        pred = gaussian_pred(n_days=1, n_draws=500, seed=6, actual=[[0.0, 0.0]])
        assert coverage(pred, method="ellipse") == 1.0

    def test_too_few_draws(self):
        pred = gaussian_pred(n_days=5, n_draws=99, seed=7)
        with pytest.raises(DegenerateDraws):
            coverage(pred)

    def test_degenerate_cloud(self):
        draws = np.ones((200, 3, 2))
        pred = SeriesPrediction(draws=draws, actual=np.zeros((3, 2)), dates=None)
        with pytest.raises(DegenerateDraws):
            coverage(pred, method="ellipse")

    def test_bad_level(self):
        pred = gaussian_pred(n_days=5, n_draws=200, seed=8)
        for level in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DataError):
                coverage(pred, level=level)

    def test_bad_method(self):
        pred = gaussian_pred(n_days=5, n_draws=200, seed=9)
        with pytest.raises(DataError):
            coverage(pred, method="ball")


class TestRepairPd:
    def test_pd_input_unchanged(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(repair_pd(sigma), sigma, atol=1e-12)

    def test_singular_input_repaired(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        fixed = repair_pd(sigma)
        np.testing.assert_allclose(fixed, fixed.T, atol=0)
        assert np.linalg.eigvalsh(fixed).min() > 0.0

    def test_asymmetric_input_symmetrized(self):
        sigma = np.array([[2.0, 0.4], [0.2, 1.0]])
        fixed = repair_pd(sigma)
        np.testing.assert_allclose(fixed, fixed.T, atol=0)
        np.testing.assert_allclose(fixed, [[2.0, 0.3], [0.3, 1.0]], atol=1e-12)


class TestDic:
    def test_identical_draws_have_zero_penalty(self):
        A = np.array([[0.5, 0.1], [-0.1, 0.4]])
        sigma = np.array([[1.0, 0.2], [0.2, 0.8]])
        chain = fixed_chain(ModelSpec("constant"), [()], [], A.T, sigma, n_draws=6)
        series = ar1_series(n=50, seed=11)
        res = dic(chain, series)
        assert res.p_d == pytest.approx(0.0, abs=1e-8)
        assert res.dic == pytest.approx(res.d_bar, abs=1e-8)
        assert res.n_draws_used == 6

    def test_matches_independent_deviance(self):
        # Recompute both deviance averages from scratch for a constant
        # model, where the regression mean is just S @ phi.
        A = np.array([[0.6, 0.0], [0.2, 0.5]])
        sigma = np.array([[1.1, 0.3], [0.3, 0.7]])
        chain = fixed_chain(ModelSpec("constant"), [()], [], A.T, sigma, n_draws=4)
        series = ar1_series(n=40, seed=12)
        res = dic(chain, series)
        resid = series.points[1:] - series.points[:-1] @ A.T
        want = -2.0 * scipy.stats.multivariate_normal.logpdf(resid, cov=sigma).sum()
        assert res.d_bar == pytest.approx(want, rel=1e-12)
        assert res.d_hat == pytest.approx(want, rel=1e-10)

    def test_sampled_chain_cross_check(self, small_fit):
        chain, series = small_fit
        res = dic(chain, series, n_draws=25)
        idx = chain.draw_indices(25)
        devs = []
        for i in idx:
            resid = series.points[1:] - series.points[:-1] @ chain.phi[i]
            devs.append(
                -2.0
                * scipy.stats.multivariate_normal.logpdf(
                    resid, cov=chain.sigma[i]
                ).sum()
            )
        assert res.d_bar == pytest.approx(np.mean(devs), rel=1e-12)
        assert res.n_draws_used == len(idx)
        assert np.isfinite(res.dic)

    def test_penalty_positive_for_sampled_chain(self, small_fit):
        chain, series = small_fit
        res = dic(chain, series)
        assert res.p_d > 0.0
        assert res.dic == pytest.approx(res.d_bar + res.p_d, rel=1e-15)

    def test_singular_draw_raises(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        chain = fixed_chain(ModelSpec("constant"), [()], [], np.eye(2), sigma)
        with pytest.raises(DegenerateDraws):
            dic(chain, ar1_series(n=20, seed=13))


class TestScoreModel:
    def test_fields_and_dict(self, small_fit):
        chain, series = small_fit
        score = score_model(chain, series, n_draws=200, seed=1)
        assert score.model == "model1"
        assert score.n_obs == series.n_days - 1
        assert score.level == 0.95
        assert 0.0 <= score.coverage <= 1.0
        assert score.rmspe > 0.0 and np.isfinite(score.dic)
        d = score_to_dict(score)
        assert set(d) == {"model", "rmspe", "dic", "p_d", "coverage"}
        assert d["model"] == "model1"
        assert d["rmspe"] == score.rmspe

    def test_design_built_once(self, small_fit, monkeypatch):
        chain, series = small_fit
        calls = []
        real = stvar.evaluate.chain_design
        monkeypatch.setattr(stvar.evaluate, "chain_design",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        score = score_model(chain, series, n_draws=150, seed=9)
        assert len(calls) == 1
        monkeypatch.undo()
        assert score == score_model(chain, series, n_draws=150, seed=9)
        d = dic(chain, series, n_draws=150)
        assert (score.dic, score.p_d) == (d.dic, d.p_d)

    def test_kept_prediction_is_predict_series(self, small_fit):
        chain, series = small_fit
        assert score_model(chain, series, n_draws=150, seed=9).prediction is None
        kept = score_model(chain, series, n_draws=150, seed=9, keep_prediction=True).prediction
        pred = predict_series(chain, series, n_draws=150, seed=9)
        np.testing.assert_array_equal(kept.draws, pred.draws)
        np.testing.assert_array_equal(kept.actual, pred.actual)
        assert kept.dates == pred.dates

    def test_deterministic_given_seed(self, small_fit):
        chain, series = small_fit
        a = score_model(chain, series, n_draws=150, seed=9)
        b = score_model(chain, series, n_draws=150, seed=9)
        assert a == b

    def test_too_few_draws_checked_before_any_work(self, small_fit, monkeypatch):
        chain, series = small_fit

        def refuse(*args, **kwargs):
            raise AssertionError("mean paths computed before the draw count was checked")

        monkeypatch.setattr(stvar.evaluate, "mean_paths", refuse)
        with pytest.raises(DataError, match="need at least 100 draws, got 5") as caught:
            score_model(chain, series, n_draws=5)
        assert not isinstance(caught.value, NumericalError)

    def test_unnamed_spec_label(self):
        # A structure pair with no short alias falls back to "a/eta".
        spec = ModelSpec("tessellation", "quarter")
        assert spec.name is None or "/" not in spec.name
        label = spec.name or f"{spec.a_structure}/{spec.eta_structure}"
        assert label == (spec.name or "tessellation/quarter")


class TestEmpiricalTransitions:
    def test_hand_counts(self):
        tm = empirical_transitions([0, 1, 1, 0, 2], n_cells=3)
        np.testing.assert_array_equal(
            tm.counts, [[0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        )
        np.testing.assert_array_equal(tm.defined, [True, True, False])
        np.testing.assert_allclose(tm.probs[0], [0.0, 0.5, 0.5], atol=0)
        np.testing.assert_allclose(tm.probs[1], [0.5, 0.5, 0.0], atol=0)
        assert np.isnan(tm.probs[2]).all()

    def test_ten_step_hand_series(self):
        walk = [0, 1, 2, 1, 0, 0, 2, 2, 1, 0]
        tm = empirical_transitions(walk, n_cells=3)
        np.testing.assert_array_equal(
            tm.counts, [[1.0, 1.0, 1.0], [2.0, 0.0, 1.0], [0.0, 2.0, 1.0]]
        )
        want = np.array(
            [[1 / 3, 1 / 3, 1 / 3], [2 / 3, 0.0, 1 / 3], [0.0, 2 / 3, 1 / 3]]
        )
        np.testing.assert_allclose(tm.probs, want, rtol=1e-15)
        assert tm.counts.sum() == len(walk) - 1

    def test_defined_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 12, size=500)
        tm = empirical_transitions(a, n_cells=12)
        np.testing.assert_allclose(tm.row_sums()[tm.defined], 1.0, atol=1e-12)
        assert tm.counts.sum() == 499

    def test_select_mask(self):
        tm = empirical_transitions(
            [0, 1, 2, 0], n_cells=3, select=[True, False, True]
        )
        np.testing.assert_array_equal(
            tm.counts, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )
        np.testing.assert_array_equal(tm.defined, [True, False, True])

    def test_errors(self):
        with pytest.raises(EmptySeries):
            empirical_transitions([0], n_cells=3)
        with pytest.raises(DataError):
            empirical_transitions([0.0, 1.0], n_cells=3)
        with pytest.raises(DataError):
            empirical_transitions([0, 5], n_cells=3)
        with pytest.raises(LengthMismatch):
            empirical_transitions([0, 1, 2], n_cells=3, select=[True])


class TestModelTransitions:
    def identity_chain(self, sites, sigma_scale=1e-30):
        return fixed_chain(
            ModelSpec("constant"),
            [()],
            [],
            np.eye(2),
            sigma_scale * np.eye(2),
            tess_sites=sites,
        )

    def test_identity_dynamics_give_identity_matrix(self):
        tess = default_tessellation()
        pts = np.vstack([tess.sites, tess.sites[:1]])
        series = PlanarSeries(points=pts)
        chain = self.identity_chain(tess.sites)
        tm = model_transitions(chain, series, n_draws=None, seed=0)
        assert tm.defined.all()
        np.testing.assert_array_equal(tm.probs, np.eye(12))
        np.testing.assert_allclose(tm.row_sums(), 1.0, atol=0)

    def test_rows_pool_source_days_by_cell(self):
        sites = np.array([[0.0, 0.0], [10.0, 0.0]])
        # Two source days in cell 0 with different successors; the noisy
        # draws all stay near the deterministic landing point.
        chain = fixed_chain(
            ModelSpec("constant"),
            [()],
            [],
            np.zeros((2, 2)),
            1e-30 * np.eye(2),
            tess_sites=sites,
        )
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [9.5, 0.0]])
        tm = model_transitions(chain, PlanarSeries(points=pts), seed=0)
        # A = 0 sends every day to the origin, cell 0.
        np.testing.assert_array_equal(tm.probs[0], [1.0, 0.0])
        assert not tm.defined[1]

    def test_dispersed_rows_sum_to_one(self):
        tess = default_tessellation()
        chain = fixed_chain(
            ModelSpec("constant"),
            [()],
            [],
            np.zeros((2, 2)),
            np.eye(2),
            n_draws=5,
            tess_sites=tess.sites,
        )
        series = PlanarSeries(points=np.vstack([tess.sites, tess.sites[:1]]))
        tm = model_transitions(chain, series, n_draws=None, seed=2)
        np.testing.assert_allclose(tm.row_sums()[tm.defined], 1.0, atol=1e-12)
        assert tm.counts.sum() == 5 * 12
        again = model_transitions(chain, series, n_draws=None, seed=2)
        np.testing.assert_array_equal(tm.counts, again.counts)

    def test_select_mask(self):
        tess = default_tessellation()
        series = PlanarSeries(points=np.vstack([tess.sites, tess.sites[:1]]))
        chain = self.identity_chain(tess.sites)
        select = np.ones(12, dtype=bool)
        select[0] = False
        tm = model_transitions(chain, series, n_draws=None, select=select)
        assert not tm.defined[0]
        assert tm.defined[1:].all()
        with pytest.raises(LengthMismatch):
            model_transitions(chain, series, select=select[:-1])

    def test_select_mask_checked_before_predicting(self, monkeypatch):
        tess = default_tessellation()
        series = PlanarSeries(points=np.vstack([tess.sites, tess.sites[:1]]))
        chain = self.identity_chain(tess.sites)

        def refuse(*args, **kwargs):
            raise AssertionError("predicted before checking the mask")

        monkeypatch.setattr("stvar.evaluate.predict_series", refuse)
        with pytest.raises(LengthMismatch):
            model_transitions(chain, series, select=np.ones(11, dtype=bool))

    def test_counts_match_per_day_tally(self):
        tess = default_tessellation()
        chain = fixed_chain(ModelSpec("constant"), [()], [], 0.6 * np.eye(2),
                            0.3 * np.eye(2), n_draws=7, tess_sites=tess.sites)
        rng = np.random.default_rng(3)
        pts = tess.sites[rng.integers(12, size=80)] + 0.3 * rng.standard_normal((80, 2))
        series = PlanarSeries(points=pts)
        select = rng.uniform(size=79) < 0.7
        tm = model_transitions(chain, series, n_draws=None, seed=4, select=select)
        draws = predict_series(chain, series, tess=tess, n_draws=None, seed=4).draws
        landed = tess.assign(draws.reshape(-1, 2)).reshape(draws.shape[:2])
        src = tess.assign(pts[:-1])
        want = np.zeros((12, 12))
        for i in np.flatnonzero(select):
            want[src[i]] += np.bincount(landed[:, i], minlength=12)
        np.testing.assert_array_equal(tm.counts, want)
        assert tm.counts.sum() == 7 * select.sum()

    def test_needs_tessellation(self):
        chain = fixed_chain(ModelSpec("constant"), [()], [], np.eye(2), np.eye(2))
        with pytest.raises(DataError):
            model_transitions(chain, ar1_series(n=10))


class TestTransitionDistances:
    def test_hand_values(self):
        series = PlanarSeries(points=np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(transition_distances(series), [5.0, 0.0])

    def test_single_day(self):
        with pytest.raises(EmptySeries):
            transition_distances(PlanarSeries(points=np.zeros((1, 2))))


class TestNodeFrequencies:
    def test_plain_counts(self):
        got = node_frequencies([0, 2, 2, 5], n_cells=6)
        np.testing.assert_array_equal(got, [1.0, 0.0, 2.0, 0.0, 0.0, 1.0])

    def test_by_season(self):
        dates = [
            dt.date(2001, 1, 5),
            dt.date(2001, 4, 10),
            dt.date(2001, 7, 1),
            dt.date(2001, 10, 3),
            dt.date(2002, 1, 6),
        ]
        got = node_frequencies([0, 1, 2, 0, 0], n_cells=3, dates=dates, by="season")
        assert list(got) == ["DJF", "MAM", "JJA", "SON"]
        np.testing.assert_array_equal(got["DJF"], [2.0, 0.0, 0.0])
        np.testing.assert_array_equal(got["MAM"], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(got["JJA"], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(got["SON"], [1.0, 0.0, 0.0])

    def test_by_year_accepts_strings(self):
        got = node_frequencies(
            [0, 1, 1], n_cells=2, dates=["1999-06-01", "1999-07-01", "2000-02-01"],
            by="year",
        )
        assert list(got) == ["1999", "2000"]
        np.testing.assert_array_equal(got["1999"], [1.0, 1.0])
        np.testing.assert_array_equal(got["2000"], [0.0, 1.0])

    def test_december_rolls_into_next_winter(self):
        dates = [dt.date(2000, 11, 30), dt.date(2000, 12, 15), dt.date(2001, 1, 2)]
        got = node_frequencies([0, 1, 1], n_cells=2, dates=dates, by="season_year")
        assert list(got) == ["2000/SON", "2001/DJF"]
        np.testing.assert_array_equal(got["2000/SON"], [1.0, 0.0])
        np.testing.assert_array_equal(got["2001/DJF"], [0.0, 2.0])

    def test_errors(self):
        with pytest.raises(EmptySeries):
            node_frequencies([], n_cells=3)
        with pytest.raises(DataError):
            node_frequencies([0, 7], n_cells=3)
        with pytest.raises(UnlabeledDate):
            node_frequencies([0, 1], n_cells=2, by="season")
        with pytest.raises(LengthMismatch):
            node_frequencies([0, 1], n_cells=2, dates=["2001-01-01"], by="season")
        with pytest.raises(DataError):
            node_frequencies(
                [0, 1], n_cells=2, dates=["2001-01-01", "2001-01-02"], by="month"
            )

    def test_non_integer_assignment_is_data_error(self):
        with pytest.raises(DataError, match="assignments must be integers"):
            node_frequencies(np.array([0.5, 1.2]), 3)


class TestNodeTable:
    def test_counting_layout(self):
        table = node_table(np.arange(12))
        np.testing.assert_array_equal(
            table, [[9, 10, 11], [6, 7, 8], [3, 4, 5], [0, 1, 2]]
        )

    def test_occupancy_table_layout(self):
        # Winter-day counts for a 12-node map over 31 seasons (11315 days),
        # listed node 0 first; the table shows the top lattice row first.
        counts = np.array(
            [1043, 776, 1070, 935, 869, 857, 989, 920, 910, 1070, 859, 1017]
        )
        assert counts.sum() == 11315
        want = np.array(
            [
                [1070, 859, 1017],
                [989, 920, 910],
                [935, 869, 857],
                [1043, 776, 1070],
            ]
        )
        np.testing.assert_array_equal(node_table(counts), want)

    def test_step_distribution_table_layout(self):
        # One source node's transition probabilities (rounded to three
        # decimals), again listed node 0 first.
        row = np.array(
            [0.043, 0.024, 0.019, 0.091, 0.035, 0.018,
             0.144, 0.064, 0.032, 0.244, 0.180, 0.107]
        )
        table = node_table(row)
        want = np.array(
            [
                [0.244, 0.180, 0.107],
                [0.144, 0.064, 0.032],
                [0.091, 0.035, 0.018],
                [0.043, 0.024, 0.019],
            ]
        )
        np.testing.assert_allclose(table, want, atol=0)
        np.testing.assert_allclose(
            table.sum(axis=1), [0.531, 0.240, 0.144, 0.086], atol=1e-12
        )
        assert row.sum() == pytest.approx(1.001, abs=1e-12)

    def test_non_rectangular_count(self):
        with pytest.raises(DataError):
            node_table(np.arange(7))

    def test_explicit_node_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            node_table(np.arange(11), n_nodes=12)


class TestNodeFieldMaps:
    def make_som(self, M=2, grid=None):
        grid = grid or GridSpec(n_rows=2, n_cols=3, variables=("u", "v"))
        rng = np.random.default_rng(21)
        nodes = rng.standard_normal((M, grid.d))
        som = SomModel(
            nodes=nodes,
            planar=np.arange(2 * M, dtype=float).reshape(M, 2),
            config=SomConfig(n_nodes=M),
        )
        return som, grid

    def test_standardized_is_reshaped_codebook(self):
        som, grid = self.make_som()
        fields = node_field_maps(som, grid, kind="standardized")
        assert fields.shape == (2, 2, 2, 3)
        np.testing.assert_array_equal(fields.reshape(2, -1), som.nodes)

    def test_raw_and_anomaly_pooled(self):
        som, grid = self.make_som()
        std = Standardization(mean=np.array([10.0, -5.0]), sd=np.array([2.0, 4.0]))
        raw = node_field_maps(som, grid, std, kind="raw")
        anom = node_field_maps(som, grid, std, kind="anomaly")
        w = som.nodes.reshape(2, 2, 2, 3)
        np.testing.assert_allclose(raw[:, 0], 10.0 + 2.0 * w[:, 0], atol=1e-12)
        np.testing.assert_allclose(raw[:, 1], -5.0 + 4.0 * w[:, 1], atol=1e-12)
        np.testing.assert_allclose(anom, raw - np.array([10.0, -5.0])[:, None, None],
                                   atol=1e-12)

    def test_raw_per_cell(self):
        som, grid = self.make_som()
        rng = np.random.default_rng(3)
        mean = rng.standard_normal((2, 6))
        sd = rng.uniform(0.5, 2.0, size=(2, 6))
        std = Standardization(mean=mean, sd=sd, per_cell=True)
        raw = node_field_maps(som, grid, std, kind="raw")
        want = mean + sd * som.nodes.reshape(2, 2, 6)
        np.testing.assert_allclose(raw, want.reshape(2, 2, 2, 3), atol=1e-12)

    def test_grid_mismatch(self):
        som, _ = self.make_som()
        wrong = GridSpec(n_rows=2, n_cols=2, variables=("u", "v"))
        with pytest.raises(GridMismatch):
            node_field_maps(som, wrong, kind="standardized")

    def test_raw_needs_standardization(self):
        som, grid = self.make_som()
        with pytest.raises(DataError):
            node_field_maps(som, grid, kind="raw")

    def test_unknown_kind(self):
        som, grid = self.make_som()
        with pytest.raises(DataError):
            node_field_maps(som, grid, kind="weird")


class TestVarLagAic:
    def test_matches_independent_fit(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 2))
        series = PlanarSeries(points=pts)
        got = var_lag_aic(series, max_lag=3)
        T = 40
        for L in (1, 2, 3):
            rows = [np.concatenate([pts[t - k] for k in range(1, L + 1)])
                    for t in range(L, T)]
            X = np.array(rows)
            Y = pts[L:]
            coef = np.linalg.pinv(X) @ Y
            resid = Y - X @ coef
            sigma = resid.T @ resid / (T - L)
            want = np.log(np.linalg.det(sigma)) + 2.0 * 4.0 * L / (T - L)
            assert got.aic[L - 1] == pytest.approx(want, rel=1e-8)

    def test_prefers_lag_one_on_ar1_data(self):
        series = ar1_series(n=1200, seed=17, a=(0.7, 0.6))
        got = var_lag_aic(series, max_lag=4)
        assert got.best_lag == 1
        assert got.aic.shape == (4,)
        assert got.aic[0] == got.aic.min()

    def test_prefers_lag_two_on_ar2_data(self):
        rng = np.random.default_rng(23)
        A1 = np.diag([0.5, 0.4])
        A2 = np.diag([0.3, 0.25])
        pts = np.zeros((1500, 2))
        for t in range(2, 1500):
            pts[t] = A1 @ pts[t - 1] + A2 @ pts[t - 2] + rng.standard_normal(2)
        got = var_lag_aic(PlanarSeries(points=pts), max_lag=4)
        assert got.best_lag == 2
        assert got.aic[1] < got.aic[0]

    def test_too_short(self):
        series = PlanarSeries(points=np.zeros((9, 2)))
        with pytest.raises(EmptySeries):
            var_lag_aic(series, max_lag=3)

    def test_bad_max_lag(self):
        with pytest.raises(DataError):
            var_lag_aic(ar1_series(n=50), max_lag=0)
