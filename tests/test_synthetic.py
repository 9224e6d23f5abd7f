"""Tests for synthetic trajectory generation."""

import datetime as dt

import numpy as np
import pytest

from stvar import _lapack
from stvar.errors import (
    DataError,
    EmptySeries,
    NonPositiveDecay,
    UnlabeledDate,
)
from stvar.models import (
    MODEL_ALIASES,
    DesignInfo,
    ModelSpec,
    block_indices,
    build_design,
    exp_corr,
)
from stvar.projection import Tessellation
from stvar.som import lattice_coords
from stvar.synthetic import (
    DEFAULT_SIGMA,
    TruthBundle,
    default_tessellation,
    ladder_truth,
    simulate_uniform_cloud,
    simulate_var,
)


def constant_truth(phi, sigma, eta_structure="none", **kw):
    spec = ModelSpec(a_structure="constant", eta_structure=eta_structure)
    info = DesignInfo.from_declared(spec)
    return TruthBundle(info=info, phi=np.asarray(phi, float), sigma=np.asarray(sigma, float), **kw)


class TestTruthBundle:
    def test_phi_shape_checked(self):
        spec = ModelSpec(a_structure="constant")
        info = DesignInfo.from_declared(spec)
        with pytest.raises(DataError, match=r"phi must have shape \(2, 2\)"):
            TruthBundle(info=info, phi=np.zeros((3, 2)), sigma=np.eye(2))

    def test_sigma_must_be_pd(self):
        with pytest.raises(DataError, match="positive definite"):
            constant_truth(0.5 * np.eye(2), np.diag([1.0, -1.0]))

    def test_sigma_must_be_symmetric(self):
        with pytest.raises(DataError, match="symmetric"):
            constant_truth(0.5 * np.eye(2), [[1.0, 0.3], [0.2, 1.0]])
        # exactly: one unit in the last place is refused too
        with pytest.raises(DataError, match="symmetric"):
            constant_truth(0.5 * np.eye(2), [[1.0, 0.3], [np.nextafter(0.3, 1.0), 1.0]])

    def test_stationary_rejects_unit_root(self):
        with pytest.raises(DataError, match="spectral radius"):
            constant_truth(np.eye(2), np.eye(2))

    def test_explosive_truth_is_refused(self):
        # no truth may leave the unit circle: simulate_var never diverges
        with pytest.raises(DataError, match="spectral radius 1.200"):
            constant_truth(1.2 * np.eye(2), np.eye(2))

    def test_adjust_only_for_spatial(self):
        knots = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        adj = dict(knots=knots, theta=np.array([1.0, 1.0]), q=np.eye(2), wstar=np.zeros((2, 3)))
        constant_truth(0.5 * np.eye(2), np.eye(2), eta_structure="spatial", **adj)
        with pytest.raises(DataError, match="spatial"):
            constant_truth(0.5 * np.eye(2), np.eye(2), **adj)
        with pytest.raises(DataError, match="spatial"):
            constant_truth(0.5 * np.eye(2), np.eye(2), eta_structure="spatial")
        # the intercept's blocks come with its knots, or not at all
        with pytest.raises(DataError, match="do not match the layout"):
            constant_truth(0.5 * np.eye(2), np.eye(2), theta=adj["theta"])
        with pytest.raises(DataError, match="do not match the layout"):
            constant_truth(0.5 * np.eye(2), np.eye(2), eta_structure="spatial",
                           **{**adj, "wstar": None})

    def test_spatial_draw_rules(self):
        # the truth is one draw, checked by the rules a chain's draws meet
        adj = dict(knots=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   theta=np.array([1.0, 1.0]), q=np.eye(2), wstar=np.zeros((2, 3)))
        for name, value, error in [("theta", [1.0, 0.0], NonPositiveDecay),
                                   ("q", [[1.0, 0.5], [0.0, 1.0]], DataError),
                                   ("q", [[1.0, 0.0], [0.0, -1.0]], DataError),
                                   ("wstar", np.zeros((2, 4)), DataError)]:
            with pytest.raises(error):
                constant_truth(0.5 * np.eye(2), np.eye(2), eta_structure="spatial",
                               **{**adj, name: np.asarray(value)})

    def test_a_block_transposes_rows(self):
        A = np.array([[0.5, 0.2], [-0.1, 0.4]])
        truth = constant_truth(A.T, np.eye(2))
        np.testing.assert_allclose(truth.a_block(0), A)

    def test_rotation_block_radius(self):
        # damped rotations have both eigenvalues on the circle of radius rho
        truth = ladder_truth("model4")
        radii = truth.spectral_radii()
        np.testing.assert_allclose(radii, [0.55, 0.55 + 0.35 / 3, 0.55 + 0.7 / 3, 0.9])


class TestSimulateVar:
    def test_matches_hand_recursion_constant(self):
        A = np.array([[0.6, 0.1], [-0.2, 0.5]])
        eta = np.array([0.3, -0.2])
        sigma = np.array([[0.4, 0.1], [0.1, 0.3]])
        phi = np.vstack([A.T, eta[None, :]])
        truth = constant_truth(phi, sigma, eta_structure="constant")
        series = simulate_var(truth, n_days=6, s0=(1.0, -1.0), seed=11)

        rng = np.random.default_rng(11)
        noise = rng.standard_normal((5, 2)) @ np.linalg.cholesky(sigma).T
        pts = np.zeros((6, 2))
        pts[0] = [1.0, -1.0]
        for t in range(5):
            pts[t + 1] = A @ pts[t] + eta + noise[t]
        np.testing.assert_array_equal(series.points, pts)

    def test_matches_hand_recursion_tessellation(self):
        tess = Tessellation(sites=np.array([[-1.0, 0.0], [1.0, 0.0]]))
        spec = ModelSpec(a_structure="tessellation")
        info = DesignInfo.from_declared(spec, cells=(0, 1))
        A0 = np.array([[0.7, 0.0], [0.0, 0.7]])
        A1 = np.array([[0.3, 0.2], [-0.2, 0.3]])
        phi = np.vstack([A0.T, A1.T])
        sigma = 0.25 * np.eye(2)
        truth = TruthBundle(info=info, phi=phi, sigma=sigma)
        series = simulate_var(truth, n_days=8, s0=(2.0, 0.5), tess=tess, seed=3)

        rng = np.random.default_rng(3)
        noise = rng.standard_normal((7, 2)) @ np.linalg.cholesky(sigma).T
        pts = np.zeros((8, 2))
        pts[0] = [2.0, 0.5]
        for t in range(7):
            # the tessellation picks the closer site, ties to index 0
            d0 = np.sum((pts[t] - tess.sites[0]) ** 2)
            d1 = np.sum((pts[t] - tess.sites[1]) ** 2)
            A = A0 if d0 <= d1 else A1
            pts[t + 1] = A @ pts[t] + noise[t]
        np.testing.assert_array_equal(series.points, pts)
        np.testing.assert_array_equal(series.node_assignment, tess.assign(pts))

    def test_spatial_intercept_exact_at_knot(self):
        tess = default_tessellation()
        truth = ladder_truth("model11", tess=tess)
        s0 = truth.knots[5]
        series = simulate_var(truth, n_days=2, s0=s0, seed=9)

        rng = np.random.default_rng(9)
        noise = rng.standard_normal((1, 2)) @ np.linalg.cholesky(truth.sigma).T
        eta = truth.q @ truth.wstar[:, 5]
        want = truth.a_block(0) @ s0 + eta + noise[0]
        np.testing.assert_allclose(series.points[1], want, rtol=0, atol=1e-10)

    def test_random_walk_is_cumulative_noise(self):
        spec = ModelSpec(a_structure="random_walk")
        info = DesignInfo.from_declared(spec)
        truth = TruthBundle(info=info, phi=np.zeros((0, 2)), sigma=np.eye(2))
        series = simulate_var(truth, n_days=50, s0=(0.0, 0.0), seed=4)
        rng = np.random.default_rng(4)
        noise = rng.standard_normal((49, 2)) @ np.linalg.cholesky(np.eye(2)).T
        np.testing.assert_allclose(series.points[1:], np.cumsum(noise, axis=0), atol=1e-12)

    def test_december_rolls_into_next_year(self):
        tess = default_tessellation()
        truth = ladder_truth(
            "model7", start_date=dt.date(2001, 12, 20), n_days=40
        )
        series = simulate_var(
            truth, n_days=40, tess=tess, start_date=dt.date(2001, 12, 20), seed=0
        )
        assert len(series.dates) == 40
        # December 2001 shares a block with January 2002
        dates = (dt.date(2001, 12, 25), dt.date(2002, 1, 5))
        _, (i_dec, i_jan), _ = block_indices(truth.spec, 2, None, dates, truth.info)
        assert i_dec == i_jan
        assert truth.info.a_labels[i_dec] == "2002/DJF"

    def test_missing_tessellation_raises(self):
        tess = default_tessellation()
        truth = ladder_truth("model2", tess=tess)
        with pytest.raises(DataError, match="tessellation"):
            simulate_var(truth, n_days=10)

    def test_layout_missing_a_cell_is_refused_up_front(self):
        # the path stays in cell 0, far from site 1, yet a layout without a
        # block for cell 1 is refused before the recursion
        tess = Tessellation(sites=np.array([[0.0, 0.0], [100.0, 0.0]]))
        spec = ModelSpec(a_structure="tessellation")
        both = TruthBundle(info=DesignInfo.from_declared(spec, cells=(0, 1)),
                           phi=np.vstack([0.5 * np.eye(2)] * 2), sigma=np.eye(2))
        path = simulate_var(both, n_days=200, tess=tess, seed=5)
        assert not path.node_assignment.any()
        cell0 = TruthBundle(info=DesignInfo.from_declared(spec, cells=(0,)),
                            phi=0.5 * np.eye(2), sigma=np.eye(2))
        with pytest.raises(UnlabeledDate, match=r"\(1,\)"):
            simulate_var(cell0, n_days=200, tess=tess, seed=5)

    @pytest.mark.parametrize("model", ["model2", "model3", "model9", "model10"])
    def test_walk_cells_are_the_assignment(self, model):
        # a cell spec keeps the cells its walk found, one point at a time;
        # they are the cells of one assign over the finished path
        tess = default_tessellation(12)
        truth = ladder_truth(model, tess=tess, start_date="1990-01-01", n_days=800)
        for seed in (0, 1, 2):
            series = simulate_var(truth, 800, tess=tess, start_date="1990-01-01", seed=seed)
            assert series.node_assignment.tolist() == tess.assign(series.points).tolist()

    def test_cell_walk_takes_no_cdist(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cdist called")

        monkeypatch.setattr(_lapack, "cdist", refuse)
        tess = default_tessellation(4)
        truth = ladder_truth("model9", tess=tess, start_date="1990-01-01", n_days=400)
        simulate_var(truth, 400, tess=tess, start_date="1990-01-01", seed=3)
        with pytest.raises(AssertionError, match="cdist called"):  # the non-cell path
            simulate_var(ladder_truth("model1"), 400, tess=tess, seed=3)

    def test_truth_without_cells_is_refused(self):
        # a cell spec laid out without a tessellation has no transition block
        with pytest.raises(UnlabeledDate):
            simulate_var(ladder_truth("model2"), 10, tess=default_tessellation(3))

    def test_missing_dates_raise(self):
        truth = ladder_truth("model4", start_date="2000-01-01", n_days=10)
        with pytest.raises(UnlabeledDate):
            simulate_var(truth, n_days=10)

    def test_too_short(self):
        truth = constant_truth(0.5 * np.eye(2), np.eye(2))
        with pytest.raises(EmptySeries):
            simulate_var(truth, n_days=1)

    def test_seed_determinism(self):
        truth = constant_truth(0.5 * np.eye(2), np.eye(2))
        a = simulate_var(truth, n_days=20, seed=7)
        b = simulate_var(truth, n_days=20, seed=7)
        c = simulate_var(truth, n_days=20, seed=8)
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_dates_consecutive(self):
        truth = constant_truth(0.5 * np.eye(2), np.eye(2))
        series = simulate_var(truth, n_days=5, start_date="1997-12-30", seed=0)
        assert series.dates == tuple(
            dt.date(1997, 12, 30) + dt.timedelta(days=i) for i in range(5)
        )
        assert simulate_var(truth, n_days=5, seed=0).dates is None

    def test_assignment_none_without_tessellation(self):
        truth = constant_truth(0.5 * np.eye(2), np.eye(2))
        assert simulate_var(truth, n_days=5, seed=0).node_assignment is None

    def test_seed_must_be_a_non_negative_integer(self):
        truth = ladder_truth("model1")
        for seed in (-1, 1.5, "3"):
            with pytest.raises(DataError, match="seed must be a non-negative integer"):
                simulate_var(truth, 10, seed=seed)
        assert simulate_var(truth, 10, seed=np.int64(3)).points.shape == (10, 2)

    def test_start_point_is_two_finite_reals(self):
        truth = ladder_truth("model1")
        for s0 in ((np.nan, 0.0), (0.0, -np.inf)):
            with pytest.raises(DataError, match=r"^s0 row \d \(row 0 is the first\) is not finite"):
                simulate_var(truth, 10, s0=s0)
        with pytest.raises(DataError, match="^s0 must be an array of real numbers"):
            simulate_var(truth, 10, s0=(1.0, True))
        for s0 in ((1.0,), 3.0, [[1.0, 2.0]]):
            with pytest.raises(DataError, match=r"^s0 must have shape \(2\)"):
                simulate_var(truth, 10, s0=s0)
        start = simulate_var(truth, 3, s0=np.array([1.0, 2.0])).points[0]
        assert start.tolist() == [1.0, 2.0]


class TestLadderTruth:
    def test_every_alias_simulates(self):
        tess = default_tessellation()
        for name in MODEL_ALIASES:
            truth = ladder_truth(name, tess=tess, start_date="2000-01-01", n_days=40)
            series = simulate_var(
                truth, n_days=40, tess=tess, start_date="2000-01-01", seed=1
            )
            assert series.points.shape == (40, 2)
            assert np.isfinite(series.points).all()

    def test_needs_span_for_dated_specs(self):
        with pytest.raises(DataError, match="start_date"):
            ladder_truth("model6")

    def test_span_past_the_last_date_raises(self):
        # days 0-11 end on 9999-12-31, the last date; day 12 would fall after it
        assert ladder_truth("model6", start_date="9999-12-20", n_days=12).info.n_eta == 1
        with pytest.raises(DataError, match=r"day 12 \(day 0 is the start date\)"):
            ladder_truth("model6", start_date=dt.date(9999, 12, 20), n_days=13)

    def test_malformed_start_date_is_data_error(self):
        with pytest.raises(DataError, match="bad start date '2001-13-01'"):
            ladder_truth("model6", start_date="2001-13-01", n_days=10)
        with pytest.raises(DataError, match="bad start date '2001-13-01'"):
            simulate_var(ladder_truth("model1"), 10, start_date="2001-13-01")

    def test_layout_matches_observed_fit(self):
        # a long stationary run visits every cell, so the observation-driven
        # layout agrees with the declared one
        tess = default_tessellation()
        truth = ladder_truth("model2", tess=tess)
        series = simulate_var(truth, n_days=3000, tess=tess, seed=0)
        design = build_design(series, truth.spec, tess=tess)
        assert design.info.a_keys == truth.info.a_keys
        assert design.info.eta_keys == truth.info.eta_keys

    def test_default_sigma_used(self):
        truth = ladder_truth("model1")
        np.testing.assert_array_equal(truth.sigma, DEFAULT_SIGMA)
        custom = ladder_truth("model1", sigma=np.diag([0.1, 0.2]))
        np.testing.assert_array_equal(custom.sigma, np.diag([0.1, 0.2]))

    def test_spatial_truth_pieces(self):
        tess = default_tessellation()
        truth = ladder_truth("model11", tess=tess)
        assert truth.knots.shape == (64, 2)
        assert truth.wstar.shape == (2, 64)
        np.testing.assert_array_equal(truth.theta, [0.5, 0.8])
        assert truth.q[0, 1] == 0.0
        for model in ("model1", "model3"):
            truth = ladder_truth(model)
            assert truth.knots is truth.theta is truth.q is truth.wstar is None

    def test_intercept_blocks_on_circle(self):
        truth = ladder_truth("model3")
        etas = truth.phi[2 * truth.info.n_a :]
        np.testing.assert_allclose(np.hypot(etas[:, 0], etas[:, 1]), 0.8, atol=1e-12)


class TestUniformCloud:
    def test_shape_bounds_and_grid(self):
        cloud = simulate_uniform_cloud(500, rect=(-2.0, 3.0, 1.0, 4.0), seed=0)
        assert cloud.matrix.shape == (500, 2)
        assert cloud.grid.d == 2
        assert cloud.matrix[:, 0].min() >= -2.0 and cloud.matrix[:, 0].max() <= 3.0
        assert cloud.matrix[:, 1].min() >= 1.0 and cloud.matrix[:, 1].max() <= 4.0

    def test_determinism(self):
        a = simulate_uniform_cloud(50, seed=5)
        b = simulate_uniform_cloud(50, seed=5)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_empty_and_bad_rect(self):
        with pytest.raises(EmptySeries):
            simulate_uniform_cloud(0)
        with pytest.raises(DataError, match="positive width"):
            simulate_uniform_cloud(10, rect=(0.0, 0.0, 0.0, 1.0))


class TestDefaultTessellation:
    def test_sites_are_lattice(self):
        tess = default_tessellation()
        np.testing.assert_array_equal(tess.sites, lattice_coords(12))
