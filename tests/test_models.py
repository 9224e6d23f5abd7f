"""Design layout, closed-form estimate, and kriging-piece oracles."""

import datetime as dt
import json

import numpy as np
import pytest

from stvar.errors import (
    DataError,
    EmptySeries,
    IllConditioned,
    NonPositiveDecay,
    RankWarning,
    SingularDesign,
    UnlabeledDate,
)
from stvar.models import (
    JITTER_LADDER,
    MODEL_ALIASES,
    KnotGrid,
    ModelSpec,
    PredictiveProcess,
    block_indices,
    build_design,
    chol_spd,
    domain_diameter,
    exp_corr,
    mle_var,
    pp_basis,
    resolve_spec,
    spec_from_dict,
    spec_to_dict,
    stack_design,
)
from stvar.projection import PlanarSeries, Tessellation
from stvar.synthetic import default_tessellation, ladder_truth, simulate_var

from oracles import coregional_eta


def daily(start, n):
    d0 = dt.date.fromisoformat(start)
    return tuple(d0 + dt.timedelta(days=i) for i in range(n))


class TestCalendar:
    """The meteorological date rule, stated by hand: DJF, MAM, JJA and SON
    by month, and December in the following year's winter where seasons and
    years cross."""

    def labels(self, structure, dates):
        info, a_idx, _ = block_indices(ModelSpec(structure), len(dates), None, dates)
        return [info.a_labels[i] for i in a_idx]

    def test_meteorological_seasons(self):
        dates = [dt.date(2000, 1, 15), dt.date(2000, 4, 1), dt.date(2000, 8, 31),
                 dt.date(2000, 11, 30), dt.date(2000, 12, 1)]
        assert self.labels("quarter", dates) == ["DJF", "MAM", "JJA", "SON", "DJF"]
        every_month = [dt.date(2001, m, 10) for m in range(1, 13)]
        assert self.labels("quarter", every_month) == (
            ["DJF"] * 2 + ["MAM"] * 3 + ["JJA"] * 3 + ["SON"] * 3 + ["DJF"])

    def test_december_rolls_into_next_winter(self):
        dates = [dt.date(1999, 12, 25), dt.date(2000, 1, 25)]
        assert self.labels("quarter_by_year", dates) == ["2000/DJF", "2000/DJF"]
        assert self.labels("year", dates) == ["1999", "2000"]


class TestModelSpec:
    def test_ladder_aliases(self):
        assert len(MODEL_ALIASES) == 12
        assert ModelSpec.from_name("model0").a_structure == "random_walk"
        assert ModelSpec.from_name("model2").a_structure == "tessellation"
        assert ModelSpec.from_name("model3").eta_structure == "quarter"
        assert ModelSpec.from_name("model7").a_structure == "quarter_by_year"
        assert ModelSpec.from_name("model11").eta_structure == "spatial"
        for alias in MODEL_ALIASES:
            assert ModelSpec.from_name(alias).name == alias

    def test_random_walk_rejects_intercepts(self):
        with pytest.raises(DataError):
            ModelSpec(a_structure="random_walk", eta_structure="constant")

    def test_unknown_structures_rejected(self):
        with pytest.raises(DataError):
            ModelSpec(a_structure="cubic")
        with pytest.raises(DataError):
            ModelSpec(a_structure="constant", eta_structure="wavelet")

    def test_json_round_trip(self):
        spec = ModelSpec(
            a_structure="tessellation",
            eta_structure="quarter",
            knot_grid=KnotGrid(n_x=4, n_y=5, padding=0.2),
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError, match="unknown"):
            spec_from_dict({"a_structure": "constant", "flux": 1})

    def test_resolve_spec(self, tmp_path):
        assert resolve_spec("model4").a_structure == "quarter"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"a_structure": "year"}))
        assert resolve_spec(str(path)).a_structure == "year"
        with pytest.raises(DataError):
            resolve_spec("model99")


class TestDesignInfo:
    def test_constant_block(self):
        info, a_idx, eta_idx = block_indices(ModelSpec(a_structure="constant"), 2, None, None)
        assert info.a_labels == ("all",)
        assert (info.n_eta, info.n_columns) == (0, 2)
        np.testing.assert_array_equal(a_idx, [0, 0])
        assert eta_idx is None

    def test_observed_cells_ascending(self):
        info, a_idx, _ = block_indices(
            ModelSpec(a_structure="tessellation"), 5, np.array([3, 1, 3, 1, 7]), None
        )
        assert info.a_labels == ("1", "3", "7")
        np.testing.assert_array_equal(a_idx, [1, 0, 1, 0, 2])

    def test_season_labels_canonical_order(self):
        dates = (dt.date(2000, 7, 1), dt.date(2000, 7, 2), dt.date(2001, 1, 5))
        info = block_indices(ModelSpec(a_structure="quarter"), 3, None, dates)[0]
        assert info.a_labels == ("DJF", "JJA")

    def test_quarter_by_year_rolls_december(self):
        spec = ModelSpec(a_structure="quarter_by_year")
        dates = (dt.date(1999, 12, 20), dt.date(2000, 1, 10))
        info = block_indices(spec, 2, None, dates)[0]
        # both days belong to winter 2000: a single block
        assert info.a_labels == ("2000/DJF",)

    def test_crossed_cell_year_layout(self):
        spec = ModelSpec(a_structure="tessellation_by_year")
        dates = (dt.date(1997, 5, 1), dt.date(1998, 5, 1), dt.date(1998, 5, 2))
        cells = np.array([1, 0, 1])
        info = block_indices(spec, 3, cells, dates)[0]
        assert info.a_labels == ("1997/1", "1998/0", "1998/1")
        assert info.n_columns == 6

    def test_unlabeled_lookup_raises(self):
        spec = ModelSpec(a_structure="year")
        info = block_indices(spec, 1, None, (dt.date(2000, 3, 1),))[0]
        with pytest.raises(UnlabeledDate):
            block_indices(spec, 1, None, (dt.date(2005, 3, 1),), info)

    def test_row_layout(self):
        spec = ModelSpec(a_structure="tessellation", eta_structure="constant")
        series = PlanarSeries(points=np.array([[5.0, 7.0], [2.0, -3.0], [0.0, 0.0]]),
                              node_assignment=np.array([0, 1, 0]))
        X = stack_design(series, spec).X
        np.testing.assert_array_equal(X[0], [5.0, 7.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(X[1], [0.0, 0.0, 2.0, -3.0, 1.0])


class TestBuildDesign:
    def test_hand_layout_with_cells(self):
        # 4 days, cells of the first three are 1, 0, 1; block order is (0, 1)
        pts = np.array([[2.0, 0.5], [-1.0, 0.25], [1.5, -0.5], [0.0, 1.0]])
        series = PlanarSeries(points=pts, node_assignment=np.array([1, 0, 1, 0]))
        with pytest.warns(RankWarning):
            # 3 rows cannot fill 4 columns; the layout is still exact
            design = build_design(series, ModelSpec(a_structure="tessellation"))
        np.testing.assert_array_equal(design.Y, pts[1:])
        want = np.array([
            [0.0, 0.0, 2.0, 0.5],
            [-1.0, 0.25, 0.0, 0.0],
            [0.0, 0.0, 1.5, -0.5],
        ])
        np.testing.assert_array_equal(design.X, want)
        assert design.info.a_labels == ("0", "1")

    def test_tessellation_argument_overrides_assignments(self):
        pts = np.array([[2.0, 1.0], [-2.0, 3.0], [2.0, -1.0], [-2.0, 1.0],
                        [2.0, 2.0], [0.5, 1.0]])
        series = PlanarSeries(points=pts, node_assignment=np.zeros(6, dtype=int))
        tess = Tessellation(sites=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        design = build_design(series, ModelSpec(a_structure="tessellation"), tess)
        # blocks "0" and "1" are cells 0 and 1
        np.testing.assert_array_equal(design.a_idx, [0, 1, 0, 1, 0])
        assert design.info.a_labels == ("0", "1")
        assert not design.rank_deficient

    def test_random_walk_design_is_an_offset(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
        series = PlanarSeries(points=pts)
        design = build_design(series, "model0")
        assert design.p == 0
        # A is I and fixed, so the mean X Phi is the source point itself
        np.testing.assert_array_equal(design.xphi(np.zeros((0, 2))), pts[:-1])
        np.testing.assert_array_equal(design.xphi(np.zeros((3, 0, 2))),
                                      np.broadcast_to(pts[:-1], (3, 2, 2)))

    def test_eta_columns(self):
        pts = np.array([[1.0, 2.0], [0.5, -1.0], [0.25, 0.5], [1.5, 0.75]])
        dates = daily("2000-06-01", 4)
        series = PlanarSeries(points=pts, dates=dates)
        design = build_design(series, ModelSpec(a_structure="constant", eta_structure="constant"))
        np.testing.assert_array_equal(design.X[:, 2], 1.0)
        info = design.info
        assert (info.a_labels, info.eta_labels, info.n_columns) == (("all",), ("all",), 3)

    def test_rank_deficiency_warned(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        series = PlanarSeries(points=pts)
        with pytest.warns(RankWarning):
            design = build_design(series, "model1")
        assert design.rank_deficient

    def test_too_short(self):
        with pytest.raises(EmptySeries):
            build_design(PlanarSeries(points=np.zeros((2, 2))), "model1")

    def test_dates_required_for_time_blocks(self):
        series = PlanarSeries(points=np.random.default_rng(0).normal(size=(5, 2)))
        with pytest.raises(UnlabeledDate):
            build_design(series, "model4")

    def test_cells_required_for_cell_blocks(self):
        series = PlanarSeries(points=np.random.default_rng(0).normal(size=(5, 2)))
        with pytest.raises(DataError):
            build_design(series, "model2")


def cell_design(points, source_cells, spec="model2", dates=None):
    cells = np.append(np.asarray(source_cells, dtype=int), 0)
    return build_design(PlanarSeries(points=points, node_assignment=cells, dates=dates), spec)


class TestRankVerdict:
    """The per-block rank test against np.linalg.matrix_rank on the dense X."""

    def check(self, design, deficient, labels):
        assert design.rank_deficient == deficient
        assert design.rank_deficient == (np.linalg.matrix_rank(design.X) < design.p)
        assert design.deficient_blocks == labels

    def test_one_day_block(self):
        pts = np.random.default_rng(50).normal(size=(31, 2))
        with pytest.warns(RankWarning, match=r"\(6 columns\): A\[2\]$"):
            design = cell_design(pts, [0] * 15 + [1] * 14 + [2])
        self.check(design, True, ("A[2]",))

    def test_collinear_block(self):
        rng = np.random.default_rng(51)
        pts = rng.normal(size=(41, 2))
        cells = np.arange(40) % 2
        pts[:40][cells == 1] = rng.normal(size=(20, 1)) * np.array([0.3, 0.7])
        with pytest.warns(RankWarning, match=r"A\[1\]"):
            design = cell_design(pts, cells)
        self.check(design, True, ("A[1]",))

    def test_full_rank_model9(self):
        tess = default_tessellation(4)
        truth = ladder_truth("model9", tess=tess, start_date="1990-01-01", n_days=1095)
        series = simulate_var(truth, 1095, tess=tess, start_date="1990-01-01", seed=52)
        design = build_design(series, "model9", tess=tess)
        assert design.p == 2 * 4 * 3
        self.check(design, False, ())

    def test_intercept_coupled_model3(self):
        # one cell whose x-coordinate never moves: the block is full rank,
        # but its sx column equals the sum of the quarter intercept columns
        pts = np.column_stack([np.ones(121), np.random.default_rng(53).normal(size=121)])
        with pytest.warns(RankWarning, match="intercept columns"):
            design = cell_design(pts, [0] * 120, "model3", dates=daily("2000-01-01", 121))
        assert design.info.eta_labels == ("DJF", "MAM")
        self.check(design, True, ("intercept columns",))

    def test_warning_names_at_most_five_blocks(self):
        pts = np.random.default_rng(54).normal(size=(29, 2))
        with pytest.warns(RankWarning) as caught:
            cell_design(pts, [8] * 20 + list(range(8)))
        assert str(caught[0].message).endswith(
            "(18 columns): A[0], A[1], A[2], A[3], A[4] and 3 more"
        )


class TestBlockProducts:
    """Products taken from the block indices against the dense X."""

    @pytest.fixture(params=["model1", "model3", "model5", "model9", "constant+constant"])
    def design(self, request):
        tess = default_tessellation(3)
        if request.param == "constant+constant":
            series = PlanarSeries(points=np.random.default_rng(55).normal(size=(50, 2)))
            return build_design(series, ModelSpec("constant", "constant"))
        truth = ladder_truth(request.param, tess=tess, start_date="1990-01-01", n_days=900)
        series = simulate_var(truth, 900, tess=tess, start_date="1990-01-01", seed=56)
        return build_design(series, request.param, tess=tess)

    def test_match_dense_x(self, design):
        rng = np.random.default_rng(57)
        X, p = design.X, design.p
        M = rng.normal(size=(design.n, 2))
        B = rng.normal(size=(p, 2))
        xtx = X.T @ X
        np.testing.assert_allclose(design.xt(M), X.T @ M, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(design.xphi(B), X @ B, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(design.gram.solve(B), np.linalg.solve(xtx, B), rtol=1e-9)
        L = design.gram.times_inv_factor(np.eye(p))
        np.testing.assert_allclose(np.tril(L), L, atol=0)
        np.testing.assert_allclose(L @ L.T, np.linalg.inv(xtx), rtol=1e-9, atol=1e-15)


class TestMle:
    def test_exact_recovery_without_noise(self):
        rng = np.random.default_rng(31)
        A = np.array([[0.6, 0.2], [-0.1, 0.5]])
        pts = [np.array([1.0, -0.5])]
        for _ in range(30):
            pts.append(A @ pts[-1])
        series = PlanarSeries(points=np.array(pts))
        phi, sigma = mle_var(build_design(series, "model1"))
        np.testing.assert_allclose(phi, A.T, atol=1e-10)
        np.testing.assert_allclose(sigma, 0.0, atol=1e-12)

    def test_matches_lstsq(self):
        rng = np.random.default_rng(37)
        pts = rng.normal(size=(40, 2))
        series = PlanarSeries(points=pts, node_assignment=rng.integers(0, 3, size=40))
        design = build_design(series, "model2")
        phi, sigma = mle_var(design)
        want, *_ = np.linalg.lstsq(design.X, design.Y, rcond=None)
        np.testing.assert_allclose(phi, want, atol=1e-10)
        resid = design.Y - design.X @ want
        np.testing.assert_allclose(sigma, resid.T @ resid / design.n, atol=1e-12)

    def test_rw_sigma_hand_value(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
        _, sigma = mle_var(build_design(PlanarSeries(points=pts), "model0"))
        np.testing.assert_allclose(sigma, [[0.5, 0.0], [0.0, 2.0]])

    def test_rw_mle_equals_random_walk_design_mle(self):
        rng = np.random.default_rng(41)
        pts = rng.normal(size=(25, 2)).cumsum(axis=0)
        series = PlanarSeries(points=pts)
        _, sigma = mle_var(build_design(series, "model0"))
        d = pts[1:] - pts[:-1]
        np.testing.assert_allclose(sigma, d.T @ d / d.shape[0], atol=1e-12)

    def test_rw_mle_is_the_step_covariance(self):
        # the random walk's mean is its source point, so the residuals are
        # the steps Y - S
        rng = np.random.default_rng(43)
        pts = rng.normal(size=(30, 2)).cumsum(axis=0)
        design = build_design(PlanarSeries(points=pts), "model0")
        phi, sigma = mle_var(design)
        assert phi.shape == (0, 2)
        steps = design.Y - design.source_points
        want = steps.T @ steps / design.n
        np.testing.assert_array_equal(sigma, 0.5 * (want + want.T))

    def test_singular_design_raises(self):
        with pytest.warns(RankWarning):
            design = build_design(
                PlanarSeries(points=np.array([[2.0, 4.0]] * 6)), "model1"
            )
        with pytest.raises(SingularDesign):
            mle_var(design)


class TestKrigingPieces:
    def test_exp_corr_values(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        got = exp_corr(a, a, theta=0.2)
        np.testing.assert_allclose(np.diag(got), 1.0)
        assert got[0, 1] == pytest.approx(np.exp(-1.0))

    def test_positive_decay_required(self):
        with pytest.raises(NonPositiveDecay):
            exp_corr(np.zeros((2, 2)), np.zeros((2, 2)), theta=0.0)

    def test_chol_jitter_ladder(self):
        pd = np.array([[2.0, 0.3], [0.3, 1.0]])
        L, used = chol_spd(pd)
        np.testing.assert_allclose(L @ L.T, pd)
        assert used == 0.0
        # ones - (r/2) I has eigenvalues -r/2 twice, so rung r is the first to factor it
        for rung in JITTER_LADDER:
            L, used = chol_spd(np.ones((3, 3)) - 0.5 * rung * np.eye(3))
            assert used == rung
        with pytest.raises(IllConditioned):
            chol_spd(-np.eye(2))

    def test_knot_grid_covers_padded_box(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        knots = KnotGrid(n_x=3, n_y=3, padding=0.1).build(pts)
        assert knots.shape == (9, 2)
        np.testing.assert_allclose(knots.min(axis=0), [-0.1, -0.2])
        np.testing.assert_allclose(knots.max(axis=0), [1.1, 2.2])

    def test_pp_basis_interpolates_at_knots(self):
        rng = np.random.default_rng(47)
        knots = rng.uniform(size=(15, 2)) * 5.0
        W = pp_basis(knots, knots, theta=0.7)
        np.testing.assert_allclose(W, np.eye(15), atol=1e-8)

    def test_pp_basis_matches_explicit_inverse(self):
        rng = np.random.default_rng(53)
        knots = rng.uniform(size=(10, 2)) * 3.0
        pts = rng.uniform(size=(6, 2)) * 3.0
        theta = 0.4
        got = pp_basis(pts, knots, theta)
        cstar = exp_corr(knots, knots, theta)
        want = exp_corr(pts, knots, theta) @ np.linalg.inv(cstar)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_duplicate_knots_rejected(self):
        knots = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DataError):
            pp_basis(np.zeros((1, 2)), knots, theta=1.0)

    def test_domain_diameter(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        assert domain_diameter(pts) == pytest.approx(5.0)


class TestSpatialAdjust:
    def make(self, rng, m=6):
        knots = rng.uniform(size=(m, 2)) * 4.0
        return knots

    def test_coregional_combination(self):
        rng = np.random.default_rng(67)
        knots = self.make(rng, m=8)
        wstar = rng.normal(size=(2, 8))
        theta = np.array([0.5, 0.9])
        q = np.array([[1.5, 0.0], [-0.4, 0.7]])
        pts = rng.uniform(size=(5, 2)) * 4.0
        got = coregional_eta(pts, knots, theta, q, wstar)
        w1 = pp_basis(pts, knots, 0.5) @ wstar[0]
        w2 = pp_basis(pts, knots, 0.9) @ wstar[1]
        np.testing.assert_allclose(got[:, 0], 1.5 * w1, atol=1e-12)
        np.testing.assert_allclose(got[:, 1], -0.4 * w1 + 0.7 * w2, atol=1e-12)
        np.testing.assert_allclose(PredictiveProcess(knots, pts).eta(theta, q, wstar), got,
                                   atol=1e-12)

    def test_field_reproduced_at_knots(self):
        rng = np.random.default_rng(71)
        knots = self.make(rng, m=5)
        wstar = rng.normal(size=(2, 5))
        got = coregional_eta(knots, knots, np.array([1.0, 1.0]), np.eye(2), wstar)
        np.testing.assert_allclose(got[:, 0], wstar[0], atol=1e-7)
        np.testing.assert_allclose(got[:, 1], wstar[1], atol=1e-7)

