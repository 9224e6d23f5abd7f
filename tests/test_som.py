"""Map training oracles: lattice layout, update rules, kernels, schedules."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stvar.errors import (
    DataError,
    DimensionMismatch,
    EmptyData,
    MalformedHeader,
    NonFiniteUpdate,
)
from stvar.som import (
    BatchTrace,
    SomConfig,
    SomModel,
    _init,
    _kernel_row,
    _node_sums,
    _row_norms,
    _winners,
    assign,
    lattice_coords,
    lattice_shape,
    load_som,
    quantization_error,
    replace_planar,
    save_som,
    som_from_dict,
    som_to_dict,
    train_batch,
    train_online,
)

from oracles import cdist_winners, find_winner, node_sums_add_at


class TestLattice:
    def test_twelve_nodes_make_four_by_three(self):
        assert lattice_shape(12) == (4, 3)
        coords = lattice_coords(12)
        assert coords.shape == (12, 2)
        # node 0 bottom-left, rows filled left to right going up
        np.testing.assert_allclose(coords[0], [-1.0, -1.5])
        np.testing.assert_allclose(coords[2], [1.0, -1.5])
        np.testing.assert_allclose(coords[9], [-1.0, 1.5])
        np.testing.assert_allclose(coords[11], [1.0, 1.5])

    def test_centered_and_unit_spaced(self):
        for m in (2, 6, 9, 12, 20):
            coords = lattice_coords(m)
            np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(lattice_coords(12)[1] - lattice_coords(12)[0]), 1.0)

    def test_two_nodes_stack_vertically(self):
        assert lattice_shape(2) == (2, 1)
        np.testing.assert_allclose(lattice_coords(2), [[0.0, -0.5], [0.0, 0.5]])


class TestSchedules:
    def test_linear_decay_hits_endpoints(self):
        cfg = SomConfig(n_nodes=4, alpha=((0.5, 0.05), (0.05, 0.01)))
        assert cfg.alpha_at(0, 10, 40) == 0.5
        assert cfg.alpha_at(9, 10, 40) == pytest.approx(0.05)
        assert cfg.alpha_at(10, 10, 40) == pytest.approx(0.05)
        assert cfg.alpha_at(49, 10, 40) == pytest.approx(0.01)
        # after both phases the final value holds
        assert cfg.alpha_at(200, 10, 40) == pytest.approx(0.01)

    def test_default_sigma_starts_at_half_diameter(self):
        cfg = SomConfig(n_nodes=12)
        (s1, e1), (s2, e2) = cfg.sigma_pairs()
        assert s1 == pytest.approx(np.hypot(2.0, 3.0) / 2.0)
        assert e1 == e2 == 1.0

    def test_default_sigma_floor_is_one_spacing(self):
        (s1, _), _ = SomConfig(n_nodes=2).sigma_pairs()
        assert s1 == 1.0

    def test_config_validation(self):
        with pytest.raises(DataError):
            SomConfig(n_nodes=0)
        with pytest.raises(DataError):
            SomConfig(n_nodes=3, kernel="triangle")
        with pytest.raises(DataError):
            SomConfig(n_nodes=3, alpha=((1.5, 0.1), (0.1, 0.01)))
        with pytest.raises(DataError):
            SomConfig(n_nodes=3, convergence_tol=0.0)


class TestKernels:
    def make_model(self):
        cfg = SomConfig(n_nodes=4)
        nodes = np.array([[0.0], [3.0], [4.0], [10.0]])
        return SomModel(nodes=nodes, planar=lattice_coords(4), config=cfg)

    @staticmethod
    def d2_from(pts, c):
        """Squared distances of every node to node c, as the trainers pass them."""
        return ((pts - pts[c]) ** 2).sum(axis=1)

    def test_gaussian_map_space(self):
        model = self.make_model()
        # lattice for M=4 is 2x2, horizontally adjacent nodes sit 1 apart
        k = _kernel_row(self.d2_from(model.planar, 0), 2.0, "gaussian")
        assert k[1] == pytest.approx(np.exp(-1.0 / 8.0))
        assert k[0] == 1.0

    def test_gaussian_data_space(self):
        model = self.make_model()
        got = _kernel_row(self.d2_from(model.nodes, 0), 1.5, "gaussian")[1]
        assert got == pytest.approx(np.exp(-9.0 / (2 * 1.5**2)))

    def test_bubble_is_distance_indicator(self):
        model = self.make_model()
        assert _kernel_row(self.d2_from(model.planar, 0), 1.0, "bubble")[1] == 1.0
        assert _kernel_row(self.d2_from(model.planar, 0), 1.0, "bubble")[3] == 0.0
        assert _kernel_row(self.d2_from(model.planar, 2), 1.0, "bubble")[2] == 1.0

    def test_sigma_zero_keeps_only_the_center(self):
        model = self.make_model()
        for kern in ("gaussian", "bubble"):
            assert _kernel_row(self.d2_from(model.planar, 1), 0.0, kern)[1] == 1.0
            assert _kernel_row(self.d2_from(model.planar, 0), 0.0, kern)[1] == 0.0


class TestWinner:
    @staticmethod
    def model(nodes):
        n = nodes.shape[0]
        return SomModel(nodes=nodes, planar=lattice_coords(n), config=SomConfig(n_nodes=n))

    def test_nearest_index(self):
        nodes = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(assign(np.array([[1.9, 0.1]]), self.model(nodes)), [1])

    def test_exact_tie_takes_smallest_index(self):
        nodes = np.array([[0.0], [2.0], [4.0]])
        # x = 1 is exactly 1 away from nodes 0 and 1
        np.testing.assert_array_equal(assign(np.array([[1.0], [3.0]]), self.model(nodes)), [0, 1])


class TestInit:
    def test_within_component_ranges(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 3)) * np.array([1.0, 10.0, 0.1])
        nodes = _init(np.random.default_rng(5), data, 8)
        assert np.all(nodes >= data.min(axis=0)) and np.all(nodes <= data.max(axis=0))

    def test_degenerate_axis_collapses(self):
        data = np.column_stack([np.linspace(0, 1, 10), np.full(10, 2.5)])
        nodes = _init(np.random.default_rng(1), data, 5)
        np.testing.assert_array_equal(nodes[:, 1], 2.5)

    def test_seed_reproducibility(self):
        data = np.random.default_rng(3).normal(size=(20, 2))
        a = _init(np.random.default_rng(9), data, 6)
        b = _init(np.random.default_rng(9), data, 6)
        c = _init(np.random.default_rng(10), data, 6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empty_rejected(self):
        for train in (train_batch, train_online):
            with pytest.raises(EmptyData):
                train(np.empty((0, 3)), SomConfig(n_nodes=2))


class TestOnlineTrainer:
    def test_two_step_hand_trace(self):
        # Frozen replay of the update rule: seed 42, data {0, 0.5, 2}, M=2,
        # alpha 0.5 then 0.1, sigma 1, gaussian on the 2x1 lattice (gap 1).
        # Init draws give nodes (1.5479121, 0.87775688) and picks (1, 2):
        #   step 0: x=0.5 wins node 1, nodes -> (1.23011669, 0.68887844)
        #   step 1: x=2.0 wins node 0, nodes -> (1.30710502, 0.76840198)
        data = np.array([[0.0], [0.5], [2.0]])
        cfg = SomConfig(
            n_nodes=2,
            alpha=((0.5, 0.1), (0.05, 0.01)),
            sigma=((1.0, 1.0), (1.0, 1.0)),
            phase_steps=(2, 0),
            rng_seed=42,
        )
        model, trace = train_online(data, cfg)
        np.testing.assert_allclose(model.nodes.ravel(), [1.30710502, 0.76840198], atol=1e-8)
        assert trace.n_steps == 2

    def test_nodes_stay_in_data_hull(self):
        rng = np.random.default_rng(17)
        data = rng.uniform(-3, 5, size=(120, 2))
        cfg = SomConfig(n_nodes=6, rng_seed=2, phase_steps=(600, 1200))
        model, _ = train_online(data, cfg)
        assert np.all(model.nodes >= data.min(axis=0) - 1e-12)
        assert np.all(model.nodes <= data.max(axis=0) + 1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(60, 3))
        cfg = SomConfig(n_nodes=5, rng_seed=11, phase_steps=(300, 300))
        a, _ = train_online(data, cfg)
        b, _ = train_online(data, cfg)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        assert a.provenance == b.provenance

    def test_displacement_trace_settles(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(size=(100, 2))
        model, trace = train_online(data, SomConfig(n_nodes=4, rng_seed=3))
        assert len(trace.displacements) == 50
        assert trace.displacements[-1] < trace.displacements[0]

    def test_non_finite_input_raises(self):
        data = np.array([[0.0], [np.inf]])
        with pytest.raises(NonFiniteUpdate):
            train_online(data, SomConfig(n_nodes=2, phase_steps=(4, 0)))


class TestBatchTrainer:
    def test_one_epoch_hand_trace(self):
        # Frozen one-epoch oracle: seed 7 init (0.62509547, 0.8972138) over
        # [0,1], data {0, 0, 1} -> winners (0,0,1); gaussian sigma=1 with
        # lattice gap 1 gives K offdiag e^{-1/2}; the weighted means are
        # (0.23269654, 0.45186276).
        data = np.array([[0.0], [0.0], [1.0]])
        cfg = SomConfig(
            n_nodes=2,
            sigma=((1.0, 1.0), (1.0, 1.0)),
            phase_steps=(1, 0),
            rng_seed=7,
            max_epochs=1,
        )
        model, trace = train_batch(data, cfg)
        np.testing.assert_allclose(model.nodes.ravel(), [0.23269654, 0.45186276], atol=1e-8)
        assert trace.n_epochs == 1
        assert not trace.converged

    def test_sigma_zero_is_a_lloyd_step(self):
        # with winner-only neighborhoods each node moves to the mean of its
        # own cluster, i.e. one k-means iteration
        rng = np.random.default_rng(21)
        data = rng.normal(size=(40, 2))
        cfg = SomConfig(
            n_nodes=3,
            sigma=((0.0, 0.0), (0.0, 0.0)),
            phase_steps=(1, 0),
            rng_seed=13,
            max_epochs=1,
        )
        model, _ = train_batch(data, cfg)
        start = _init(np.random.default_rng(cfg.rng_seed), data, cfg.n_nodes)
        d2 = ((data[:, None, :] - start[None, :, :]) ** 2).sum(-1)
        labels = d2.argmin(1)
        for m in range(3):
            if np.any(labels == m):
                np.testing.assert_allclose(model.nodes[m], data[labels == m].mean(axis=0))

    def test_empty_neighborhood_flagged_not_fatal(self):
        # 2 data points cannot feed 3 winner-only nodes; the unused node is
        # frozen and reported
        data = np.array([[0.0], [1.0]])
        cfg = SomConfig(
            n_nodes=3,
            sigma=((0.0, 0.0), (0.0, 0.0)),
            phase_steps=(0, 0),
            rng_seed=1,
            max_epochs=3,
        )
        model, trace = train_batch(data, cfg)
        assert isinstance(trace, BatchTrace)
        assert len(trace.empty_neighborhoods) >= 1
        assert all(0 <= m < 3 for _, m in trace.empty_neighborhoods)

    def test_converges_and_flags_it(self):
        rng = np.random.default_rng(30)
        data = rng.uniform(size=(200, 2))
        cfg = SomConfig(n_nodes=4, rng_seed=6, phase_steps=(5, 10), max_epochs=500)
        model, trace = train_batch(data, cfg)
        assert trace.converged
        assert trace.displacements[-1] < cfg.convergence_tol
        assert trace.n_epochs <= 500

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(80, 2))
        cfg = SomConfig(n_nodes=6, rng_seed=19, phase_steps=(3, 5), max_epochs=20)
        a, _ = train_batch(data, cfg)
        b, _ = train_batch(data, cfg)
        np.testing.assert_array_equal(a.nodes, b.nodes)


class TestNodeSums:
    """The batch epoch's per-node sums hold to np.add.at's bit for bit."""

    @given(
        d=st.integers(1, 300),
        n_days=st.integers(1, 120),
        n_won=st.integers(1, 10),
        layout=st.sampled_from(["C", "F", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # one column with many days per node: a reduction along it goes pairwise
    @example(d=1, n_days=100, n_won=2, layout="C", seed=0)
    @example(d=9, n_days=120, n_won=3, layout="F", seed=1)
    @example(d=300, n_days=60, n_won=1, layout="strided", seed=2)
    def test_equals_add_at(self, d, n_days, n_won, layout, seed):
        rng = np.random.default_rng(seed)
        # magnitudes over 16 decades, so a change of summation order shows in the bits
        values = rng.standard_normal((n_days, d)) * 10.0 ** rng.integers(-8, 9, (n_days, d))
        values[rng.random((n_days, d)) < 0.1] = -0.0
        values[:, rng.random(d) < 0.2] = -0.0  # whole columns of -0.0
        if layout == "strided":
            wide = np.zeros((n_days, 2 * d))
            wide[:, ::2] = values
            x = wide[:, ::2]
        else:
            x = np.array(values, order=layout)
        x.flags.writeable = False  # as the pipeline store hands series out
        # nodes 0..n_won-1 share the days but one, which node n_won + 1
        # wins alone; node n_won wins none
        winners = rng.integers(0, n_won, n_days)
        winners[rng.integers(n_days)] = n_won + 1
        n_nodes = n_won + 2

        got = _node_sums(x, winners, n_nodes)
        want = node_sums_add_at(x, winners, n_nodes)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestWinners:
    """The certified screen picks cdist's winners exactly."""

    @given(
        d=st.integers(1, 40),
        n_nodes=st.integers(1, 9),
        n_days=st.integers(1, 40),
        scale=st.sampled_from([1.0, 1e-3, 1e5, 1e150, 1e154, 1e-160, 1e-310]),
        layout=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=1, n_nodes=5, n_days=40, scale=1.0, layout="C", seed=0)
    # |x|^2 overflows: every row falls back to cdist
    @example(d=3, n_nodes=4, n_days=20, scale=1e154, layout="F", seed=1)
    # squares of subnormal magnitude underflow
    @example(d=7, n_nodes=6, n_days=30, scale=1e-160, layout="C", seed=2)
    def test_equals_cdist_argmin(self, d, n_nodes, n_days, scale, layout, seed):
        rng = np.random.default_rng(seed)
        nodes = rng.standard_normal((n_nodes, d)) * scale
        nodes[rng.random(n_nodes) < 0.3] = nodes[0]  # duplicate nodes
        days = rng.standard_normal((n_days, d)) * scale
        kind = rng.integers(0, 3, n_days)
        on_node = nodes[rng.integers(0, n_nodes, n_days)]
        pairs = rng.integers(0, n_nodes, (n_days, 2))
        # midway between two nodes: equidistant, up to rounding
        between = 0.5 * nodes[pairs[:, 0]] + 0.5 * nodes[pairs[:, 1]]
        days[kind == 1] = on_node[kind == 1]
        days[kind == 2] = between[kind == 2]
        x = np.array(days, order=layout)
        x.flags.writeable = False  # as the pipeline store hands series out
        want = cdist_winners(x, nodes)
        assert np.array_equal(_winners(x, nodes, _row_norms(x)), want)
        model = SomModel(nodes=nodes, planar=lattice_coords(n_nodes),
                         config=SomConfig(n_nodes=n_nodes))
        assert np.array_equal(assign(x, model), want)

    def test_near_ties_far_from_the_origin(self):
        # Days and nodes share an offset of 2^26 per coordinate, plus small
        # integers, so cdist's squared distances are exact small integers
        # with many exact ties and gaps of one, while the screen's rounding
        # is several units. A bound 100 times too small certifies wrong
        # winners here.
        rng = np.random.default_rng(5)
        offset = 2.0**26 * np.ones(4)
        nodes = offset + rng.integers(-3, 4, (8, 4))
        x = offset + rng.integers(-3, 4, (500, 4))
        assert np.array_equal(_winners(x, nodes, _row_norms(x)), cdist_winners(x, nodes))

    def test_exact_ties_and_non_finite_rows(self):
        nodes = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        x = np.array([[1.0, 0.0], [1.0, 1.0], [2.0, 0.0], [np.nan, 0.0],
                      [np.inf, 0.0], [-np.inf, np.inf], [1e200, -1e200]])
        want = cdist_winners(x, nodes)
        assert np.array_equal(_winners(x, nodes, _row_norms(x)), want)

    def test_assign_dimension_mismatch(self):
        model = SomModel(nodes=np.zeros((3, 4)), planar=lattice_coords(3),
                         config=SomConfig(n_nodes=3))
        with pytest.raises(DimensionMismatch, match="data dim 5 != model dim 4"):
            assign(np.zeros((2, 5)), model)
        with pytest.raises(DimensionMismatch, match="data dim 5 != model dim 4"):
            quantization_error(np.zeros((2, 5)), model)

    @pytest.mark.parametrize("func", [assign, quantization_error],
                             ids=["assign", "quantization_error"])
    def test_non_finite_rows_are_refused(self, func):
        nodes = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        model = SomModel(nodes=nodes, planar=lattice_coords(3), config=SomConfig(n_nodes=3))
        x = np.array([[1.0, 1.0], [1.0, np.nan], [np.inf, 0.0], [0.0, 2.0]])
        with pytest.raises(DataError, match=r"^data row 1 \(row 0 is the first\) is not finite$"):
            func(x, model)
        with pytest.raises(DataError, match="data row 0 "):
            func(x[2:], model)
        # finite rows are mapped, even one whose distances all overflow to inf
        assert np.array_equal(assign(np.array([[1e200, -1e200], [0.0, 1.9]]), model), [0, 2])


class TestQuantization:
    def test_zero_error_when_data_equals_nodes(self):
        rng = np.random.default_rng(9)
        nodes = rng.normal(size=(5, 3))
        model = SomModel(nodes=nodes, planar=lattice_coords(5), config=SomConfig(n_nodes=5))
        report = quantization_error(nodes, model)
        assert report.overall == 0.0
        np.testing.assert_array_equal(report.counts, np.ones(5, dtype=int))
        np.testing.assert_allclose(report.per_node_mean, 0.0)

    def test_empty_node_reports_nan(self):
        nodes = np.array([[0.0], [10.0]])
        model = SomModel(nodes=nodes, planar=lattice_coords(2), config=SomConfig(n_nodes=2))
        report = quantization_error(np.array([[0.5], [0.4]]), model)
        assert report.counts[1] == 0
        assert np.isnan(report.per_node_mean[1])
        assert report.overall == pytest.approx(0.45)

    def test_assign_matches_find_winner(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(30, 2))
        nodes = rng.normal(size=(4, 2))
        model = SomModel(nodes=nodes, planar=lattice_coords(4), config=SomConfig(n_nodes=4))
        got = assign(data, model)
        want = [find_winner(x, nodes) for x in data]
        np.testing.assert_array_equal(got, want)


class TestSomFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(50, 4))
        model, _ = train_batch(data, SomConfig(n_nodes=6, rng_seed=2, max_epochs=30))
        path = tmp_path / "map.json"
        save_som(model, path)
        back = load_som(path)
        np.testing.assert_array_equal(back.nodes, model.nodes)
        np.testing.assert_array_equal(back.planar, model.planar)
        assert back.config == model.config
        assert back.provenance == model.provenance

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(MalformedHeader):
            load_som(path)
        path.write_text("{not json")
        with pytest.raises(MalformedHeader):
            load_som(path)

    def test_shape_disagreement_rejected(self):
        doc = som_to_dict(
            SomModel(nodes=np.zeros((3, 2)), planar=lattice_coords(3), config=SomConfig(n_nodes=3))
        )
        doc["dim"] = 5
        with pytest.raises(MalformedHeader):
            som_from_dict(doc)

    def test_replace_planar(self):
        model = SomModel(nodes=np.zeros((3, 2)), planar=lattice_coords(3), config=SomConfig(n_nodes=3))
        new = replace_planar(model, np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(new.planar, np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(new.nodes, model.nodes)
