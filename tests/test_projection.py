"""Embedding and projection oracles: stress values, exact layouts, rank rules."""

import datetime as dt
import json

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from stvar.errors import (
    DataError,
    DegenerateDistances,
    DimensionMismatch,
    MalformedHeader,
    ShortRead,
)
from stvar.projection import (
    GreedyProjector,
    PlanarSeries,
    SammonConfig,
    Tessellation,
    classical_scaling,
    load_planar,
    project_series,
    sammon_embed,
    save_planar,
)
from stvar.som import SomConfig, SomModel, lattice_coords

import stvar.projection
from oracles import find_winner, sammon_stress, unique_rows, walk_by_agreement_loop


def write_planar(path, points, nodes, dates=None, magic=b"STVAR-PLANAR v2"):
    """A framed planar file written field by field, so that any field can be
    wrong."""
    meta = {"n_days": len(points), "nodes": nodes, "dates": dates}
    path.write_bytes(magic + b"\n" + json.dumps(meta).encode() + b"\n"
                     + np.asarray(points, "<f8").tobytes())


def pairwise(points):
    return cdist(points, points)


def make_model(nodes, planar):
    nodes = np.asarray(nodes, dtype=float)
    return SomModel(
        nodes=nodes,
        planar=np.asarray(planar, dtype=float),
        config=SomConfig(n_nodes=nodes.shape[0]),
    )


class TestSammonStress:
    """The stress oracle on layouts of known stress, then sammon_embed's
    refusals of distance matrices that no layout can be scored against."""

    def test_collapsed_configuration_scores_one(self):
        # with all coords equal every delta is 0, so E = sum d / sum d = 1
        D = pairwise(np.array([[0.0], [1.0], [3.0]]))
        assert sammon_stress(D, np.zeros((3, 2))) == pytest.approx(1.0)

    def test_exact_configuration_scores_zero(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(6, 2))
        assert sammon_stress(pairwise(Y), Y) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_asymmetry(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DataError):
            sammon_embed(D)

    def test_rejects_zero_offdiagonal(self):
        D = np.array([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateDistances):
            sammon_embed(D)

    def test_rejects_nonzero_diagonal(self):
        D = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DataError):
            sammon_embed(D)


class TestSammonEmbed:
    def test_two_items_embed_exactly(self):
        D = np.array([[0.0, 3.0], [3.0, 0.0]])
        result = sammon_embed(D)
        assert np.linalg.norm(result.coords[0] - result.coords[1]) == pytest.approx(3.0)
        assert result.stress < 1e-20

    def test_planar_configuration_recovered(self):
        # distances generated by an actual 2-d configuration embed with ~zero
        # stress and reproduce the distance matrix
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(7, 2))
        D = pairwise(Y)
        result = sammon_embed(D)
        assert result.stress < 1e-12
        np.testing.assert_allclose(pairwise(result.coords), D, rtol=1e-5, atol=1e-7)

    def test_collinear_configuration_recovered(self):
        D = pairwise(np.array([[0.0], [1.0], [2.5], [4.0]]))
        result = sammon_embed(D)
        np.testing.assert_allclose(pairwise(result.coords), D, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_reported_stress_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        D = pairwise(rng.normal(size=(9, 5)))
        result = sammon_embed(D)
        assert result.stress == pytest.approx(sammon_stress(D, result.coords), rel=1e-9)
        assert result.stress_history[0] == pytest.approx(
            sammon_stress(D, classical_scaling(D)), rel=1e-9)

    def test_stress_history_monotone(self):
        rng = np.random.default_rng(2)
        D = pairwise(rng.normal(size=(9, 5)))
        result = sammon_embed(D)
        assert np.all(np.diff(result.stress_history) <= 0.0)
        assert result.stress == result.stress_history[-1]

    def test_improves_on_classical_scaling(self):
        rng = np.random.default_rng(3)
        D = pairwise(rng.normal(size=(10, 6)))
        init_stress = sammon_stress(D, classical_scaling(D))
        result = sammon_embed(D)
        assert result.converged
        assert result.stress < init_stress

    def test_output_centered(self):
        rng = np.random.default_rng(4)
        D = pairwise(rng.normal(size=(8, 4)))
        result = sammon_embed(D)
        np.testing.assert_allclose(result.coords.mean(axis=0), 0.0, atol=1e-12)

    def test_iteration_cap_flags_nonconvergence(self):
        rng = np.random.default_rng(5)
        D = pairwise(rng.normal(size=(12, 8)))
        result = sammon_embed(D, config=SammonConfig(max_iter=1, tol=1e-16))
        assert not result.converged
        assert result.n_iter == 1

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        D = pairwise(rng.normal(size=(8, 3)))
        a = sammon_embed(D)
        b = sammon_embed(D)
        np.testing.assert_array_equal(a.coords, b.coords)


class TestTessellation:
    def test_assign_nearest(self):
        tess = Tessellation(sites=np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]))
        np.testing.assert_array_equal(
            tess.assign(np.array([[0.2, 0.1], [3.5, 0.5], [1.0, 3.5]])), [0, 1, 2]
        )

    def test_tie_takes_smallest_index(self):
        tess = Tessellation(sites=np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(tess.assign(np.array([1.0, 0.0])), [0])

    def test_blocks_match_one_distance_matrix(self):
        # more points than one block, on a lattice where many are equidistant
        # from two or four sites
        rng = np.random.default_rng(8)
        sites = np.array([[x, y] for x in range(4) for y in range(3)], dtype=float)
        pts = rng.integers(-2, 10, size=(20000, 2)) / 2.0
        want = np.argmin(cdist(pts, sites, "sqeuclidean"), axis=1)
        got = Tessellation(sites=sites).assign(pts)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert Tessellation(sites=sites).assign(np.empty((0, 2))).shape == (0,)

    def test_one_point_matches_cdist(self):
        # on random points, on half-lattice points equidistant from two or
        # four sites (ties to the smallest index) and on the sites
        # themselves, one point's cell, by assign and by the walk's _cell,
        # is scipy's cdist argmin
        rng = np.random.default_rng(9)
        lattice = np.array([[x, y] for x in range(4) for y in range(3)], dtype=float)
        scattered = rng.normal(size=(12, 2)) * 3.0
        for sites, pts in [(scattered, rng.normal(size=(2000, 2)) * 4.0),
                           (lattice, rng.integers(-2, 10, size=(2000, 2)) / 2.0),
                           (lattice, lattice), (scattered, scattered)]:
            tess = Tessellation(sites=sites)
            for p in pts:
                want = np.argmin(cdist(p[None, :], sites, "sqeuclidean"), axis=1)
                got = tess.assign(p[None, :])
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
                assert tess._cell(p) == want[0]
        assert Tessellation(sites=lattice).assign([0.5, 0.0]).tolist() == [0]  # sites 0 and 3


class TestPlanarFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 2)) * np.array([1e-8, 1e6])
        series = PlanarSeries(points=pts, node_assignment=np.arange(6) % 3)
        path = tmp_path / "series.planar"
        save_planar(series, path)
        back = load_planar(path)
        np.testing.assert_array_equal(back.points, series.points)
        np.testing.assert_array_equal(back.node_assignment, series.node_assignment)
        assert back.dates is None

    def test_round_trip_with_dates(self, tmp_path):
        dates = tuple(dt.date(1999, 12, 30) + dt.timedelta(days=i) for i in range(4))
        series = PlanarSeries(points=np.arange(8.0).reshape(4, 2),
                              node_assignment=np.zeros(4, dtype=int), dates=dates)
        path = tmp_path / "series.planar"
        save_planar(series, path)
        assert load_planar(path).dates == dates

    @pytest.mark.parametrize("dates", [None, "dated"])
    def test_saving_a_loaded_series_gives_the_same_bytes(self, tmp_path, dates):
        rng = np.random.default_rng(9)
        if dates:
            dates = tuple(dt.date(2000, 2, 27) + dt.timedelta(days=i) for i in range(5))
        series = PlanarSeries(points=rng.normal(size=(5, 2)),
                              node_assignment=np.array([3, 0, 0, 2, 11]), dates=dates)
        first, second = tmp_path / "first.planar", tmp_path / "second.planar"
        save_planar(series, first)
        save_planar(load_planar(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "bad.planar"
        write_planar(path, np.zeros((1, 2)), [0], magic=b"STVAR-PLANAR v3")
        with pytest.raises(MalformedHeader, match="expected 'STVAR-PLANAR v2'"):
            load_planar(path)
        write_planar(path, np.zeros((3, 2)), [0, 1, 2])
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ShortRead):
            load_planar(path)
        write_planar(path, np.zeros((1, 2)), [0])
        path.write_bytes(path.read_bytes() + b"\0" * 16)
        with pytest.raises(DimensionMismatch):
            load_planar(path)

    def test_retired_text_format_is_named(self, tmp_path):
        path = tmp_path / "old.planar"
        path.write_text("STVAR-PLANAR v1 T=1\n0 0 0\n")
        with pytest.raises(MalformedHeader, match="^STVAR-PLANAR v1 is the retired text planar"):
            load_planar(path)

    def test_mixed_date_presence_rejected(self, tmp_path):
        path = tmp_path / "mixed.planar"
        write_planar(path, np.zeros((2, 2)), [0, 1], dates=["2000-01-01", None])
        with pytest.raises(DataError):
            load_planar(path)

    @pytest.mark.parametrize("nodes, dates, point, match", [
        pytest.param([0, 1], None, np.nan, "points row 1 .* is not finite", id="point-nan"),
        pytest.param([0, 1], None, -np.inf, "points row 1 .* is not finite", id="point-inf"),
        pytest.param([0, "x"], None, 0.0, "'nodes' must be a finite numeric", id="node-word"),
        pytest.param([0, 1.5], None, 0.0, "'nodes' must be a finite numeric", id="node-fraction"),
        pytest.param([0, -1], None, 0.0, "must be non-negative", id="node-negative"),
        pytest.param([0, 1], ["2000-01-01", "2000-13-01"], 0.0, "bad date", id="date-month-13"),
        pytest.param([0, 1], ["2000-01-01", "not-a-date"], 0.0, "bad date", id="date-word"),
    ])
    def test_bad_value_is_data_error(self, tmp_path, nodes, dates, point, match):
        path = tmp_path / "bad.planar"
        write_planar(path, np.array([[0.0, 0.0], [0.5, point]]), nodes, dates=dates)
        with pytest.raises(DataError, match=match):
            load_planar(path)

    def test_requires_assignments(self, tmp_path):
        series = PlanarSeries(points=np.zeros((2, 2)))
        with pytest.raises(DataError):
            save_planar(series, tmp_path / "x.planar")


def rank_agreement_oracle(projector, x):
    """The greedy projection rule, one day and one candidate at a time."""
    d2 = ((projector.nodes - x) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    group_at_pos = [0]
    for prev, node in zip(order[:-1], order[1:]):
        group_at_pos.append(group_at_pos[-1] + int(d2[node] > d2[prev]))
    group_of_node = dict(zip(order.tolist(), group_at_pos))
    lengths = []
    for ranking in projector.cand_order.tolist():
        k = 0
        while k < len(ranking) and group_of_node[ranking[k]] == group_at_pos[k]:
            k += 1
        lengths.append(k)
    lengths = np.array(lengths)
    return projector.candidates[lengths == lengths.max()].mean(axis=0)


class TestGreedyProjection:
    @pytest.mark.parametrize("n_nodes", [2, 6, 12, 20])
    def test_matches_per_candidate_oracle_bitwise(self, n_nodes, monkeypatch):
        monkeypatch.setattr(stvar.projection, "RESOLUTION", 21)
        rng = np.random.default_rng(100 + n_nodes)
        nodes = rng.normal(size=(n_nodes, 4))
        planar = rng.normal(size=(n_nodes, 2))
        if n_nodes > 2:
            # a duplicated codebook vector and a duplicated planar site
            nodes[1] = nodes[0]
            planar[n_nodes - 1] = planar[n_nodes - 2]
        model = make_model(nodes, planar)
        projector = GreedyProjector(model)
        pairs = rng.integers(0, n_nodes, size=(30, 2))
        days = np.concatenate([
            rng.normal(size=(40, 4)),
            nodes,
            0.5 * (nodes[pairs[:, 0]] + nodes[pairs[:, 1]]),
        ])
        want = np.array([rank_agreement_oracle(projector, x) for x in days])
        assert projector.project_many(days).tobytes() == want.tobytes()
        one_by_one = np.array([projector.project(x) for x in days])
        assert one_by_one.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_nodes", [2, 12, 20, 300])
    @pytest.mark.parametrize("ties", ["none", "some", "all"])
    def test_walk_matches_agreement_loop(self, n_nodes, ties, monkeypatch):
        monkeypatch.setattr(stvar.projection, "RESOLUTION", 21)
        rng = np.random.default_rng(n_nodes)
        # distinct nodes at even integer coordinates: the midpoint of two of
        # them is exactly as far from both, so it is a day with a tie
        flat = rng.choice(41**4, size=n_nodes, replace=False)
        nodes = 2.0 * (np.stack(np.unravel_index(flat, (41,) * 4), axis=1) - 20)
        projector = GreedyProjector(make_model(nodes, rng.normal(size=(n_nodes, 2))))
        n_days = 100
        pairs = np.array([rng.choice(n_nodes, 2, replace=False) for _ in range(n_days)])
        midpoints = 0.5 * (nodes[pairs[:, 0]] + nodes[pairs[:, 1]])
        days = 20.0 * rng.normal(size=(n_days, 4))
        if ties == "some":
            days[::3] = midpoints[::3]
        elif ties == "all":
            days = midpoints
        d2 = np.array([((nodes - x) ** 2).sum(axis=1) for x in days])
        tied = (np.diff(np.sort(d2, axis=1), axis=1) == 0).any(axis=1)
        assert tied.sum() == {"none": 0, "some": 34, "all": n_days}[ties]

        # the orderings are sorted lexicographically, uint16 ones included
        assert np.array_equal(projector._orderings.T, unique_rows(projector.cand_order)[0])
        order = np.argsort(d2, axis=1, kind="stable")
        free = np.flatnonzero(~tied)
        got = projector._walk(free, order[free])
        want = walk_by_agreement_loop(projector, free, order[free])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

        walked = projector.project_many(days)
        monkeypatch.setattr(stvar.projection.GreedyProjector, "_walk", walk_by_agreement_loop)
        assert walked.tobytes() == projector.project_many(days).tobytes()

    def test_two_node_oracle(self):
        # independent enumeration of the same candidate grid: with two nodes a
        # full rank match is exactly "nearest node is the winner", ties going
        # to node 0
        nodes = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        planar = np.array([[0.0, -0.5], [0.0, 0.5]])
        model = make_model(nodes, planar)
        x = np.array([0.1, 0.0, 0.0])
        got = GreedyProjector(model).project(x)

        # grid replication: zero-width x span widens to 1 before padding
        xs = np.linspace(-0.25, 0.25, 201)
        ys = np.linspace(-0.75, 0.75, 201)
        gx, gy = np.meshgrid(xs, ys)
        cand = np.column_stack([gx.ravel(), gy.ravel()])
        d0 = ((cand - planar[0]) ** 2).sum(axis=1)
        d1 = ((cand - planar[1]) ** 2).sum(axis=1)
        want = cand[d0 <= d1].mean(axis=0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_symmetric_point_lands_at_center(self):
        # a day equidistant from all nodes has one big rank group, so every
        # candidate scores full length and the average is the grid centroid
        nodes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        model = make_model(nodes, lattice_coords(4))
        got = GreedyProjector(model).project(np.array([0.0, 0.0]))
        np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-12)

    def test_projection_lands_in_winner_cell(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            nodes = rng.normal(size=(8, 5))
            planar = rng.normal(size=(8, 2))
            model = make_model(nodes, planar)
            projector = GreedyProjector(model)
            tess = Tessellation(sites=planar)
            for _ in range(4):
                x = rng.normal(size=5)
                p = projector.project(x)
                assert tess.assign(p)[0] == find_winner(x, nodes)

    def test_full_rank_agreement_recovers_node_position(self, monkeypatch):
        # candidates right at a node agree with that node's own ranking, so
        # projecting the codebook vector itself lands near its planar site
        monkeypatch.setattr(stvar.projection, "RESOLUTION", 401)
        rng = np.random.default_rng(13)
        nodes = rng.normal(size=(6, 4))
        planar = 3.0 * rng.normal(size=(6, 2))
        model = make_model(nodes, planar)
        projector = GreedyProjector(model)
        for m in range(6):
            p = projector.project(nodes[m])
            assert Tessellation(sites=planar).assign(p)[0] == m

    def test_dimension_mismatch(self):
        model = make_model(np.zeros((3, 4)), lattice_coords(3))
        with pytest.raises(DimensionMismatch):
            GreedyProjector(model).project(np.zeros(5))

    def test_project_series_carries_winners_and_dates(self):
        rng = np.random.default_rng(17)
        nodes = rng.normal(size=(5, 3))
        planar = rng.normal(size=(5, 2))
        model = make_model(nodes, planar)
        X = rng.normal(size=(12, 3))
        from stvar import GridSpec, StateSeries

        grid = GridSpec(n_rows=1, n_cols=1, variables=("a", "b", "c"))
        dates = tuple(dt.date(2005, 6, 1) + dt.timedelta(days=i) for i in range(12))
        series = StateSeries(matrix=X, grid=grid, dates=dates)
        out = project_series(series, model)
        assert out.n_days == 12
        assert out.dates == dates
        np.testing.assert_array_equal(
            out.node_assignment, [find_winner(x, nodes) for x in X]
        )
        np.testing.assert_array_equal(Tessellation(sites=planar).assign(out.points),
                                      out.node_assignment)
