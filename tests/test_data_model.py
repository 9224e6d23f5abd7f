"""Container invariants, standardization oracles, and series file round trips."""

import datetime as dt
import json

import numpy as np
import pytest

from stvar import (
    GridSpec,
    RawSeries,
    StateSeries,
    Standardization,
    as_matrix,
    flatten,
    load_series,
    save_series,
    standardize,
    unflatten,
)
from stvar.errors import (
    DataError,
    DimensionMismatch,
    EmptySeries,
    MalformedHeader,
    ShortRead,
    ZeroVariance,
)


def tiny_grid():
    return GridSpec(n_rows=1, n_cols=1, variables=("x",))


def small_raw(rng, T=8, n_rows=2, n_cols=3, variables=("u", "v")):
    grid = GridSpec(n_rows=n_rows, n_cols=n_cols, variables=variables)
    values = rng.normal(size=(T, grid.n_variables, grid.n_cells))
    return RawSeries(values=values, grid=grid)


class TestGridSpec:
    def test_dimensions(self):
        grid = GridSpec(n_rows=7, n_cols=11, variables=tuple(f"v{i}" for i in range(11)))
        assert grid.n_cells == 77
        assert grid.d == 847

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError):
            GridSpec(n_rows=1, n_cols=2, variables=("a", "a"))

    def test_rejects_unwritable_names(self):
        with pytest.raises(DataError):
            GridSpec(n_rows=1, n_cols=1, variables=("a,b",))


class TestContainers:
    def test_raw_shape_checked_against_grid(self):
        grid = GridSpec(n_rows=2, n_cols=2, variables=("a",))
        with pytest.raises(DimensionMismatch):
            RawSeries(values=np.zeros((3, 1, 5)), grid=grid)

    def test_non_finite_rejected(self):
        grid = tiny_grid()
        values = np.ones((4, 1, 1))
        values[2, 0, 0] = np.nan
        with pytest.raises(DataError):
            RawSeries(values=values, grid=grid)

    def test_dates_must_increase(self):
        grid = tiny_grid()
        dates = (dt.date(2000, 1, 2), dt.date(2000, 1, 1))
        with pytest.raises(DataError):
            RawSeries(values=np.ones((2, 1, 1)), grid=grid, dates=dates)

    def test_iso_strings_accepted_as_dates(self):
        grid = tiny_grid()
        raw = RawSeries(
            values=np.ones((2, 1, 1)), grid=grid, dates=("2000-01-01", "2000-01-02")
        )
        assert raw.dates == (dt.date(2000, 1, 1), dt.date(2000, 1, 2))

    def test_state_dimension_checked(self):
        grid = GridSpec(n_rows=2, n_cols=2, variables=("a", "b"))
        with pytest.raises(DimensionMismatch):
            StateSeries(matrix=np.zeros((3, 7)), grid=grid)

    def test_standardization_scale_positive(self):
        with pytest.raises(DataError):
            Standardization(mean=np.zeros(2), sd=np.array([1.0, 0.0]))


class TestFlatten:
    def test_layout_is_variable_major(self):
        # entry (t, v, c) must land at column v * n_cells + c
        T, V, C = 3, 2, 4
        values = np.arange(T * V * C, dtype=float).reshape(T, V, C)
        flat = flatten(values)
        assert flat.shape == (T, V * C)
        for v in range(V):
            for c in range(C):
                np.testing.assert_array_equal(flat[:, v * C + c], values[:, v, c])

    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        grid = GridSpec(n_rows=2, n_cols=1, variables=("a", "b"))
        values = rng.normal(size=(5, 2, 2))
        back = unflatten(flatten(values), grid)
        np.testing.assert_array_equal(back, values)

    def test_climate_scale_dimension(self):
        grid = GridSpec(n_rows=7, n_cols=11, variables=tuple(f"v{i}" for i in range(11)))
        values = np.zeros((4, 11, 77))
        assert flatten(values).shape == (4, 847)
        assert grid.d == 847


class TestStandardize:
    def test_three_point_oracle(self):
        # mean 2, sd 1 with ddof=1, so {1,2,3} -> {-1,0,1} exactly
        raw = RawSeries(values=np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1), grid=tiny_grid())
        out = standardize(raw)
        np.testing.assert_array_equal(out.matrix[:, 0], [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(out.standardization.mean, [2.0])
        np.testing.assert_array_equal(out.standardization.sd, [1.0])

    def test_standardized_moments(self):
        rng = np.random.default_rng(11)
        raw = small_raw(rng, T=40)
        out = standardize(raw)
        z = unflatten(out.matrix, raw.grid)
        pooled = z.transpose(1, 0, 2).reshape(2, -1)
        np.testing.assert_allclose(pooled.mean(axis=1), 0.0, atol=1e-13)
        np.testing.assert_allclose(pooled.std(axis=1, ddof=1), 1.0, rtol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        raw = small_raw(rng, T=30)
        once = standardize(raw)
        twice = standardize(RawSeries(unflatten(once.matrix, once.grid), once.grid, once.dates))
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)

    def test_affine_equivariance(self):
        # standardize(a * x + b) == standardize(x) for a > 0, per variable
        rng = np.random.default_rng(19)
        raw = small_raw(rng, T=25)
        a = np.array([2.5, 0.3])[None, :, None]
        b = np.array([-7.0, 40.0])[None, :, None]
        shifted = RawSeries(values=a * raw.values + b, grid=raw.grid)
        np.testing.assert_allclose(
            standardize(shifted).matrix, standardize(raw).matrix, atol=1e-12
        )

    def test_zero_variance_names_variable(self):
        grid = GridSpec(n_rows=1, n_cols=2, variables=("ok", "flat"))
        values = np.random.default_rng(0).normal(size=(6, 2, 2))
        values[:, 1, :] = 3.14
        with pytest.raises(ZeroVariance, match="flat"):
            standardize(RawSeries(values=values, grid=grid))

    def test_too_short(self):
        raw = RawSeries(values=np.ones((1, 1, 1)), grid=tiny_grid())
        with pytest.raises(EmptySeries):
            standardize(raw)

    def test_per_cell_mode(self):
        rng = np.random.default_rng(23)
        raw = small_raw(rng, T=50)
        out = standardize(raw, per_cell=True)
        z = unflatten(out.matrix, raw.grid)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-13)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, rtol=1e-12)
        assert out.standardization.per_cell
        assert out.standardization.mean.shape == (2, 6)

    def test_per_cell_zero_variance_names_cell(self):
        grid = GridSpec(n_rows=1, n_cols=2, variables=("a",))
        values = np.random.default_rng(1).normal(size=(6, 1, 2))
        values[:, 0, 1] = 0.5
        with pytest.raises(ZeroVariance, match=r"cell 1"):
            standardize(RawSeries(values=values, grid=grid), per_cell=True)


class TestAsMatrix:
    def test_accepts_all_forms(self):
        rng = np.random.default_rng(2)
        raw = small_raw(rng, T=4)
        state = standardize(raw)
        np.testing.assert_array_equal(as_matrix(raw), flatten(raw.values))
        np.testing.assert_array_equal(as_matrix(state), state.matrix)
        arr = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(as_matrix(arr), arr)
        assert as_matrix(np.arange(3.0)).shape == (3, 1)


class TestSeriesFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = GridSpec(n_rows=2, n_cols=3, variables=("u", "v"))
        dates = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(9))
        raw = RawSeries(values=rng.normal(size=(9, 2, 6)), grid=grid, dates=dates)
        path = tmp_path / "series.bin"
        save_series(raw, path)
        back = load_series(path)
        assert isinstance(back, RawSeries)
        np.testing.assert_array_equal(back.values, raw.values)
        assert back.grid == grid
        assert back.dates == dates

    def test_state_series_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        raw = small_raw(rng, T=12)
        state = standardize(raw)
        path = tmp_path / "state.bin"
        save_series(state, path)
        back = load_series(path)
        assert isinstance(back, StateSeries)
        np.testing.assert_array_equal(back.matrix, state.matrix)
        np.testing.assert_array_equal(back.standardization.mean, state.standardization.mean)
        np.testing.assert_array_equal(back.standardization.sd, state.standardization.sd)

    def test_header_contents(self, tmp_path):
        rng = np.random.default_rng(8)
        raw = small_raw(rng, T=3)
        path = tmp_path / "series.bin"
        save_series(raw, path)
        first, second, body = path.read_bytes().split(b"\n", 2)
        assert first == b"STVAR-SERIES v2"
        meta = {"n_days": 3, "grid": {"n_rows": 2, "n_cols": 3, "variables": ["u", "v"]},
                "dates": None, "standardization": None}
        assert second == json.dumps(meta, sort_keys=True).encode()
        assert body == raw.values.astype("<f8").tobytes()

    @pytest.mark.parametrize("kind", ["raw", "raw-dated", "per-variable", "per-cell"])
    def test_saving_a_loaded_series_gives_the_same_bytes(self, tmp_path, kind):
        rng = np.random.default_rng(11)
        raw = small_raw(rng, T=6)
        if kind != "raw":
            dates = tuple(dt.date(1999, 12, 29) + dt.timedelta(days=i) for i in range(6))
            raw = RawSeries(values=raw.values, grid=raw.grid, dates=dates)
        series = {"per-variable": lambda: standardize(raw),
                  "per-cell": lambda: standardize(raw, per_cell=True)}.get(kind, lambda: raw)()
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_series(series, first)
        save_series(load_series(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_short_read(self, tmp_path):
        rng = np.random.default_rng(9)
        raw = small_raw(rng, T=5)
        path = tmp_path / "series.bin"
        save_series(raw, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ShortRead):
            load_series(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        raw = small_raw(rng, T=5)
        path = tmp_path / "series.bin"
        save_series(raw, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DimensionMismatch):
            load_series(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"STVAR-SERIES v3\n{}\n" + b"\x00" * 8)
        with pytest.raises(MalformedHeader, match="expected 'STVAR-SERIES v2'"):
            load_series(path)
        path.write_bytes(b"not a header at all")
        with pytest.raises(MalformedHeader):
            load_series(path)

    def test_retired_version_is_named(self, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(b"STVAR-SERIES v1 T=1 V=1 R=1 C=1\nx\n" + b"\x00" * 8)
        with pytest.raises(MalformedHeader, match="^STVAR-SERIES v1 is the retired series"):
            load_series(path)

    def test_name_count_mismatch(self, tmp_path):
        # two variable names, constants for one
        path = tmp_path / "names.bin"
        save_series(standardize(small_raw(np.random.default_rng(12), T=4)), path)
        magic, meta, body = path.read_bytes().split(b"\n", 2)
        meta = json.loads(meta)
        meta["standardization"]["mean"] = meta["standardization"]["mean"][:1]
        path.write_bytes(b"\n".join([magic, json.dumps(meta).encode(), body]))
        with pytest.raises(MalformedHeader, match="'mean' must be .* shape \\(2\\)"):
            load_series(path)
