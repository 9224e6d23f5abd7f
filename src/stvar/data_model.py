"""Gridded daily series containers, standardization, and binary series files.

A raw series holds T daily fields of V physical variables on an R x C spatial
grid. Flattening concatenates the per-variable cell blocks into a single state
vector of dimension d = V * R * C per day, so row t is

    (var_0 at cells 0..RC-1, var_1 at cells 0..RC-1, ...)

Series files use the framing of ``stvar._doc``: the magic line, one JSON
metadata line, then the (T, V, R*C) values as raw little-endian float64::

    STVAR-SERIES v2
    {"dates": [...] or null, "grid": {"n_cols": C, "n_rows": R, "variables": [...]},
     "n_days": T, "standardization": {"mean", "per_cell", "sd"} or null}
    <T*V*R*C doubles>

The one file holds the dates and standardization constants, so a save/load
round trip is lossless and a copy of the file is a copy of the series. Scales
are always the DDOF = 1 standard deviation; the ``ddof`` key that older files
carry in ``standardization`` is ignored.
"""

from __future__ import annotations

import datetime as _dt
import operator
from dataclasses import asdict, dataclass

import numpy as np

from . import _doc
from .errors import DataError, DimensionMismatch, EmptySeries, ZeroVariance

DDOF = 1  # standardize scales by the unbiased standard deviation


@dataclass(frozen=True)
class GridSpec:
    """Static description of the spatial grid and variable list."""

    n_rows: int
    n_cols: int
    variables: tuple[str, ...]

    def __post_init__(self):
        for name in ("n_rows", "n_cols"):
            object.__setattr__(self, name, _doc.nonneg_int(getattr(self, name), name))
        if self.n_rows < 1 or self.n_cols < 1:
            raise DataError("grid must have at least one row and one column")
        if not (isinstance(self.variables, (tuple, list))
                and all(isinstance(name, str) for name in self.variables)):
            raise DataError(f"variables must be a sequence of strings, got {self.variables!r}")
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) < 1:
            raise DataError("grid needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise DataError("variable names must be unique")
        for name in self.variables:
            if not name or "," in name or "\n" in name:
                raise DataError(f"invalid variable name {name!r}")

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def d(self) -> int:
        """State dimension of one flattened day."""
        return self.n_variables * self.n_cells


@dataclass(frozen=True)
class Standardization:
    """Per-variable (or per variable and cell) location/scale constants."""

    mean: np.ndarray
    sd: np.ndarray
    per_cell: bool = False

    def __post_init__(self):
        mean = _doc.reals(self.mean, "mean", (None, None) if self.per_cell else (None,))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sd", _doc.reals(self.sd, "sd", mean.shape))
        if np.any(self.sd <= 0.0):
            raise DataError("standardization scales must be positive")


def _parse_dates(values, what: str = "date") -> tuple[_dt.date, ...]:
    """Each of `values` as a date: a date stays one, anything else is read
    as an ISO string through str. The one date parser of the package; a
    DataError says "bad {what}"."""
    try:
        try:  # ISO strings, as files hold them, in one C-level pass
            return tuple(map(_dt.date.fromisoformat, values))
        except TypeError:  # dates, or values read through str
            return tuple(
                d if isinstance(d, _dt.date) else _dt.date.fromisoformat(str(d)) for d in values
            )
    except ValueError as exc:
        raise DataError(f"bad {what}: {exc}") from None


def _check_dates(dates, n: int) -> tuple[_dt.date, ...] | None:
    if dates is None:
        return None
    out = _parse_dates(dates)
    if len(out) != n:
        raise DimensionMismatch(f"{len(out)} dates for {n} days")
    if not all(map(operator.lt, out, out[1:])):
        raise DataError("dates must be strictly increasing")
    return out


@dataclass(frozen=True)
class RawSeries:
    """T daily fields, shape (T, V, n_cells), in physical units."""

    values: np.ndarray
    grid: GridSpec
    dates: tuple[_dt.date, ...] | None = None

    def __post_init__(self):
        grid = self.grid
        values = _doc.reals(self.values, "values", (None, grid.n_variables, grid.n_cells))
        object.__setattr__(self, "values", values)
        if len(values) < 1:
            raise EmptySeries("series has no days")
        object.__setattr__(self, "dates", _check_dates(self.dates, len(values)))

    @property
    def n_days(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class StateSeries:
    """T flattened state vectors, shape (T, d)."""

    matrix: np.ndarray
    grid: GridSpec
    standardization: Standardization | None = None
    dates: tuple[_dt.date, ...] | None = None

    def __post_init__(self):
        matrix = _doc.reals(self.matrix, "matrix", (None, self.grid.d))
        object.__setattr__(self, "matrix", matrix)
        if len(matrix) < 1:
            raise EmptySeries("series has no days")
        object.__setattr__(self, "dates", _check_dates(self.dates, len(matrix)))

    @property
    def n_days(self) -> int:
        return self.matrix.shape[0]


def flatten(values: np.ndarray) -> np.ndarray:
    """(T, V, cells) -> (T, V*cells), variable-major."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise DimensionMismatch(f"expected a 3-d array, got shape {values.shape}")
    T = values.shape[0]
    return values.reshape(T, -1)


def unflatten(matrix: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(T, d) -> (T, V, cells); inverse of flatten for a matching grid."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != grid.d:
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} does not factor over grid d={grid.d}"
        )
    return matrix.reshape(matrix.shape[0], grid.n_variables, grid.n_cells)


def as_matrix(data) -> np.ndarray:
    """A StateSeries' matrix, a RawSeries flattened, or an array of finite
    reals as a (T, d) float matrix; a 1-d array is one column."""
    if isinstance(data, StateSeries):
        return data.matrix
    if isinstance(data, RawSeries):
        return flatten(data.values)
    out = _doc.reals(data, "data", None)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise DimensionMismatch(f"expected a (T, d) matrix, got shape {out.shape}")
    return out


def standardize(raw: RawSeries, per_cell: bool = False) -> StateSeries:
    """Center and scale each variable over all days and cells.

    With ``per_cell=True`` every (variable, cell) pair gets its own constants,
    which removes the local climatology instead of only the variable's pooled
    one. Scales use the unbiased (DDOF = 1) standard deviation.
    """
    T, V, C = raw.values.shape
    if T < 2:
        raise EmptySeries("need at least two days to standardize")
    if per_cell:
        mean = raw.values.mean(axis=0)
        sd = raw.values.std(axis=0, ddof=DDOF)
        bad = ~(sd > 0) | ~np.isfinite(sd)
        if np.any(bad):
            v, c = np.argwhere(bad)[0]
            raise ZeroVariance(f"{raw.grid.variables[v]}[cell {c}]")
        z = (raw.values - mean) / sd
    else:
        pooled = raw.values.transpose(1, 0, 2).reshape(V, -1)
        mean = pooled.mean(axis=1)
        sd = pooled.std(axis=1, ddof=DDOF)
        bad = ~(sd > 0) | ~np.isfinite(sd)
        if np.any(bad):
            raise ZeroVariance(raw.grid.variables[int(np.argmax(bad))])
        z = (raw.values - mean[None, :, None]) / sd[None, :, None]
    return StateSeries(
        matrix=flatten(z),
        grid=raw.grid,
        standardization=Standardization(mean=mean, sd=sd, per_cell=per_cell),
        dates=raw.dates,
    )


def destandardize(series: StateSeries) -> RawSeries:
    """Undo the standardization: original-unit fields, shape (T, V, cells)."""
    if series.standardization is None:
        raise DataError("series carries no standardization constants")
    std = series.standardization
    z = unflatten(series.matrix, series.grid)
    if std.per_cell:
        values = std.mean + std.sd * z
    else:
        values = std.mean[None, :, None] + std.sd[None, :, None] * z
    return RawSeries(values=values, grid=series.grid, dates=series.dates)


_MAGIC = b"STVAR-SERIES v2"


def save_series(series: RawSeries | StateSeries, path) -> None:
    """Write the framed series file; its metadata holds the grid, the dates
    and any standardization constants."""
    if isinstance(series, StateSeries):
        values = unflatten(series.matrix, series.grid)
        std = series.standardization
    elif isinstance(series, RawSeries):
        values, std = series.values, None
    else:
        raise DataError(f"cannot save a {type(series).__name__} as a series file")
    _doc.write_framed(path, _MAGIC, {
        "n_days": values.shape[0],
        "grid": asdict(series.grid),
        "dates": None if series.dates is None else [d.isoformat() for d in series.dates],
        "standardization": None if std is None else {
            "mean": std.mean.tolist(), "sd": std.sd.tolist(),
            "per_cell": std.per_cell},
    }, values)


@_doc.names_path
def load_series(path) -> RawSeries | StateSeries:
    """Read a series file; returns a StateSeries when its metadata records
    standardization constants, otherwise a RawSeries."""
    kind = "series metadata"
    meta, blob, offset = _doc.read_framed(path, _MAGIC, kind)
    meta = _doc.fields(meta, kind, {"n_days": int, "grid": dict, "dates": (list, None),
                                    "standardization": (dict, None)})
    grid = _doc.record(GridSpec, meta["grid"], f"{kind} grid")
    V, RC = grid.n_variables, grid.n_cells
    values = _doc.float64s(blob, offset, (meta["n_days"], V, RC))
    if meta["standardization"] is None:
        return RawSeries(values=values, grid=grid, dates=meta["dates"])
    kind += " standardization"
    s = _doc.fields(meta["standardization"], kind,
                    {"mean": list, "sd": list, "per_cell": bool})
    mean, sd = (_doc.array(s[k], kind, k, (V, RC) if s["per_cell"] else (V,))
                for k in ("mean", "sd"))
    standardization = Standardization(mean=mean, sd=sd, per_cell=s["per_cell"])
    return StateSeries(matrix=flatten(values), grid=grid, standardization=standardization,
                       dates=meta["dates"])
