"""Gridded daily series containers, standardization, and binary series files.

A raw series holds T daily fields of V physical variables on an R x C spatial
grid. Flattening concatenates the per-variable cell blocks into a single state
vector of dimension d = V * R * C per day, so row t is

    (var_0 at cells 0..RC-1, var_1 at cells 0..RC-1, ...)

Series files are a one-line ASCII header, a comma-separated variable-name
line, then the raw little-endian float64 payload::

    STVAR-SERIES v1 T=<int> V=<int> R=<int> C=<int>
    <name>,<name>,...
    <T*V*R*C doubles>

Dates and standardization constants ride in an optional JSON sidecar next to
the binary file (``<path>.meta.json``), so a save/load round trip is lossless.
"""

from __future__ import annotations

import datetime as _dt
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _doc
from .errors import (
    DataError,
    DimensionMismatch,
    EmptySeries,
    MalformedHeader,
    ZeroVariance,
)

_HEADER_RE = re.compile(r"^STVAR-SERIES v1 T=(\d+) V=(\d+) R=(\d+) C=(\d+)$", re.ASCII)


@dataclass(frozen=True)
class GridSpec:
    """Static description of the spatial grid and variable list."""

    n_rows: int
    n_cols: int
    variables: tuple[str, ...]

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise DataError("grid must have at least one row and one column")
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
    ddof: int = 1

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "sd", np.asarray(self.sd, dtype=float))
        if self.mean.shape != self.sd.shape:
            raise DimensionMismatch("mean and sd shapes differ")
        want_ndim = 2 if self.per_cell else 1
        if self.mean.ndim != want_ndim:
            raise DimensionMismatch(
                f"expected {want_ndim}-d standardization constants, got {self.mean.ndim}-d"
            )
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.sd)):
            raise DataError("standardization constants must be finite")
        if np.any(self.sd <= 0.0):
            raise DataError("standardization scales must be positive")


def _check_dates(dates, n: int) -> tuple[_dt.date, ...] | None:
    if dates is None:
        return None
    try:
        out = tuple(
            d if isinstance(d, _dt.date) else _dt.date.fromisoformat(str(d)) for d in dates
        )
    except ValueError as exc:
        raise DataError(f"bad date: {exc}") from None
    if len(out) != n:
        raise DimensionMismatch(f"{len(out)} dates for {n} days")
    for a, b in zip(out, out[1:]):
        if b <= a:
            raise DataError("dates must be strictly increasing")
    return out


@dataclass(frozen=True)
class RawSeries:
    """T daily fields, shape (T, V, n_cells), in physical units."""

    values: np.ndarray
    grid: GridSpec
    dates: tuple[_dt.date, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 3:
            raise DimensionMismatch(f"values must be (T, V, cells), got {values.shape}")
        T, V, C = values.shape
        if T < 1:
            raise EmptySeries("series has no days")
        if V != self.grid.n_variables or C != self.grid.n_cells:
            raise DimensionMismatch(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.n_variables} variables, {self.grid.n_cells} cells)"
            )
        if not np.all(np.isfinite(values)):
            raise DataError("series contains non-finite values")
        object.__setattr__(self, "dates", _check_dates(self.dates, T))

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
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2:
            raise DimensionMismatch(f"matrix must be (T, d), got {matrix.shape}")
        if matrix.shape[0] < 1:
            raise EmptySeries("series has no days")
        if matrix.shape[1] != self.grid.d:
            raise DimensionMismatch(
                f"state dimension {matrix.shape[1]} does not match grid d={self.grid.d}"
            )
        if not np.all(np.isfinite(matrix)):
            raise DataError("series contains non-finite values")
        object.__setattr__(self, "dates", _check_dates(self.dates, matrix.shape[0]))

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
    """Coerce a StateSeries, RawSeries, or array to a (T, d) float matrix."""
    if isinstance(data, StateSeries):
        return data.matrix
    if isinstance(data, RawSeries):
        return flatten(data.values)
    out = np.asarray(data, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise DimensionMismatch(f"expected a (T, d) matrix, got shape {out.shape}")
    return out


def standardize(raw: RawSeries, per_cell: bool = False, ddof: int = 1) -> StateSeries:
    """Center and scale each variable over all days and cells.

    With ``per_cell=True`` every (variable, cell) pair gets its own constants,
    which removes the local climatology instead of only the variable's pooled
    one. Scales use the unbiased ``ddof=1`` standard deviation.
    """
    T, V, C = raw.values.shape
    if T < 2:
        raise EmptySeries("need at least two days to standardize")
    if per_cell:
        mean = raw.values.mean(axis=0)
        sd = raw.values.std(axis=0, ddof=ddof)
        bad = ~(sd > 0) | ~np.isfinite(sd)
        if np.any(bad):
            v, c = np.argwhere(bad)[0]
            raise ZeroVariance(f"{raw.grid.variables[v]}[cell {c}]")
        z = (raw.values - mean) / sd
    else:
        pooled = raw.values.transpose(1, 0, 2).reshape(V, -1)
        mean = pooled.mean(axis=1)
        sd = pooled.std(axis=1, ddof=ddof)
        bad = ~(sd > 0) | ~np.isfinite(sd)
        if np.any(bad):
            raise ZeroVariance(raw.grid.variables[int(np.argmax(bad))])
        z = (raw.values - mean[None, :, None]) / sd[None, :, None]
    return StateSeries(
        matrix=flatten(z),
        grid=raw.grid,
        standardization=Standardization(mean=mean, sd=sd, per_cell=per_cell, ddof=ddof),
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


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def save_series(series: RawSeries | StateSeries, path) -> None:
    """Write the binary series file (and a JSON sidecar when needed)."""
    if isinstance(series, StateSeries):
        values = unflatten(series.matrix, series.grid)
        standardization = series.standardization
    elif isinstance(series, RawSeries):
        values = series.values
        standardization = None
    else:
        raise DataError(f"cannot save a {type(series).__name__} as a series file")
    grid = series.grid
    T = values.shape[0]
    header = f"STVAR-SERIES v1 T={T} V={grid.n_variables} R={grid.n_rows} C={grid.n_cols}\n"
    names = ",".join(grid.variables) + "\n"
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    Path(path).write_bytes(header.encode("ascii") + names.encode("utf-8") + payload)

    meta = {}
    if series.dates is not None:
        meta["dates"] = [d.isoformat() for d in series.dates]
    if standardization is not None:
        meta["standardization"] = {
            "mean": standardization.mean.tolist(),
            "sd": standardization.sd.tolist(),
            "per_cell": standardization.per_cell,
            "ddof": standardization.ddof,
        }
    sidecar = _sidecar_path(path)
    if meta:
        sidecar.write_text(json.dumps(meta, indent=1))
    elif sidecar.exists():
        sidecar.unlink()


def load_series(path) -> RawSeries | StateSeries:
    """Read a series file; returns a StateSeries when the sidecar records
    standardization constants, otherwise a RawSeries."""
    blob = Path(path).read_bytes()
    nl1 = blob.find(b"\n")
    if nl1 < 0:
        raise MalformedHeader("missing header line")
    header = _doc.utf8(blob[:nl1], "series header")
    m = _HEADER_RE.match(header)
    if m is None:
        raise MalformedHeader(f"unrecognized header {header!r}")
    T, V, R, C = (int(g) for g in m.groups())

    nl2 = blob.find(b"\n", nl1 + 1)
    if nl2 < 0:
        raise MalformedHeader("missing variable-name line")
    names = tuple(_doc.utf8(blob[nl1 + 1 : nl2], "series name line").split(","))
    if len(names) != V:
        raise DimensionMismatch(f"header declares {V} variables, name line has {len(names)}")
    grid = GridSpec(n_rows=R, n_cols=C, variables=names)

    values = _doc.float64s(blob, nl2 + 1, (T, V, R * C))

    sidecar, kind = _sidecar_path(path), "series sidecar"
    meta = _doc.fields(_doc.read_json(sidecar, kind) if sidecar.exists() else {}, kind,
                       optional={"dates": list, "standardization": dict})
    if "standardization" not in meta:
        return RawSeries(values=values, grid=grid, dates=meta.get("dates"))
    kind += " standardization"
    s = _doc.fields(meta["standardization"], kind,
                    {"mean": list, "sd": list, "per_cell": bool, "ddof": int})
    mean, sd = (_doc.array(s[k], kind, k, (V, R * C) if s["per_cell"] else (V,))
                for k in ("mean", "sd"))
    standardization = Standardization(mean=mean, sd=sd, per_cell=s["per_cell"], ddof=s["ddof"])
    return StateSeries(matrix=flatten(values), grid=grid, standardization=standardization,
                       dates=meta.get("dates"))
