"""Synthetic planar trajectories with known truth, for calibration studies.

Truth coefficients are deterministic functions of the block index (damped
rotations with varying contraction and angle), so every fixture is stable
across runs and documented by its own source: block i of K gets

    A_i = rho_i * [[cos w_i, -sin w_i], [sin w_i, cos w_i]],
    rho_i = 0.55 + 0.35 * i / max(K-1, 1),  w_i = -0.5 + 1.0 * i / max(K-1, 1)

and intercept block j of K' gets 0.8 * (cos(2 pi j / K'), sin(2 pi j / K')).
"""

from __future__ import annotations

import datetime as _dt
import warnings
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .data_model import GridSpec, StateSeries
from .errors import DataError, EmptySeries, ExplosiveWarning, UnlabeledDate
from .mcmc import _BLOCK_NAMES, check_draws
from .models import (
    DesignInfo,
    ModelSpec,
    PredictiveProcess,
    SEASONS,
    _check_knots,
    exp_corr,
    resolve_spec,
)
from .projection import PlanarSeries, Tessellation
from .som import lattice_coords


@dataclass(frozen=True)
class TruthBundle:
    """A model spec, a coefficient layout, and the generating parameters: one
    valid draw of the layout's blocks. A spatial intercept eta(s) = Q (w1(s),
    w2(s))' has knots, decay rates theta, q and knot values wstar; without
    one these are None."""

    info: DesignInfo
    phi: np.ndarray
    sigma: np.ndarray
    knots: np.ndarray | None = None
    theta: np.ndarray | None = None
    q: np.ndarray | None = None
    wstar: np.ndarray | None = None
    stationary: bool = True

    def __post_init__(self):
        spatial = self.spec.eta_structure == "spatial"
        if (self.knots is None) == spatial:
            raise DataError("knots must be set just when eta_structure is 'spatial'")
        blocks = {}
        for name in _BLOCK_NAMES:
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                object.__setattr__(self, name, value)
                blocks[name] = value[None]
        if spatial:
            object.__setattr__(self, "knots", _check_knots(self.knots))
        check_draws(blocks, self.info.n_columns, self.knots.shape[0] if spatial else None)
        if self.stationary:
            rho = self.spectral_radii()
            if rho.size and rho.max() >= 1.0:
                raise DataError(
                    f"stationary truth has a block with spectral radius {rho.max():.3f}"
                )

    @property
    def spec(self) -> ModelSpec:
        return self.info.spec

    def a_block(self, i: int) -> np.ndarray:
        """Transition matrix of block i (Phi rows transposed back)."""
        return self.phi[2 * i : 2 * i + 2, :].T

    def spectral_radii(self) -> np.ndarray:
        return np.array(
            [np.abs(np.linalg.eigvals(self.a_block(i))).max() for i in range(self.info.n_a)]
        )


def _day_span(start_date: _dt.date | str, n_days: int) -> tuple:
    """The n_days dates from day 0 on `start_date` (a date or an ISO string);
    a DataError names a malformed string or the first day past the last
    representable date."""
    try:
        d0 = start_date if isinstance(start_date, _dt.date) else _dt.date.fromisoformat(start_date)
    except ValueError as exc:
        raise DataError(f"bad start date {start_date!r}: {exc}") from exc
    room = (_dt.date.max - d0).days
    if n_days - 1 > room:
        raise DataError(f"{n_days} days from {d0} run past {_dt.date.max}: day {room + 1} "
                        f"(day 0 is the start date) is out of range")
    return tuple(d0 + _dt.timedelta(days=i) for i in range(n_days))


def simulate_var(
    truth: TruthBundle,
    n_days: int,
    s0=(0.0, 0.0),
    tess: Tessellation | None = None,
    start_date: _dt.date | str | None = None,
    seed: int = 0,
) -> PlanarSeries:
    """Roll the recursion s_{t+1} = A s_t + eta + eps forward from s0."""
    if n_days < 2:
        raise EmptySeries("need at least 2 days to simulate")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed!r}")
    spec = truth.spec
    if spec.needs_cells and tess is None:
        raise DataError("cell-dependent truth needs a tessellation")
    dates = None if start_date is None else _day_span(start_date, n_days)
    if spec.needs_dates and dates is None:
        raise UnlabeledDate(f"{spec.a_structure}/{spec.eta_structure} needs a start date")

    rho = truth.spectral_radii()
    if rho.size and rho.max() >= 1.0:
        warnings.warn(
            f"transition block with spectral radius {rho.max():.3f} >= 1",
            ExplosiveWarning,
            stacklevel=2,
        )

    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(truth.sigma)
    noise = rng.standard_normal((n_days - 1, 2)) @ L.T

    # spatial intercept: fold C*^{-1} into the knot values once, then each
    # step only needs the cross-correlation vector
    v = None
    if truth.knots is not None:
        pp = PredictiveProcess(truth.knots, np.empty((0, 2)))
        v = [_lapack.cho_solve((pp.factor(float(truth.theta[k]))[0], True), truth.wstar[k])
             for k in range(2)]

    info = truth.info
    n_a = info.n_a
    pts = np.empty((n_days, 2))
    pts[0] = np.asarray(s0, dtype=float)
    for t in range(n_days - 1):
        s = pts[t]
        date = dates[t] if dates is not None else None
        cell = tess.assign_one(s) if spec.needs_cells else None
        i = info.a_index(cell, date)
        mean = s.copy() if i is None else truth.a_block(i) @ s
        j = info.eta_index(date)
        if j is not None:
            mean = mean + truth.phi[2 * n_a + j]
        if v is not None:
            eta = np.empty(2)
            for k in range(2):
                c = exp_corr(s[None, :], truth.knots, float(truth.theta[k]))[0]
                eta[k] = c @ v[k]
            mean = mean + truth.q @ eta
        pts[t + 1] = mean + noise[t]

    assignment = tess.assign(pts) if tess is not None else None
    return PlanarSeries(points=pts, node_assignment=assignment, dates=dates)


def simulate_uniform_cloud(n: int, rect=(0.0, 1.0, 0.0, 1.0), seed: int = 0) -> StateSeries:
    """n independent uniform draws over (xmin, xmax, ymin, ymax)."""
    if n < 1:
        raise EmptySeries("need at least one point")
    xmin, xmax, ymin, ymax = (float(v) for v in rect)
    if not (xmax > xmin and ymax > ymin):
        raise DataError("rectangle must have positive width and height")
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n)])
    grid = GridSpec(n_rows=1, n_cols=1, variables=("x", "y"))
    return StateSeries(matrix=pts, grid=grid)


def default_tessellation(n_nodes: int = 12, scale: float = 1.0) -> Tessellation:
    """Lattice-site tessellation matching an untrained map's layout."""
    return Tessellation(sites=scale * lattice_coords(n_nodes))


def _rotation_block(i: int, k: int) -> np.ndarray:
    frac = i / max(k - 1, 1)
    rho = 0.55 + 0.35 * frac
    w = -0.5 + 1.0 * frac
    return rho * np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])


def _intercept_block(j: int, k: int) -> np.ndarray:
    ang = 2.0 * np.pi * j / max(k, 1)
    return 0.8 * np.array([np.cos(ang), np.sin(ang)])


DEFAULT_SIGMA = np.array([[0.8, 0.2], [0.2, 0.6]])


def ladder_truth(
    spec,
    tess: Tessellation | None = None,
    start_date: _dt.date | str | None = None,
    n_days: int | None = None,
    sigma: np.ndarray | None = None,
) -> TruthBundle:
    """Deterministic truth for any ladder spec.

    Time-blocked structures declare every season/year the simulated span
    (start_date, n_days) will visit, so the layout never runs out of labels.
    """
    spec = resolve_spec(spec)
    cells = range(tess.n_cells) if (tess is not None and spec.needs_cells) else ()
    years = season_years = ()
    if {"year", "season_year"} & set(spec.label_parts):
        if start_date is None or n_days is None:
            raise DataError("year-blocked truth needs start_date and n_days")
        dates = _day_span(start_date, n_days)
        years = tuple(range(dates[0].year, dates[-1].year + 1))
        season_years = tuple(range(dates[0].year, dates[-1].year + 2))
    info = DesignInfo.from_declared(
        spec, cells=cells, seasons=SEASONS, years=years, season_years=season_years
    )

    phi = np.zeros((info.n_columns, 2))
    for i in range(info.n_a):
        phi[2 * i : 2 * i + 2, :] = _rotation_block(i, info.n_a).T
    for j in range(info.n_eta):
        phi[2 * info.n_a + j, :] = _intercept_block(j, info.n_eta)

    spatial = {}
    if spec.eta_structure == "spatial":
        base = tess.sites if tess is not None else lattice_coords(12)
        knots = spec.knot_grid.build(base)
        kx, ky = knots[:, 0], knots[:, 1]
        spatial = dict(
            knots=knots,
            theta=np.array([0.5, 0.8]),
            q=np.array([[0.6, 0.0], [0.2, 0.5]]),
            wstar=np.vstack([np.sin(kx) * np.cos(ky), np.cos(0.7 * kx + 0.3 * ky)]),
        )

    return TruthBundle(
        info=info,
        phi=phi,
        sigma=DEFAULT_SIGMA.copy() if sigma is None else np.asarray(sigma, dtype=float),
        **spatial,
    )
