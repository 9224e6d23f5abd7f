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
from dataclasses import dataclass

import numpy as np

from . import _doc, _lapack
from .data_model import GridSpec, StateSeries, _parse_dates
from .errors import DataError, EmptySeries, UnlabeledDate
from .mcmc import _BLOCK_NAMES, _blocks, check_draws
from .models import (
    DesignInfo,
    ModelSpec,
    PredictiveProcess,
    SEASONS,
    _A_PARTS,
    _check_knots,
    block_table,
    resolve_spec,
)
from .projection import PlanarSeries, Tessellation, _checked_tess
from .som import lattice_coords


@dataclass(frozen=True)
class TruthBundle:
    """A model spec, a coefficient layout, and the generating parameters: one
    valid draw of the layout's blocks whose transition blocks all have
    spectral radius below 1. A spatial intercept eta(s) = Q (w1(s), w2(s))'
    has knots, decay rates theta, q and knot values wstar; without one these
    are None."""

    info: DesignInfo
    phi: np.ndarray
    sigma: np.ndarray
    knots: np.ndarray | None = None
    theta: np.ndarray | None = None
    q: np.ndarray | None = None
    wstar: np.ndarray | None = None

    def __post_init__(self):
        spatial = self.spec.eta_structure == "spatial"
        if (self.knots is None) == spatial:
            raise DataError("knots must be set just when eta_structure is 'spatial'")
        if spatial:
            object.__setattr__(self, "knots", _check_knots(self.knots))
        m = len(self.knots) if spatial else None
        # check_draws refuses the blocks given if they are not the layout's
        blocks = dict.fromkeys(name for name in _BLOCK_NAMES if getattr(self, name) is not None)
        for name, shape in _blocks(self.info.n_columns, m):
            if name in blocks:
                value = _doc.reals(getattr(self, name), name, shape)
                object.__setattr__(self, name, value)
                blocks[name] = value[None]
        check_draws(blocks, self.info.n_columns, m)
        rho = self.spectral_radii()
        if rho.size and rho.max() >= 1.0:
            raise DataError(f"truth has a block with spectral radius {rho.max():.3f}")

    @property
    def spec(self) -> ModelSpec:
        return self.info.spec

    def a_block(self, i: int) -> np.ndarray:
        """Transition matrix of block i (Phi rows transposed back)."""
        return self.phi[2 * i : 2 * i + 2, :].T

    def spectral_radii(self) -> np.ndarray:
        """Each transition block's spectral radius, from one `eigvals` over
        the (n_a, 2, 2) stack of blocks."""
        stack = self.phi[: 2 * self.info.n_a].reshape(-1, 2, 2).transpose(0, 2, 1)
        return np.abs(np.linalg.eigvals(stack)).max(axis=1)


def _span_length(n_days) -> int:
    """`n_days` as the length of a simulated span: a positive integer."""
    n_days = _doc.nonneg_int(n_days, "n_days")
    if n_days < 1:
        raise EmptySeries("a simulated span needs at least one day")
    return n_days


def _start_day(start_date) -> _dt.date:
    """`start_date` (a date or an ISO string) as a date, by the date rule of
    stvar.data_model."""
    (d0,) = _parse_dates([start_date], f"start date {start_date!r}")
    return d0


def _day_span(start_date: _dt.date | str, n_days: int) -> tuple:
    """The n_days dates from day 0 on `start_date` (a date or an ISO string):
    the one rule for a simulated span. A DataError names a count that is not
    a positive integer, a malformed start date or the first day past the
    last representable date."""
    n_days = _span_length(n_days)
    d0 = _start_day(start_date)
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
    """Roll the recursion s_{t+1} = A s_t + eta + eps forward from s0, a
    pair of finite reals.

    With `tess`, node_assignment holds each day's cell, found on the walk
    one point at a time by `Tessellation._cell`: the cells `tess.assign`
    gives the finished path. A spec with cell blocks takes each day's
    transition block from its cell, and its truth may name no cell past the
    tessellation's.
    """
    if _doc.nonneg_int(n_days, "n_days") < 2:
        raise EmptySeries("need at least 2 days to simulate")
    _doc.nonneg_int(seed, "seed")
    start = _doc.reals(s0, "s0", (2,))
    tess = _checked_tess(tess)
    spec = truth.spec
    if spec.needs_cells:
        if tess is None:
            raise DataError("cell-dependent truth needs a tessellation")
        at = _A_PARTS[spec.a_structure].index("cell")
        last = max((key[at] for key in truth.info.a_keys), default=-1)
        if last >= tess.n_cells:
            raise DataError(f"truth has a transition block for cell {last}, past the "
                            f"tessellation's {tess.n_cells} cells")
    dates = None if start_date is None else _day_span(start_date, n_days)
    if spec.needs_dates and dates is None:
        raise UnlabeledDate(f"{spec.a_structure}/{spec.eta_structure} needs a start date")

    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(truth.sigma)
    noise = rng.standard_normal((n_days - 1, 2)) @ L.T

    # spatial intercept: fold C*^{-1} into the knot values of each field
    # once; each step then needs only its point's knot distances, whose
    # exp(-theta * distance) are exp_corr's cross-correlations
    fields = ()
    if truth.knots is not None:
        pp = PredictiveProcess(truth.knots, np.empty((0, 2)))
        fields = [(theta, _lapack.cho_solve((pp.factor(theta)[0], True), wstar))
                  for theta, wstar in zip(map(float, truth.theta), truth.wstar)]

    # every source day is labeled once, up front; only its cell waits for the path
    info = truth.info
    by_cell = spec.needs_cells
    a_of, eta_of = block_table(info, n_days - 1, tess.n_cells if by_cell else 1,
                               None if dates is None else dates[:-1])
    blocks = [truth.a_block(i) for i in range(info.n_a)]
    intercepts = truth.phi[2 * info.n_a:]
    pts = np.empty((n_days, 2))
    pts[0] = start
    assignment = None if tess is None else np.empty(n_days, dtype=np.intp)
    for t in range(n_days - 1):
        s = pts[t]
        if tess is not None:
            assignment[t] = tess._cell(s)
        if a_of is None:
            mean = s.copy()
        else:
            mean = blocks[a_of[t, assignment[t] if by_cell else 0]] @ s
        if eta_of is not None:
            mean = mean + intercepts[eta_of[t]]
        if fields:
            d = _lapack.cdist(s[None, :], truth.knots)[0]
            eta = np.array([np.exp(-theta * d) @ v for theta, v in fields])
            mean = mean + truth.q @ eta
        pts[t + 1] = mean + noise[t]

    if tess is not None:
        assignment[-1] = tess._cell(pts[-1])
    return PlanarSeries(points=pts, node_assignment=assignment, dates=dates)


def simulate_uniform_cloud(n: int, rect=(0.0, 1.0, 0.0, 1.0), seed: int = 0) -> StateSeries:
    """n independent uniform draws over (xmin, xmax, ymin, ymax)."""
    if _doc.nonneg_int(n, "n") < 1:
        raise EmptySeries("need at least one point")
    _doc.nonneg_int(seed, "seed")
    xmin, xmax, ymin, ymax = _doc.reals(rect, "rect", (4,))
    if not (xmax > xmin and ymax > ymin):
        raise DataError("rectangle must have positive width and height")
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n)])
    grid = GridSpec(n_rows=1, n_cols=1, variables=("x", "y"))
    return StateSeries(matrix=pts, grid=grid)


def default_tessellation(n_nodes: int = 12) -> Tessellation:
    """Lattice-site tessellation matching an untrained map's layout."""
    return Tessellation(sites=lattice_coords(n_nodes))


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
    tess = _checked_tess(tess)
    cells = range(tess.n_cells) if (tess is not None and spec.needs_cells) else ()
    dates = None
    if start_date is not None and n_days is not None:
        dates = _day_span(start_date, n_days)
    elif start_date is not None:  # a lone value has its own rule
        _start_day(start_date)
    elif n_days is not None:
        _span_length(n_days)
    years = season_years = ()
    if {"year", "season_year"} & set(spec.label_parts):
        if dates is None:
            raise DataError("year-blocked truth needs start_date and n_days")
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
        sigma=DEFAULT_SIGMA.copy() if sigma is None else sigma,
        **spatial,
    )
