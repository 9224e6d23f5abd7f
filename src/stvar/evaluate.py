"""Predictive scoring, information criteria, and transition diagnostics.

Scores compare models on a common trajectory: RMSPE of the one-step
predictive mean, empirical coverage of predictive regions, and DIC with its
effective-parameter penalty. Transition matrices summarize movement between
tessellation cells, both as observed and as a fitted model implies.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field

import numpy as np

from .data_model import GridSpec, StateSeries, destandardize, unflatten
from .errors import (
    DataError,
    DegenerateDraws,
    EmptySeries,
    GridMismatch,
    LengthMismatch,
    SingularDesign,
    UnlabeledDate,
)
from .mcmc import Chain, SeriesPrediction, chain_design, mean_paths, predict_series
from .models import DesignPair, ModelSpec, block_indices
from .projection import PlanarSeries, Tessellation
from .som import SomModel, lattice_shape

MIN_COVERAGE_DRAWS = 100


def rmspe(mean, actual) -> float:
    """Root mean squared Euclidean one-step error of the predictive mean."""
    mean = np.asarray(mean, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if mean.shape != actual.shape:
        raise LengthMismatch(f"shapes {mean.shape} and {actual.shape} differ")
    return float(np.sqrt(np.mean(np.sum((mean - actual) ** 2, axis=-1))))


def draw_quantiles(draws, qs) -> np.ndarray:
    """np.quantile(draws, qs, axis=0) of finite draws, with the default
    linear method, from one sort of the draw axis; shape
    qs.shape + draws.shape[1:].

    np.quantile partitions the draw axis around every order statistic it
    needs, in place along the slow axis; sorting the contiguous transpose
    once is cheaper. Each quantile then interpolates between the two order
    statistics around (N - 1) q with numpy's own arithmetic, so the values
    are np.quantile's. Only the sign of a zero may differ, where -0.0 and
    0.0 tie and the two algorithms leave them in different orders.
    """
    draws = np.asarray(draws, dtype=float)
    qs = np.asarray(qs, dtype=float)
    N = draws.shape[0]
    s = np.moveaxis(draws, 0, -1).copy()
    s.sort(axis=-1)
    out = np.empty(qs.shape + s.shape[:-1])
    flat = out.reshape((qs.size,) + s.shape[:-1])
    for k, q in enumerate(qs.flat):
        v = (N - 1) * q
        if v >= N - 1:  # numpy takes the last element, weighting it by v + 1
            lo = hi = N - 1
            g = v + 1.0
        else:
            lo = math.floor(v)
            hi, g = lo + 1, v - lo
        a, b = s[..., lo], s[..., hi]
        diff = b - a
        flat[k] = b - diff * (1.0 - g) if g >= 0.5 else a + diff * g
    return out


def coverage(pred: SeriesPrediction, level: float = 0.95, method: str = "ellipse") -> float:
    """Share of actual next-day positions inside their predictive region.

    "ellipse" thresholds each day's squared Mahalanobis distance (under the
    draw cloud's own mean and covariance) at the draws' empirical `level`
    quantile; "rect" uses per-coordinate equal-tail intervals.
    """
    if not 0.0 < level < 1.0:
        raise DataError("level must be in (0, 1)")
    draws, actual = pred.draws, pred.actual
    B = draws.shape[0]
    if B < MIN_COVERAGE_DRAWS:
        raise DegenerateDraws(f"need at least {MIN_COVERAGE_DRAWS} draws, got {B}")
    if method == "rect":
        lo, hi = draw_quantiles(draws, [(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0])
        inside = np.all((actual >= lo) & (actual <= hi), axis=-1)
        return float(inside.mean())
    if method != "ellipse":
        raise DataError(f"unknown coverage method {method!r}")

    centers = draws.mean(axis=0)
    dev = draws - centers
    sxx = np.einsum("bn,bn->n", dev[..., 0], dev[..., 0]) / (B - 1)
    syy = np.einsum("bn,bn->n", dev[..., 1], dev[..., 1]) / (B - 1)
    sxy = np.einsum("bn,bn->n", dev[..., 0], dev[..., 1]) / (B - 1)
    det = sxx * syy - sxy**2
    if np.any(det <= 0.0):
        raise DegenerateDraws("a day's draw cloud is rank deficient")

    def mahal2(dx, dy):
        return (syy * dx**2 - 2.0 * sxy * dx * dy + sxx * dy**2) / det

    d2_draws = mahal2(dev[..., 0], dev[..., 1])
    d2_actual = mahal2(actual[:, 0] - centers[:, 0], actual[:, 1] - centers[:, 1])
    threshold = draw_quantiles(d2_draws, level)
    return float((d2_actual <= threshold).mean())


# ---------------------------------------------------------------------------
# Deviance information criterion


REL_FLOOR = 1e-12  # smallest eigenvalue repair_pd keeps, relative to max(largest, 1)


def repair_pd(sigma: np.ndarray) -> np.ndarray:
    """Floor tiny/negative eigenvalues so a posterior-mean covariance factors."""
    sigma = 0.5 * (sigma + sigma.T)
    lam, vec = np.linalg.eigh(sigma)
    floor = max(float(lam.max()), 1.0) * REL_FLOOR
    lam = np.maximum(lam, floor)
    return (vec * lam) @ vec.T


def _gauss_deviance(resid: np.ndarray, sigma: np.ndarray) -> float:
    """-2 log likelihood of iid N(0, sigma) rows."""
    n = resid.shape[0]
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    if det <= 0.0 or sigma[0, 0] <= 0.0:
        raise DegenerateDraws("covariance draw is not positive definite")
    quad = (
        sigma[1, 1] * (resid[:, 0] ** 2).sum()
        - 2.0 * sigma[0, 1] * (resid[:, 0] * resid[:, 1]).sum()
        + sigma[0, 0] * (resid[:, 1] ** 2).sum()
    ) / det
    return float(2.0 * n * np.log(2.0 * np.pi) + n * np.log(det) + quad)


@dataclass(frozen=True)
class DicResult:
    dic: float
    p_d: float
    d_bar: float
    d_hat: float
    n_draws_used: int


def dic(
    chain: Chain,
    series: PlanarSeries,
    tess: Tessellation | None = None,
    n_draws: int | None = None,
    means: np.ndarray | None = None,
    design: DesignPair | None = None,
) -> DicResult:
    """Deviance information criterion: mean deviance plus p_D.

    D-bar averages the deviances of the draws at
    `chain.draw_indices(n_draws)`. p_D is D-bar minus the deviance at the
    posterior means, draw 0 of `chain.posterior_mean()` (covariance
    repaired to positive definite if averaging degrades it). `means` may
    hold the draws' mean paths from `mean_paths`, and `design` the chain's
    design on `series` from `chain_design`.
    """
    if design is None:
        design = chain_design(chain, series, tess)
    idx = chain.draw_indices(n_draws)
    if means is None:
        means = mean_paths(chain, design, idx)
    elif means.shape != (idx.size, design.n, 2):
        raise LengthMismatch(
            f"mean paths of shape {means.shape} do not match {idx.size} draws "
            f"of {design.n} steps"
        )
    devs = np.array([_gauss_deviance(design.Y - mean, chain.sigma[i])
                     for mean, i in zip(means, idx)])
    d_bar = float(devs.mean())

    pm = chain.posterior_mean()
    d_hat = _gauss_deviance(design.Y - mean_paths(pm, design, [0])[0],
                            repair_pd(pm.sigma[0]))

    p_d = d_bar - d_hat
    return DicResult(dic=d_bar + p_d, p_d=p_d, d_bar=d_bar, d_hat=d_hat,
                     n_draws_used=int(idx.size))


@dataclass(frozen=True)
class ModelScore:
    """One model's comparison row for a given trajectory; `prediction`
    holds the predictive draws it scored when `score_model` was asked to
    keep them."""

    model: str
    rmspe: float
    dic: float
    p_d: float
    coverage: float
    level: float
    n_obs: int
    prediction: SeriesPrediction | None = field(default=None, repr=False, compare=False)


def score_to_dict(score: ModelScore) -> dict:
    return {
        "model": score.model,
        "rmspe": score.rmspe,
        "dic": score.dic,
        "p_d": score.p_d,
        "coverage": score.coverage,
    }


def scored_draws(chain: Chain, n_draws: int | None) -> np.ndarray:
    """The indices of the draws `score_model` scores; a DataError when they
    are too few for coverage."""
    idx = chain.draw_indices(n_draws)
    if idx.size < MIN_COVERAGE_DRAWS:
        raise DataError(f"need at least {MIN_COVERAGE_DRAWS} draws, got {idx.size}")
    return idx


def score_model(
    chain: Chain,
    series: PlanarSeries,
    tess: Tessellation | None = None,
    level: float = 0.95,
    n_draws: int | None = 500,
    seed: int = 0,
    method: str = "ellipse",
    keep_prediction: bool = False,
) -> ModelScore:
    """RMSPE, DIC, and coverage of one fitted chain on one trajectory.

    The design is built once and every draw's mean path computed once; DIC
    and RMSPE read them, then the predictive draws are written over the
    paths. Those draws are `predict_series`' with the same `n_draws` and
    `seed`; with `keep_prediction` the score carries them.
    """
    design = chain_design(chain, series, tess)
    means = mean_paths(chain, design, scored_draws(chain, n_draws))
    d = dic(chain, series, tess=tess, n_draws=n_draws, means=means, design=design)
    fit = rmspe(means.mean(axis=0), design.Y)
    pred = predict_series(chain, series, tess=tess, n_draws=n_draws, seed=seed, means=means)
    spec = chain.spec
    name = spec.name or f"{spec.a_structure}/{spec.eta_structure}"
    return ModelScore(
        model=name,
        rmspe=fit,
        dic=d.dic,
        p_d=d.p_d,
        coverage=coverage(pred, level=level, method=method),
        level=level,
        n_obs=series.n_days - 1,
        prediction=pred if keep_prediction else None,
    )


# ---------------------------------------------------------------------------
# Transitions between tessellation cells


@dataclass(frozen=True)
class TransitionMatrix:
    """Cell-to-cell step distribution; rows with no source days are NaN."""

    probs: np.ndarray
    counts: np.ndarray
    defined: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.probs.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.probs.sum(axis=1)


def _normalize_counts(counts: np.ndarray) -> TransitionMatrix:
    totals = counts.sum(axis=1)
    defined = totals > 0
    probs = np.full(counts.shape, np.nan)
    probs[defined] = counts[defined] / totals[defined, None]
    return TransitionMatrix(probs=probs, counts=counts, defined=defined)


def _source_mask(select, n_source: int):
    """`select` as a boolean mask over the `n_source` source days, or None."""
    if select is not None:
        select = np.asarray(select, dtype=bool)
        if select.shape != (n_source,):
            raise LengthMismatch("select mask must cover the source days")
    return select


def _count_transitions(src, dst, n_cells: int, select) -> TransitionMatrix:
    """Transition frequencies from the source cells `src` (n,) to the cells
    `dst` ((n,) or (draws, n)), over the source days that the checked mask
    `select` keeps."""
    if select is not None:
        src, dst = src[select], dst[..., select]
    counts = np.bincount((src.astype(np.int64) * n_cells + dst).ravel(),
                         minlength=n_cells * n_cells)
    return _normalize_counts(counts.reshape(n_cells, n_cells).astype(float))


def _assignment(assignment, n_cells: int, min_days: int) -> np.ndarray:
    """`assignment` as 1-d integers in [0, n_cells), at least `min_days` of them."""
    a = np.asarray(assignment)
    if a.ndim != 1 or a.size < min_days:
        raise EmptySeries(f"{a.size} assigned days, need at least {min_days}")
    if not np.issubdtype(a.dtype, np.integer):
        raise DataError("assignments must be integers")
    if a.min() < 0 or a.max() >= n_cells:
        raise DataError(f"assignment outside [0, {n_cells})")
    return a


def empirical_transitions(assignment, n_cells: int, select=None) -> TransitionMatrix:
    """Observed day-to-day cell transition frequencies.

    `select`, when given, is a boolean mask over SOURCE days (length one less
    than the assignment) restricting which transitions are counted.
    """
    a = _assignment(assignment, n_cells, 2)
    return _count_transitions(a[:-1], a[1:], n_cells, _source_mask(select, a.size - 1))


def model_transitions(
    chain: Chain,
    series: PlanarSeries,
    tess: Tessellation | None = None,
    n_draws: int | None = 200,
    seed: int = 0,
    select=None,
) -> TransitionMatrix:
    """Model-implied cell transition distribution along an observed path.

    Each source day contributes its predictive draws' landing cells; rows
    pool source days lying in the same cell.
    """
    t = chain.tessellation(tess)
    if t is None:
        raise DataError("transition matrices need a tessellation")
    select = _source_mask(select, series.n_days - 1)
    pred = predict_series(chain, series, tess=t, n_draws=n_draws, seed=seed)
    B, n, _ = pred.draws.shape
    landed = t.assign(pred.draws.reshape(B * n, 2)).reshape(B, n)
    return _count_transitions(t.assign(series.points[:-1]), landed, t.n_cells, select)


def transition_distances(series: PlanarSeries) -> np.ndarray:
    """Euclidean length of each daily step."""
    if series.n_days < 2:
        raise EmptySeries("need at least two days")
    steps = series.points[1:] - series.points[:-1]
    return np.hypot(steps[:, 0], steps[:, 1])


# ---------------------------------------------------------------------------
# Node occupancy summaries


# Each split of node_frequencies is the transition-block labeling of a model
# structure.
_SPLITS = {"season": "quarter", "year": "year", "season_year": "quarter_by_year"}


def node_frequencies(assignment, n_cells: int, dates=None, by: str | None = None):
    """Occupancy counts per cell, optionally split by calendar block.

    Returns a length-M array, or an ordered {label: counts} dict when `by`
    is "season", "year", or "season_year".
    """
    a = _assignment(assignment, n_cells, 1)
    if by is None:
        return np.bincount(a, minlength=n_cells).astype(float)
    if dates is None:
        raise UnlabeledDate(f"splitting by {by!r} needs dates")
    if len(dates) != a.size:
        raise LengthMismatch("dates and assignment lengths differ")
    if by not in _SPLITS:
        raise DataError(f"unknown split {by!r}")
    dates = [
        d if isinstance(d, _dt.date) else _dt.date.fromisoformat(d) for d in dates
    ]
    info, block, _ = block_indices(ModelSpec(_SPLITS[by]), a.size, None, dates)
    counts = np.bincount(block * n_cells + a, minlength=info.n_a * n_cells)
    return dict(zip(info.a_labels, counts.reshape(info.n_a, n_cells).astype(float)))


def node_table(values, n_nodes: int | None = None) -> np.ndarray:
    """Lay a per-node vector out as the planar node array (top row first)."""
    values = np.asarray(values)
    M = values.shape[0] if n_nodes is None else n_nodes
    if values.shape[0] != M:
        raise LengthMismatch(f"expected {M} values, got {values.shape[0]}")
    n_rows, n_cols = lattice_shape(M)
    if n_rows * n_cols != M:
        raise DataError(f"{M} nodes do not fill a {n_rows}x{n_cols} array")
    return values.reshape(n_rows, n_cols)[::-1].copy()


def node_field_maps(
    som: SomModel,
    grid: GridSpec,
    standardization=None,
    kind: str = "raw",
) -> np.ndarray:
    """Node reference vectors as gridded fields, shape (M, V, rows, cols).

    "standardized" returns the reference vectors as stored; "raw" restores
    original units via the standardization constants; "anomaly" is raw minus
    the climatological mean (sd * w).
    """
    nodes = som.nodes
    if nodes.shape[1] != grid.d:
        raise GridMismatch(
            f"map dimension {nodes.shape[1]} does not match grid d={grid.d}"
        )
    if kind == "standardized":
        fields = unflatten(nodes, grid)
    elif kind in ("raw", "anomaly"):
        if standardization is None:
            raise DataError(f"{kind!r} maps need standardization constants")
        state = StateSeries(matrix=nodes, grid=grid, standardization=standardization)
        fields = destandardize(state).values
        if kind == "anomaly":
            if standardization.per_cell:
                fields = fields - standardization.mean
            else:
                fields = fields - standardization.mean[None, :, None]
    else:
        raise DataError(f"unknown map kind {kind!r}")
    M = nodes.shape[0]
    return fields.reshape(M, grid.n_variables, grid.n_rows, grid.n_cols)


# ---------------------------------------------------------------------------
# Lag selection for the planar autoregression


@dataclass(frozen=True)
class LagScanResult:
    aic: np.ndarray
    best_lag: int


def var_lag_aic(series: PlanarSeries, max_lag: int) -> LagScanResult:
    """Per-observation adjusted AIC over autoregression orders 1..max_lag.

    aic(L) = ln det(Sigma-hat_L) + 2 * (4L) / (T - L), counting the 4L mean
    parameters; smaller is better.
    """
    if max_lag < 1:
        raise DataError("max_lag must be at least 1")
    pts = series.points
    T = pts.shape[0]
    if T <= 2 * max_lag + 10:
        raise EmptySeries(f"{T} days cannot support a lag-{max_lag} scan")
    aic = np.empty(max_lag)
    for L in range(1, max_lag + 1):
        Y = pts[L:]
        X = np.hstack([pts[L - k : T - k] for k in range(1, L + 1)])
        coef, *_ = np.linalg.lstsq(X, Y, rcond=None)
        resid = Y - X @ coef
        n_eff = T - L
        sigma = resid.T @ resid / n_eff
        det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
        if det <= 0.0:
            raise SingularDesign(f"singular residual covariance at lag {L}")
        aic[L - 1] = np.log(det) + 2.0 * (4.0 * L) / n_eff
    return LagScanResult(aic=aic, best_lag=int(np.argmin(aic)) + 1)
