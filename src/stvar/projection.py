"""Planar embedding of codebook nodes and rank-agreement projection of days.

``sammon_embed`` lays out the M nodes in the plane by minimizing Sammon
stress,

    E = (1 / sum d_ij) * sum_{i<j} (d_ij - |y_i - y_j|)^2 / d_ij,

with a diagonal-Newton step scaled by Sammon's "magic factor" STEP_FACTOR =
0.35 (Sammon, IEEE Trans. Computers C-18:401, 1969), halved up to
MAX_HALVINGS = 20 times until the stress falls, so the stress of accepted
iterates never increases. Initialization is classical scaling, and both lay
the nodes out in N_COMPONENTS = 2 dimensions: the plane.

``GreedyProjector`` drops a d-dimensional day onto the embedded plane: every
candidate position on a dense grid over the node bounding box, widened on
each side by PADDING = 0.25 of its extent, ranks the planar nodes by
distance, the day ranks the codebook vectors in data space, and a candidate
scores the length of the leading run on which the two rankings agree. The
projected position is the average of the top-scoring candidates. Rank ties
in the day's own distances form groups: a candidate agrees at position k
when its k-th nearest node belongs to the day's tie group for that position.
By construction the projected point always agrees with the day's data-space
winner at rank one, so it falls inside the winner's planar tessellation cell.

A candidate's score depends only on its node ordering, and the C grid
candidates share far fewer distinct orderings U: they are the cells of the
ordered Voronoi diagram of the planar nodes (Okabe, Boots, Sugihara & Chiu,
*Spatial Tessellations*), so U grows with the node count M and not with the
grid resolution. The projector finds the distinct orderings once. It then
scores days in blocks against each distinct ordering, one rank position at a
time, for O(U * M) comparisons per day instead of O(C * M). The top-scoring
orderings are expanded back to their candidates, which are averaged in
candidate order, so the result is bit for bit that of scoring every
candidate.

A planar trajectory file uses the framing of ``stvar._doc``: the magic line
``STVAR-PLANAR v2``, one JSON metadata line holding ``n_days``, the winning
node of every day (``nodes``) and the ISO ``dates`` or null, then the (T, 2)
points as raw little-endian float64.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import _doc
from .data_model import StateSeries, _check_dates, as_matrix
from .errors import DataError, DegenerateDistances, DimensionMismatch
from .som import SomModel, assign

_PLANAR_MAGIC = b"STVAR-PLANAR v2"
N_COMPONENTS = 2  # dimensions of the embedding: the plane
STEP_FACTOR = 0.35  # Sammon's magic factor on the diagonal-Newton step
MAX_HALVINGS = 20  # step halvings tried before an iterate counts as stuck
PADDING = 0.25  # candidate grid margin per side, as a fraction of the node extent


# ---------------------------------------------------------------------------
# Sammon embedding


@dataclass(frozen=True)
class SammonConfig:
    max_iter: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        if self.max_iter < 1:
            raise DataError("max_iter must be positive")
        if self.tol <= 0.0:
            raise DataError("tol must be positive")


@dataclass(frozen=True)
class SammonResult:
    coords: np.ndarray
    stress: float
    stress_history: np.ndarray
    n_iter: int
    converged: bool


def _checked_distances(distances: np.ndarray) -> np.ndarray:
    D = np.asarray(distances, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise DimensionMismatch(f"distance matrix must be square, got {D.shape}")
    if D.shape[0] < 2:
        raise DataError("need at least two items to embed")
    if not np.all(np.isfinite(D)):
        raise DataError("distances contain non-finite values")
    if not np.allclose(D, D.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.abs(D).max()))):
        raise DataError("distance matrix is not symmetric")
    if np.any(np.abs(np.diag(D)) > 0.0):
        raise DataError("distance matrix diagonal must be zero")
    off = D[~np.eye(D.shape[0], dtype=bool)]
    if np.any(off <= 0.0):
        raise DegenerateDistances("off-diagonal target distances must be positive")
    return 0.5 * (D + D.T)


def sammon_stress(distances: np.ndarray, coords: np.ndarray) -> float:
    """Sammon stress of a configuration against target distances."""
    D = _checked_distances(distances)
    Y = np.asarray(coords, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != D.shape[0]:
        raise DimensionMismatch(
            f"coords shape {Y.shape} does not match {D.shape[0]} items"
        )
    iu = np.triu_indices(D.shape[0], k=1)
    d = D[iu]
    return _stress_raw(d, float(d.sum()), Y, iu)


def classical_scaling(distances: np.ndarray) -> np.ndarray:
    """Principal-coordinate layout used to start the Sammon iteration."""
    D = _checked_distances(distances)
    M = D.shape[0]
    J = np.eye(M) - np.full((M, M), 1.0 / M)
    B = -0.5 * J @ (D * D) @ J
    vals, vecs = np.linalg.eigh(B)
    order = np.argsort(vals)[::-1][:N_COMPONENTS]
    vals = np.clip(vals[order], 0.0, None)
    vecs = vecs[:, order]
    # fix eigenvector signs so the layout does not depend on LAPACK internals
    for j in range(vecs.shape[1]):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0:
            vecs[:, j] = -vecs[:, j]
    coords = np.zeros((M, N_COMPONENTS))
    coords[:, : len(order)] = vecs * np.sqrt(vals)
    return coords - coords.mean(axis=0)


def _stress_raw(d_off: np.ndarray, c_norm: float, Y: np.ndarray, iu) -> float:
    delta = cdist(Y, Y)[iu]
    return float(((d_off - delta) ** 2 / d_off).sum() / c_norm)


def sammon_embed(distances: np.ndarray, config: SammonConfig = SammonConfig()) -> SammonResult:
    """Minimize Sammon stress; accepted iterates never increase it."""
    D = _checked_distances(distances)
    M = D.shape[0]
    iu = np.triu_indices(M, k=1)
    d_off = D[iu]
    c_norm = float(d_off.sum())
    offdiag = ~np.eye(M, dtype=bool)

    Y = classical_scaling(D)
    stress = _stress_raw(d_off, c_norm, Y, iu)
    history = [stress]
    converged = False
    eps = 1e-12

    for _ in range(config.max_iter):
        delta = cdist(Y, Y)
        np.fill_diagonal(delta, 1.0)
        delta = np.maximum(delta, eps)
        # pairwise helpers, zeroed on the diagonal
        inv_dd = np.zeros((M, M))
        inv_dd[offdiag] = 1.0 / (D[offdiag] * delta[offdiag])
        resid = np.where(offdiag, D - delta, 0.0)

        R = inv_dd * resid
        grad = (-2.0 / c_norm) * (R.sum(axis=1)[:, None] * Y - R @ Y)

        W = inv_dd * (1.0 + resid / delta) / delta
        Y2 = Y * Y
        quad = W.sum(axis=1)[:, None] * Y2 - 2.0 * Y * (W @ Y) + W @ Y2
        hess = (-2.0 / c_norm) * ((inv_dd * resid).sum(axis=1)[:, None] - quad)

        denom = np.maximum(np.abs(hess), eps)
        step = STEP_FACTOR * grad / denom

        accepted = None
        for _h in range(MAX_HALVINGS + 1):
            cand = Y - step
            s_new = _stress_raw(d_off, c_norm, cand, iu)
            if s_new < stress:
                accepted = (cand, s_new)
                break
            step = 0.5 * step
        if accepted is None:
            converged = True
            break
        Y, s_new = accepted
        improvement = stress - s_new
        stress = s_new
        history.append(stress)
        if improvement <= config.tol * max(stress, eps):
            converged = True
            break

    return SammonResult(
        coords=Y - Y.mean(axis=0),
        stress=stress,
        stress_history=np.asarray(history),
        n_iter=len(history) - 1,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Tessellation of the plane by nearest node


_ASSIGN_BLOCK = 8192  # points per distance block in Tessellation.assign


@dataclass(frozen=True)
class Tessellation:
    """Nearest-site partition of the plane; ties take the smallest index."""

    sites: np.ndarray

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=float)
        object.__setattr__(self, "sites", sites)
        if sites.ndim != 2 or sites.shape[1] != 2 or sites.shape[0] < 1:
            raise DimensionMismatch(f"sites must be (M, 2), got {sites.shape}")
        if not np.all(np.isfinite(sites)):
            raise DataError("sites must be finite")

    @classmethod
    def from_som(cls, model: SomModel) -> "Tessellation":
        return cls(sites=model.planar)

    @property
    def n_cells(self) -> int:
        return self.sites.shape[0]

    def assign(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != 2:
            raise DimensionMismatch(f"points must be (N, 2), got {pts.shape}")
        # blocks of points bound the distance matrix; each row's argmin is
        # the one a single (N, M) matrix gives
        cells = np.empty(pts.shape[0], dtype=np.intp)
        for i in range(0, pts.shape[0], _ASSIGN_BLOCK):
            block = slice(i, i + _ASSIGN_BLOCK)
            np.argmin(cdist(pts[block], self.sites, "sqeuclidean"), axis=1, out=cells[block])
        return cells

    def assign_one(self, point) -> int:
        return int(self.assign(np.asarray(point, dtype=float)[None, :])[0])

# ---------------------------------------------------------------------------
# Planar trajectory container and file format


@dataclass(frozen=True)
class PlanarSeries:
    """Daily positions on the embedded plane plus winning-node indices."""

    points: np.ndarray
    node_assignment: np.ndarray | None = None
    dates: tuple[_dt.date, ...] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DimensionMismatch(f"points must be (T, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DataError("points contain non-finite values")
        if self.node_assignment is not None:
            idx = np.asarray(self.node_assignment, dtype=int)
            object.__setattr__(self, "node_assignment", idx)
            if idx.shape != (pts.shape[0],):
                raise DimensionMismatch(
                    f"{idx.shape} assignments for {pts.shape[0]} points"
                )
            if np.any(idx < 0):
                raise DataError("node assignments must be non-negative")
        object.__setattr__(self, "dates", _check_dates(self.dates, pts.shape[0]))

    @property
    def n_days(self) -> int:
        return self.points.shape[0]


def save_planar(series: PlanarSeries, path) -> None:
    """Framed file (``stvar._doc``): metadata ``n_days``, ``nodes`` and
    ``dates``, then the (T, 2) points as raw float64."""
    if series.node_assignment is None:
        raise DataError("cannot save a planar series without node assignments")
    _doc.write_framed(path, _PLANAR_MAGIC, {
        "n_days": series.n_days,
        "nodes": series.node_assignment.tolist(),
        "dates": None if series.dates is None else [d.isoformat() for d in series.dates],
    }, series.points)


@_doc.names_path
def load_planar(path) -> PlanarSeries:
    kind = "planar metadata"
    meta, blob, offset = _doc.read_framed(path, _PLANAR_MAGIC, kind)
    meta = _doc.fields(meta, kind, {"n_days": int, "nodes": list, "dates": (list, None)})
    T = meta["n_days"]
    return PlanarSeries(points=_doc.float64s(blob, offset, (T, 2)),
                        node_assignment=_doc.array(meta["nodes"], kind, "nodes", (T,), int),
                        dates=meta["dates"])


# ---------------------------------------------------------------------------
# Greedy rank-agreement projection


def padded_grid(points: np.ndarray, padding: float, n_x: int, n_y: int) -> np.ndarray:
    """Regular n_x by n_y grid, x varying fastest, over the bounding box of
    `points` widened on each side by `padding` times its extent (taken as 1
    along an axis where the points do not spread)."""
    lo, hi = points.min(axis=0), points.max(axis=0)
    pad = padding * np.where(hi - lo > 0.0, hi - lo, 1.0)
    lo, hi = lo - pad, hi + pad
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], n_x), np.linspace(lo[1], hi[1], n_y))
    return np.column_stack([gx.ravel(), gy.ravel()])


# Days are scored against the distinct orderings this many at a time, which
# keeps the (days, orderings) work arrays to a few hundred kilobytes.
_DAY_BLOCK = 64


class GreedyProjector:
    """Caches the candidate grid and its distinct node orderings for one model."""

    def __init__(self, model: SomModel, resolution: int = 201):
        if resolution < 2:
            raise DataError("resolution must be >= 2")
        self.model = model
        self.nodes = model.nodes
        self.planar = model.planar
        self.candidates = padded_grid(self.planar, PADDING, resolution, resolution)
        d2 = cdist(self.candidates, self.planar, "sqeuclidean")
        self.cand_order = np.argsort(d2, axis=1, kind="stable")

        M = self.planar.shape[0]
        # holds group ids and prefix lengths, which never exceed M
        self._small_int = np.min_scalar_type(M)
        # rows as opaque byte strings: np.unique sorts those far faster than
        # it sorts with axis=0
        rows = self.cand_order.astype(self._small_int)
        keys = rows.view(np.dtype((np.void, rows.itemsize * M))).ravel()
        _, first, ordering_of = np.unique(keys, return_index=True, return_inverse=True)
        # (M, U): the node at each rank, one column per distinct ordering
        self._orderings = np.ascontiguousarray(self.cand_order[first].T)
        # candidates grouped by ordering, in candidate order within a group
        self._members = np.argsort(ordering_of, kind="stable")
        self._n_members = np.bincount(ordering_of)
        self._first_member = np.cumsum(self._n_members) - self._n_members

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.nodes.shape[1],):
            raise DimensionMismatch(
                f"point has shape {x.shape}, model dimension is {self.nodes.shape[1]}"
            )
        return self.project_many(x[None])[0]

    def project_many(self, X: np.ndarray) -> np.ndarray:
        X = as_matrix(X)
        if X.shape[1] != self.nodes.shape[1]:
            raise DimensionMismatch(
                f"data dim {X.shape[1]} does not match model dim {self.nodes.shape[1]}"
            )
        out = np.empty((X.shape[0], 2))
        for start in range(0, X.shape[0], _DAY_BLOCK):
            block = X[start : start + _DAY_BLOCK]
            out[start : start + block.shape[0]] = self._project_block(block)
        return out

    def _project_block(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        M, U = self._orderings.shape
        # one node at a time keeps the temporary at (block, d); each entry is
        # the same sum, in the same order, as ((nodes - x) ** 2).sum(axis=1)
        d2 = np.empty((n, M))
        for m, node in enumerate(self.nodes):
            d2[:, m] = ((node - X) ** 2).sum(axis=1)
        order = np.argsort(d2, axis=1, kind="stable")
        sorted_d2 = np.take_along_axis(d2, order, axis=1)
        # group ids advance on strict increase, so exact ties share a group
        group_at_pos = np.zeros((n, M), dtype=self._small_int)
        np.cumsum(sorted_d2[:, 1:] > sorted_d2[:, :-1], axis=1, out=group_at_pos[:, 1:])
        group_of_node = np.empty_like(group_at_pos)
        np.put_along_axis(group_of_node, order, group_at_pos, axis=1)

        agree = np.ones((n, U), dtype=bool)
        plen = np.zeros((n, U), dtype=self._small_int)
        for pos in range(M):
            agree &= group_of_node[:, self._orderings[pos]] == group_at_pos[:, pos, None]
            plen += agree
        day, best = np.nonzero(plen == plen.max(axis=1, keepdims=True))

        # every candidate of every top-scoring ordering, sorted by day and then
        # by candidate index
        sizes = self._n_members[best]
        ends = np.cumsum(sizes)
        slots = np.arange(ends[-1]) + np.repeat(self._first_member[best] - ends + sizes, sizes)
        C = self.candidates.shape[0]
        keys = np.sort(np.repeat(day, sizes) * C + self._members[slots])
        day, cand = np.divmod(keys, C)
        # bincount adds each day's points one by one in candidate order, as
        # candidates[sel].mean(axis=0) does. Its sums start from +0.0, which
        # changes no bits because linspace never yields a -0.0 grid value.
        sums = [np.bincount(day, weights=self.candidates[cand, k], minlength=n) for k in (0, 1)]
        return np.column_stack(sums) / np.bincount(day, minlength=n)[:, None]


def project_series(
    series: StateSeries | np.ndarray,
    model: SomModel,
    resolution: int = 201,
) -> PlanarSeries:
    """Project every day and record its data-space winning node; the dates
    of a series that has them are kept."""
    X = as_matrix(series)
    if X.shape[1] != model.dim:
        raise DimensionMismatch(f"data dim {X.shape[1]} != model dim {model.dim}")
    projector = GreedyProjector(model, resolution=resolution)
    points = projector.project_many(X)
    winners = assign(X, model)
    dates = getattr(series, "dates", None)
    return PlanarSeries(points=points, node_assignment=winners, dates=dates)
