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
candidate position on a grid of RESOLUTION = 201 points per axis over the
node bounding box, widened on each side by PADDING = 0.25 of its extent,
ranks the planar nodes by distance, the day ranks the codebook vectors in
data space, and a candidate scores the length of the leading run on which
the two rankings agree. The projected position is the average of the
top-scoring candidates. Rank ties in the day's own distances form groups: a
candidate agrees at position k when its k-th nearest node belongs to the
day's tie group for that position. By construction the projected point
always agrees with the day's data-space winner at rank one, so it falls
inside the winner's planar tessellation cell.

A candidate's score depends only on its node ordering, and the C grid
candidates share far fewer distinct orderings U: they are the cells of the
ordered Voronoi diagram of the planar nodes (Okabe, Boots, Sugihara & Chiu,
*Spatial Tessellations*), so U grows with the node count M and not with the
grid resolution. The projector finds the distinct orderings once and keeps
them in lexicographic order of node index. A day with no exact tie in its
distances agrees with an ordering on exactly their common prefix, and the
orderings that share a prefix are one contiguous run of the sorted list, so
M binary searches, one per rank, find the top-scoring run: O(M log U) work
per day instead of O(C * M). A day with a tie is scored against every
distinct ordering, one rank position at a time: O(U * M). The top-scoring
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

from . import _doc, _lapack
from .data_model import StateSeries, _check_dates, as_matrix
from .errors import DataError, DegenerateDistances, DimensionMismatch
from .som import SomModel, assign

_PLANAR_MAGIC = b"STVAR-PLANAR v2"
N_COMPONENTS = 2  # dimensions of the embedding: the plane
STEP_FACTOR = 0.35  # Sammon's magic factor on the diagonal-Newton step
MAX_HALVINGS = 20  # step halvings tried before an iterate counts as stuck
PADDING = 0.25  # candidate grid margin per side, as a fraction of the node extent
RESOLUTION = 201  # candidate grid points per axis


# ---------------------------------------------------------------------------
# Sammon embedding


@dataclass(frozen=True)
class SammonConfig:
    max_iter: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "max_iter", _doc.nonneg_int(self.max_iter, "max_iter"))
        if self.max_iter < 1:
            raise DataError("max_iter must be positive")
        if _doc.finite_real(self.tol, "tol") <= 0.0:
            raise DataError("tol must be positive")


@dataclass(frozen=True)
class SammonResult:
    coords: np.ndarray
    stress: float
    stress_history: np.ndarray
    n_iter: int
    converged: bool


def _checked_distances(distances: np.ndarray) -> np.ndarray:
    D = _doc.reals(distances, "distances", (None, None))
    if D.shape[0] != D.shape[1]:
        raise DimensionMismatch(f"distance matrix must be square, got {D.shape}")
    if D.shape[0] < 2:
        raise DataError("need at least two items to embed")
    if not np.allclose(D, D.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.abs(D).max()))):
        raise DataError("distance matrix is not symmetric")
    if np.any(np.abs(np.diag(D)) > 0.0):
        raise DataError("distance matrix diagonal must be zero")
    off = D[~np.eye(D.shape[0], dtype=bool)]
    if np.any(off <= 0.0):
        raise DegenerateDistances("off-diagonal target distances must be positive")
    return 0.5 * (D + D.T)


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
    delta = _lapack.cdist(Y, Y)[iu]
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
        delta = _lapack.cdist(Y, Y)
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


def _points(value, name: str) -> np.ndarray:
    """`value` as an (N, 2) array of finite planar points, by the rule of
    stvar._doc.reals; a lone pair is one point."""
    pts = np.atleast_2d(_doc.reals(value, name, None))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatch(f"{name} must be (N, 2), got {pts.shape}")
    return pts


@dataclass(frozen=True)
class Tessellation:
    """Nearest-site partition of the plane; ties take the smallest index."""

    sites: np.ndarray

    def __post_init__(self):
        sites = _doc.reals(self.sites, "sites", (None, 2))
        object.__setattr__(self, "sites", sites)
        if sites.shape[0] < 1:
            raise DimensionMismatch("a tessellation needs at least one site")

    @classmethod
    def from_som(cls, model: SomModel) -> "Tessellation":
        if not isinstance(model, SomModel):
            raise DataError(f"a tessellation is made from a SomModel, not {type(model).__name__}")
        return cls(sites=model.planar)

    @property
    def n_cells(self) -> int:
        return self.sites.shape[0]

    def assign(self, points: np.ndarray) -> np.ndarray:
        pts = _points(points, "points")
        # blocks of points bound the distance matrix; each row's argmin is
        # the one a single (N, M) matrix gives
        cells = np.empty(pts.shape[0], dtype=np.intp)
        for i in range(0, pts.shape[0], _ASSIGN_BLOCK):
            block = slice(i, i + _ASSIGN_BLOCK)
            np.argmin(_lapack.cdist(pts[block], self.sites, "sqeuclidean"), axis=1,
                      out=cells[block])
        return cells

    def _cell(self, point: np.ndarray) -> np.intp:
        """Cell of one finite point, a (2,) float array, unchecked: every
        walk of simulate_var finds its cells with this, a few microseconds a
        day faster than assign. dx*dx + dy*dy are cdist's bits, so argmin
        gives assign's cell and ties go to the smallest index."""
        d = self.sites - point
        d *= d
        return (d[:, 0] + d[:, 1]).argmin()


def _checked_tess(tess) -> Tessellation | None:
    """`tess` as an optional tessellation: a DataError unless it is None or
    a Tessellation."""
    if tess is None or isinstance(tess, Tessellation):
        return tess
    raise DataError(f"tess must be a Tessellation, not {type(tess).__name__}")


# ---------------------------------------------------------------------------
# Planar trajectory container and file format


@dataclass(frozen=True)
class PlanarSeries:
    """Daily positions on the embedded plane plus winning-node indices."""

    points: np.ndarray
    node_assignment: np.ndarray | None = None
    dates: tuple[_dt.date, ...] | None = None

    def __post_init__(self):
        pts = _doc.reals(self.points, "points", (None, 2))
        object.__setattr__(self, "points", pts)
        if self.node_assignment is not None:
            idx = _doc.reals(self.node_assignment, "node_assignment", (pts.shape[0],))
            if np.any((idx < 0) | (idx != np.floor(idx))):
                raise DataError("node assignments must be non-negative integers")
            object.__setattr__(self, "node_assignment", idx.astype(int))
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


def _runs(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges start, start + 1, ..., start + size - 1, one after another."""
    offsets = np.cumsum(sizes) - sizes
    return np.arange(sizes.sum()) + np.repeat(starts - offsets, sizes)


# Days are scored against the distinct orderings this many at a time, which
# keeps the (days, orderings) work arrays to a few hundred kilobytes.
_DAY_BLOCK = 64


class GreedyProjector:
    """Caches the candidate grid and its distinct node orderings for one model."""

    def __init__(self, model: SomModel):
        self.model = model
        self.nodes = model.nodes
        self.planar = model.planar
        self.candidates = padded_grid(self.planar, PADDING, RESOLUTION, RESOLUTION)
        d2 = _lapack.cdist(self.candidates, self.planar, "sqeuclidean")
        self.cand_order = np.argsort(d2, axis=1, kind="stable")

        M = self.planar.shape[0]
        # holds group ids and prefix lengths, which never exceed M
        self._small_int = np.min_scalar_type(M)
        # rows as opaque byte strings: np.unique sorts those far faster than
        # it sorts with axis=0. Big-endian entries make the byte order of a
        # row the lexicographic order of its node indices, for any M.
        rows = self.cand_order.astype(self._small_int.newbyteorder(">"))
        keys = rows.view(np.dtype((np.void, rows.itemsize * M))).ravel()
        # neighbouring candidates mostly share an ordering, so only the first
        # row of each run of equal rows is sorted; it precedes the rest of its
        # run, so the first occurrences and the inverse are those of all rows
        run_start = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        _, first, ordering_of = np.unique(keys[run_start], return_index=True,
                                          return_inverse=True)
        first = run_start[first]
        ordering_of = np.repeat(ordering_of, np.diff(run_start, append=len(keys)))
        # (M, U): the node at each rank, one column per distinct ordering, the
        # columns in lexicographic order
        self._orderings = np.ascontiguousarray(self.cand_order[first].T)
        # (M, U): row p is group_p * M + the node at rank p, where group_p
        # numbers the distinct prefixes of length p; each row is sorted
        self._prefix_keys = np.empty((M, self._orderings.shape[1]), dtype=np.int64)
        group = np.zeros(self._orderings.shape[1], dtype=np.int64)
        for p, nodes_at_p in enumerate(self._orderings):
            key = np.add(group * M, nodes_at_p, out=self._prefix_keys[p])
            group[1:] = np.cumsum(key[1:] != key[:-1])
        # candidates grouped by ordering, in candidate order within a group
        self._members = np.argsort(ordering_of, kind="stable")
        self._n_members = np.bincount(ordering_of)
        self._first_member = np.cumsum(self._n_members) - self._n_members

    def project(self, x: np.ndarray) -> np.ndarray:
        x = _doc.reals(x, "point", (self.nodes.shape[1],))
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
        M = self._orderings.shape[0]
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
        tied = np.flatnonzero(group_at_pos[:, -1] < M - 1)
        free = np.flatnonzero(group_at_pos[:, -1] == M - 1)
        day_f, best_f = self._walk(free, order[free])
        day_t, best_t = self._agreement_loop(tied, order[tied], group_at_pos[tied])
        day = np.concatenate([day_f, day_t])
        best = np.concatenate([best_f, best_t])

        # every candidate of every top-scoring ordering, sorted by day and then
        # by candidate index
        sizes = self._n_members[best]
        slots = _runs(self._first_member[best], sizes)
        C = self.candidates.shape[0]
        keys = np.sort(np.repeat(day, sizes) * C + self._members[slots])
        day, cand = np.divmod(keys, C)
        # bincount adds each day's points one by one in candidate order, as
        # candidates[sel].mean(axis=0) does. Its sums start from +0.0, which
        # changes no bits because linspace never yields a -0.0 grid value.
        sums = [np.bincount(day, weights=self.candidates[cand, k], minlength=n) for k in (0, 1)]
        return np.column_stack(sums) / np.bincount(day, minlength=n)[:, None]

    def _walk(self, days: np.ndarray, order: np.ndarray):
        """(day, ordering) pairs of the top-scoring orderings of days with no
        tie in their distances, `order` holding each day's nodes nearest
        first. Such a day agrees with an ordering on exactly their common
        prefix, and the orderings that share a prefix are one contiguous run
        of the sorted orderings, so one binary search per rank narrows the
        run until the next rank matches none: O(M log U) per day."""
        M, U = self._prefix_keys.shape
        lo = np.zeros(len(days), dtype=np.intp)
        hi = np.full(len(days), U)
        alive = np.ones(len(days), dtype=bool)
        for pos, keys in enumerate(self._prefix_keys):
            # the run's prefix group at this rank, then the day's node after it
            target = keys[lo] // M * M + order[:, pos]
            new_lo = np.searchsorted(keys, target, "left")
            new_hi = np.searchsorted(keys, target, "right")
            alive &= new_lo < new_hi
            if not alive.any():
                break
            lo = np.where(alive, new_lo, lo)
            hi = np.where(alive, new_hi, hi)
        return np.repeat(days, hi - lo), _runs(lo, hi - lo)

    def _agreement_loop(self, days: np.ndarray, order: np.ndarray, group_at_pos: np.ndarray):
        """(day, ordering) pairs of the top-scoring orderings of any days,
        ties included: every ordering is scored one rank at a time, O(M U)
        per day."""
        M, U = self._orderings.shape
        group_of_node = np.empty_like(group_at_pos)
        np.put_along_axis(group_of_node, order, group_at_pos, axis=1)
        agree = np.ones((len(days), U), dtype=bool)
        plen = np.zeros((len(days), U), dtype=self._small_int)
        for pos in range(M):
            agree &= group_of_node[:, self._orderings[pos]] == group_at_pos[:, pos, None]
            plen += agree
        day, best = np.nonzero(plen == plen.max(axis=1, keepdims=True))
        return days[day], best


def project_series(series: StateSeries | np.ndarray, model: SomModel) -> PlanarSeries:
    """Project every day and record its data-space winning node; the dates
    of a series that has them are kept. A StateSeries' matrix is used as
    it is; an array is checked by `as_matrix` in each of the two passes."""
    points = GreedyProjector(model).project_many(series)
    winners = assign(series, model)
    dates = getattr(series, "dates", None)
    return PlanarSeries(points=points, node_assignment=winners, dates=dates)
