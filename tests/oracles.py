"""Reference implementations that production code is compared against.

Each one states its result the plain way; the library computes the same
thing faster and is held to these in the tests.
"""

import numpy as np
from scipy.spatial.distance import cdist, pdist

from stvar.models import coregionalize, pp_basis


def find_winner(x: np.ndarray, nodes: np.ndarray) -> int:
    """Index of the nearest codebook vector; ties take the smallest index."""
    x = np.asarray(x, dtype=float)
    d2 = ((nodes - x) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def coregional_eta(points: np.ndarray, knots: np.ndarray, theta: np.ndarray, q: np.ndarray,
                   wstar: np.ndarray) -> np.ndarray:
    """Spatial intercept at each point, shape (n, 2), of the draw with blocks
    theta, q and wstar on `knots`, from the explicit pp_basis weights. The
    library evaluates it through PredictiveProcess, which never forms the
    n x m basis."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w1 = pp_basis(pts, knots, float(theta[0])) @ wstar[0]
    w2 = pp_basis(pts, knots, float(theta[1])) @ wstar[1]
    return coregionalize(q, w1, w2)


def mean_paths_per_draw(chain, design, idx, pp=None) -> np.ndarray:
    """One-step means X phi (+ eta) of the chain's draws at `idx`, shape
    (B, n, 2), one draw at a time with X phi taken from each row's block of
    phi (the random walk's mean is the source point) and, given the
    PredictiveProcess `pp`, each draw's spatial intercept added last. The
    library gathers X phi for a block of draws at once."""
    info, S = design.info, design.source_points
    out = np.empty((len(idx), design.n, 2))
    for b, i in enumerate(idx):
        phi = chain.phi[i]
        if info.n_a == 0:
            xphi = S.copy()
        elif info.n_a == 1:
            xphi = S @ phi[:2]
        else:
            blocks = phi[: 2 * info.n_a].reshape(info.n_a, 2, 2)
            xphi = S[:, :1] * blocks[design.a_idx, 0] + S[:, 1:] * blocks[design.a_idx, 1]
        if info.n_eta:
            xphi += phi[2 * info.n_a + design.eta_idx]
        out[b] = xphi if pp is None else xphi + pp.eta(chain.theta[i], chain.q[i], chain.wstar[i])
    return out


def sammon_stress(distances: np.ndarray, coords: np.ndarray) -> float:
    """Sammon stress sum_{i<j} (d_ij - |y_i - y_j|)^2 / d_ij / sum_{i<j} d_ij
    of a layout against a distance matrix, over its condensed upper
    triangle."""
    d = np.asarray(distances, dtype=float)[np.triu_indices(len(distances), k=1)]
    delta = pdist(np.asarray(coords, dtype=float))
    return float(((d - delta) ** 2 / d).sum() / d.sum())


def unique_rows(rows: np.ndarray):
    """The distinct rows in lexicographic order and each row's index among
    them, by numpy's row-wise unique. The library folds each row into one
    integer key and sorts those instead."""
    uniq, inv = np.unique(rows, axis=0, return_inverse=True)
    return uniq, inv.reshape(rows.shape[0])  # numpy 2.0.0 gives the inverse shape (n, 1)


def cdist_winners(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Nearest node of every row of x by cdist's squared distances; ties take
    the smallest index. The library screens with one matrix product and
    recomputes with cdist only the rows its error bound cannot certify."""
    return np.argmin(cdist(x, nodes, "sqeuclidean"), axis=1)


def walk_by_agreement_loop(projector, days: np.ndarray, order: np.ndarray):
    """Top-scoring (day, ordering) pairs of tie-free days, by scoring every
    distinct ordering one rank at a time: the group of the node at rank p is
    p. The library walks the sorted orderings with binary searches instead."""
    ranks = np.broadcast_to(np.arange(order.shape[1]), order.shape)
    return projector._agreement_loop(days, order, ranks.astype(projector._small_int))


def node_sums_add_at(x: np.ndarray, winners: np.ndarray, n_nodes: int) -> np.ndarray:
    """Sum of the rows of x won by each node, shape (n_nodes, d), by
    np.add.at: each node's rows added one at a time, in day order, from +0.0.
    The library sums each node's rows with one reduction."""
    sums = np.zeros((n_nodes, x.shape[1]))
    np.add.at(sums, winners, x)
    return sums


def ellipse_coverage(pred, level: float) -> float:
    """Share of actual positions inside the draw cloud's `level` ellipse, from
    full (draws, days) arrays and np.quantile. The library thresholds the days
    in blocks."""
    draws, actual = pred.draws, pred.actual
    B = draws.shape[0]
    centers = draws.mean(axis=0)
    dev = draws - centers
    sxx = np.einsum("bn,bn->n", dev[..., 0], dev[..., 0]) / (B - 1)
    syy = np.einsum("bn,bn->n", dev[..., 1], dev[..., 1]) / (B - 1)
    sxy = np.einsum("bn,bn->n", dev[..., 0], dev[..., 1]) / (B - 1)
    det = sxx * syy - sxy**2

    def mahal2(dx, dy):
        return (syy * dx**2 - 2.0 * sxy * dx * dy + sxx * dy**2) / det

    d2_draws = mahal2(dev[..., 0], dev[..., 1])
    d2_actual = mahal2(actual[:, 0] - centers[:, 0], actual[:, 1] - centers[:, 1])
    return float((d2_actual <= np.quantile(d2_draws, level, axis=0)).mean())
