"""Reference implementations that production code is compared against.

Each one states its result the plain way; the library computes the same
thing faster and is held to these in the tests.
"""

import numpy as np

from stvar.models import SpatialAdjust, coregionalize, pp_basis


def find_winner(x: np.ndarray, nodes: np.ndarray) -> int:
    """Index of the nearest codebook vector; ties take the smallest index."""
    x = np.asarray(x, dtype=float)
    d2 = ((nodes - x) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def coregional_eta(points: np.ndarray, adjust: SpatialAdjust) -> np.ndarray:
    """Spatial intercept at each point, shape (n, 2), from the explicit
    pp_basis weights. The library evaluates it through PredictiveProcess,
    which never forms the n x m basis."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w1 = pp_basis(pts, adjust.knots, float(adjust.theta[0]), adjust.jitter) @ adjust.wstar[0]
    w2 = pp_basis(pts, adjust.knots, float(adjust.theta[1]), adjust.jitter) @ adjust.wstar[1]
    return coregionalize(adjust.q, w1, w2)


def mean_paths_per_draw(chain, design, idx, pp=None) -> np.ndarray:
    """One-step means offset + X phi (+ eta) of the chain's draws at `idx`,
    shape (B, n, 2), one draw at a time with X phi taken from each row's
    block of phi and, given the PredictiveProcess `pp`, each draw's spatial
    intercept added last. The library gathers offset + X phi for a block of
    draws at once."""
    info, S = design.info, design.source_points
    out = np.empty((len(idx), design.n, 2))
    for b, i in enumerate(idx):
        phi = chain.phi[i]
        if info.n_a == 0:
            xphi = np.zeros((design.n, 2))
        elif info.n_a == 1:
            xphi = S @ phi[:2]
        else:
            blocks = phi[: 2 * info.n_a].reshape(info.n_a, 2, 2)
            xphi = S[:, :1] * blocks[design.a_idx, 0] + S[:, 1:] * blocks[design.a_idx, 1]
        if info.n_eta:
            xphi += phi[2 * info.n_a + design.eta_idx]
        mean = design.offset + xphi
        if pp is not None:
            mean = mean + pp.eta(chain.theta[i], chain.q[i], chain.wstar[i])
        out[b] = mean
    return out


def unique_rows(rows: np.ndarray):
    """The distinct rows in lexicographic order and each row's index among
    them, by numpy's row-wise unique. The library folds each row into one
    integer key and sorts those instead."""
    uniq, inv = np.unique(rows, axis=0, return_inverse=True)
    return uniq, inv.reshape(rows.shape[0])  # numpy 2.0.0 gives the inverse shape (n, 1)
