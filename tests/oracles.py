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


def mean_paths_per_draw(design, draws, pp=None) -> np.ndarray:
    """One-step means offset + X phi (+ eta), shape (B, n, 2), one draw at
    a time with X phi taken from each row's block of phi and, given the
    PredictiveProcess `pp`, each draw's spatial intercept added last. The
    library gathers offset + X phi for a block of draws at once."""
    info, S = design.info, design.source_points
    out = np.empty((len(draws), design.n, 2))
    for b, draw in enumerate(draws):
        phi = draw.phi
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
            mean = mean + pp.eta(draw.adjust)
        out[b] = mean
    return out
