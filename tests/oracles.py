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
