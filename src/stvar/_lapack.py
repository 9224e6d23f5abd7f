"""scipy.linalg's cho_solve, solve_triangular and cholesky as one LAPACK call each.

The sampler and the kriging make thousands of solves with factors of at most
a few hundred rows, where scipy.linalg's Python wrappers (batch dispatch,
array-API shims, input validation) cost more than the arithmetic. These
helpers take scipy's arguments, call the same LAPACK routines of scipy's own
build as scipy would, and so give the same bits; a `check_finite` check
raises the same ValueError as scipy's.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

_POTRF, _POTRS, _TRTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs", "trtrs"),
                                                        dtype=np.float64)


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def cho_solve(c_and_lower: tuple, b: np.ndarray, check_finite: bool = True) -> np.ndarray:
    """scipy.linalg.cho_solve(c_and_lower, b)."""
    c, lower = c_and_lower
    if check_finite:
        _check_finite(b, c)
    x, info = _POTRS(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool = False) -> np.ndarray:
    """scipy.linalg.solve_triangular(a, b, lower=lower): a C-ordered `a` is
    passed transposed, as scipy does, since trtrs expects Fortran order."""
    _check_finite(a, b)
    if a.flags.f_contiguous:
        x, info = _TRTRS(a, b, lower=lower, trans=0)
    else:
        x, info = _TRTRS(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def cholesky(a: np.ndarray, lower: bool = False) -> np.ndarray:
    """scipy.linalg.cholesky(a, lower=lower)."""
    _check_finite(a)
    c, info = _POTRF(a, lower=lower, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument '
                         f'on entry to "POTRF".')
    return c
