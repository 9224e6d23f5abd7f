"""stvar's one door to scipy: LAPACK, BLAS, four special functions and cdist,
each bound at its first call.

The sampler and the kriging make thousands of solves with factors of at most
a few hundred rows, where scipy.linalg's Python wrappers (batch dispatch,
array-API shims, input validation) cost more than the arithmetic. cho_solve,
solve_triangular and cholesky take scipy's arguments, call the same LAPACK
routines of scipy's own build as scipy would, and so give the same bits; a
`check_finite` check raises the same ValueError as scipy's. `trsm` and `trmm`
are scipy's BLAS routines themselves.

Importing stvar imports numpy only. Each module-level routine here starts as
a stand-in whose first call imports its scipy subpackage (scipy.linalg,
scipy.special or scipy.spatial.distance), replaces the stand-ins of that
subpackage with scipy's routines and forwards the call. From then on a call
costs one global lookup, as a module-level import would.
"""

from __future__ import annotations

import numpy as np


def _bind_linalg() -> None:
    global _POTRF, _POTRS, _TRTRS, trsm, trmm
    import scipy.linalg

    _POTRF, _POTRS, _TRTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs", "trtrs"),
                                                            dtype=np.float64)
    trsm, trmm = scipy.linalg.get_blas_funcs(("trsm", "trmm"), dtype=np.float64)


def _bind_special() -> None:
    global log1p, log_ndtr, ndtr, ndtri_exp
    from scipy.special import log1p, log_ndtr, ndtr, ndtri_exp


def _bind_distance() -> None:
    global cdist
    from scipy.spatial.distance import cdist


def _unbound(bind, name: str):
    """Stand-in for the routine `name` until `bind` replaces it."""

    def first_call(*args, **kwargs):
        bind()
        return globals()[name](*args, **kwargs)

    return first_call


_POTRF, _POTRS, _TRTRS, trsm, trmm = (_unbound(_bind_linalg, name)
                                      for name in ("_POTRF", "_POTRS", "_TRTRS", "trsm", "trmm"))
log1p, log_ndtr, ndtr, ndtri_exp = (_unbound(_bind_special, name)
                                    for name in ("log1p", "log_ndtr", "ndtr", "ndtri_exp"))
cdist = _unbound(_bind_distance, "cdist")


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
    """scipy.linalg.cholesky(a, lower=lower). `(cholesky(a), False)` is also
    scipy.linalg.cho_factor(a) for cho_solve: the same potrf call, which here
    zeroes the triangle that potrs never reads."""
    _check_finite(a)
    c, info = _POTRF(a, lower=lower, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f'LAPACK reported an illegal value in {-info}-th argument '
                         f'on entry to "POTRF".')
    return c
