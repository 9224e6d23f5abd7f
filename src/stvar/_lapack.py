"""stvar's one door to scipy: LAPACK, BLAS and four special functions, each
bound at its first call, and cdist, written in numpy with scipy's bits.

The sampler and the kriging make thousands of solves with factors of at most
a few hundred rows, where scipy.linalg's Python wrappers (batch dispatch,
array-API shims, input validation) cost more than the arithmetic. cho_solve,
solve_triangular and cholesky take scipy's arguments, call the same LAPACK
routines of scipy's own build as scipy would, and so give the same bits; a
`check_finite` check raises the same ValueError as scipy's. `trsm` and `trmm`
are scipy's BLAS routines themselves.

Importing stvar imports numpy only. Each module-level routine here starts as
a stand-in whose first call binds the scipy routines of its kind, replaces
the stand-ins of that kind with them and forwards the call. From then on a
call costs one global lookup, as a module-level import would. The LAPACK and
BLAS routines come from scipy.linalg's compiled modules _flapack and _fblas,
loaded from their files with no Python code of scipy run: some milliseconds,
against a few tenths of a second for `import scipy.linalg`, which also
imports scipy.special and scipy.sparse. The special functions import
scipy.special.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import numpy as np


def _compiled(name: str):
    """scipy.linalg's compiled module `name`, loaded from its file.

    A module this load registers is taken out of sys.modules again, so a
    later `import scipy.linalg` loads and registers its own. CPython keeps
    one copy of such a module's contents, so that module's routines are the
    objects bound here, and scipy.linalg.get_lapack_funcs returns them too.
    Without scipy this raises the ModuleNotFoundError of `import scipy`."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    full = f"scipy.linalg.{name}"
    registered = full in sys.modules
    spec = PathFinder.find_spec(full, [os.path.join(path, "linalg")
                                       for path in scipy.submodule_search_locations])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        del sys.modules[full]
    return module


def _bind_linalg() -> None:
    global _POTRF, _POTRS, _TRTRS, trsm, trmm
    lapack, blas = _compiled("_flapack"), _compiled("_fblas")
    _POTRF, _POTRS, _TRTRS = lapack.dpotrf, lapack.dpotrs, lapack.dtrtrs
    trsm, trmm = blas.dtrsm, blas.dtrmm


def _bind_special() -> None:
    global log1p, log_ndtr, ndtr, ndtri_exp
    from scipy.special import log1p, log_ndtr, ndtr, ndtri_exp


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


def cdist(a: np.ndarray, b: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """scipy's cdist(a, b, metric) for metric "euclidean" or "sqeuclidean",
    with its bits: a C-contiguous (n, m) array from float arrays of shape
    (n, d) and (m, d), and no RuntimeWarning. Each pair's squared differences
    are added one column at a time from the first, as scipy adds them, with
    the longer point set along numpy's fast inner axis."""
    flip = len(a) > len(b)
    short, long = (x.T.copy() for x in ((b, a) if flip else (a, b)))  # contiguous columns
    # columns squared at once, to bound the temporaries: two, or all that fill 65536 floats
    step = max(2, 65536 // max(short.shape[1] * long.shape[1], 1))
    total = None
    with np.errstate(all="ignore"):  # cdist warns of no overflow or inf - inf
        for j in range(0, short.shape[0], step):
            squares = np.subtract(short[j:j + step, :, None], long[j:j + step, None, :])
            squares *= squares
            if total is not None:
                squares[0] += total
            total = squares[0]
            for square in squares[1:]:
                total += square
        if metric == "euclidean":
            np.sqrt(total, out=total)
    return (total.T if flip else total).copy()


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
