"""The package's dense kernels: numpy.linalg's LAPACK gufuncs without its wrappers.

solve, eigvalsh, eigvals and cholesky call the gufunc that the numpy.linalg
function of the same name calls, in double precision and inside the same error
state: the same bits, and the same LinAlgError for a singular, non-converged or
not positive-definite input.  The package passes only square float matrices,
so the wrappers' conversions and shape checks are skipped.
"""

from functools import cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def _raising(message):
    """numpy.linalg's error state for a LAPACK call: a failure raises LinAlgError(message)."""
    def fail(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_raising("Singular matrix")
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a vector or matrix b."""
    return (_umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve)(a, b, signature="dd->d")


@_raising("Eigenvalues did not converge")
def eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a): ascending eigenvalues, read from the lower triangle."""
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")


@_raising("Eigenvalues did not converge")
def eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals(a) of a finite a, always complex: the wrapper's check for
    infs and NaNs and its cast of all-real eigenvalues to float are skipped."""
    return _umath_linalg.eigvals(a, signature="d->D")


@_raising("Matrix is not positive definite")
def cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a): the lower Cholesky factor."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


@cache
def eye(n: int) -> np.ndarray:
    """The n x n identity, shared, so read-only."""
    identity = np.eye(n)
    identity.flags.writeable = False
    return identity
