"""The package's dense kernels: numpy.linalg's LAPACK gufuncs without its wrappers.

solve, eigvalsh, eigvals and cholesky call the gufunc that the numpy.linalg
function of the same name calls, in double precision and inside the same error
state: the same bits, and the same LinAlgError for a singular, non-converged or
not positive-definite input.  The package passes only square float matrices,
so the wrappers' conversions and shape checks are skipped.

solve_nan, eigvalsh_nan and cholesky_nan are the same gufuncs in the caller's
error state: a failure fills the result with NaN.  The kernels of the control
law call them inside `quiet()` and test their results for finiteness, so a
loop of steps enters one error state, not one per call.  The raising forms
call the _nan forms, so counting those counts every LAPACK call.
"""

from contextvars import ContextVar
from functools import cache, wraps

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

# True inside quiet(), where numpy's error state ignores every floating-point
# error; context-local, as numpy's error state itself is.
_QUIET = ContextVar("adaptive_lqr_quiet", default=False)


def _raising(message):
    """numpy.linalg's error state for a LAPACK call: a failure raises LinAlgError(message)."""
    def fail(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


class quiet:
    """numpy's error state with every floating-point error ignored, for the kernels
    that test their results for finiteness instead."""

    def __enter__(self):
        self._token = _QUIET.set(True)
        self._state = np.errstate(all="ignore")
        self._state.__enter__()

    def __exit__(self, *exc):
        self._state.__exit__(*exc)
        _QUIET.reset(self._token)


def quietly(fn):
    """`fn` run in quiet(), which a call from inside quiet() is already in."""
    @wraps(fn)
    def run(*args, **kwargs):
        if _QUIET.get():
            return fn(*args, **kwargs)
        with quiet():
            return fn(*args, **kwargs)
    return run


def solve_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a vector or matrix b; NaN for a singular a."""
    return (_umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve)(a, b, signature="dd->d")


def eigvalsh_nan(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a): ascending eigenvalues, read from the lower triangle; NaN
    when they do not converge."""
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")


def cholesky_nan(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a): the lower Cholesky factor; NaN when a is not positive definite."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


@_raising("Singular matrix")
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """solve_nan(a, b), raising LinAlgError for a singular a."""
    return solve_nan(a, b)


@_raising("Eigenvalues did not converge")
def eigvalsh(a: np.ndarray) -> np.ndarray:
    """eigvalsh_nan(a), raising LinAlgError when the eigenvalues do not converge."""
    return eigvalsh_nan(a)


@_raising("Matrix is not positive definite")
def cholesky(a: np.ndarray) -> np.ndarray:
    """cholesky_nan(a), raising LinAlgError when a is not positive definite."""
    return cholesky_nan(a)


@_raising("Eigenvalues did not converge")
def eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals(a) of a finite a, always complex: the wrapper's check for
    infs and NaNs and its cast of all-real eigenvalues to float are skipped."""
    return _umath_linalg.eigvals(a, signature="d->D")


@cache
def eye(n: int) -> np.ndarray:
    """The n x n identity, shared, so read-only."""
    identity = np.eye(n)
    identity.flags.writeable = False
    return identity
