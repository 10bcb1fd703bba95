"""The package's dense kernels and its one numpy error state.

solve_nan, eigvalsh_nan, cholesky_nan and eigvals_nan call the gufunc that the
numpy.linalg function of the same name calls, in double precision and in the
caller's error state: the same bits without the wrappers' conversions and
shape checks (the package passes only square float matrices).  A singular,
non-converged or not positive-definite input, where numpy raises, fills the whole
output with NaN: riccati._solve_held reads one entry, L[0, 0] of a Cholesky factor.

quiet() is the only error state the package enters: every floating-point
error ignored.  The package's entry points run in it (quietly), and each
caller reads a kernel's NaN as a failure, so a failed call fails closed
without a warning.  Only riccati_step and the cold solve call
np.linalg.solve, which raises, to name a singular matrix.
"""

from contextvars import ContextVar
from functools import cache, wraps

import numpy as np
from numpy.linalg import _umath_linalg

# True inside quiet(), where numpy's error state ignores every floating-point
# error; context-local, as numpy's error state itself is.
_QUIET = ContextVar("adaptive_lqr_quiet", default=False)


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


def eigvals_nan(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals(a) of a finite a, always complex: the wrapper's check for
    infs and NaNs and its cast of all-real eigenvalues to float are skipped; NaN
    when they do not converge."""
    return _umath_linalg.eigvals(a, signature="d->D")


@cache
def eye(n: int) -> np.ndarray:
    """The n x n identity, shared, so read-only."""
    identity = np.eye(n)
    identity.flags.writeable = False
    return identity
