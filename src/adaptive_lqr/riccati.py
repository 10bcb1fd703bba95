"""Discrete-time Riccati equation for the unit-cost LQ problem.

The infinite-horizon cost sum(|x_t|^2 + |u_t|^2) for x_{t+1} = A x_t + B u_t
has optimal value x0' P x0, where P is the fixed point of

    P = min_K [ I + K'K + (A + BK)' P (A + BK) ].

The same fixed point in the joint state-input matrix Q = I + [A B]' P [A B]
reads Q - I = [A B]' min_K([I;K]' Q [I;K]) [A B], with the minimizing gain
K = -(Quu)^{-1} Qux.  A cold solve runs the structure-preserving doubling
algorithm; a held solution is confirmed by one value-iteration step or
refined by Newton steps through the Stein operator of the closed loop A + BK
at the gain K that riccati_step returns with its step; solve_from_upper
checks the cold solve against a super-solution.  Every iterate is re-symmetrized.

Public constructors and public functions check array arguments with
_check_matrix and _check_vector (ragged or non-numeric input: ShapeMismatch),
integer and real ones with _check_int and _check_real and their named rules;
the ValueMatrix of solve_dare, the Q of q_from_p on a ValueMatrix and the
gain of gain_from_q are built from checked data and skip `__post_init__`.
PlantModel stacks `ab` = [A B] once, in `__post_init__`; its one trusted
build, estimation's estimate, passes the `ab` it solved for.

Every kernel runs in _lapack's quiet() error state, which the public entry
points enter, and reads a failed LAPACK call's NaN as a failure: _min_eig
-inf, _spectral_radius inf, a non-finite result in the adaptive step's array
kernels.  Only riccati_step and _solve_cold call np.linalg.solve, to name a
singular matrix.

The package writes a product of two single matrices, or of a matrix and a
vector, as x.dot(y): the same BLAS call as the matmul gufunc behind x @ y for
about half the dispatch (0.34-0.45 us against 0.74-0.91 us at d = 2..6).  The
two are not interchangeable on every layout: with numpy 2.4 on OpenBLAS they
differ in the last bit for a vector or 1-row matrix times a row-strided slice
(inner size >= 4, two or three columns) and for a transposed slice times a
1-column matrix, so each site keeps its bits by test, not by rule.  @ stays in
the kernels that take stacks, _spectral_norm and estimation._residual, where
.dot would compute a tensor product.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _lapack
from .errors import (
    DomainError,
    HypothesisViolated,
    NonFiniteInput,
    NotConverged,
    NotStabilizable,
    ShapeMismatch,
    SingularQuu,
)

# An iterate whose largest diagonal entry exceeds this is treated as divergence.
NORM_CAP = 1e12
DEFAULT_TOL = 1e-10
# Doubling steps of a cold solve: step 64 is value-iteration step 2^64 - 1, so a
# contraction c that has not met a tol >= 1e-300 there has 1 - c < 691 / 2^64,
# below the 1.1e-16 spacing of doubles under 1; divergence trips NORM_CAP by step 40.
DOUBLING_STEPS = 64
# Absolute eigenvalue slack of every non-strict PSD comparison in the package.
PSD_SLACK = 1e-8
# Relative tolerance of solve_from_upper's hypothesis and upper-bound tests.
UPPER_TOL = 1e-9
# solve_dare accepts a one-step confirm of p0 at this fraction of tol: the
# error of the accepted iterate is at most c / (1 - c) times its step for a
# contraction c, so it stays within tol for any c up to 0.9.
CONFIRM_FRACTION = 0.1
# Newton corrections solve_dare takes from p0 before it solves cold.
NEWTON_STEPS = 3
# Largest magnitude whose square is a finite double.
SQUARE_MAX = float(np.sqrt(np.finfo(float).max))


def sym(M: np.ndarray) -> np.ndarray:
    """Exactly symmetric part (M + M') / 2 of M, or of each matrix of a stack (..., d, d),
    as M/2 + M'/2: the same bits, without overflow for entries above half the largest
    double (only subnormal entries can round differently)."""
    h = 0.5 * M
    return h + h.mT


def _sym_norm(M: np.ndarray) -> float | np.ndarray:
    """Spectral norm of the symmetric part of M, max |eigvalsh(sym(M))|; no SVD.
    A float for one matrix, an array for a stack (..., d, d)."""
    norm = np.abs(_lapack.eigvalsh_nan(sym(M))).max(axis=-1)
    return norm if norm.ndim else float(norm)


def _min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of M; -inf, which no bound meets,
    when that part has an entry that overflowed or is NaN, or eigvalsh fails."""
    S = sym(M)
    low = _lapack.eigvalsh_nan(S).min() if _lapack.finite(S) else -np.inf
    return float(low) if low >= -np.inf else -np.inf   # NaN fails every comparison


def _spectral_radius(M: np.ndarray) -> float:
    """max |eigenvalue| of a square M; inf when M has an infinite or NaN entry or eigvals fails."""
    radius = np.abs(_lapack.eigvals_nan(M)).max() if _lapack.finite(M) else np.inf
    return float(radius) if radius <= np.inf else np.inf


def _spectral_norm(M: np.ndarray) -> float | np.ndarray:
    """Spectral norm of M as sqrt(max eigvalsh(M M')); no SVD.  A float for one
    matrix, an array for a stack (..., r, c).

    M is scaled by its largest entry first, so M M' neither overflows nor
    underflows.  A zero M has norm 0 and an M with an infinite entry norm inf:
    their scale, with no eigvalsh.
    """
    scale = np.abs(M).max(axis=(-2, -1))
    special = (scale == 0.0) | (scale == np.inf)
    if np.count_nonzero(special):
        norm = np.array(scale)
        if not special.all():
            norm[~special] = _spectral_norm(M[~special])
    else:
        M = M / scale[..., None, None]
        norm = scale * np.sqrt(_lapack.eigvalsh_nan(M @ M.mT)[..., -1])
    return norm if norm.ndim else float(norm)


def _trusted(cls, **fields):
    """Frozen dataclass `cls` from fields in checked form, skipping `__post_init__`."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _as_float_array(M, name, copy):
    """M as a float array; ShapeMismatch naming `name` if numpy cannot convert it."""
    try:
        if np.asarray(M).dtype.kind == "c":   # numpy would keep only its real part
            raise TypeError(f"{name} is complex")
        return np.array(M, dtype=float) if copy else np.asarray(M, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"{name} must be a rectangular array of numbers") from exc


def _check_matrix(M, name, shape=None, square=False):
    """M as a finite float matrix (a copy), of `shape` when given, else square if asked."""
    if M is None:
        raise ShapeMismatch(f"{name} is required")
    M = _as_float_array(M, name, copy=True)
    if M.ndim != 2:
        raise ShapeMismatch(f"{name} must be a matrix, got ndim={M.ndim}")
    if shape is None and square:
        shape = (len(M), len(M))
    if shape is not None and M.shape != shape:
        raise ShapeMismatch(f"{name} must have shape {shape}, got {M.shape}")
    if not _lapack.finite(M):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return M


def _check_vector(v, name, size=None):
    """v flattened to a finite float vector (no copy), of length `size` when given."""
    v = _as_float_array(v, name, copy=False).reshape(-1)
    if size is not None and v.shape != (size,):
        raise ShapeMismatch(f"{name} must have length {size}, got {v.shape}")
    if not _lapack.finite(v):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return v


def _check_int(v, name, low=1, error=ShapeMismatch) -> int:
    """v as an int >= low (by default 1, the rule of sizes); `error` naming `name`
    for a bool, a non-integer or a smaller value."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
        raise error(f"{name} must be an integer >= {low}, got {v!r}")
    return int(v)


def _check_real(v, name, low=-np.inf, high=np.inf, ends="[]") -> float:
    """v as a float; DomainError naming `name` unless v is a finite int, float or
    numpy real (not a bool) from low to high, each end closed "[]" or open "()"
    as `ends` says.  An int beyond the float range is rejected, not rounded."""
    real = isinstance(v, (float, np.integer, np.floating)) or (
        isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max)
    x = float(v) if real else np.nan
    above = low < x if ends[0] == "(" else low <= x
    below = x < high if ends[1] == ")" else x <= high
    if not (above and below and abs(x) <= sys.float_info.max):
        unbounded = (low, high) == (-np.inf, np.inf)
        where = "" if unbounded else f" in {ends[0]}{low:g}, {high:g}{ends[1]}"
        shown = repr(v) if len(repr(v)) <= 40 else repr(v)[:37] + "..."
        raise DomainError(f"{name} = {shown} must be a finite number{where}")
    return x


# The scalar rules, each stated once: check(v, name) returns v as a number or
# raises the error of _check_int/_check_real naming `name`.
_check_seed = partial(_check_int, low=0, error=DomainError)         # random seeds
_check_positive = partial(_check_real, low=0.0, ends="()")          # tolerances, scales
_check_factor = partial(_check_real, low=0.0, high=1.0, ends="(]")  # forgetting, decay
# uniform(-a, a) needs the range 2a finite.
_check_amplitude = partial(_check_real, low=0.0, high=sys.float_info.max / 2)
_check_rho = partial(_check_real, low=0.0, high=SQUARE_MAX)
# Above `low` with a finite square: _check_above(gamma, name, beta) for gamma > beta.
_check_above = partial(_check_real, high=SQUARE_MAX, ends="(]")
_check_beta = partial(_check_above, low=1.0)


def _eig_reason(evals, name, reason: str) -> str:
    """`reason` for a failed eigenvalue test of `name`, unless eigvalsh failed (NaN)."""
    return f"the eigenvalues of {name} could not be computed" if np.isnan(evals).any() else reason


@_lapack.quietly
def _check_symmetric(M, name, shape=None):
    """(sym(M), the ascending eigenvalues of sym(M / 2^e), 2^-e) for M checked square and
    symmetric to 1e-12 relative.  Both tests run on M / 2^e, e the binary exponent of
    max |M| but at least -1021 (so 2^-e is finite): exact, and nothing overflows.
    An empty M has no max: ShapeMismatch."""
    M = _check_matrix(M, name, shape, square=True)
    if M.size == 0:
        raise ShapeMismatch(f"{name} must not be empty")
    e = max(np.frexp(np.abs(M).max())[1], -1021)
    Ms, unit = np.ldexp(M, -e), np.ldexp(1.0, -e)
    S = sym(Ms)
    evals = _lapack.eigvalsh_nan(S)
    if not _spectral_norm(Ms - Ms.T) <= 1e-12 * max(unit, np.abs(evals).max()):
        raise ShapeMismatch(_eig_reason(evals, name, f"{name} is not symmetric to 1e-12 relative"))
    return (M if (M == M.T).all() else np.ldexp(S, e)), evals, unit


def _check_pd(M, name, d=None):
    """M checked by _check_symmetric, d x d if d is given, and positive definite."""
    M, evals, _ = _check_symmetric(M, name, None if d is None else (d, d))
    if not evals[0] > 0:
        raise ShapeMismatch(_eig_reason(evals, name, f"{name} must be positive definite"))
    return M


def _check_cost_matrix(M, name, shape=None):
    """M checked by _check_symmetric and >= I; returned re-symmetrized."""
    # Symmetrizing makes the qux == qxu' block identity of Q exact.
    M, evals, unit = _check_symmetric(M, name, shape)
    # eigvalsh gives evals[0] only to about d eps max|evals|: on 3,000 solved Q of random
    # plants (n <= 6, |B| up to 1e6) it fell at most 0.32 of that below the threshold.
    if not evals[0] >= unit * (1.0 - 1e-9) - 8 * len(M) * np.finfo(float).eps * np.abs(evals).max():
        raise DomainError(_eig_reason(evals, name, f"{name} must satisfy {name} >= I (unit stage cost)"))
    return M


@dataclass(frozen=True)
class PlantModel:
    """True system pair (A, B) of x_{t+1} = A x_t + B u_t + w_t; `ab` is the stacked [A B]."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _check_matrix(self.A, "A", square=True)
        B = _check_matrix(self.B, "B")
        if B.shape[0] != len(A) or min(B.shape) < 1:
            raise ShapeMismatch(f"B must be n x m = {len(A)} x m with n, m >= 1, got {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "ab", np.concatenate((A, B), axis=1))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ValueMatrix:
    """Optimal cost matrix P, symmetric with P >= I."""

    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _check_cost_matrix(self.P, "P"))


@dataclass(frozen=True)
class QMatrix:
    """Joint state-input cost matrix with blocks Qxx, Qxu, Qux, Quu."""

    Q: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_int(self.n, "n"))
        object.__setattr__(self, "m", _check_int(self.m, "m"))
        d = self.n + self.m
        object.__setattr__(self, "Q", _check_cost_matrix(self.Q, "Q", (d, d)))

    @property
    def qxx(self) -> np.ndarray:
        return self.Q[: self.n, : self.n]

    @property
    def qxu(self) -> np.ndarray:
        return self.Q[: self.n, self.n :]

    @property
    def qux(self) -> np.ndarray:
        return self.Q[self.n :, : self.n]

    @property
    def quu(self) -> np.ndarray:
        return self.Q[self.n :, self.n :]


@dataclass(frozen=True)
class Gain:
    """State-feedback gain, u = K x."""

    K: np.ndarray

    def __post_init__(self):
        K = _check_matrix(self.K, "K")
        object.__setattr__(self, "K", K)


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of testing I <= Q <= beta^2 I for a plant's Riccati solution."""

    member: bool
    Q: QMatrix | None
    max_eig_Q: float
    residual: float
    reason: str = ""


@_lapack.quietly
def riccati_step(plant, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One application of the fixed-point map min_K [I + K'K + (A+BK)'P(A+BK)]:
    its value Pn and its minimizing gain K = -(I + B'PB)^{-1} B'PA, from one solve.

    `plant` is a PlantModel, whose P is checked finite n x n, or, from the
    package's kernels, its pair (A, B), which trusts the checked P they pass on
    every confirm and Newton correction of solve_dare.  A singular I + B'PB raises
    numpy's LinAlgError; a step whose I + B'PB or Pn is otherwise not finite
    overflowed: NotStabilizable, as for a diverging iterate.
    """
    if isinstance(plant, PlantModel):
        plant, P = (plant.A, plant.B), _check_matrix(P, "P", (plant.n, plant.n))
    A, B = plant
    n, m = B.shape
    BtP = B.T.dot(P)
    W = BtP.dot(A)
    M = _lapack.eye(m) + BtP.dot(B)
    if _lapack.finite(M):
        K = -_lapack.solve_nan(M, W)
        Pn = sym(_lapack.eye(n) + A.T.dot(P).dot(A) + W.T.dot(K))
        if _lapack.finite(Pn):
            return Pn, K
        if not _lapack.finite(K):
            np.linalg.solve(M, W)   # tells a singular M (LinAlgError) from an overflow
    raise NotStabilizable("the Riccati step overflows")


def _stein_solve(Ac: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Solution D of the Stein equation D - Ac' D Ac = R; NaN when the operator is singular.

    One n^2 x n^2 Kronecker solve; Ac' (x) Ac' is built by broadcasting,
    which at n <= 6 costs a fraction of np.kron.
    """
    n = len(Ac)
    T = Ac.T
    M = _lapack.eye(n * n) - (T[:, None, :, None] * T[None, :, None, :]).reshape(n * n, n * n)
    return _lapack.solve_nan(M, R.reshape(-1)).reshape(n, n)


def _checked_step(plant: PlantModel, P):
    """(P, step(P), its gain, |P|) for P, an array or a ValueMatrix, checked as
    n x n; DomainError naming P when I + B'PB is singular, the step overflows
    or sym(P) is zero."""
    P = _check_matrix(P.P if isinstance(P, ValueMatrix) else P, "P", (plant.n, plant.n))
    try:
        Pn, K = riccati_step((plant.A, plant.B), P)
    except np.linalg.LinAlgError:
        raise DomainError("P makes I + B'PB singular") from None
    except NotStabilizable:
        raise DomainError("P makes the Riccati step overflow") from None
    norm = _sym_norm(P)
    if norm == 0.0:
        raise DomainError("P has a zero symmetric part")
    return P, Pn, K, norm


@_lapack.quietly
def dare_residual(plant: PlantModel, P) -> float:
    """Relative fixed-point residual |P - step(P)| / |P| in spectral norm; P is
    checked by _checked_step."""
    P, Pn, _, norm = _checked_step(plant, P)
    return _sym_norm(P - Pn) / norm


@_lapack.quietly
def dare_error_estimate(plant: PlantModel, P) -> float:
    """First-order estimate of the relative error |P* - P| / |P| in spectral norm.

    The Newton correction D of P, the solution of D - Ac' D Ac = step(P) - P
    with Ac = A + BK at the gain K of step(P), approximates P* - P to second
    order (J.-G. Sun, Numer. Math. 1998).  inf when that gain does not
    stabilize the plant.  P is checked by _checked_step.
    """
    P, Pn, K, norm = _checked_step(plant, P)
    Ac = plant.A + plant.B.dot(K)
    if _spectral_radius(Ac) >= 1.0:
        return np.inf
    return _spectral_norm(_stein_solve(Ac, Pn - P)) / norm


def _converged(P: np.ndarray, Pn: np.ndarray, tol: float) -> bool:
    """solve_dare's stopping rule |Pn - P|_F <= tol * max_i |Pn_ii|.

    Raises NotStabilizable when max_i |Pn_ii| exceeds NORM_CAP or is not finite.
    """
    scale = np.abs(Pn.diagonal()).max()
    if not scale <= NORM_CAP:
        raise NotStabilizable(f"iterate diagonal {scale:.3e} exceeds cap {NORM_CAP:.1e}")
    D = (Pn - P).ravel()
    return math.sqrt(D.dot(D)) <= tol * scale


@_lapack.quietly
def solve_dare(plant: PlantModel, tol: float = DEFAULT_TOL, *,
               p0: np.ndarray | None = None) -> ValueMatrix:
    """Solve the fixed-point equation.

    Cold start (`p0` None): the structure-preserving doubling algorithm of
    Chu, Fan & Lin (2005) from A_0 = A, G_0 = B B', H_0 = I, with one linear
    solve of (I + G_k H_k) against [A_k G_k] per step:

        A_{k+1} = A_k (I + G_k H_k)^{-1} A_k
        G_{k+1} = G_k + A_k (I + G_k H_k)^{-1} G_k A_k'
        H_{k+1} = H_k + A_k' H_k (I + G_k H_k)^{-1} A_k.

    H_k is value iteration from the identity after 2^k - 1 steps, so the
    iterates are monotone non-decreasing and >= I, and each doubling step
    squares the contraction; it takes at most DOUBLING_STEPS steps.  It stops at
    the first step with |P_new - P|_F <= tol * max_i |P_new_ii|.  As
    |D|_2 <= |D|_F and |P_ii| <= |P|_2 for symmetric P, this implies the
    relative spectral step |P_new - P|_2 / |P_new|_2 <= tol.

    Confirm, refine by Newton, or cold (`p0` given): from P = p0, take the
    step Pn, K = riccati_step(plant, P) and return Pn when it passes the
    same rule at CONFIRM_FRACTION * tol and Pn >= I.  Otherwise take one
    Newton correction (Hewer 1971): solve D - Ac' D Ac = Pn - P with
    Ac = A + BK, set P = P + D and step again.  After NEWTON_STEPS
    corrections, or on a singular I + B'PB or Stein operator, a step that
    overflows, a passing Pn not >= I, or an iterate over the cap, the result
    is the cold solve.  The returned Pn passed the confirm's test, so its
    error bound is the confirm's.

    Raises NotStabilizable when a cold iterate's largest diagonal entry
    exceeds NORM_CAP, the doubling solve is singular to working precision,
    or DOUBLING_STEPS steps pass first.
    """
    tol = _check_positive(tol, "tol")
    if p0 is not None:
        P = _solve_held((plant.A, plant.B), tol, sym(_check_matrix(p0, "p0", (plant.n, plant.n))))
        return solve_dare(plant, tol) if P is None else _trusted(ValueMatrix, P=P)
    return _trusted(ValueMatrix, P=_solve_cold(plant.A, plant.B, tol))


def _solve_cold(A: np.ndarray, B: np.ndarray, tol: float) -> np.ndarray:
    """solve_dare's doubling solve of the pair (A, B) on a checked tol, in quiet():
    its P, or NotStabilizable."""
    n = len(A)
    eye = _lapack.eye(n)
    G, H = B.dot(B.T), eye
    for _ in range(DOUBLING_STEPS):
        IGH, AG = eye + G.dot(H), np.concatenate((A, G), axis=1)
        W = _lapack.solve_nan(IGH, AG)
        WA, WG = W[:, :n], W[:, n:]     # (I + G H)^{-1} A and (I + G H)^{-1} G
        Hn = sym(H + A.T.dot(H).dot(WA))
        try:
            if _converged(H, Hn, tol):
                return Hn
        except NotStabilizable:         # an overflow, or the NaN of a failed solve
            if not _lapack.finite(W):
                try:
                    np.linalg.solve(IGH, AG)
                except np.linalg.LinAlgError:
                    # G, H >= 0 make I + G H nonsingular; singular means lost precision.
                    raise NotStabilizable("I + G H is singular to working precision") from None
            raise
        A, G, H = A.dot(WA), sym(G + A.dot(WG).dot(A.T)), Hn
    raise NotStabilizable(f"no convergence to tol={tol:.1e} within {DOUBLING_STEPS} doubling steps")


def _solve_held(plant: tuple[np.ndarray, np.ndarray], tol: float, P: np.ndarray) -> np.ndarray | None:
    """The confirm and Newton steps of solve_dare(p0=P) for the pair (A, B) on a checked
    tol and a symmetric n x n P, in quiet(): the P that passes, or None, after which
    the caller solves cold.  A held P that a solve returned is exactly symmetric,
    so it needs no checks."""
    A, B = plant
    try:
        for newton in range(NEWTON_STEPS + 1):
            if newton:
                P = sym(P + _stein_solve(A + B.dot(K), Pn - P))
            Pn, K = riccati_step(plant, P)
            if _converged(P, Pn, CONFIRM_FRACTION * tol):
                L = _lapack.cholesky_nan(Pn - (1.0 - 1e-9) * _lapack.eye(len(A)))
                return None if math.isnan(L[0, 0]) else Pn
    except (np.linalg.LinAlgError, NotStabilizable):
        pass
    return None


@_lapack.quietly
def q_from_p(plant: PlantModel, P) -> QMatrix:
    """Q = I + [A B]' P [A B]; a raw array P is checked, a ValueMatrix is trusted."""
    trusted = isinstance(P, ValueMatrix)
    P = P.P if trusted else _check_matrix(P, "P")
    if P.shape != (plant.n, plant.n):
        raise ShapeMismatch(f"P must be {plant.n} x {plant.n}, got {P.shape}")
    Q = _q(plant.ab, P)
    if trusted:
        return _trusted(QMatrix, Q=sym(Q), n=plant.n, m=plant.m)
    return QMatrix(Q, plant.n, plant.m)


def _q(ab: np.ndarray, P: np.ndarray) -> np.ndarray:
    """q_from_p of the stacked [A B] and an n x n P, before symmetrizing."""
    return _lapack.eye(ab.shape[1]) + ab.T.dot(P).dot(ab)


@_lapack.quietly
def gain_from_q(q: QMatrix) -> Gain:
    """Minimizing gain K = -(Quu)^{-1} Qux of min_K [I;K]' Q [I;K]."""
    return _trusted(Gain, K=_gain(q.Q, q.n))


def _gain(Q: np.ndarray, n: int) -> np.ndarray:
    """gain_from_q of the (n+m) x (n+m) array Q, in quiet()."""
    quu = Q[n:, n:]
    evals = _lapack.eigvalsh_nan(quu)
    # Quu >= I analytically; conditioning below 1e-12 on the unit scale, or a
    # NaN from a failed eigvalsh, means corrupted input.
    if not (evals[0] > 0 and evals[0] >= 1e-12 * max(1.0, evals[-1])):
        raise SingularQuu(f"Quu eigenvalue range [{evals[0]:.3e}, {evals[-1]:.3e}] "
                          "is singular to working precision")
    return -_lapack.solve_nan(quu, Q[n:, :n])


def check_membership(plant: PlantModel, beta: float) -> MembershipCertificate:
    """Test whether the plant's Riccati solution satisfies I <= Q <= beta^2 I.

    An unsolvable fixed point is reported as non-membership, never raised.
    Eigenvalue comparisons use absolute slack PSD_SLACK since the set is
    defined by non-strict inequalities.  A beta that is not above 1 or whose
    square overflows raises DomainError (_check_beta).
    """
    return _solve_membership(plant, beta)[1]


def _solve_membership(plant: PlantModel, beta: float, p0: np.ndarray | None = None
                      ) -> tuple[ValueMatrix | None, MembershipCertificate]:
    """check_membership's certificate with the P solved from p0 (None when unsolvable)."""
    beta = _check_beta(beta, "beta")
    try:
        P = solve_dare(plant, p0=p0)
    except NotStabilizable as exc:
        return None, MembershipCertificate(member=False, Q=None, max_eig_Q=np.inf,
                                           residual=np.inf, reason=f"riccati solve failed: {exc}")
    return P, _membership(plant, P, beta)


@_lapack.quietly
def _membership(plant: PlantModel, P: ValueMatrix, beta: float) -> MembershipCertificate:
    """check_membership's certificate for the plant's already solved P."""
    beta = _check_beta(beta, "beta")
    # P >= I gives Q >= I, so only the upper bound needs a test.
    q = q_from_p(plant, P)
    if not _lapack.finite(q.Q):
        # Then max eig Q is above every finite beta^2.
        return MembershipCertificate(member=False, Q=None, max_eig_Q=np.inf, residual=np.inf,
                                     reason="Q = I + [A B]' P [A B] overflows")
    max_eig = float(_lapack.eigvalsh_nan(q.Q)[-1])
    member = max_eig <= beta**2 + PSD_SLACK
    reason = "" if member else _eig_reason(
        max_eig, "Q", f"max eig {max_eig:.6g} exceeds beta^2 = {beta**2:.6g}")
    return MembershipCertificate(member=bool(member), Q=q,
                                 max_eig_Q=max_eig, residual=dare_residual(plant, P),
                                 reason=reason)


@_lapack.quietly
def solve_from_upper(plant: PlantModel, qbar: QMatrix, kbar: Gain) -> QMatrix:
    """The Q-form fixed point below a certified upper bound.

    Requires the super-solution hypothesis
        [A B]' [I;Kbar]' Qbar [I;Kbar] [A B]  <=  Qbar - I
    within UPPER_TOL (HypothesisViolated otherwise, also when the hypothesis
    matrix overflows).  Value iteration from it
    descends to the unique fixed point, so Q = q_from_p(solve_dare), tested
    Q <= Qbar (NotConverged otherwise); I <= Q as P >= I.  A hypothesis met
    only within UPPER_TOL by an unstabilizable plant raises NotStabilizable.
    """
    n, m = plant.n, plant.m
    if (qbar.n, qbar.m) != (n, m) or kbar.K.shape != (m, n):
        raise ShapeMismatch("qbar/kbar dimensions do not match the plant")
    M = np.vstack([_lapack.eye(n), kbar.K]).dot(plant.ab)   # (n+m) x (n+m)
    hyp = _min_eig(qbar.Q - _lapack.eye(n + m) - M.T.dot(qbar.Q).dot(M))
    qscale = max(1.0, _sym_norm(qbar.Q))
    if hyp < -UPPER_TOL * qscale:
        raise HypothesisViolated(f"upper-bound hypothesis fails by {hyp:.3e}")
    q = q_from_p(plant, solve_dare(plant))
    above = _min_eig(qbar.Q - q.Q)
    if above < -UPPER_TOL * qscale:
        raise NotConverged(f"fixed point escapes the upper bound by {above:.3e}")
    return q
