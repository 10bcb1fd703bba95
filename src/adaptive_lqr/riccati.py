"""Discrete-time Riccati equation for the unit-cost LQ problem.

The infinite-horizon cost sum(|x_t|^2 + |u_t|^2) for x_{t+1} = A x_t + B u_t
has optimal value x0' P x0, where P is the fixed point of

    P = min_K [ I + K'K + (A + BK)' P (A + BK) ].

The same fixed point in the joint state-input matrix Q = I + [A B]' P [A B]
reads Q - I = [A B]' min_K([I;K]' Q [I;K]) [A B], with the minimizing gain
K = -(Quu)^{-1} Qux.  A cold solve runs the structure-preserving doubling
algorithm; a held solution is confirmed by one value-iteration step, and
the descent from an upper bound runs value iteration.  Every iterate is
re-symmetrized.

Public constructors and public functions check array arguments with
_check_matrix and _check_vector (ragged or non-numeric input: ShapeMismatch),
integer and real ones with _check_int and _check_real and their named rules;
the ValueMatrix of solve_dare, the Q of q_from_p on a ValueMatrix and the
gain of gain_from_q are built from checked data and skip `__post_init__`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

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
DEFAULT_MAX_ITER = 100_000
# Absolute eigenvalue slack of every non-strict PSD comparison in the package.
PSD_SLACK = 1e-8
# Relative tolerance of solve_from_upper's hypothesis, monotonicity and stopping tests.
UPPER_TOL = 1e-9
# solve_dare accepts a one-step confirm of p0 at this fraction of tol: the
# error of the accepted iterate is at most c / (1 - c) times its step for a
# contraction c, so it stays within tol for any c up to 0.9.
CONFIRM_FRACTION = 0.1
# Largest magnitude whose square is a finite double.
SQUARE_MAX = float(np.sqrt(np.finfo(float).max))


def sym(M: np.ndarray) -> np.ndarray:
    """Exactly symmetric part (M + M') / 2."""
    return (M + M.T) / 2.0


def _sym_norm(M: np.ndarray) -> float:
    """Spectral norm of the symmetric part of M, max |eigvalsh(sym(M))|; no SVD."""
    return float(np.abs(np.linalg.eigvalsh(sym(M))).max())


def _min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of M."""
    return float(np.linalg.eigvalsh(sym(M)).min())


def _spectral_norm(M: np.ndarray) -> float:
    """Spectral norm of a finite M as sqrt(max eigvalsh(M M')); no SVD.

    M is scaled by its largest entry first, so M M' neither overflows nor
    underflows.
    """
    scale = np.abs(M).max()
    if scale == 0.0:
        return 0.0
    M = M / scale
    return float(scale * np.sqrt(np.linalg.eigvalsh(M @ M.T)[-1]))


def _trusted(cls, **fields):
    """Frozen dataclass `cls` from fields in checked form, skipping `__post_init__`."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _as_float_array(M, name, copy):
    """M as a float array; ShapeMismatch naming `name` if numpy cannot convert it."""
    try:
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
    if not np.isfinite(M).all():
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return M


def _check_vector(v, name, size=None):
    """v flattened to a finite float vector (no copy), of length `size` when given."""
    v = _as_float_array(v, name, copy=False).reshape(-1)
    if size is not None and v.shape != (size,):
        raise ShapeMismatch(f"{name} must have length {size}, got {v.shape}")
    if not np.isfinite(v).all():
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


def _check_cost_matrix(M, name, shape=None):
    """M checked square, symmetric to 1e-12 relative and >= I; returned re-symmetrized."""
    M = _check_matrix(M, name, shape, square=True)
    if _spectral_norm(M - M.T) > 1e-12 * max(1.0, _sym_norm(M)):
        raise ShapeMismatch(f"{name} is not symmetric to 1e-12 relative")
    # Symmetrizing makes the qux == qxu' block identity of Q exact.
    M = sym(M)
    if _min_eig(M) < 1.0 - 1e-9:
        raise DomainError(f"{name} must satisfy {name} >= I (unit stage cost)")
    return M


@dataclass(frozen=True)
class PlantModel:
    """True system pair (A, B) of x_{t+1} = A x_t + B u_t + w_t."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _check_matrix(self.A, "A", square=True)
        B = _check_matrix(self.B, "B")
        if B.shape[0] != len(A) or min(B.shape) < 1:
            raise ShapeMismatch(f"B must be n x m = {len(A)} x m with n, m >= 1, got {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def ab(self) -> np.ndarray:
        """The stacked n x (n+m) matrix [A B]."""
        return np.hstack([self.A, self.B])


@dataclass(frozen=True)
class ValueMatrix:
    """Optimal cost matrix P, symmetric with P >= I."""

    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _check_cost_matrix(self.P, "P"))

    @property
    def n(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class QMatrix:
    """Joint state-input cost matrix with blocks Qxx, Qxu, Qux, Quu."""

    Q: np.ndarray
    n: int
    m: int

    def __post_init__(self):
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

    def min_value(self) -> np.ndarray:
        """min_K [I;K]' Q [I;K], the Schur complement Qxx - Qxu Quu^{-1} Qux."""
        return sym(self.qxx - self.qxu @ np.linalg.solve(self.quu, self.qux))


@dataclass(frozen=True)
class Gain:
    """State-feedback gain, u = K x."""

    K: np.ndarray

    def __post_init__(self):
        K = _check_matrix(self.K, "K")
        object.__setattr__(self, "K", K)

    @property
    def m(self) -> int:
        return self.K.shape[0]

    @property
    def n(self) -> int:
        return self.K.shape[1]


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of testing I <= Q <= beta^2 I for a plant's Riccati solution."""

    beta: float
    member: bool
    Q: QMatrix | None
    max_eig_Q: float
    residual: float
    reason: str = ""


def riccati_step(plant: PlantModel, P: np.ndarray) -> np.ndarray:
    """One application of the fixed-point map min_K [I + K'K + (A+BK)'P(A+BK)].

    Unchecked: it runs on every confirm, and each caller passes a checked n x n P.
    """
    A, B = plant.A, plant.B
    BtP = B.T @ P
    G = np.eye(plant.m) + BtP @ B
    W = BtP @ A
    Pn = np.eye(plant.n) + A.T @ P @ A - W.T @ np.linalg.solve(G, W)
    return sym(Pn)


def dare_residual(plant: PlantModel, P) -> float:
    """Relative fixed-point residual |P - step(P)| / |P| in spectral norm; P,
    an array or a ValueMatrix, is checked as n x n."""
    P = _check_matrix(P.P if isinstance(P, ValueMatrix) else P, "P", (plant.n, plant.n))
    return _sym_norm(P - riccati_step(plant, P)) / _sym_norm(P)


def _converged(P: np.ndarray, Pn: np.ndarray, tol: float) -> bool:
    """solve_dare's stopping rule |Pn - P|_F <= tol * max_i |Pn_ii|.

    Raises NotStabilizable when max_i |Pn_ii| exceeds NORM_CAP or is not finite.
    """
    scale = np.abs(Pn.diagonal()).max()
    if not scale <= NORM_CAP:
        raise NotStabilizable(f"iterate diagonal {scale:.3e} exceeds cap {NORM_CAP:.1e}")
    return np.linalg.norm(Pn - P) <= tol * scale


def solve_dare(plant: PlantModel, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER, p0: np.ndarray | None = None) -> ValueMatrix:
    """Solve the fixed-point equation.

    Cold start (`p0` None): the structure-preserving doubling algorithm of
    Chu, Fan & Lin (2005) from A_0 = A, G_0 = B B', H_0 = I, with one linear
    solve of (I + G_k H_k) against [A_k G_k] per step:

        A_{k+1} = A_k (I + G_k H_k)^{-1} A_k
        G_{k+1} = G_k + A_k (I + G_k H_k)^{-1} G_k A_k'
        H_{k+1} = H_k + A_k' H_k (I + G_k H_k)^{-1} A_k.

    H_k is value iteration from the identity after 2^k - 1 steps, so the
    iterates are monotone non-decreasing and >= I, and each doubling step
    squares the contraction; `max_iter` counts doubling steps.  It stops at
    the first step with |P_new - P|_F <= tol * max_i |P_new_ii|.  As
    |D|_2 <= |D|_F and |P_ii| <= |P|_2 for symmetric P, this implies the
    relative spectral step |P_new - P|_2 / |P_new|_2 <= tol.

    Confirm (`p0` given): one step Pn = riccati_step(plant, p0), returned
    when it passes the same rule at CONFIRM_FRACTION * tol and Pn >= I;
    otherwise (a failed test, a singular I + B'PB or an iterate over the
    cap) the result is the cold solve.

    Raises NotStabilizable when a cold iterate's largest diagonal entry
    exceeds NORM_CAP, the doubling solve is singular to working precision,
    or the budget runs out first.
    """
    tol = _check_positive(tol, "tol")
    max_iter = _check_int(max_iter, "max_iter", error=DomainError)
    n = plant.n
    if p0 is not None:
        P = sym(_check_matrix(p0, "p0", (n, n)))
        try:
            Pn = riccati_step(plant, P)
            if _converged(P, Pn, CONFIRM_FRACTION * tol):
                np.linalg.cholesky(Pn - (1.0 - 1e-9) * np.eye(n))
                return _trusted(ValueMatrix, P=Pn)
        except (np.linalg.LinAlgError, NotStabilizable):
            pass
        return solve_dare(plant, tol, max_iter)
    eye = np.eye(n)
    A, G, H = plant.A, plant.B @ plant.B.T, eye
    for _ in range(max_iter):
        try:
            W = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
        except np.linalg.LinAlgError:
            # G, H >= 0 make I + G H nonsingular; singular means lost precision.
            raise NotStabilizable("I + G H is singular to working precision") from None
        WA, WG = W[:, :n], W[:, n:]     # (I + G H)^{-1} A and (I + G H)^{-1} G
        Hn = sym(H + A.T @ H @ WA)
        if _converged(H, Hn, tol):
            return _trusted(ValueMatrix, P=Hn)
        A, G, H = A @ WA, sym(G + A @ WG @ A.T), Hn
    raise NotStabilizable(f"no convergence to tol={tol:.1e} within {max_iter} doubling steps")


def q_from_p(plant: PlantModel, P) -> QMatrix:
    """Q = I + [A B]' P [A B]; a raw array P is checked, a ValueMatrix is trusted."""
    trusted = isinstance(P, ValueMatrix)
    P = P.P if trusted else _check_matrix(P, "P")
    if P.shape != (plant.n, plant.n):
        raise ShapeMismatch(f"P must be {plant.n} x {plant.n}, got {P.shape}")
    AB = plant.ab
    Q = np.eye(plant.n + plant.m) + AB.T @ P @ AB
    if trusted:
        return _trusted(QMatrix, Q=sym(Q), n=plant.n, m=plant.m)
    return QMatrix(Q, plant.n, plant.m)


def gain_from_q(q: QMatrix) -> Gain:
    """Minimizing gain K = -(Quu)^{-1} Qux of min_K [I;K]' Q [I;K]."""
    quu = q.quu
    evals = np.linalg.eigvalsh(quu)
    # Quu >= I analytically; conditioning below 1e-12 on the unit scale
    # means corrupted input.
    if evals[0] <= 0 or evals[0] < 1e-12 * max(1.0, evals[-1]):
        raise SingularQuu(f"Quu eigenvalue range [{evals[0]:.3e}, {evals[-1]:.3e}] "
                          "is singular to working precision")
    return _trusted(Gain, K=-np.linalg.solve(quu, q.qux))


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
        return None, MembershipCertificate(beta=float(beta), member=False, Q=None,
                                           max_eig_Q=np.inf, residual=np.inf,
                                           reason=f"riccati solve failed: {exc}")
    return P, _membership(plant, P, beta)


def _membership(plant: PlantModel, P: ValueMatrix, beta: float) -> MembershipCertificate:
    """check_membership's certificate for the plant's already solved P."""
    beta = _check_beta(beta, "beta")
    q = q_from_p(plant, P)
    evals = np.linalg.eigvalsh(q.Q)
    max_eig = float(evals[-1])
    member = max_eig <= beta**2 + PSD_SLACK and evals[0] >= 1.0 - PSD_SLACK
    reason = "" if member else f"max eig {max_eig:.6g} exceeds beta^2 = {beta**2:.6g}"
    return MembershipCertificate(beta=float(beta), member=bool(member), Q=q,
                                 max_eig_Q=max_eig, residual=dare_residual(plant, P),
                                 reason=reason)


def solve_from_upper(plant: PlantModel, qbar: QMatrix, kbar: Gain) -> QMatrix:
    """Solve the Q-form fixed point downward from a certified upper bound.

    Requires the super-solution hypothesis
        [A B]' [I;Kbar]' Qbar [I;Kbar] [A B]  <=  Qbar - I
    within UPPER_TOL (HypothesisViolated otherwise).  Value iteration then
    starts from P0 = [I;Kbar]' Qbar [I;Kbar] and is asserted monotone
    non-increasing each step; the limit satisfies I <= Q <= Qbar.
    """
    n, m = plant.n, plant.m
    if (qbar.n, qbar.m) != (n, m) or kbar.K.shape != (m, n):
        raise ShapeMismatch("qbar/kbar dimensions do not match the plant")
    IK = np.vstack([np.eye(n), kbar.K])            # (n+m) x n
    M = IK @ plant.ab                              # (n+m) x (n+m)
    qscale = max(1.0, _sym_norm(qbar.Q))
    hyp = _min_eig(qbar.Q - np.eye(n + m) - M.T @ qbar.Q @ M)
    if hyp < -UPPER_TOL * qscale:
        raise HypothesisViolated(f"upper-bound hypothesis fails by {hyp:.3e}")

    P = sym(IK.T @ qbar.Q @ IK)
    for _ in range(DEFAULT_MAX_ITER):
        Pn = riccati_step(plant, P)
        drop = _min_eig(P - Pn)
        if drop < -UPPER_TOL * max(1.0, _sym_norm(P)):
            raise NotConverged(f"iteration not monotone non-increasing (min eig {drop:.3e})")
        res = _sym_norm(P - Pn) / _sym_norm(Pn)
        P = Pn
        if res <= UPPER_TOL:
            q = q_from_p(plant, P)
            above = _min_eig(qbar.Q - q.Q)
            if above < -UPPER_TOL * qscale:
                raise NotConverged(f"limit escapes the upper bound by {above:.3e}")
            return q
    raise NotConverged(f"no convergence to tol={UPPER_TOL:.1e} "
                       f"within {DEFAULT_MAX_ITER} iterations")
