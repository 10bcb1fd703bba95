"""Discrete-time Riccati equation for the unit-cost LQ problem.

The infinite-horizon cost sum(|x_t|^2 + |u_t|^2) for x_{t+1} = A x_t + B u_t
has optimal value x0' P x0, where P is the fixed point of

    P = min_K [ I + K'K + (A + BK)' P (A + BK) ].

The same fixed point in the joint state-input matrix Q = I + [A B]' P [A B]
reads Q - I = [A B]' min_K([I;K]' Q [I;K]) [A B], with the minimizing gain
K = -(Quu)^{-1} Qux.  Everything here is solved by fixed-point value
iteration with re-symmetrization, so each iterate is certified PSD >= I.

Public constructors and the array arguments of public functions are checked;
the ValueMatrix of solve_dare, the Q of q_from_p on a ValueMatrix and the
gain of gain_from_q are built from checked data and skip `__post_init__`.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# Iterates above this spectral norm are treated as divergence.
NORM_CAP = 1e12
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


def sym(M: np.ndarray) -> np.ndarray:
    """Exactly symmetric part (M + M') / 2."""
    return (M + M.T) / 2.0


def _trusted(cls, **fields):
    """Frozen dataclass `cls` from fields in checked form, skipping `__post_init__`."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_matrix(M, name, shape=None):
    M = np.array(M, dtype=float)
    if M.ndim != 2:
        raise ShapeMismatch(f"{name} must be a matrix, got ndim={M.ndim}")
    if shape is not None and M.shape != shape:
        raise ShapeMismatch(f"{name} must have shape {shape}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return M


def _check_cost_matrix(M, name, shape=None):
    """M checked square, symmetric to 1e-12 relative and >= I; returned re-symmetrized."""
    M = _check_matrix(M, name, shape)
    if M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got {M.shape}")
    scale = max(1.0, float(np.linalg.norm(M, 2)))
    if np.linalg.norm(M - M.T, 2) > 1e-12 * scale:
        raise ShapeMismatch(f"{name} is not symmetric to 1e-12 relative")
    # Symmetrizing makes the qux == qxu' block identity of Q exact.
    M = sym(M)
    if np.linalg.eigvalsh(M).min() < 1.0 - 1e-9:
        raise DomainError(f"{name} must satisfy {name} >= I (unit stage cost)")
    return M


@dataclass(frozen=True)
class PlantModel:
    """True system pair (A, B) of x_{t+1} = A x_t + B u_t + w_t."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _check_matrix(self.A, "A")
        if A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise ShapeMismatch(f"A must be square n x n with n >= 1, got {A.shape}")
        B = _check_matrix(self.B, "B")
        if B.shape[0] != A.shape[0] or B.shape[1] < 1:
            raise ShapeMismatch(f"B must be {A.shape[0]} x m with m >= 1, got {B.shape}")
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
    """One application of the fixed-point map min_K [I + K'K + (A+BK)'P(A+BK)]."""
    A, B = plant.A, plant.B
    BtP = B.T @ P
    G = np.eye(plant.m) + BtP @ B
    W = BtP @ A
    Pn = np.eye(plant.n) + A.T @ P @ A - W.T @ np.linalg.solve(G, W)
    return sym(Pn)


def dare_residual(plant: PlantModel, P) -> float:
    """Relative fixed-point residual |P - step(P)| / |P| in spectral norm."""
    P = P.P if isinstance(P, ValueMatrix) else np.asarray(P, dtype=float)
    return float(np.linalg.norm(P - riccati_step(plant, P), 2) / np.linalg.norm(P, 2))


def solve_dare(plant: PlantModel, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER, p0: np.ndarray | None = None) -> ValueMatrix:
    """Solve the fixed-point equation by value iteration.

    Starts from the identity (monotone non-decreasing iterates) unless `p0`
    is supplied as a warm start.  Raises NotStabilizable when the iterates
    exceed NORM_CAP in spectral norm or the budget runs out before the
    relative residual drops below `tol`.
    """
    if tol <= 0 or max_iter < 1:
        raise DomainError("tol must be positive and max_iter >= 1")
    P = np.eye(plant.n) if p0 is None else sym(_check_matrix(p0, "p0", (plant.n, plant.n)))
    for _ in range(max_iter):
        Pn = riccati_step(plant, P)
        norm = np.linalg.norm(Pn, 2)
        if norm > NORM_CAP:
            raise NotStabilizable(f"iterate norm {norm:.3e} exceeds cap {NORM_CAP:.1e}")
        res = np.linalg.norm(P - Pn, 2) / norm
        P = Pn
        if res <= tol:
            # Iterates stay >= I from any PSD start; a raw p0 may not be one.
            if p0 is not None:
                try:
                    np.linalg.cholesky(P - (1.0 - 1e-9) * np.eye(plant.n))
                except np.linalg.LinAlgError:
                    raise DomainError("P must satisfy P >= I (unit stage cost)") from None
            return _trusted(ValueMatrix, P=P)
    raise NotStabilizable(f"no convergence to tol={tol:.1e} within {max_iter} iterations")


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


def check_membership(plant: PlantModel, beta: float, tol: float = 1e-8) -> MembershipCertificate:
    """Test whether the plant's Riccati solution satisfies I <= Q <= beta^2 I.

    An unsolvable fixed point is reported as non-membership, never raised.
    Eigenvalue comparisons use absolute slack `tol` since the set is defined
    by non-strict inequalities.
    """
    if beta <= 1.0:
        raise DomainError("beta must exceed 1")
    try:
        P = solve_dare(plant)
    except NotStabilizable as exc:
        return MembershipCertificate(beta=float(beta), member=False, Q=None,
                                     max_eig_Q=np.inf, residual=np.inf,
                                     reason=f"riccati solve failed: {exc}")
    q = q_from_p(plant, P)
    evals = np.linalg.eigvalsh(q.Q)
    max_eig = float(evals[-1])
    member = max_eig <= beta**2 + tol and evals[0] >= 1.0 - tol
    reason = "" if member else f"max eig {max_eig:.6g} exceeds beta^2 = {beta**2:.6g}"
    return MembershipCertificate(beta=float(beta), member=bool(member), Q=q,
                                 max_eig_Q=max_eig, residual=dare_residual(plant, P),
                                 reason=reason)


def solve_from_upper(plant: PlantModel, qbar: QMatrix, kbar: Gain,
                     tol: float = 1e-9, max_iter: int = DEFAULT_MAX_ITER) -> QMatrix:
    """Solve the Q-form fixed point downward from a certified upper bound.

    Requires the super-solution hypothesis
        [A B]' [I;Kbar]' Qbar [I;Kbar] [A B]  <=  Qbar - I
    within `tol` (HypothesisViolated otherwise).  Value iteration then starts
    from P0 = [I;Kbar]' Qbar [I;Kbar] and is asserted monotone non-increasing
    each step; the limit satisfies I <= Q <= Qbar.
    """
    n, m = plant.n, plant.m
    if (qbar.n, qbar.m) != (n, m) or kbar.K.shape != (m, n):
        raise ShapeMismatch("qbar/kbar dimensions do not match the plant")
    IK = np.vstack([np.eye(n), kbar.K])            # (n+m) x n
    M = IK @ plant.ab                              # (n+m) x (n+m)
    qscale = max(1.0, float(np.linalg.norm(qbar.Q, 2)))
    hyp = np.linalg.eigvalsh(sym(qbar.Q - np.eye(n + m) - M.T @ qbar.Q @ M)).min()
    if hyp < -tol * qscale:
        raise HypothesisViolated(f"upper-bound hypothesis fails by {hyp:.3e}")

    P = sym(IK.T @ qbar.Q @ IK)
    for _ in range(max_iter):
        Pn = riccati_step(plant, P)
        drop = np.linalg.eigvalsh(sym(P - Pn)).min()
        if drop < -tol * max(1.0, float(np.linalg.norm(P, 2))):
            raise NotConverged(f"iteration not monotone non-increasing (min eig {drop:.3e})")
        res = np.linalg.norm(P - Pn, 2) / np.linalg.norm(Pn, 2)
        P = Pn
        if res <= tol:
            q = q_from_p(plant, P)
            above = np.linalg.eigvalsh(sym(qbar.Q - q.Q)).min()
            if above < -tol * qscale:
                raise NotConverged(f"limit escapes the upper bound by {above:.3e}")
            return q
    raise NotConverged(f"no convergence to tol={tol:.1e} within {max_iter} iterations")
