"""Correlation recursions with forgetting and the data-driven Riccati path.

The running correlation pair over data points z_k = (x_k, u_k) is

    Sigma_t    = sum_k lambda^(t-1-k) z_k z_k' + lambda^t Sigma0,
    SigmaHat_t = sum_k lambda^(t-1-k) x_{k+1} z_k',

with a positive-definite regularizer Sigma0 keeping Sigma_t invertible.
The model estimate [Ahat Bhat] = SigmaHat Sigma^{-1} feeds the certified
Riccati solver; the result is checked back against the correlation-weighted
fixed-point equation

    Sigma (Q - I) Sigma = SigmaHat' min_K([I;K]' Q [I;K]) SigmaHat.

Public constructors and data arguments are checked; the state returned by
update_correlations and the estimate plant in solve_data_riccati are built
from checked data and skip `__post_init__`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EstimateNotStabilizable,
    IllConditioned,
    NonFiniteInput,
    NotStabilizable,
    ShapeMismatch,
)
from .riccati import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Gain,
    PlantModel,
    QMatrix,
    gain_from_q,
    q_from_p,
    solve_dare,
    sym,
    _check_matrix,
    _trusted,
)

COND_LIMIT = 1e14


def _check_vector(v, name, size):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (size,):
        raise ShapeMismatch(f"{name} must have length {size}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class CorrelationState:
    """Running pair (Sigma, SigmaHat) with forgetting factor and regularizer."""

    sigma: np.ndarray       # (n+m) x (n+m), symmetric positive definite
    sigma_hat: np.ndarray   # n x (n+m)
    lam: float
    sigma0: np.ndarray
    t: int

    def __post_init__(self):
        sigma = _check_matrix(self.sigma, "sigma")
        d = sigma.shape[0]
        if sigma.shape != (d, d):
            raise ShapeMismatch("sigma must be square")
        if np.linalg.norm(sigma - sigma.T, 2) > 1e-12 * max(1.0, np.linalg.norm(sigma, 2)):
            raise ShapeMismatch("sigma is not symmetric to 1e-12 relative")
        sigma_hat = _check_matrix(self.sigma_hat, "sigma_hat")
        if sigma_hat.shape[1] != d or not 1 <= sigma_hat.shape[0] < d:
            raise ShapeMismatch(f"sigma_hat must be n x {d} with 1 <= n < {d}, got {sigma_hat.shape}")
        sigma0 = _check_matrix(self.sigma0, "sigma0", (d, d))
        if not 0.0 < self.lam <= 1.0:
            raise ShapeMismatch(f"lambda must lie in (0, 1], got {self.lam}")
        if self.t < 0:
            raise ShapeMismatch("t must be non-negative")
        object.__setattr__(self, "sigma", sym(sigma))
        object.__setattr__(self, "sigma_hat", sigma_hat)
        object.__setattr__(self, "sigma0", sym(sigma0))

    @property
    def n(self) -> int:
        return self.sigma_hat.shape[0]

    @property
    def m(self) -> int:
        return self.sigma.shape[0] - self.n


@dataclass(frozen=True)
class ModelEstimate:
    """Least-squares model pair (Ahat, Bhat)."""

    a_hat: np.ndarray
    b_hat: np.ndarray

    def as_plant(self) -> PlantModel:
        return PlantModel(self.a_hat, self.b_hat)


@dataclass(frozen=True)
class DisturbanceCorrelation:
    """Discounted disturbance-data correlations (Swx, Swu)."""

    swx: np.ndarray
    swu: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        return np.hstack([self.swx, self.swu])


def initial_correlation(n: int, m: int, lam: float = 0.99,
                        sigma0: np.ndarray | None = None) -> CorrelationState:
    """State at t = 0: Sigma = Sigma0, SigmaHat = 0."""
    if sigma0 is None:
        sigma0 = 1e-3 * np.eye(n + m)
    sigma0 = _check_matrix(sigma0, "sigma0", (n + m, n + m))
    if np.linalg.eigvalsh(sym(sigma0)).min() <= 0:
        raise ShapeMismatch("sigma0 must be positive definite")
    return CorrelationState(sigma=sigma0.copy(), sigma_hat=np.zeros((n, n + m)),
                            lam=float(lam), sigma0=sigma0, t=0)


def update_correlations(state: CorrelationState, x, u, x_next) -> CorrelationState:
    """One-step recursion: Sigma' = lam Sigma + z z', SigmaHat' = lam SigmaHat + x_next z'."""
    x = _check_vector(x, "x", state.n)
    u = _check_vector(u, "u", state.m)
    x_next = _check_vector(x_next, "x_next", state.n)
    z = np.concatenate([x, u])
    sigma = sym(state.lam * state.sigma + np.outer(z, z))
    sigma_hat = state.lam * state.sigma_hat + np.outer(x_next, z)
    if not (np.isfinite(sigma).all() and np.isfinite(sigma_hat).all()):
        raise NonFiniteInput("the data point overflows the correlations")
    return _trusted(CorrelationState, **{**vars(state), "sigma": sigma,
                                         "sigma_hat": sigma_hat, "t": state.t + 1})


def batch_correlations(history, lam: float, sigma0, n: int | None = None) -> CorrelationState:
    """Closed-form discounted sums over a list of (x_k, u_k, x_{k+1}) triples.

    Equals folding update_correlations over the history, up to floating-point
    associativity.  For an empty history the state dimension `n` must be
    given (the result is then Sigma = Sigma0, SigmaHat = 0 at t = 0).
    """
    sigma0 = np.array(sigma0, dtype=float)
    d = sigma0.shape[0]
    t = len(history)
    if n is None:
        if t == 0:
            raise ShapeMismatch("empty history requires the state dimension n")
        n = np.asarray(history[0][0], dtype=float).size
    sigma = float(lam) ** t * sigma0
    sigma_hat = np.zeros((n, d))
    for k, (x, u, x_next) in enumerate(history):
        x = _check_vector(x, "x", n)
        u = _check_vector(u, "u", d - n)
        x_next = _check_vector(x_next, "x_next", n)
        z = np.concatenate([x, u])
        w = float(lam) ** (t - 1 - k)
        sigma = sigma + w * np.outer(z, z)
        sigma_hat = sigma_hat + w * np.outer(x_next, z)
    return CorrelationState(sigma=sym(sigma), sigma_hat=sigma_hat,
                            lam=float(lam), sigma0=sigma0, t=t)


def estimate_model(state: CorrelationState) -> ModelEstimate:
    """Solve [Ahat Bhat] Sigma = SigmaHat by a linear solve (no explicit inverse)."""
    cond = np.linalg.cond(state.sigma)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditioned(f"cond(Sigma) = {cond:.3e} exceeds {COND_LIMIT:.1e}")
    ab = np.linalg.solve(state.sigma, state.sigma_hat.T).T
    return ModelEstimate(a_hat=ab[:, : state.n], b_hat=ab[:, state.n :])


def solve_data_riccati(state: CorrelationState, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER,
                       p0: np.ndarray | None = None) -> tuple[QMatrix, Gain]:
    """Solve the correlation-weighted fixed-point equation via the model estimate.

    Estimates (Ahat, Bhat), runs the certified Riccati solver on the estimate
    and returns (Q_t, K_t).  The two routes are algebraically equivalent for
    positive-definite Sigma; data_riccati_residual certifies the result on
    the correlation-weighted equation directly.
    """
    est = estimate_model(state)
    plant = _trusted(PlantModel, A=est.a_hat, B=est.b_hat)
    try:
        P = solve_dare(plant, tol=tol, max_iter=max_iter, p0=p0)
    except NotStabilizable as exc:
        raise EstimateNotStabilizable(str(exc)) from exc
    q = q_from_p(plant, P)
    return q, gain_from_q(q)


def data_riccati_residual(state: CorrelationState, q: QMatrix) -> float:
    """Residual of Sigma (Q - I) Sigma = SigmaHat' min_K(.) SigmaHat.

    Spectral norm of the difference, relative to |Sigma Q Sigma|.
    """
    S, Sh = state.sigma, state.sigma_hat
    lhs = S @ (q.Q - np.eye(S.shape[0])) @ S
    rhs = Sh.T @ q.min_value() @ Sh
    return float(np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(S @ q.Q @ S, 2))


def disturbance_correlation(history, plant: PlantModel, lam: float, sigma0) -> DisturbanceCorrelation:
    """Discounted disturbance correlations over (x_k, u_k, w_k) triples.

    [Swx Swu] = sum_k lambda^(t-1-k) w_k z_k' - lambda^t [A B] Sigma0, which
    equals SigmaHat - [A B] Sigma for the correlations of the same run.
    """
    n, m = plant.n, plant.m
    sigma0 = _check_matrix(sigma0, "sigma0", (n + m, n + m))
    t = len(history)
    acc = -float(lam) ** t * plant.ab @ sigma0
    for k, (x, u, w) in enumerate(history):
        x = _check_vector(x, "x", n)
        u = _check_vector(u, "u", m)
        w = _check_vector(w, "w", n)
        z = np.concatenate([x, u])
        acc = acc + float(lam) ** (t - 1 - k) * np.outer(w, z)
    return DisturbanceCorrelation(swx=acc[:, :n], swu=acc[:, n:])


def rho_of(state: CorrelationState, plant: PlantModel) -> float:
    """Spectral-norm distance between the true pair and the estimate.

    |[A B] - SigmaHat Sigma^{-1}| in the spectral norm; equals
    |[Swx Swu] Sigma^{-1}| for the disturbance correlations of the same run.
    """
    est = estimate_model(state)
    return float(np.linalg.norm(plant.ab - np.hstack([est.a_hat, est.b_hat]), 2))
