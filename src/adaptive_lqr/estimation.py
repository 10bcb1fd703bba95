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
update_correlations and initial_correlation and the estimate plant of
estimate_model are built from checked data and skip `__post_init__`.
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
    DEFAULT_TOL,
    Gain,
    PlantModel,
    QMatrix,
    ValueMatrix,
    gain_from_q,
    q_from_p,
    solve_dare,
    sym,
    _check_factor,
    _check_int,
    _check_matrix,
    _check_vector,
    _min_eig,
    _spectral_norm,
    _sym_norm,
    _trusted,
)

COND_LIMIT = 1e14


@dataclass(frozen=True)
class CorrelationState:
    """Running pair (Sigma, SigmaHat) with forgetting factor and regularizer."""

    sigma: np.ndarray       # (n+m) x (n+m), symmetric positive definite
    sigma_hat: np.ndarray   # n x (n+m)
    lam: float
    sigma0: np.ndarray
    t: int

    def __post_init__(self):
        sigma = _check_matrix(self.sigma, "sigma", square=True)
        d = sigma.shape[0]
        if _spectral_norm(sigma - sigma.T) > 1e-12 * max(1.0, _sym_norm(sigma)):
            raise ShapeMismatch("sigma is not symmetric to 1e-12 relative")
        sigma_hat = _check_matrix(self.sigma_hat, "sigma_hat")
        if sigma_hat.shape[1] != d or not 1 <= sigma_hat.shape[0] < d:
            raise ShapeMismatch(f"sigma_hat must be n x {d} with 1 <= n < {d}, got {sigma_hat.shape}")
        object.__setattr__(self, "sigma0", _check_sigma0(self.sigma0, d))
        object.__setattr__(self, "lam", _check_factor(self.lam, "lam"))
        object.__setattr__(self, "t", _check_int(self.t, "t", 0))
        object.__setattr__(self, "sigma", sym(sigma))
        object.__setattr__(self, "sigma_hat", sigma_hat)

    @property
    def n(self) -> int:
        return self.sigma_hat.shape[0]

    @property
    def m(self) -> int:
        return self.sigma.shape[0] - self.n


def _check_sigma0(sigma0, d: int) -> np.ndarray:
    """sigma0 checked d x d and positive definite; returned symmetrized."""
    sigma0 = sym(_check_matrix(sigma0, "sigma0", (d, d)))
    if _min_eig(sigma0) <= 0:
        raise ShapeMismatch("sigma0 must be positive definite")
    return sigma0


def initial_correlation(n: int, m: int, lam: float = 0.99,
                        sigma0: np.ndarray | None = None) -> CorrelationState:
    """State at t = 0: Sigma = Sigma0, SigmaHat = 0."""
    n, m = _check_int(n, "n"), _check_int(m, "m")
    if sigma0 is None:
        sigma0 = 1e-3 * np.eye(n + m)
    sigma0 = _check_sigma0(sigma0, n + m)
    return _trusted(CorrelationState, sigma=sigma0.copy(), sigma_hat=np.zeros((n, n + m)),
                    lam=_check_factor(lam, "lam"), sigma0=sigma0, t=0)


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


def _as_history(history) -> list:
    """history read into a list (any iterable; ShapeMismatch naming history otherwise)."""
    try:
        entries = iter(history)
    except TypeError:
        raise ShapeMismatch("history must be an iterable of (x, u, v) triples") from None
    return list(entries)


def _triple(entry, k):
    """History entry k unpacked; ShapeMismatch naming history[k] unless it is a triple."""
    try:
        a, b, c = entry
    except (TypeError, ValueError):
        raise ShapeMismatch(f"history[{k}] must be a triple of vectors") from None
    return a, b, c


def _weighted_history(history, lam, n, m, last):
    """(lambda^(t-1-k), z_k = [x_k; u_k], v_k) per entry (x_k, u_k, v_k) of a
    history list of length t, each vector checked; v_k is named `last`."""
    t = len(history)
    for k, entry in enumerate(history):
        x, u, v = _triple(entry, k)
        z = np.concatenate([_check_vector(x, "x", n), _check_vector(u, "u", m)])
        yield lam ** (t - 1 - k), z, _check_vector(v, last, n)


def batch_correlations(history, lam: float, sigma0, n: int | None = None) -> CorrelationState:
    """Closed-form discounted sums over an iterable of (x_k, u_k, x_{k+1})
    triples, read once into a list (not iterable: ShapeMismatch).

    Equals folding update_correlations over the history, up to floating-point
    associativity.  For an empty history the state dimension `n` must be
    given (the result is then Sigma = Sigma0, SigmaHat = 0 at t = 0).
    """
    history = _as_history(history)
    lam = _check_factor(lam, "lam")
    sigma0 = _check_matrix(sigma0, "sigma0", square=True)
    d = sigma0.shape[0]
    t = len(history)
    if n is None:
        if t == 0:
            raise ShapeMismatch("empty history requires the state dimension n")
        n = _check_vector(_triple(history[0], 0)[0], "x").size
    n = _check_int(n, "n")
    sigma = lam ** t * sigma0
    sigma_hat = np.zeros((n, d))
    for w, z, x_next in _weighted_history(history, lam, n, d - n, "x_next"):
        sigma = sigma + w * np.outer(z, z)
        sigma_hat = sigma_hat + w * np.outer(x_next, z)
    return CorrelationState(sigma=sym(sigma), sigma_hat=sigma_hat,
                            lam=lam, sigma0=sigma0, t=t)


def _cond(sigma: np.ndarray) -> float:
    """cond(Sigma) of a symmetric Sigma without an SVD: the ratio of its extreme
    eigenvalues, infinite when Sigma is not positive definite."""
    evals = np.linalg.eigvalsh(sigma)
    return float(evals[-1] / evals[0]) if evals[0] > 0 else np.inf


def _estimate(sigma: np.ndarray, sigma_hat: np.ndarray) -> PlantModel:
    """[Ahat Bhat] = SigmaHat Sigma^{-1}; IllConditioned when cond(Sigma) > COND_LIMIT."""
    cond = _cond(sigma)
    if not cond <= COND_LIMIT:
        raise IllConditioned(f"cond(Sigma) = {cond:.3e} exceeds {COND_LIMIT:.1e}")
    ab = np.linalg.solve(sigma, sigma_hat.T).T
    n = sigma_hat.shape[0]
    return _trusted(PlantModel, A=ab[:, :n], B=ab[:, n:])


def estimate_model(state: CorrelationState) -> PlantModel:
    """Model pair (Ahat, Bhat) solving [Ahat Bhat] Sigma = SigmaHat by a linear solve."""
    return _estimate(state.sigma, state.sigma_hat)


def solve_data_riccati(estimate: PlantModel, tol: float = DEFAULT_TOL,
                       p0: np.ndarray | None = None) -> tuple[QMatrix, Gain, ValueMatrix]:
    """Solve the correlation-weighted fixed-point equation via the model estimate.

    Runs the certified Riccati solver on the estimate of estimate_model and
    returns (Q_t, K_t, P_t), with P_t the solve's own cost matrix.  The two
    routes are algebraically equivalent for positive-definite Sigma;
    data_riccati_residual certifies the result on the correlation-weighted
    equation directly.
    """
    try:
        P = solve_dare(estimate, tol=tol, p0=p0)
    except NotStabilizable as exc:
        raise EstimateNotStabilizable(str(exc)) from exc
    q = q_from_p(estimate, P)
    return q, gain_from_q(q), P


def data_riccati_residual(state: CorrelationState, q: QMatrix) -> float:
    """Residual of Sigma (Q - I) Sigma = SigmaHat' min_K(.) SigmaHat.

    Spectral norm of the difference, relative to |Sigma Q Sigma|; scale-free, so
    a |Sigma Q Sigma| not a normal double is taken on (Sigma, SigmaHat) / max |Sigma|.
    """
    S, Sh = state.sigma, state.sigma_hat
    with np.errstate(over="ignore"):
        sqs = S @ q.Q @ S
    den = _sym_norm(sqs) if np.isfinite(sqs).all() else np.inf
    if not np.finfo(float).tiny <= den < np.inf:
        c = np.abs(S).max()
        S, Sh = S / c, Sh / c
        den = _sym_norm(S @ q.Q @ S)
    lhs = S @ (q.Q - np.eye(S.shape[0])) @ S
    rhs = Sh.T @ q.min_value() @ Sh
    return _sym_norm(lhs - rhs) / den


def disturbance_correlation(history, plant: PlantModel, lam: float, sigma0) -> np.ndarray:
    """Discounted disturbance correlations over (x_k, u_k, w_k) triples.

    Returns the n x (n+m) array
    [Swx Swu] = sum_k lambda^(t-1-k) w_k z_k' - lambda^t [A B] Sigma0, which
    equals SigmaHat - [A B] Sigma for the correlations of the same run.
    `history` is read as in batch_correlations.
    """
    n, m = plant.n, plant.m
    history = _as_history(history)
    lam = _check_factor(lam, "lam")
    sigma0 = _check_matrix(sigma0, "sigma0", (n + m, n + m))
    acc = -lam ** len(history) * plant.ab @ sigma0
    for c, z, w in _weighted_history(history, lam, n, m, "w"):
        acc = acc + c * np.outer(w, z)
    return acc


def rho_of(estimate: PlantModel, plant: PlantModel) -> float:
    """Spectral-norm distance between the true pair and the estimate.

    |[A B] - SigmaHat Sigma^{-1}| in the spectral norm for the estimate of
    estimate_model; equals |[Swx Swu] Sigma^{-1}| for the disturbance
    correlations of the same run.  Computed without an SVD, as
    sqrt(max eigvalsh(D D')) for D = [A B] - [Ahat Bhat].
    """
    if (estimate.n, estimate.m) != (plant.n, plant.m):
        raise ShapeMismatch(f"estimate (n, m) = {estimate.n, estimate.m}, plant {plant.n, plant.m}")
    return _spectral_norm(plant.ab - estimate.ab)
