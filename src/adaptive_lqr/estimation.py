"""Correlation recursions with forgetting and the data-driven Riccati path.

The running correlation pair over data points z_k = (x_k, u_k), from (Sigma0, 0), is

    Sigma_{k+1}    = lambda Sigma_k + z_k z_k',
    SigmaHat_{k+1} = lambda SigmaHat_k + x_{k+1} z_k',

with a positive-definite regularizer Sigma0 keeping Sigma_t invertible.
The model estimate [Ahat Bhat] = SigmaHat Sigma^{-1} feeds the certified
Riccati solver; the result is checked back against the correlation-weighted
fixed-point equation at the gain K the controller applies

    Sigma (Q - I) Sigma = SigmaHat' [I;K]' Q [I;K] SigmaHat.

The kernels run on arrays in the caller's quiet() error state (_lapack) and
test their results for finiteness, a failed LAPACK call included: _fold on
the stacked [Sigma; SigmaHat], one (2n+m) x (n+m) array, _estimate returning
[Ahat Bhat], and _solve_data_riccati returning (Q, K, P).  simulate's loop
calls them directly.  Public constructors and data arguments are checked; the
public functions enter quiet() and build their value objects once, from the
kernels' arrays, skipping `__post_init__`: the state of initial_correlation
and update_correlations (whose sigma and sigma_hat are views of one stack),
the estimate plant of estimate_model (given the solved [Ahat Bhat] as `ab`)
and the (Q, K, P) of solve_data_riccati.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import _lapack
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
    solve_dare,   # not called here; bench/test_smoke.py reads it from this module
    sym,
    _check_factor,
    _check_int,
    _check_matrix,
    _check_pd,
    _check_positive,
    _check_vector,
    _eig_reason,
    _gain,
    _q,
    _solve_cold,
    _solve_held,
    _spectral_norm,
    _sym_norm,
    _trusted,
)

COND_LIMIT = 1e14


@dataclass(frozen=True)
class CorrelationState:
    """Running pair (Sigma, SigmaHat) with its forgetting factor and step count."""

    sigma: np.ndarray       # (n+m) x (n+m), symmetric positive definite
    sigma_hat: np.ndarray   # n x (n+m)
    lam: float
    t: int

    def __post_init__(self):
        sigma = _check_pd(self.sigma, "sigma")
        d = sigma.shape[0]
        sigma_hat = _check_matrix(self.sigma_hat, "sigma_hat")
        if sigma_hat.shape[1] != d or not 1 <= sigma_hat.shape[0] < d:
            raise ShapeMismatch(f"sigma_hat must be n x {d} with 1 <= n < {d}, got {sigma_hat.shape}")
        object.__setattr__(self, "lam", _check_factor(self.lam, "lam"))
        object.__setattr__(self, "t", _check_int(self.t, "t", 0))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_hat", sigma_hat)

    @property
    def n(self) -> int:
        return self.sigma_hat.shape[0]

    @property
    def m(self) -> int:
        return self.sigma.shape[0] - self.n


def initial_correlation(n: int, m: int, lam: float = 0.99,
                        sigma0: np.ndarray | None = None) -> CorrelationState:
    """State at t = 0: Sigma = Sigma0, SigmaHat = 0."""
    n, m = _check_int(n, "n"), _check_int(m, "m")
    if sigma0 is not None:
        sigma0 = _check_pd(sigma0, "sigma0", n + m)
    return _correlation_state(_initial_stack(n, m, sigma0), _check_factor(lam, "lam"), 0)


def _initial_stack(n: int, m: int, sigma0: np.ndarray | None) -> np.ndarray:
    """The stacked [Sigma; SigmaHat] at t = 0 for a checked sigma0: [Sigma0; 0], with
    Sigma0 = 1e-3 I when sigma0 is None."""
    d = n + m
    return np.concatenate([1e-3 * _lapack.eye(d) if sigma0 is None else sigma0, np.zeros((n, d))])


def _correlation_state(S: np.ndarray, lam: float, t: int) -> CorrelationState:
    """The CorrelationState of a stacked [Sigma; SigmaHat], whose parts are views of it."""
    d = S.shape[1]
    return _trusted(CorrelationState, sigma=S[:d], sigma_hat=S[d:], lam=lam, t=t)


@_lapack.quietly
def update_correlations(state: CorrelationState, x, u, x_next) -> CorrelationState:
    """One-step recursion Sigma' = lam Sigma + z z', SigmaHat' = lam SigmaHat + x_next z';
    Sigma' is exactly symmetric when Sigma is, since IEEE + and * commute."""
    x, u = _check_vector(x, "x", state.n), _check_vector(u, "u", state.m)
    x_next = _check_vector(x_next, "x_next", state.n)
    S = _fold(np.concatenate([state.sigma, state.sigma_hat]), state.lam, x, u, x_next)
    return _correlation_state(S, state.lam, state.t + 1)


def _fold(S: np.ndarray, lam: float, x: np.ndarray, u: np.ndarray, x_next: np.ndarray) -> np.ndarray:
    """update_correlations of the stacked [Sigma; SigmaHat] on checked vectors, in quiet():
    lam S + [z; x_next] z' for z = (x, u), entry for entry the bits of the two
    recursions.  NonFiniteInput when the data point overflows the correlations."""
    y = np.concatenate((x, u, x_next))
    S = lam * S + y[:, None] * y[: S.shape[1]]
    if not np.isfinite(S).all():
        raise NonFiniteInput("the data point overflows the correlations")
    return S


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


def batch_correlations(history, lam: float, sigma0, n: int | None = None) -> CorrelationState:
    """update_correlations folded from initial_correlation over an iterable of
    (x_k, u_k, x_{k+1}) triples, read once into a list (not iterable: ShapeMismatch):
    the state the controller holds after observing them, bit for bit.  An empty
    history needs the state dimension `n` (the result is then (Sigma0, 0) at t = 0).
    """
    history = _as_history(history)
    lam = _check_factor(lam, "lam")
    d = _check_matrix(sigma0, "sigma0", square=True).shape[0]
    if n is None:
        if not history:
            raise ShapeMismatch("empty history requires the state dimension n")
        n = _check_vector(_triple(history[0], 0)[0], "x").size
    state = initial_correlation(_check_int(n, "n"), d - n, lam, sigma0)
    for k, entry in enumerate(history):
        state = update_correlations(state, *_triple(entry, k))
    return CorrelationState(**vars(state))


def _cond(sigma: np.ndarray) -> float:
    """cond(Sigma) of a symmetric Sigma without an SVD: the ratio of its extreme
    eigenvalues, infinite when its smallest is not a positive normal double (a
    subnormal one has lost precision), NaN when eigvalsh fails."""
    evals = _lapack.eigvalsh_nan(sigma)
    return float(evals[-1] / evals[0]) if not evals[0] < sys.float_info.min else np.inf


def _estimate(sigma: np.ndarray, sigma_hat: np.ndarray) -> np.ndarray:
    """[Ahat Bhat] = SigmaHat Sigma^{-1} as one n x (n+m) array; IllConditioned when
    cond(Sigma) > COND_LIMIT or the solve overflows (or fails, giving NaN)."""
    cond = _cond(sigma)
    if not cond <= COND_LIMIT:
        raise IllConditioned(_eig_reason(cond, "Sigma",
                                         f"cond(Sigma) = {cond:.3e} exceeds {COND_LIMIT:.1e}"))
    ab = _lapack.solve_nan(sigma, sigma_hat.T).T
    if not np.isfinite(ab).all():
        raise IllConditioned("SigmaHat Sigma^{-1} overflows")
    return ab


def _estimate_plant(ab: np.ndarray) -> PlantModel:
    """The PlantModel of an estimate [Ahat Bhat], whose A and B are views of it."""
    n = len(ab)
    return _trusted(PlantModel, A=ab[:, :n], B=ab[:, n:], ab=ab)


@_lapack.quietly
def estimate_model(state: CorrelationState) -> PlantModel:
    """Model pair (Ahat, Bhat) solving [Ahat Bhat] Sigma = SigmaHat by a linear solve."""
    return _estimate_plant(_estimate(state.sigma, state.sigma_hat))


@_lapack.quietly
def solve_data_riccati(estimate: PlantModel,
                       tol: float = DEFAULT_TOL) -> tuple[QMatrix, Gain, ValueMatrix]:
    """Solve the correlation-weighted fixed-point equation via the model estimate.

    Runs the certified Riccati solver on the estimate of estimate_model and
    returns (Q_t, K_t, P_t), with P_t the solve's own cost matrix.  The two
    routes are algebraically equivalent for positive-definite Sigma;
    data_riccati_residual certifies the result on the correlation-weighted
    equation directly.
    """
    Q, K, P = _solve_data_riccati(estimate.A, estimate.B, estimate.ab,
                                  _check_positive(tol, "tol"), None)
    return (_trusted(QMatrix, Q=Q, n=estimate.n, m=estimate.m), _trusted(Gain, K=K),
            _trusted(ValueMatrix, P=P))


def _solve_data_riccati(A: np.ndarray, B: np.ndarray, ab: np.ndarray, tol: float,
                        held: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """solve_data_riccati of the pair (A, B), stacked as ab, on a checked tol, in
    quiet(): (Q, K, P) as arrays.  The held P of the previous solve is confirmed
    or refined when one passes (riccati._solve_held); otherwise the solve is cold."""
    P = None if held is None else _solve_held((A, B), tol, held)
    if P is None:
        try:
            P = _solve_cold(A, B, tol)
        except NotStabilizable as exc:
            raise EstimateNotStabilizable(str(exc)) from exc
    Q = sym(_q(ab, P))
    return Q, _gain(Q, len(A)), P


@_lapack.quietly
def data_riccati_residual(state: CorrelationState, q: QMatrix, gain: Gain) -> float:
    """Residual of Sigma (Q - I) Sigma = SigmaHat' [I;K]' Q [I;K] SigmaHat at the gain K.

    Spectral norm of the difference relative to |Sigma Q Sigma|, on (Sigma, SigmaHat)
    divided exactly by the power of two that puts max |Sigma| in [1/2, 1): scale-free,
    and Q >= I keeps |Sigma Q Sigma| >= 1/4, so nothing overflows or underflows.
    """
    n, m = state.n, state.m
    if (q.n, q.m) != (n, m) or gain.K.shape != (m, n):
        raise ShapeMismatch(f"q and gain must be shaped for (n, m) = {n, m}")
    return _residual(state.sigma, state.sigma_hat, q.Q, gain.K)


def _residual(sigma: np.ndarray, sigma_hat: np.ndarray, Q: np.ndarray,
              K: np.ndarray) -> float | np.ndarray:
    """data_riccati_residual of (Sigma, SigmaHat, Q, K), or of each step of stacks of
    them (..., r, c), for an array of residuals; each stacked step gets its own bits."""
    n, d = sigma_hat.shape[-2:]
    e = np.frexp(np.abs(sigma).max(axis=(-2, -1), keepdims=True))[1]
    S, Sh = np.ldexp(sigma, -e), np.ldexp(sigma_hat, -e)
    IK = np.empty(K.shape[:-2] + (d, n))
    IK[..., :n, :], IK[..., n:, :] = _lapack.eye(n), K
    lhs = S @ (Q - _lapack.eye(d)) @ S
    rhs = Sh.mT @ sym(IK.mT @ Q @ IK) @ Sh
    return _sym_norm(lhs - rhs) / _sym_norm(S @ Q @ S)


@_lapack.quietly
def disturbance_correlation(history, plant: PlantModel, lam: float, sigma0) -> np.ndarray:
    """Discounted disturbance correlations over (x_k, u_k, w_k) triples.

    Returns the n x (n+m) array [Swx Swu] of the SigmaHat recursion with w_k
    for x_{k+1}, from -[A B] Sigma0: it equals SigmaHat - [A B] Sigma for the
    correlations of the same run.
    `history` is read as in batch_correlations; a history that overflows
    the correlations raises NonFiniteInput, as there.
    """
    n, m = plant.n, plant.m
    history = _as_history(history)
    lam = _check_factor(lam, "lam")
    # A sum that overflows stays inf or NaN: one test at the end.
    acc = -plant.ab @ _check_pd(sigma0, "sigma0", n + m)
    for k, entry in enumerate(history):
        x, u, w = _triple(entry, k)
        z = np.concatenate([_check_vector(x, "x", n), _check_vector(u, "u", m)])
        acc = lam * acc + np.outer(_check_vector(w, "w", n), z)
    if not np.isfinite(acc).all():
        raise NonFiniteInput("the history overflows the disturbance correlations")
    return acc


def rho_of(estimate: PlantModel, plant: PlantModel) -> float:
    """Spectral-norm distance between the true pair and the estimate.

    |[A B] - SigmaHat Sigma^{-1}| in the spectral norm for the estimate of
    estimate_model; equals |[Swx Swu] Sigma^{-1}| for the disturbance
    correlations of the same run.  Computed without an SVD, as
    sqrt(max eigvalsh(D D')) for D = [A B] - [Ahat Bhat]; inf when D overflows,
    NaN when eigvalsh fails.
    """
    if (estimate.n, estimate.m) != (plant.n, plant.m):
        raise ShapeMismatch(f"estimate (n, m) = {estimate.n, estimate.m}, plant {plant.n, plant.m}")
    return _rho(plant.ab, estimate.ab)


@_lapack.quietly   # a difference that overflows has distance inf
def _rho(ab: np.ndarray, ab_hat: np.ndarray) -> float | np.ndarray:
    """rho_of of the pairs [A B] and [Ahat Bhat], or of each [Ahat Bhat] of a stack."""
    return _spectral_norm(ab - ab_hat)
