"""Certainty-equivalence adaptive controller.

Each step solves the data-driven Riccati equation on the current correlation
state, applies u_t = K_t x_t + eps_t with a deterministic excitation sample,
and folds the observed transition into the correlations afterwards.  When
the current estimate is not stabilizable the last successful gain is reused
and the step is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimateNotStabilizable, IllConditioned, ShapeMismatch, SingularQuu
from .estimation import (
    CorrelationState,
    data_riccati_residual,
    estimate_model,
    initial_correlation,
    update_correlations,
    _solve_data_riccati,
)
from .riccati import (Gain, PlantModel, QMatrix, _check_amplitude, _check_factor, _check_int,
                      _check_seed, _check_vector, _trusted)

# Tolerance of each step's data-driven Riccati solve.
SOLVE_TOL = 1e-11


@dataclass(frozen=True)
class ExcitationSchedule:
    """Deterministic probing signal keyed by (seed, t): uniform on
    [-amplitude, amplitude]^m, scaled by decay_rate**t."""

    m: int
    amplitude: float = 0.0
    decay_rate: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m", _check_int(self.m, "m"))
        object.__setattr__(self, "amplitude", _check_amplitude(self.amplitude, "amplitude"))
        object.__setattr__(self, "decay_rate", _check_factor(self.decay_rate, "decay_rate"))
        object.__setattr__(self, "seed", _check_seed(self.seed, "seed"))

    @classmethod
    def constant(cls, m: int, amplitude: float, seed: int = 0) -> "ExcitationSchedule":
        return cls(m=m, amplitude=amplitude, seed=seed)

    @classmethod
    def decaying(cls, m: int, amplitude: float, decay_rate: float, seed: int = 0) -> "ExcitationSchedule":
        return cls(m=m, amplitude=amplitude, decay_rate=decay_rate, seed=seed)


def excitation_sample(schedule: ExcitationSchedule, t: int) -> np.ndarray:
    """Excitation vector at time t; identical (schedule, t) gives identical output."""
    t = _check_int(t, "t", 0)
    if schedule.amplitude == 0.0:
        return np.zeros(schedule.m)
    # Counter-based stream: a fresh generator keyed by (seed, t) makes the
    # sample independent of call order.
    rng = np.random.default_rng((schedule.seed, t))
    v = rng.uniform(-schedule.amplitude, schedule.amplitude, schedule.m)
    return v * schedule.decay_rate ** t


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step gain, excitation, equation residual, fallback flag and model
    estimate (None when Sigma is too ill-conditioned to estimate from)."""

    gain: np.ndarray
    excitation: np.ndarray
    eq6_residual: float
    fallback: bool
    estimate: PlantModel | None


@dataclass(frozen=True)
class ControllerState:
    """Immutable controller state; step/observe return updated copies."""

    corr: CorrelationState
    last_gain: Gain
    excitation: ExcitationSchedule
    warm_p: np.ndarray | None = None   # previous cost-to-go, for the next solve to confirm

    def __post_init__(self):
        n, m = self.corr.n, self.corr.m
        if self.last_gain.K.shape != (m, n):
            raise ShapeMismatch(f"last_gain must be {m} x {n}, got {self.last_gain.K.shape}")
        if self.excitation.m != m:
            raise ShapeMismatch("excitation dimension does not match the input dimension")


def initial_controller(n: int, m: int, lam: float = 0.99, sigma0: np.ndarray | None = None,
                       excitation: ExcitationSchedule | None = None,
                       fallback_gain: np.ndarray | None = None) -> ControllerState:
    """Controller before any data: Sigma = Sigma0, SigmaHat = 0, last gain = fallback_gain."""
    corr = initial_correlation(n, m, lam=lam, sigma0=sigma0)
    if excitation is None:
        excitation = ExcitationSchedule(m)
    if fallback_gain is not None:
        fallback_gain = Gain(fallback_gain).K
    state = _initial_controller(corr, excitation, fallback_gain)
    state.__post_init__()   # the shape checks of the gain and the excitation
    return state


def _initial_controller(corr: CorrelationState, excitation: ExcitationSchedule,
                        fallback_gain: np.ndarray | None) -> ControllerState:
    """initial_controller on checked parts; a None fallback_gain is the zero gain."""
    K = np.zeros((corr.m, corr.n)) if fallback_gain is None else fallback_gain
    return _trusted(ControllerState, corr=corr, last_gain=_trusted(Gain, K=K),
                    excitation=excitation, warm_p=None)


def controller_step(state: ControllerState, x) -> tuple[np.ndarray, ControllerState, StepDiagnostics]:
    """Compute u_t = K_t x_t + eps_t from the current correlations.

    K_t comes from the data-driven Riccati equation on the step's one model
    estimate; an unstabilizable or ill-conditioned estimate, or a singular
    Quu, falls back to the last successful gain and flags the step.
    Correlations are updated by controller_observe once x_{t+1} is
    available, not here.
    """
    u, new_state, eps, estimate, q = _step(state, _check_vector(x, "x", state.corr.n))
    gain = new_state.last_gain
    residual = np.nan if q is None else data_riccati_residual(state.corr, q, gain)
    return u, new_state, StepDiagnostics(gain=gain.K, excitation=eps, eq6_residual=residual,
                                         fallback=q is None, estimate=estimate)


def _step(state: ControllerState, x: np.ndarray) -> tuple[
        np.ndarray, ControllerState, np.ndarray, PlantModel | None, QMatrix | None]:
    """controller_step's control law on a checked state vector x, without the residual.

    Returns (u, new state, excitation, estimate, Q): the estimate is None when
    Sigma is too ill-conditioned, Q the solved QMatrix or None when the step
    fell back.  The applied gain is the new state's last_gain.
    """
    warm = state.warm_p
    estimate = q = None
    try:
        estimate = estimate_model(state.corr)
        q, gain, P = _solve_data_riccati(estimate, SOLVE_TOL, state.warm_p)
        warm = P.P
    except (EstimateNotStabilizable, IllConditioned, SingularQuu):
        gain = state.last_gain
    eps = excitation_sample(state.excitation, state.corr.t)
    u = gain.K @ x + eps
    new_state = _trusted(ControllerState, **{**vars(state), "last_gain": gain, "warm_p": warm})
    return u, new_state, eps, estimate, q


def controller_observe(state: ControllerState, x, u, x_next) -> ControllerState:
    """Fold the observed transition (x, u, x_next) into the correlations."""
    corr = update_correlations(state.corr, x, u, x_next)
    return _trusted(ControllerState, **{**vars(state), "corr": corr})
