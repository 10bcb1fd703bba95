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

from .errors import EstimateNotStabilizable, IllConditioned, ShapeMismatch
from .estimation import (
    CorrelationState,
    data_riccati_residual,
    estimate_model,
    initial_correlation,
    solve_data_riccati,
    update_correlations,
)
from .riccati import (Gain, PlantModel, _check_amplitude, _check_factor, _check_int,
                      _check_positive, _check_seed, _check_vector, _trusted)

EXCITATION_KINDS = ("none", "constant_amplitude", "decaying")


@dataclass(frozen=True)
class ExcitationSchedule:
    """Deterministic probing-signal generator keyed by (seed, t)."""

    kind: str
    m: int
    amplitude: float = 0.0
    decay_rate: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in EXCITATION_KINDS:
            raise ShapeMismatch(f"kind must be one of {EXCITATION_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "m", _check_int(self.m, "m"))
        object.__setattr__(self, "amplitude", _check_amplitude(self.amplitude, "amplitude"))
        object.__setattr__(self, "decay_rate", _check_factor(self.decay_rate, "decay_rate"))
        object.__setattr__(self, "seed", _check_seed(self.seed, "seed"))

    @classmethod
    def none(cls, m: int) -> "ExcitationSchedule":
        return cls(kind="none", m=m)

    @classmethod
    def constant(cls, m: int, amplitude: float, seed: int = 0) -> "ExcitationSchedule":
        return cls(kind="constant_amplitude", m=m, amplitude=amplitude, seed=seed)

    @classmethod
    def decaying(cls, m: int, amplitude: float, decay_rate: float, seed: int = 0) -> "ExcitationSchedule":
        return cls(kind="decaying", m=m, amplitude=amplitude, decay_rate=decay_rate, seed=seed)


def excitation_sample(schedule: ExcitationSchedule, t: int) -> np.ndarray:
    """Excitation vector at time t; identical (schedule, t) gives identical output."""
    t = _check_int(t, "t", 0)
    if schedule.kind == "none" or schedule.amplitude == 0.0:
        return np.zeros(schedule.m)
    # Counter-based stream: a fresh generator keyed by (seed, t) makes the
    # sample independent of call order.
    rng = np.random.default_rng((schedule.seed, t))
    v = rng.uniform(-schedule.amplitude, schedule.amplitude, schedule.m)
    if schedule.kind == "decaying":
        v = v * schedule.decay_rate ** t
    return v


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
    tol: float = 1e-11

    def __post_init__(self):
        n, m = self.corr.n, self.corr.m
        if self.last_gain.K.shape != (m, n):
            raise ShapeMismatch(f"last_gain must be {m} x {n}, got {self.last_gain.K.shape}")
        if self.excitation.m != m:
            raise ShapeMismatch("excitation dimension does not match the input dimension")
        object.__setattr__(self, "tol", _check_positive(self.tol, "tol"))


def initial_controller(n: int, m: int, lam: float = 0.99, sigma0: np.ndarray | None = None,
                       excitation: ExcitationSchedule | None = None,
                       fallback_gain: np.ndarray | None = None,
                       tol: float = 1e-11) -> ControllerState:
    """Controller before any data: Sigma = Sigma0, SigmaHat = 0, last gain = fallback_gain."""
    corr = initial_correlation(n, m, lam=lam, sigma0=sigma0)
    if excitation is None:
        excitation = ExcitationSchedule.none(m)
    fb = Gain(np.zeros((m, n)) if fallback_gain is None else fallback_gain)
    return ControllerState(corr=corr, last_gain=fb, excitation=excitation, tol=tol)


def controller_step(state: ControllerState, x) -> tuple[np.ndarray, ControllerState, StepDiagnostics]:
    """Compute u_t = K_t x_t + eps_t from the current correlations.

    K_t comes from the data-driven Riccati equation on the step's one model
    estimate; an unstabilizable or ill-conditioned estimate falls back to
    the last successful gain and flags the step.  Correlations are updated
    by controller_observe once x_{t+1} is available, not here.
    """
    x = _check_vector(x, "x", state.corr.n)
    t = state.corr.t
    warm = state.warm_p
    estimate = None
    try:
        estimate = estimate_model(state.corr)
        q, gain, P = solve_data_riccati(estimate, tol=state.tol, p0=state.warm_p)
        residual = data_riccati_residual(state.corr, q)
        warm = P.P
        fallback = False
    except (EstimateNotStabilizable, IllConditioned):
        gain = state.last_gain
        residual = np.nan
        fallback = True
    eps = excitation_sample(state.excitation, t)
    u = gain.K @ x + eps
    new_state = _trusted(ControllerState, **{**vars(state), "last_gain": gain, "warm_p": warm})
    return u, new_state, StepDiagnostics(gain=gain.K, excitation=eps, eq6_residual=residual,
                                         fallback=fallback, estimate=estimate)


def controller_observe(state: ControllerState, x, u, x_next) -> ControllerState:
    """Fold the observed transition (x, u, x_next) into the correlations."""
    corr = update_correlations(state.corr, x, u, x_next)
    return _trusted(ControllerState, **{**vars(state), "corr": corr})
