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
    initial_correlation,
    solve_data_riccati,
    update_correlations,
)
from .riccati import DEFAULT_MAX_ITER, Gain, _trusted

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
        if self.m < 1:
            raise ShapeMismatch("m must be at least 1")
        if self.amplitude < 0:
            raise ShapeMismatch("amplitude must be non-negative")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ShapeMismatch("decay_rate must lie in (0, 1]")

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
    if t < 0:
        raise ShapeMismatch("t must be non-negative")
    if schedule.kind == "none" or schedule.amplitude == 0.0:
        return np.zeros(schedule.m)
    # Counter-based stream: a fresh generator keyed by (seed, t) makes the
    # sample independent of call order.
    rng = np.random.default_rng((int(schedule.seed), int(t)))
    v = rng.uniform(-schedule.amplitude, schedule.amplitude, schedule.m)
    if schedule.kind == "decaying":
        v = v * schedule.decay_rate ** t
    return v


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step record of the gain, excitation, equation residual and fallback flag."""

    gain: np.ndarray
    excitation: np.ndarray
    eq6_residual: float
    fallback: bool


@dataclass(frozen=True)
class ControllerState:
    """Immutable controller state; step/observe return updated copies."""

    corr: CorrelationState
    last_gain: Gain
    excitation: ExcitationSchedule
    fallback_gain: Gain
    warm_p: np.ndarray | None = None   # previous cost-to-go, warm-starts the solver
    tol: float = 1e-11
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        n, m = self.corr.n, self.corr.m
        for name, g in (("last_gain", self.last_gain), ("fallback_gain", self.fallback_gain)):
            if g.K.shape != (m, n):
                raise ShapeMismatch(f"{name} must be {m} x {n}, got {g.K.shape}")
        if self.excitation.m != m:
            raise ShapeMismatch("excitation dimension does not match the input dimension")


def initial_controller(n: int, m: int, lam: float = 0.99, sigma0: np.ndarray | None = None,
                       excitation: ExcitationSchedule | None = None,
                       fallback_gain: np.ndarray | None = None,
                       tol: float = 1e-11, max_iter: int = DEFAULT_MAX_ITER) -> ControllerState:
    """Controller before any data: Sigma = Sigma0, SigmaHat = 0, zero fallback gain."""
    corr = initial_correlation(n, m, lam=lam, sigma0=sigma0)
    if excitation is None:
        excitation = ExcitationSchedule.none(m)
    fb = Gain(np.zeros((m, n)) if fallback_gain is None else fallback_gain)
    return ControllerState(corr=corr, last_gain=fb, excitation=excitation,
                           fallback_gain=fb, tol=tol, max_iter=max_iter)


def controller_step(state: ControllerState, x) -> tuple[np.ndarray, ControllerState, StepDiagnostics]:
    """Compute u_t = K_t x_t + eps_t from the current correlations.

    K_t comes from the data-driven Riccati equation; an unstabilizable or
    ill-conditioned estimate falls back to the last successful gain and
    flags the step.  Correlations are updated by controller_observe once
    x_{t+1} is available, not here.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (state.corr.n,):
        raise ShapeMismatch(f"x must have length {state.corr.n}")
    t = state.corr.t
    warm = state.warm_p
    try:
        q, k = solve_data_riccati(state.corr, tol=state.tol, max_iter=state.max_iter,
                                  p0=state.warm_p)
        residual = data_riccati_residual(state.corr, q)
        gain = k
        warm = q.min_value()
        fallback = False
    except (EstimateNotStabilizable, IllConditioned):
        gain = state.last_gain
        residual = np.nan
        fallback = True
    eps = excitation_sample(state.excitation, t)
    u = gain.K @ x + eps
    new_state = _trusted(ControllerState, **{**vars(state), "last_gain": gain, "warm_p": warm})
    return u, new_state, StepDiagnostics(gain=gain.K, excitation=eps,
                                         eq6_residual=residual, fallback=fallback)


def controller_observe(state: ControllerState, x, u, x_next) -> ControllerState:
    """Fold the observed transition (x, u, x_next) into the correlations."""
    corr = update_correlations(state.corr, x, u, x_next)
    return _trusted(ControllerState, **{**vars(state), "corr": corr})
