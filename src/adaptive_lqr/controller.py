"""Certainty-equivalence adaptive controller.

Each step solves the data-driven Riccati equation on the current correlation
state, applies u_t = K_t x_t + eps_t with a deterministic excitation sample,
and folds the observed transition into the correlations afterwards.  When
the current estimate is not stabilizable the last successful gain is reused
and the step is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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


# What default_rng((seed, t)) runs: numpy's SeedSequence hash, whose pool of
# 4 uint32 words gives PCG64 its 128-bit seed and increment, and PCG64's LCG.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _words(v: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, least significant first."""
    return [v >> s & _M32 for s in range(0, max(v.bit_length(), 1), 32)]


@cache
def _hash_consts(init: int, mult: int, k0: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant before and after each of the hashmix calls k0 .. k0 + rows - 1.
    Shared, so read-only."""
    c = np.array([init * pow(mult, k, 1 << 32) & _M32 for k in range(k0, k0 + rows + 1)],
                 np.uint32)[:, None]
    c.flags.writeable = False
    return c[:-1], c[1:]


def _hashmix(v: np.ndarray, k0: int, rows: int, init: int = _INIT_A, mult: int = _MULT_A):
    """SeedSequence's hashmix calls k0 .. k0 + rows - 1, call k0 + i on row i of v."""
    before, after = _hash_consts(init, mult, k0, rows)
    v = (v ^ before) * after
    return v ^ v >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> _XSHIFT


@cache
def _pcg_jumps(m: int) -> np.ndarray:
    """Rows MULT^(j+1) and sum_{i<=j} MULT^i for j = 1 .. m: PCG64 seeded with s and
    increment c holds (s + c) MULT^(j+1) + c sum_{i<=j} MULT^i at its j-th output.
    Shared, so read-only."""
    powers = [pow(_PCG_MULT, j, 1 << 128) for j in range(m + 2)]
    jumps = np.array([powers[2:], [sum(powers[:j]) for j in range(2, m + 2)]], dtype=object)
    jumps.flags.writeable = False
    return jumps


def _excitation_block(schedule: ExcitationSchedule, t0: int, count: int) -> np.ndarray:
    """excitation_sample(schedule, t) for t = t0 .. t0 + count - 1, as rows, bit for bit.

    default_rng((seed, t)) for each t at once: the SeedSequence hash of the
    entropy words(seed) + words(t) over uint32 arrays, PCG64's seeding and its
    m XSL-RR outputs over 128-bit Python ints, and uniform's
    low + (high - low) * (x >> 11) 2^-53.  Words of t past a row's own length
    are zero: inside the pool a zero word hashes as a missing one does, and
    past it the row skips the mix.
    """
    m, a = schedule.m, schedule.amplitude
    if a == 0.0:
        return np.zeros((count, m))
    t = np.arange(t0, t0 + count, dtype=object)
    seed_words, t_words = _words(schedule.seed), len(_words(t0 + count - 1))
    k = len(seed_words)
    entropy = np.zeros((max(k + t_words, _POOL), count), np.uint32)
    entropy[:k] = np.array(seed_words, np.uint32)[:, None]
    for i in range(t_words):
        entropy[k + i] = t >> 32 * i & _M32
    pool = _hashmix(entropy[:_POOL], 0, _POOL)
    # Word s mixes into the other three, which do not read each other: one step.
    for s in range(_POOL):
        others = [d for d in range(_POOL) if d != s]
        pool[others] = _mix(pool[others], _hashmix(pool[s], _POOL + 3 * s, 3))
    for s in range(_POOL, len(entropy)):
        mixed = _mix(pool, _hashmix(entropy[s], _POOL * s, _POOL))
        pool = mixed if s <= k else np.where(t >= 1 << 32 * (s - k), mixed, pool)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], 0, 2 * _POOL, _INIT_B, _MULT_B)
    state = state.astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (state[0::2] | state[1::2] << 32).astype(object)
    inc = (inc_hi << 64 | inc_lo) << 1 | 1
    jump, shift = _pcg_jumps(m)
    lcg = ((inc + (seed_hi << 64 | seed_lo))[:, None] * jump + inc[:, None] * shift) & _M128
    x = ((lcg >> 64 ^ lcg) & _M64).astype(np.uint64)
    rot = (lcg >> 122).astype(np.uint64)
    x = x >> rot | x << (64 - rot & 63)
    v = -a + (a - -a) * ((x >> 11) * 2.0**-53)
    return v * np.array([schedule.decay_rate ** s for s in range(t0, t0 + count)])[:, None]


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
    eps = excitation_sample(state.excitation, state.corr.t)
    u, new_state, estimate, q = _step(state, _check_vector(x, "x", state.corr.n), eps)
    gain = new_state.last_gain
    residual = np.nan if q is None else data_riccati_residual(state.corr, q, gain)
    return u, new_state, StepDiagnostics(gain=gain.K, excitation=eps, eq6_residual=residual,
                                         fallback=q is None, estimate=estimate)


def _step(state: ControllerState, x: np.ndarray, eps: np.ndarray) -> tuple[
        np.ndarray, ControllerState, PlantModel | None, QMatrix | None]:
    """controller_step's control law on a checked state vector x and the step's
    excitation eps (drawn by the caller), without the residual.

    Returns (u, new state, estimate, Q): the estimate is None when Sigma is
    too ill-conditioned, Q the solved QMatrix or None when the step fell
    back.  The applied gain is the new state's last_gain.
    """
    warm = state.warm_p
    estimate = q = None
    try:
        estimate = estimate_model(state.corr)
        q, gain, P = _solve_data_riccati(estimate, SOLVE_TOL, state.warm_p)
        warm = P.P
    except (EstimateNotStabilizable, IllConditioned, SingularQuu):
        gain = state.last_gain
    u = gain.K @ x + eps
    new_state = _trusted(ControllerState, **{**vars(state), "last_gain": gain, "warm_p": warm})
    return u, new_state, estimate, q


def controller_observe(state: ControllerState, x, u, x_next) -> ControllerState:
    """Fold the observed transition (x, u, x_next) into the correlations."""
    corr = update_correlations(state.corr, x, u, x_next)
    return _trusted(ControllerState, **{**vars(state), "corr": corr})
