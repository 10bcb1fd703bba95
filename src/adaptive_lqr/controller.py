"""Certainty-equivalence adaptive controller.

Each step solves the data-driven Riccati equation on the current correlation
state, at estimation.SOLVE_TOL, applies u_t = K_t x_t + eps_t with a
deterministic excitation sample, and folds the observed transition into the
correlations afterwards.  When the current estimate is not stabilizable the
last successful gain is reused and the step is flagged.

The control law is one kernel on arrays, _step: correlations, applied gain
and held P in, the new gain, P, estimate and Q out, run in the caller's
quiet() error state, where a failed LAPACK call gives NaN, which takes the
step to the cold solve or its fallback.  simulate's loop calls it directly;
controller_step checks x, enters quiet() and builds the new ControllerState
and the StepDiagnostics from its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import EstimateNotStabilizable, IllConditioned, ShapeMismatch, SingularQuu
from .estimation import (
    CorrelationState,
    initial_correlation,
    update_correlations,
    _estimate,
    _estimate_plant,
    _residual,
    _solve_data_riccati,
)
from .riccati import (Gain, PlantModel, _check_amplitude, _check_factor, _check_int,
                      _check_matrix, _check_seed, _check_vector, _trusted, sym)


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


def _hashmix(v: np.ndarray, k0: int, rows: int, init: int = _INIT_A, mult: int = _MULT_A):
    """SeedSequence's hashmix calls k0 .. k0 + rows - 1, call k0 + i on row i of v."""
    c = np.array([init * pow(mult, k, 1 << 32) & _M32 for k in range(k0, k0 + rows + 1)],
                 np.uint32)[:, None]
    v = (v ^ c[:-1]) * c[1:]
    return v ^ v >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> _XSHIFT


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
    # PCG64's seeding ends with an LCG step; each of the m outputs takes one more.
    lcg, steps = inc + (seed_hi << 64 | seed_lo), []
    for _ in range(m + 1):
        lcg = (lcg * _PCG_MULT + inc) & _M128
        steps.append(lcg)
    lcg = np.stack(steps[1:], axis=1)
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
        if self.warm_p is not None:   # the held P is symmetric, as solve_dare(p0=) makes it
            object.__setattr__(self, "warm_p", sym(_check_matrix(self.warm_p, "warm_p", (n, n))))


def initial_controller(n: int, m: int, lam: float = 0.99, sigma0: np.ndarray | None = None,
                       excitation: ExcitationSchedule | None = None,
                       fallback_gain: np.ndarray | None = None) -> ControllerState:
    """Controller before any data: Sigma = Sigma0, SigmaHat = 0, last gain = fallback_gain."""
    corr = initial_correlation(n, m, lam=lam, sigma0=sigma0)
    if excitation is None:
        excitation = ExcitationSchedule(m)
    if fallback_gain is None:
        fallback_gain = np.zeros((corr.m, corr.n))
    return ControllerState(corr=corr, last_gain=Gain(fallback_gain), excitation=excitation)


@_lapack.quietly
def controller_step(state: ControllerState, x) -> tuple[np.ndarray, ControllerState, StepDiagnostics]:
    """Compute u_t = K_t x_t + eps_t from the current correlations.

    K_t comes from the data-driven Riccati equation on the step's one model
    estimate; an unstabilizable or ill-conditioned estimate, or a singular
    Quu, falls back to the last successful gain and flags the step.
    Correlations are updated by controller_observe once x_{t+1} is
    available, not here.  The step runs _step, the array kernel of
    simulate's loop, and builds the new state and diagnostics from its arrays.
    """
    corr = state.corr
    eps = excitation_sample(state.excitation, corr.t)
    u, K, P, ab, Q = _step(corr.sigma, corr.sigma_hat, state.last_gain.K, state.warm_p,
                           _check_vector(x, "x", corr.n), eps)
    fallback = Q is None
    gain = state.last_gain if fallback else _trusted(Gain, K=K)
    new_state = _trusted(ControllerState, **{**vars(state), "last_gain": gain, "warm_p": P})
    residual = np.nan if fallback else _residual(corr.sigma, corr.sigma_hat, Q, K)
    return u, new_state, StepDiagnostics(
        gain=K, excitation=eps, eq6_residual=residual, fallback=fallback,
        estimate=None if ab is None else _estimate_plant(ab))


def _step(sigma: np.ndarray, sigma_hat: np.ndarray, K: np.ndarray, P: np.ndarray | None,
          x: np.ndarray, eps: np.ndarray) -> tuple:
    """controller_step's control law on arrays, in quiet(): the correlations, the
    applied gain K and the held P (None before the first solve), a checked state
    vector x and the step's excitation eps (drawn by the caller).

    Returns (u, K, P, estimate, Q): the new gain and held P (the old ones when
    the step falls back), the estimate [Ahat Bhat] (None when Sigma is too
    ill-conditioned) and the solved Q (None when the step fell back).
    """
    ab = Q = None
    try:
        ab = _estimate(sigma, sigma_hat)
        n = len(ab)
        Q, K, P = _solve_data_riccati(ab[:, :n], ab[:, n:], ab, P)
    except (EstimateNotStabilizable, IllConditioned, SingularQuu):
        pass
    return K.dot(x) + eps, K, P, ab, Q


def controller_observe(state: ControllerState, x, u, x_next) -> ControllerState:
    """Fold the observed transition (x, u, x_next) into the correlations."""
    corr = update_correlations(state.corr, x, u, x_next)
    return _trusted(ControllerState, **{**vars(state), "corr": corr})
