"""Closed-loop simulation of the adaptive controller under disturbances.

The loop per step: compute u_t from the controller, evaluate the disturbance
generator, advance x_{t+1} = A x_t + B u_t + w_t, then let the controller
observe the transition.  The log records everything needed to replay the
run and to evaluate the robustness certificates afterwards.  The loop's
state is arrays: the stacked correlations [Sigma; SigmaHat], the applied
gain and the held P, with t the loop's own counter.  The run enters one numpy
error state (_lapack.quiet()) and runs in blocks of CERTIFY_BLOCK steps.  The
excitation of a block depends only on the schedule and t, so it is drawn
before the block's steps, in one stacked pass.  The log's two diagnostics,
the data-equation residual and rho_t, feed nothing back, so they are
computed after the block's steps, in another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _lapack
from .controller import ExcitationSchedule, _excitation_block, _step
from .errors import DomainError, ShapeMismatch
from .estimation import _fold, _initial_stack, _residual
from .riccati import (PlantModel, _check_factor, _check_int, _check_matrix, _check_pd,
                      _check_real, _check_vector, _spectral_norm)

# A state beyond this Euclidean norm truncates the run with a flag.
STATE_CAP = 1e12
# Steps whose diagnostics simulate computes in one stacked pass.  It bounds
# the correlations, Q matrices and estimates the loop holds for the pass:
# transient bench runs were as fast at 64 as at 256, with less peak memory.
CERTIFY_BLOCK = 64

# The arrays each disturbance kind reads; a model is given exactly these.
DISTURBANCE_ARRAYS = {"zero": (), "external_sequence": ("sequence",),
                      "linear_unmodeled": ("delta_a", "delta_b"),
                      "filtered_unmodeled": ("delta_a", "delta_b")}


@dataclass(frozen=True)
class DisturbanceModel:
    """Disturbance generator: external signals and unmodeled dynamics.

    kinds, with the arrays each reads (DISTURBANCE_ARRAYS):
      zero              w = 0
      external_sequence w_t = sequence[t] (zero past the end)
      linear_unmodeled  w = dA x + dB u
      filtered_unmodeled w = xi_t with xi_{t+1} = pole xi_t + dA x + dB u, xi_0 = 0
    An array the kind does not read raises ShapeMismatch; `pole` is checked
    for every kind.
    """

    kind: str
    sequence: np.ndarray | None = None
    delta_a: np.ndarray | None = None
    delta_b: np.ndarray | None = None
    pole: float = 0.0

    def __post_init__(self):
        reads = DISTURBANCE_ARRAYS.get(self.kind) if isinstance(self.kind, str) else None
        if reads is None:
            raise ShapeMismatch(f"kind must be one of {tuple(DISTURBANCE_ARRAYS)}, "
                                f"got {self.kind!r}")
        for name in ("sequence", "delta_a", "delta_b"):
            if name in reads:
                object.__setattr__(self, name, _check_matrix(getattr(self, name), name))
            elif getattr(self, name) is not None:
                raise ShapeMismatch(f"{name} is not read by kind {self.kind!r}")
        da, db = self.delta_a, self.delta_b
        if "delta_a" in reads and (da.shape[0] != da.shape[1] or db.shape[0] != da.shape[0]):
            raise ShapeMismatch("delta_a must be n x n and delta_b n x m")
        object.__setattr__(self, "pole", _check_real(self.pole, "pole", -1.0, 1.0, "()"))

    @classmethod
    def zero(cls) -> "DisturbanceModel":
        return cls(kind="zero")

    @classmethod
    def external(cls, sequence) -> "DisturbanceModel":
        return cls(kind="external_sequence", sequence=sequence)

    @classmethod
    def linear(cls, delta_a, delta_b) -> "DisturbanceModel":
        return cls(kind="linear_unmodeled", delta_a=delta_a, delta_b=delta_b)

    @classmethod
    def filtered(cls, delta_a, delta_b, pole: float) -> "DisturbanceModel":
        return cls(kind="filtered_unmodeled", delta_a=delta_a, delta_b=delta_b, pole=pole)

    @_lapack.quietly
    def scaled(self, magnitude: float) -> "DisturbanceModel":
        """Same shape of disturbance with the arrays its kind reads scaled by
        `magnitude`; DomainError when a scaled array overflows."""
        magnitude = _check_real(magnitude, "magnitude")
        payload = {key: magnitude * getattr(self, key) for key in DISTURBANCE_ARRAYS[self.kind]}
        if not all(_lapack.finite(v) for v in payload.values()):
            raise DomainError(f"disturbance magnitude {magnitude:g} overflows the disturbance payload")
        return replace(self, **payload)


def _check_fits(d: DisturbanceModel, n: int, m: int) -> None:
    """ShapeMismatch unless the payload of `d` fits n states and m inputs."""
    if d.kind == "external_sequence" and d.sequence.shape[1] != n:
        raise ShapeMismatch(f"disturbance.sequence has {d.sequence.shape[1]} columns, not n = {n}")
    if d.kind in ("linear_unmodeled", "filtered_unmodeled") and d.delta_b.shape != (n, m):
        raise ShapeMismatch(f"disturbance.delta_a, disturbance.delta_b must be {n} x {n}, {n} x {m}")


@_lapack.quietly
def disturbance_eval(model: DisturbanceModel, t: int, x, u, internal_state):
    """Evaluate the disturbance at time t; returns (w, internal_state'), with the
    filtered kind's internal_state (None at the start) checked as a length-n vector."""
    t = _check_int(t, "t", 0)
    x, u = _check_vector(x, "x"), _check_vector(u, "u")
    _check_fits(model, x.size, u.size)
    if model.kind == "filtered_unmodeled" and internal_state is not None:
        internal_state = _check_vector(internal_state, "internal_state", x.size)
    return _disturb(model, t, x, u, internal_state)


def _disturb(model: DisturbanceModel, t: int, x: np.ndarray, u: np.ndarray, xi):
    """disturbance_eval on checked arguments that fit the model."""
    n = x.size
    if model.kind == "zero":
        return np.zeros(n), xi
    if model.kind == "external_sequence":
        return (model.sequence[t].copy() if t < len(model.sequence) else np.zeros(n)), xi
    drive = model.delta_a.dot(x) + model.delta_b.dot(u)
    if model.kind == "linear_unmodeled":
        return drive, xi
    xi = np.zeros(n) if xi is None else xi
    return xi.copy(), model.pole * xi + drive


@dataclass(frozen=True)
class Scenario:
    """Full description of one closed-loop run; the excitation carries its seed."""

    plant: PlantModel
    disturbance: DisturbanceModel
    x0: np.ndarray
    horizon: int
    lam: float = 0.99
    sigma0: np.ndarray | None = None
    excitation: ExcitationSchedule | None = None
    fallback_gain: np.ndarray | None = None
    beta: float = 2.0
    gamma: float = 20.0

    def __post_init__(self):
        object.__setattr__(self, "horizon", _check_int(self.horizon, "horizon"))
        object.__setattr__(self, "x0", _check_vector(self.x0, "x0", self.plant.n).copy())
        n, m = self.plant.n, self.plant.m
        _check_fits(self.disturbance, n, m)
        if self.fallback_gain is not None:
            object.__setattr__(self, "fallback_gain",
                               _check_matrix(self.fallback_gain, "fallback_gain", (m, n)))
        if self.sigma0 is not None:
            object.__setattr__(self, "sigma0", _check_pd(self.sigma0, "sigma0", n + m))
        object.__setattr__(self, "lam", _check_factor(self.lam, "lam"))
        if self.excitation is None:
            object.__setattr__(self, "excitation", ExcitationSchedule(m))
        elif self.excitation.m != m:
            raise ShapeMismatch(f"excitation.m must be the plant's m = {m}, got {self.excitation.m}")


@dataclass(frozen=True, eq=False)
class TrajectoryLog:
    """Time-indexed closed-loop records plus the terminal state.

    Arrays are indexed by step.  `overflowed` is the test of a run truncated
    by the state-norm cap, not the row count: a run whose last step passes
    the cap has `horizon` rows too.
    """

    n: int
    m: int
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    eps: np.ndarray
    w: np.ndarray
    k: np.ndarray
    rho: np.ndarray
    eq6_residual: np.ndarray
    fallback: np.ndarray
    x_final: np.ndarray
    overflowed: bool = False

    def __len__(self) -> int:
        return len(self.t)

    @_lapack.quietly
    def state_input_cost(self) -> float:
        """sum over t of |x_t|^2 + |u_t|^2; inf once it overflows."""
        return float(np.sum(self.x ** 2) + np.sum(self.u ** 2))

    def csv_header(self) -> list[str]:
        cols = ["t"]
        cols += [f"x_{i}" for i in range(self.n)]
        cols += [f"u_{i}" for i in range(self.m)]
        cols += [f"eps_{i}" for i in range(self.m)]
        cols += [f"w_{i}" for i in range(self.n)]
        cols += [f"K_{i}_{j}" for i in range(self.m) for j in range(self.n)]
        cols += ["rho", "eq6_residual", "fallback"]
        return cols

    def to_csv(self, path) -> None:
        """Delimited dump, 17 significant digits (lossless for doubles)."""
        floats = np.column_stack([self.x, self.u, self.eps, self.w,
                                  self.k.reshape(len(self), self.m * self.n),
                                  self.rho, self.eq6_residual])
        lines = [",".join(self.csv_header())]
        for t, row, fallback in zip(self.t, floats, self.fallback):
            lines.append(",".join([str(int(t)), *(format(v, ".17g") for v in row),
                                   str(int(fallback))]))
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def logs_equal(a: TrajectoryLog, b: TrajectoryLog) -> bool:
    """Exact equality of two logs, entry by entry (NaN equals NaN)."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True)
               for f in fields(TrajectoryLog))


@_lapack.quietly
def simulate(scenario: Scenario) -> TrajectoryLog:
    """Run the closed loop for `horizon` steps on the array kernels that
    controller_step, disturbance_eval and controller_observe run after checks.

    The loop holds [Sigma; SigmaHat], the applied gain K and the held P as
    arrays and builds no value object.  It runs the control law only, in
    blocks of CERTIFY_BLOCK steps, all in one quiet() error state: a failed
    LAPACK call in a step gives NaN, which the kernels' finiteness tests turn
    into the step's fallback.  Before a block, _excitation_block
    draws the block's excitation in one stacked pass; after it, _certify
    computes the log's eq6 residuals and rho_t (the distance of each estimate
    from the true plant), which the controller never reads.  Both give the
    bits that excitation_sample, controller_step and rho_of give one step at
    a time.  A state whose norm exceeds STATE_CAP or is not finite truncates
    the run and flags the log instead of raising.
    """
    plant, horizon, lam = scenario.plant, scenario.horizon, scenario.lam
    n, m = plant.n, plant.m
    d = n + m
    S = _initial_stack(n, m, scenario.sigma0)
    K = np.zeros((m, n)) if scenario.fallback_gain is None else scenario.fallback_gain
    P = None
    x, xi, rows, certified = scenario.x0.copy(), None, [], []
    for t0 in range(0, horizon, CERTIFY_BLOCK):
        block = []
        excitation = _excitation_block(scenario.excitation, t0, min(CERTIFY_BLOCK, horizon - t0))
        for t, eps in enumerate(excitation, t0):
            u, K, P, ab, Q = _step(S[:d], S[d:], K, P, x, eps)
            w, xi = _disturb(scenario.disturbance, t, x, u, xi)
            x_next = plant.A.dot(x) + plant.B.dot(u) + w
            overflowed = not math.sqrt(x_next.dot(x_next)) <= STATE_CAP
            rows.append((x, u, eps, w, K, Q is None))
            block.append((S, ab, Q, K))
            if overflowed:
                break
            S = _fold(S, lam, x, u, x_next)
            x = x_next
        certified.append(_certify(block, plant))
        if overflowed:
            break
    x, u, eps, w, k, fallback = map(np.array, zip(*rows))
    rho, residual = map(np.concatenate, zip(*certified))
    return TrajectoryLog(n=n, m=m, t=np.arange(len(rows)), x=x, u=u, eps=eps, w=w, k=k, rho=rho,
                         eq6_residual=residual, fallback=fallback, x_final=x_next,
                         overflowed=overflowed)


def _certify(block: list, plant: PlantModel) -> tuple[np.ndarray, np.ndarray]:
    """(rho_t, eq6 residual) of a block of steps, each ([Sigma; SigmaHat], estimate,
    Q, K) as _step saw and left them: rho_t of the steps with an estimate (inf
    without one) and the residual of the solved steps (nan where the step fell
    back), each in one stacked pass."""
    rho, residual = np.full(len(block), np.inf), np.full(len(block), np.nan)
    estimated = [i for i, (_, ab, _, _) in enumerate(block) if ab is not None]
    solved = [i for i, (_, _, Q, _) in enumerate(block) if Q is not None]
    if estimated:
        rho[estimated] = _spectral_norm(plant.ab - np.array([block[i][1] for i in estimated]))
    if solved:
        stacks, _, Qs, gains = zip(*(block[i] for i in solved))
        S = np.array(stacks)
        d = S.shape[-1]
        residual[solved] = _residual(S[:, :d], S[:, d:], np.array(Qs), np.array(gains))
    return rho, residual
