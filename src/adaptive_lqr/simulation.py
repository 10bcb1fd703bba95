"""Closed-loop simulation of the adaptive controller under disturbances.

The loop per step: compute u_t from the controller, evaluate the disturbance
generator, advance x_{t+1} = A x_t + B u_t + w_t, then let the controller
observe the transition.  The log records everything needed to replay the
run and to evaluate the robustness certificates afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .controller import (
    ExcitationSchedule,
    controller_observe,
    controller_step,
    initial_controller,
)
from .errors import DomainError, ShapeMismatch
from .estimation import _check_sigma0, rho_of
from .riccati import (PlantModel, _check_factor, _check_int, _check_matrix, _check_positive,
                      _check_real, _check_vector)

# A state beyond this Euclidean norm truncates the run with a flag.
STATE_CAP = 1e12

DISTURBANCE_KINDS = ("zero", "external_sequence", "linear_unmodeled", "filtered_unmodeled")


@dataclass(frozen=True)
class DisturbanceModel:
    """Disturbance generator: external signals and unmodeled dynamics.

    kinds:
      zero              w = 0
      external_sequence w_t = sequence[t] (zero past the end)
      linear_unmodeled  w = dA x + dB u
      filtered_unmodeled w = xi_t with xi_{t+1} = pole xi_t + dA x + dB u, xi_0 = 0
    """

    kind: str
    sequence: np.ndarray | None = None
    delta_a: np.ndarray | None = None
    delta_b: np.ndarray | None = None
    pole: float = 0.0

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ShapeMismatch(f"kind must be one of {DISTURBANCE_KINDS}, got {self.kind!r}")
        if self.kind == "external_sequence":
            object.__setattr__(self, "sequence", _check_matrix(self.sequence, "sequence"))
        if self.kind in ("linear_unmodeled", "filtered_unmodeled"):
            da = _check_matrix(self.delta_a, "delta_a")
            db = _check_matrix(self.delta_b, "delta_b")
            if da.shape[0] != da.shape[1] or db.shape[0] != da.shape[0]:
                raise ShapeMismatch("delta_a must be n x n and delta_b n x m")
            object.__setattr__(self, "delta_a", da)
            object.__setattr__(self, "delta_b", db)
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

    def scaled(self, magnitude: float) -> "DisturbanceModel":
        """Same shape of disturbance with payload scaled by `magnitude`;
        DomainError when the scaled payload overflows."""
        magnitude = _check_real(magnitude, "magnitude")
        if self.kind == "zero":
            return self
        with np.errstate(over="ignore"):
            if self.kind == "external_sequence":
                payload = {"sequence": magnitude * self.sequence}
            else:
                payload = {"delta_a": magnitude * self.delta_a, "delta_b": magnitude * self.delta_b}
        if not all(np.isfinite(v).all() for v in payload.values()):
            raise DomainError(f"disturbance magnitude {magnitude:g} overflows the disturbance payload")
        return replace(self, **payload)


def disturbance_eval(model: DisturbanceModel, t: int, x, u, internal_state):
    """Evaluate the disturbance at time t; returns (w, internal_state')."""
    t = _check_int(t, "t", 0)
    x = _check_vector(x, "x")
    u = _check_vector(u, "u")
    n = x.size
    if model.kind == "zero":
        return np.zeros(n), internal_state
    if model.kind == "external_sequence":
        if n != model.sequence.shape[1]:
            raise ShapeMismatch(f"x must have length {model.sequence.shape[1]}, got {n}")
        w = model.sequence[t].copy() if t < len(model.sequence) else np.zeros(n)
        return w, internal_state
    if (n, u.size) != model.delta_b.shape:
        raise ShapeMismatch(f"x and u must have lengths {model.delta_b.shape}, got {(n, u.size)}")
    drive = model.delta_a @ x + model.delta_b @ u
    if model.kind == "linear_unmodeled":
        return drive, internal_state
    xi = np.zeros(n) if internal_state is None else internal_state
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
    controller_tol: float = 1e-11

    def __post_init__(self):
        object.__setattr__(self, "horizon", _check_int(self.horizon, "horizon"))
        object.__setattr__(self, "x0", _check_vector(self.x0, "x0", self.plant.n).copy())
        n, m, d = self.plant.n, self.plant.m, self.disturbance
        if d.kind == "external_sequence" and d.sequence.shape[1] != n:
            raise ShapeMismatch(f"disturbance.sequence must have {n} columns, got {d.sequence.shape[1]}")
        if d.kind in ("linear_unmodeled", "filtered_unmodeled"):
            if d.delta_a.shape != (n, n):
                raise ShapeMismatch(f"disturbance.delta_a must be {n} x {n}, got {d.delta_a.shape}")
            if d.delta_b.shape != (n, m):
                raise ShapeMismatch(f"disturbance.delta_b must be {n} x {m}, got {d.delta_b.shape}")
        if self.fallback_gain is not None:
            object.__setattr__(self, "fallback_gain",
                               _check_matrix(self.fallback_gain, "fallback_gain", (m, n)))
        if self.sigma0 is not None:
            object.__setattr__(self, "sigma0", _check_sigma0(self.sigma0, n + m))
        object.__setattr__(self, "lam", _check_factor(self.lam, "lam"))
        object.__setattr__(self, "controller_tol",
                           _check_positive(self.controller_tol, "controller_tol"))
        if self.excitation is None:
            object.__setattr__(self, "excitation", ExcitationSchedule.none(self.plant.m))


@dataclass(frozen=True, eq=False)
class TrajectoryLog:
    """Time-indexed closed-loop records plus the terminal state.

    Arrays are indexed by step; a run truncated by the state-norm cap has
    fewer than `horizon` rows and overflowed = True.
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

    def state_input_cost(self, t0: int = 0) -> float:
        """sum over t >= t0 of |x_t|^2 + |u_t|^2."""
        return float(np.sum(self.x[t0:] ** 2) + np.sum(self.u[t0:] ** 2))

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


def simulate(scenario: Scenario) -> TrajectoryLog:
    """Run the closed loop for `horizon` steps.

    rho_t is logged against the true plant as a diagnostic; the controller
    never reads it.  A state norm beyond STATE_CAP truncates the run and
    flags the log instead of raising.
    """
    plant = scenario.plant
    n, m = plant.n, plant.m
    ctrl = initial_controller(
        n, m, lam=scenario.lam, sigma0=scenario.sigma0,
        excitation=scenario.excitation,
        fallback_gain=scenario.fallback_gain,
        tol=scenario.controller_tol,
    )
    x = scenario.x0.copy()
    dist_state = None
    rows = []
    overflowed = False
    for t in range(scenario.horizon):
        u, ctrl, diag = controller_step(ctrl, x)
        rho_t = np.inf if diag.estimate is None else rho_of(diag.estimate, plant)
        w, dist_state = disturbance_eval(scenario.disturbance, t, x, u, dist_state)
        x_next = plant.A @ x + plant.B @ u + w
        rows.append(dict(t=t, x=x, u=u, eps=diag.excitation, w=w, k=diag.gain, rho=rho_t,
                         eq6_residual=diag.eq6_residual, fallback=diag.fallback))
        ctrl = controller_observe(ctrl, x, u, x_next)
        x = x_next
        if np.linalg.norm(x) > STATE_CAP:
            overflowed = True
            break
    columns = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    return TrajectoryLog(n=n, m=m, **columns, x_final=x, overflowed=overflowed)
