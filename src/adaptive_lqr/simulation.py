"""Closed-loop simulation of the adaptive controller under disturbances.

The loop per step: compute u_t from the controller, evaluate the disturbance
generator, advance x_{t+1} = A x_t + B u_t + w_t, then let the controller
observe the transition.  The log records everything needed to replay the
run and to evaluate the robustness certificates afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .controller import (
    ExcitationSchedule,
    controller_observe,
    controller_step,
    initial_controller,
)
from .errors import IllConditioned, ShapeMismatch
from .estimation import rho_of
from .riccati import PlantModel, _check_matrix

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
            seq = _check_matrix(self.sequence, "sequence")
            object.__setattr__(self, "sequence", seq)
        if self.kind in ("linear_unmodeled", "filtered_unmodeled"):
            da = _check_matrix(self.delta_a, "delta_a")
            db = _check_matrix(self.delta_b, "delta_b")
            if da.shape[0] != da.shape[1] or db.shape[0] != da.shape[0]:
                raise ShapeMismatch("delta_a must be n x n and delta_b n x m")
            object.__setattr__(self, "delta_a", da)
            object.__setattr__(self, "delta_b", db)
        if self.kind == "filtered_unmodeled" and not -1.0 < self.pole < 1.0:
            raise ShapeMismatch("pole must lie in (-1, 1)")

    @classmethod
    def zero(cls) -> "DisturbanceModel":
        return cls(kind="zero")

    @classmethod
    def external(cls, sequence) -> "DisturbanceModel":
        return cls(kind="external_sequence", sequence=np.atleast_2d(np.asarray(sequence, dtype=float)))

    @classmethod
    def linear(cls, delta_a, delta_b) -> "DisturbanceModel":
        return cls(kind="linear_unmodeled", delta_a=delta_a, delta_b=delta_b)

    @classmethod
    def filtered(cls, delta_a, delta_b, pole: float) -> "DisturbanceModel":
        return cls(kind="filtered_unmodeled", delta_a=delta_a, delta_b=delta_b, pole=pole)

    def scaled(self, magnitude: float) -> "DisturbanceModel":
        """Same shape of disturbance with payload scaled by `magnitude`."""
        if self.kind == "zero":
            return self
        if self.kind == "external_sequence":
            return replace(self, sequence=magnitude * self.sequence)
        return replace(self, delta_a=magnitude * self.delta_a, delta_b=magnitude * self.delta_b)


def disturbance_eval(model: DisturbanceModel, t: int, x, u, internal_state):
    """Evaluate the disturbance at time t; returns (w, internal_state')."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    n = x.size
    if model.kind == "zero":
        return np.zeros(n), internal_state
    if model.kind == "external_sequence":
        w = model.sequence[t] if t < len(model.sequence) else np.zeros(n)
        return np.asarray(w, dtype=float).copy(), internal_state
    drive = model.delta_a @ x + model.delta_b @ u
    if model.kind == "linear_unmodeled":
        return drive, internal_state
    xi = np.zeros(n) if internal_state is None else internal_state
    return xi.copy(), model.pole * xi + drive


@dataclass(frozen=True)
class Scenario:
    """Full description of one closed-loop run, seed included."""

    plant: PlantModel
    disturbance: DisturbanceModel
    x0: np.ndarray
    horizon: int
    lam: float = 0.99
    sigma0: np.ndarray | None = None
    excitation: ExcitationSchedule | None = None
    fallback_gain: np.ndarray | None = None
    beta: float = 2.0
    rho: float | None = None
    gamma: float = 20.0
    seed: int = 0
    controller_tol: float = 1e-11

    def __post_init__(self):
        if self.horizon < 1:
            raise ShapeMismatch("horizon must be at least 1")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (self.plant.n,):
            raise ShapeMismatch(f"x0 must have length {self.plant.n}")
        object.__setattr__(self, "x0", x0)
        n, m, d = self.plant.n, self.plant.m, self.disturbance
        if d.kind == "external_sequence" and d.sequence.shape[1] != n:
            raise ShapeMismatch(f"disturbance.sequence must have {n} columns, got {d.sequence.shape[1]}")
        if d.kind in ("linear_unmodeled", "filtered_unmodeled"):
            if d.delta_a.shape != (n, n):
                raise ShapeMismatch(f"disturbance.delta_a must be {n} x {n}, got {d.delta_a.shape}")
            if d.delta_b.shape != (n, m):
                raise ShapeMismatch(f"disturbance.delta_b must be {n} x {m}, got {d.delta_b.shape}")
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

    def to_json_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v
                for k, v in values.items()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrajectoryLog":
        n, m = int(d["n"]), int(d["m"])
        steps = len(d["t"])
        return cls(
            n=n,
            m=m,
            t=np.asarray(d["t"], dtype=int),
            x=np.asarray(d["x"], dtype=float).reshape(steps, n),
            u=np.asarray(d["u"], dtype=float).reshape(steps, m),
            eps=np.asarray(d["eps"], dtype=float).reshape(steps, m),
            w=np.asarray(d["w"], dtype=float).reshape(steps, n),
            k=np.asarray(d["k"], dtype=float).reshape(steps, m, n),
            rho=np.asarray(d["rho"], dtype=float),
            eq6_residual=np.asarray(d["eq6_residual"], dtype=float),
            fallback=np.asarray(d["fallback"], dtype=bool),
            x_final=np.asarray(d["x_final"], dtype=float),
            overflowed=bool(d["overflowed"]),
        )

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

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
        lines = [",".join(self.csv_header())]
        for i in range(len(self)):
            row = [str(int(self.t[i]))]
            row += [format(v, ".17g") for v in self.x[i]]
            row += [format(v, ".17g") for v in self.u[i]]
            row += [format(v, ".17g") for v in self.eps[i]]
            row += [format(v, ".17g") for v in self.w[i]]
            row += [format(v, ".17g") for v in self.k[i].reshape(-1)]
            row += [format(self.rho[i], ".17g"), format(self.eq6_residual[i], ".17g"),
                    str(int(self.fallback[i]))]
            lines.append(",".join(row))
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
        try:
            rho_t = rho_of(ctrl.corr, plant)
        except IllConditioned:
            rho_t = np.inf
        u, ctrl, diag = controller_step(ctrl, x)
        w, dist_state = disturbance_eval(scenario.disturbance, t, x, u, dist_state)
        x_next = plant.A @ x + plant.B @ u + w
        rows.append((t, x, u, diag.excitation, w, diag.gain, rho_t, diag.eq6_residual, diag.fallback))
        ctrl = controller_observe(ctrl, x, u, x_next)
        x = x_next
        if np.linalg.norm(x) > STATE_CAP:
            overflowed = True
            break
    ts, xs, us, eps, ws, ks, rhos, residuals, fallbacks = zip(*rows)
    steps = len(rows)
    return TrajectoryLog(
        n=n, m=m,
        t=np.asarray(ts, dtype=int),
        x=np.asarray(xs, dtype=float).reshape(steps, n),
        u=np.asarray(us, dtype=float).reshape(steps, m),
        eps=np.asarray(eps, dtype=float).reshape(steps, m),
        w=np.asarray(ws, dtype=float).reshape(steps, n),
        k=np.asarray(ks, dtype=float).reshape(steps, m, n),
        rho=np.asarray(rhos, dtype=float),
        eq6_residual=np.asarray(residuals, dtype=float),
        fallback=np.asarray(fallbacks, dtype=bool),
        x_final=x,
        overflowed=overflowed,
    )
