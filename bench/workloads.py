"""The benchmark's three workloads: inputs from a seed, one op, its output check.

Each workload builds its inputs from the seed in its constructor (the set-up
the benchmark times as `setup_s`; certify's op samples its own instance, as
the certify command does) and then serves a fixed pool of `size` ops:
`op(i)` runs op number i (0 <= i < size), `check(out)` says whether its
output is correct and `digest(out)` gives the bytes that must replay bit for
bit.  The benchmark runs the pool in passes, 0 to size-1 each time; the first
pass must run in that order, and every later run of op i must reproduce its
first output exactly.

Every call into the package goes through an attribute of the `lqr` module
object, never through a name bound here, so that the tracer's wrappers see
every call.  Inputs are ordered so that every prefix of the pool mixes the
plant sizes evenly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import adaptive_lqr as lqr


def _hash(*parts) -> bytes:
    """SHA-256 over the raw bytes of floats, ints, bools and arrays."""
    h = hashlib.sha256()
    for p in parts:
        a = np.asarray(p)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _report_hash(report) -> bytes:
    hyps = sorted(report.hypotheses.items())
    details = sorted(report.details.items())
    return _hash([h.margin for _, h in hyps], [h.holds for _, h in hyps],
                 report.hypotheses_hold, report.conclusion_margin,
                 [v for _, v in details])


# ---------------------------------------------------------------------------
# transient: the work of one `sweep` row and of acceptance criterion 5


@dataclass(frozen=True)
class TransientRow:
    scenario: lqr.Scenario
    beta: float
    gamma: float
    rho: float


@dataclass(frozen=True)
class TransientOut:
    log: lqr.TrajectoryLog
    t0: int | None
    report: lqr.CertificateReport
    rho: float


class Transient:
    """op = one sweep row: a 250-step `simulate` on a membership plant, then
    `consistent_start` and `corollary_bound_check` at the automatic t0.

    Plants have n, m in {1,2,3} and beta in {2,5}, with gamma = 20 beta and
    rho = 0.7 rho*(beta).  Every (beta, n, m) combo runs under acceptance
    criterion 5's four variants with decaying excitation, each variant on a
    plant of its own: a row's cost depends mostly on its plant, so more
    plants per run steady the figures.  This stresses the start-up transient.
    """

    HORIZON = 250
    VARIANTS = 4
    SIZE = 72
    tail_pct = 80.0
    trace_ops = 18

    def __init__(self, seed: int, size: int | None = None):
        rng = np.random.default_rng(seed)
        combos = [(beta, n, m) for n in (1, 2, 3) for m in (1, 2, 3) for beta in (2.0, 5.0)]
        C = len(combos)
        self.size = size or self.SIZE
        # Row j is combo j % C under variant (j + j // C) % 4: every block of C
        # rows covers every combo, and the 72 rows of the default pool cover
        # every (combo, variant) once.
        self.rows = [self._row(rng, *combos[j % C], (j + j // C) % self.VARIANTS)
                     for j in range(self.size)]

    def _row(self, rng, beta, n, m, variant):
        gamma = 20.0 * beta
        rho = 0.7 * lqr.admissible_rho(beta)
        plant, _, _ = lqr.sample_membership_plant(rng, beta, n, m)
        base = dict(amplitude=50.0, decay_rate=0.9)
        seq = 0.1 * rho * rng.uniform(-1.0, 1.0, (self.HORIZON, n))
        da = rng.standard_normal((n, n))
        db = rng.standard_normal((n, m))
        scale = 0.01 * rho / np.linalg.norm(np.hstack([da, db]), 2)
        variants = [
            (lqr.DisturbanceModel.zero(), base, np.ones(n)),
            (lqr.DisturbanceModel.zero(), dict(amplitude=200.0, decay_rate=0.85), 3.0 * np.ones(n)),
            (lqr.DisturbanceModel.external(seq), base, np.ones(n)),
            (lqr.DisturbanceModel.filtered(scale * da, scale * db, pole=0.4), base, np.ones(n)),
        ]
        dist, exc_kw, x0 = variants[variant]
        exc = lqr.ExcitationSchedule.decaying(m, seed=int(rng.integers(0, 2**32)), **exc_kw)
        scenario = lqr.Scenario(plant=plant, disturbance=dist, x0=x0, horizon=self.HORIZON,
                                excitation=exc, beta=beta, gamma=gamma)
        return TransientRow(scenario, beta, gamma, rho)

    def op(self, i: int) -> TransientOut:
        row = self.rows[i]
        plant = row.scenario.plant
        log = lqr.simulate(row.scenario)
        t0 = lqr.consistent_start(log, row.rho)
        # A run that never becomes consistent is certified from t0 = 0, as a
        # sweep row does; its data-consistency hypothesis then fails.
        report = lqr.corollary_bound_check(log, plant, 0 if t0 is None else t0,
                                           row.gamma, row.beta, row.rho)
        return TransientOut(log, t0, report, row.rho)

    @staticmethod
    def check(out: TransientOut) -> bool:
        """Criterion 5's checks, applied to every row whose estimate became
        consistent; a row that never did must not claim its hypotheses.

        Under decaying excitation some plants (mostly n = 3, m = 1 at
        beta = 5) keep rho_t above 0.7 rho*(beta) to the end of the run, so
        `consistent_start` correctly finds no t0.
        """
        log, t0, report = out.log, out.t0, out.report
        if log.overflowed or not np.all(np.isfinite(log.x)):
            return False
        if t0 is not None:
            consistent = np.all(log.rho[t0:] <= out.rho) and (t0 == 0 or log.rho[t0 - 1] > out.rho)
            if not (consistent and report.hypotheses_hold):
                return False
        if report.hypotheses_hold:
            return report.conclusion_margin >= -1e-6 * (1.0 + report.details["lhs"])
        return True

    @staticmethod
    def digest(out: TransientOut) -> bytes:
        log = out.log
        return _hash(log.x, log.u, log.eps, log.w, log.k, log.rho, log.eq6_residual,
                     log.fallback, log.x_final, -1 if out.t0 is None else out.t0,
                     _report_hash(out.report))


# ---------------------------------------------------------------------------
# tracking: the online controller driven step by step, as an embedded loop


@dataclass(frozen=True)
class Loop:
    plant: lqr.PlantModel
    disturbance: lqr.DisturbanceModel
    ctrl: lqr.ControllerState
    x: np.ndarray
    dist_state: np.ndarray | None
    t: int


@dataclass(frozen=True)
class StepOut:
    u: np.ndarray
    diag: lqr.StepDiagnostics
    x_next: np.ndarray


class Tracking:
    """op = one online control step: `controller_step`, `disturbance_eval`,
    the plant update, `controller_observe`.

    Loops on plants from (2,1) to (6,3) are stepped in turn, 200 steps each
    in the default pool.  The first pass steps them live and keeps each
    loop's state before every step (the states are immutable); a later pass
    re-runs step i from its kept state, so every pass does the same work.
    Excitation keeps a constant amplitude and filtered unmodeled dynamics
    keep the estimate moving, so warm solves never settle.  A loop's step
    cost is set mostly by its plant's spectral radius (slower open-loop decay
    means more warm iterations), so the radii come from a fixed grid and the
    seed draws the rest of each plant.  The grid stops at 0.7: near 0.9 the
    cost per step is heavy-tailed across plants (up to 6x the median), and
    the slowest loop of a run would then set op_tail_ms alone.
    """

    SIZES = ((2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 3))
    RADII = (0.2, 0.45, 0.7)
    LOOPS_PER_CELL = 2
    SIZE = 7200
    tail_pct = 95.0
    trace_ops = 3000

    def __init__(self, seed: int, size: int | None = None):
        rng = np.random.default_rng(seed)
        self.size = size or self.SIZE
        self.loops = []
        for _ in range(self.LOOPS_PER_CELL):
            for radius in self.RADII:
                for n, m in self.SIZES:
                    plant = lqr.random_plant(rng, n, m, spectral_radius=radius, input_scale=0.5)
                    da = rng.standard_normal((n, n))
                    db = rng.standard_normal((n, m))
                    scale = 0.01 / np.linalg.norm(np.hstack([da, db]), 2)
                    dist = lqr.DisturbanceModel.filtered(scale * da, scale * db, pole=0.4)
                    exc = lqr.ExcitationSchedule.constant(m, 1.0, seed=int(rng.integers(0, 2**32)))
                    ctrl = lqr.initial_controller(n, m, excitation=exc)
                    self.loops.append(Loop(plant, dist, ctrl, np.ones(n), None, 0))
        self.before: list[Loop] = []    # state before step i, for i stepped so far

    @staticmethod
    def _step(loop: Loop) -> tuple[StepOut, Loop]:
        x = loop.x
        u, ctrl, diag = lqr.controller_step(loop.ctrl, x)
        w, dist_state = lqr.disturbance_eval(loop.disturbance, loop.t, x, u, loop.dist_state)
        x_next = loop.plant.A @ x + loop.plant.B @ u + w
        ctrl = lqr.controller_observe(ctrl, x, u, x_next)
        return StepOut(u, diag, x_next), Loop(loop.plant, loop.disturbance, ctrl, x_next,
                                              dist_state, loop.t + 1)

    def op(self, i: int) -> StepOut:
        if i < len(self.before):
            return self._step(self.before[i])[0]
        if i != len(self.before):
            raise IndexError(f"step {i} run before step {len(self.before)}")
        k = i % len(self.loops)
        self.before.append(self.loops[k])
        out, self.loops[k] = self._step(self.loops[k])
        return out

    @staticmethod
    def check(out: StepOut) -> bool:
        """Finite state; every solved step meets the data equation to 1e-8."""
        if not (np.all(np.isfinite(out.x_next)) and np.all(np.isfinite(out.u))):
            return False
        return bool(out.diag.fallback or out.diag.eq6_residual <= 1e-8)

    @staticmethod
    def digest(out: StepOut) -> bytes:
        d = out.diag
        return _hash(out.u, d.gain, d.excitation, d.eq6_residual, d.fallback, out.x_next)


# ---------------------------------------------------------------------------
# certify: one instance of the `certify` command's work


class Certify:
    """op = one certify instance: `sample_membership_plant`, then
    `theorem1_instance_for_plant` + `theorem1_margin`,
    `lemma1_instance_for_plant` + `lemma1_check`, `lyapunov_decay_check`.

    beta in {1.2, 2, 5}, n, m in {1,2,3}, cycled so every 27 ops cover every
    combo.  Op i draws its instance from the stream keyed by (seed, i), so the
    pool's 2160 instances are all distinct and sample the cold-solve tail;
    op_tail_ms is their p98 (43 beyond it), where p99 still moved about 10%
    from seed to seed on 1080 instances.
    The cost is cold Riccati solves; no estimation or controller code runs.
    """

    BETAS = (1.2, 2.0, 5.0)
    SIZE = 2160
    tail_pct = 98.0
    trace_ops = 540

    def __init__(self, seed: int, size: int | None = None):
        self.seed = seed
        self.size = size or self.SIZE
        self.combos = [(beta, n, m) for n in (1, 2, 3) for m in (1, 2, 3) for beta in self.BETAS]

    def op(self, i: int) -> tuple:
        beta, n, m = self.combos[i % len(self.combos)]
        rng = np.random.default_rng((self.seed, i))
        plant, P, q = lqr.sample_membership_plant(rng, beta, n, m)
        rho = rng.uniform(0.0, 0.9) * lqr.contraction_rho_root(beta)
        t1 = lqr.theorem1_instance_for_plant(rng, plant, P, beta, rho)
        l1 = lqr.lemma1_instance_for_plant(rng, plant, P, q, beta, rho)
        return (
            lqr.theorem1_margin(t1.plant, t1.P, t1.kt, beta, rho,
                                sigma=t1.sigma, sigma_hat=t1.sigma_hat),
            lqr.lemma1_check(l1.sigma, l1.sigma_hat, l1.sigma_tilde, l1.P, l1.Q, beta, rho),
            lqr.lyapunov_decay_check(plant, P, lqr.gain_from_q(q)),
        )

    @staticmethod
    def check(reports: tuple) -> bool:
        """The CLI's exit-4 condition: no hypothesis-satisfying report with a
        conclusion margin below -1e-8."""
        return not any(r.hypotheses_hold and r.conclusion_margin < -1e-8 for r in reports)

    @staticmethod
    def digest(reports: tuple) -> bytes:
        return b"".join(_report_hash(r) for r in reports)


WORKLOADS = {"transient": Transient, "tracking": Tracking, "certify": Certify}
