"""Command-line runner: solve | simulate | certify | sweep.

Every run is described by a single JSON config document (strictly parsed,
unknown keys rejected) so that experiments are archivable and reproducible:
identical config + seed yields byte-identical outputs.  Artifacts land in
the output directory: summary.json (solve, simulate), trajectory.csv
(simulate), reports.json (certify), sweep.csv (sweep).

Exit codes: 0 success, 1 bad config, 2 plant not stabilizable or its Q
overflowing (solve), 3 state overflow (simulate), 4 a hypothesis-satisfying
certificate instance violated its conclusion (certify).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _lapack
from .certificates import (
    admissible_rho,
    alpha_of,
    consistent_start,
    contraction_rho_root,
    corollary_bound_check,
    lemma1_check,
    lemma1_instance_for_plant,
    lyapunov_decay_check,
    q_from_p,
    sample_membership_plant,
    theorem1_instance_for_plant,
    theorem1_margin,
)
from .controller import ExcitationSchedule
from .errors import AdaptiveLqError, ConfigError, DomainError, NotStabilizable
from .riccati import (DEFAULT_TOL, PSD_SLACK, PlantModel, _check_above,
                      _check_amplitude, _check_beta, _check_factor, _check_int, _check_matrix,
                      _check_positive, _check_real, _check_rho, _check_seed, _check_vector,
                      _membership, _spectral_norm, dare_error_estimate, gain_from_q,
                      solve_dare)
from .simulation import DisturbanceModel, Scenario, simulate

COMMANDS = ("solve", "simulate", "certify", "sweep")
CERTIFY_CHECKS = ("theorem1", "lemma1", "lyapunov")


# ---------------------------------------------------------------------------
# strict config parsing

def _ensure_mapping(val, ctx):
    if not isinstance(val, dict):
        raise ConfigError(f"field '{ctx}' must be a JSON object")
    return val


def _reject_unknown(d, allowed, ctx):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in '{ctx}' "
                          f"(allowed: {', '.join(sorted(allowed))})")


def _field(check, val, ctx, *args):
    """check(val, "field '<ctx>'", *args) by a library checker; its error becomes ConfigError."""
    try:
        return check(val, f"field '{ctx}'", *args)
    except AdaptiveLqError as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc


def _as_str(val, ctx):
    if not isinstance(val, str):
        raise ConfigError(f"field '{ctx}' must be a string")
    return val


def _field_list(check, val, ctx):
    if not isinstance(val, list):
        raise ConfigError(f"field '{ctx}' must be a list of numbers")
    return [_field(check, v, f"{ctx}[{i}]") for i, v in enumerate(val)]


def _build(cls, ctx, **fields):
    """cls(**fields); a library error becomes ConfigError naming '<ctx>'."""
    try:
        return cls(**fields)
    except AdaptiveLqError as exc:
        raise ConfigError(f"invalid '{ctx}': {exc}") from exc


def _parse_plant(cfg) -> PlantModel:
    if "plant" not in cfg or cfg["plant"] is None:
        raise ConfigError("field 'plant' with matrices A and B is required")
    d = _ensure_mapping(cfg["plant"], "plant")
    _reject_unknown(d, ("A", "B"), "plant")
    return _build(PlantModel, "plant", A=_field(_check_matrix, d.get("A"), "plant.A"),
                  B=_field(_check_matrix, d.get("B"), "plant.B"))


def _parse_excitation(cfg, m, seed) -> ExcitationSchedule:
    """The excitation schedule; the run seed is its seed."""
    d = _ensure_mapping(cfg.get("excitation", {}), "excitation")
    _reject_unknown(d, ("amplitude", "decay_rate"), "excitation")
    # Non-numbers are named by field path here; ranges, by the schedule below.
    amplitude = _field(_check_real, d.get("amplitude", 0.0), "excitation.amplitude")
    decay_rate = _field(_check_real, d.get("decay_rate", 1.0), "excitation.decay_rate")
    return _build(ExcitationSchedule, "excitation", m=m, amplitude=amplitude,
                  decay_rate=decay_rate, seed=seed)


def _parse_disturbance(cfg) -> DisturbanceModel:
    d = _ensure_mapping(cfg.get("disturbance", {}), "disturbance")
    _reject_unknown(d, ("kind", "sequence", "delta_a", "delta_b", "pole"), "disturbance")
    # The model checks the kind, and that it is given exactly the arrays it reads.
    arrays = {key: _field(_check_matrix, d[key], f"disturbance.{key}")
              for key in ("sequence", "delta_a", "delta_b") if d.get(key) is not None}
    pole = _field(_check_real, d.get("pole", 0.0), "disturbance.pole")
    return _build(DisturbanceModel, "disturbance", kind=d.get("kind", "zero"), pole=pole,
                  **arrays)


_COMMON_KEYS = ("command", "seed", "out_dir")
_SCENARIO_KEYS = ("plant", "horizon", "x0", "lambda", "sigma0_scale", "excitation",
                  "disturbance", "fallback_gain")


def _parse_common(cfg, command):
    if "command" in cfg:
        declared = _as_str(cfg["command"], "command")
        if declared != command:
            raise ConfigError(f"config declares command '{declared}' but '{command}' was invoked")
    seed = _field(_check_seed, cfg.get("seed", 0), "seed")
    out_dir = Path(_as_str(cfg.get("out_dir", "."), "out_dir"))
    return seed, out_dir


def _parse_scenario(cfg, seed) -> Scenario:
    plant = _parse_plant(cfg)
    n, m = plant.n, plant.m
    x0 = np.ones(n) if cfg.get("x0") is None else _field(_check_vector, cfg["x0"], "x0", n)
    horizon = _field(_check_int, cfg.get("horizon", 1000), "horizon")
    lam = _field(_check_factor, cfg.get("lambda", 0.99), "lambda")
    sigma0_scale = _field(_check_positive, cfg.get("sigma0_scale", 1e-3), "sigma0_scale")
    excitation = _parse_excitation(cfg, m, seed)
    disturbance = _parse_disturbance(cfg)
    fallback = (None if cfg.get("fallback_gain") is None
                else _field(_check_matrix, cfg["fallback_gain"], "fallback_gain"))
    return _build(Scenario, "scenario", plant=plant, disturbance=disturbance, x0=x0,
                  horizon=horizon, lam=lam, sigma0=sigma0_scale * _lapack.eye(n + m),
                  excitation=excitation, fallback_gain=fallback)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def run_solve(cfg: dict, seed: int, out_dir: Path) -> int:
    """Solve the fixed point for one plant; write {P, Q, K, residual, error_estimate, member}."""
    _reject_unknown(cfg, _COMMON_KEYS + ("plant", "beta", "tol"), "config")
    plant = _parse_plant(cfg)
    beta = _field(_check_beta, cfg.get("beta", 2.0), "beta")
    tol = _field(_check_positive, cfg.get("tol", DEFAULT_TOL), "tol")
    try:
        P = solve_dare(plant, tol=tol)
    except NotStabilizable as exc:
        _write_json(out_dir / "summary.json", {"error": f"NotStabilizable: {exc}"})
        print(f"not stabilizable: {exc}", file=sys.stderr)
        return 2
    member = _membership(plant, P, beta)
    if member.Q is None:
        _write_json(out_dir / "summary.json", {"error": f"Overflow: {member.reason}"})
        print(f"overflow: {member.reason}", file=sys.stderr)
        return 2
    _write_json(out_dir / "summary.json", {
        "p": P.P.tolist(),
        "q": member.Q.Q.tolist(),
        "k": gain_from_q(member.Q).K.tolist(),
        "residual": member.residual,
        "error_estimate": dare_error_estimate(plant, P),
        "beta": beta,
        "member": member.member,
        "max_eig_q": member.max_eig_Q,
    })
    return 0


@_lapack.quietly   # a truncated run's terminal norm may overflow to inf
def run_simulate(cfg: dict, seed: int, out_dir: Path) -> int:
    """Simulate one scenario; write trajectory.csv and summary.json."""
    _reject_unknown(cfg, _COMMON_KEYS + _SCENARIO_KEYS, "config")
    scenario = _parse_scenario(cfg, seed)
    log = simulate(scenario)
    log.to_csv(out_dir / "trajectory.csv")
    try:   # null when the true plant is not stabilizable or its Q overflows
        q = q_from_p(scenario.plant, solve_dare(scenario.plant))
        gain_error = _spectral_norm(log.k[-1] - gain_from_q(q).K) if _lapack.finite(q.Q) else None
    except NotStabilizable:
        gain_error = None
    _write_json(out_dir / "summary.json", {
        "final_state_norm": float(np.sqrt(log.x_final.dot(log.x_final))),
        "max_rho": float(np.max(log.rho)),
        "total_cost": log.state_input_cost(),
        "gain_error": gain_error,
        "steps": len(log),
        "fallback_steps": int(np.sum(log.fallback)),
        "overflowed": log.overflowed,
    })
    return 3 if log.overflowed else 0


def _certify_instance(check: str, rng, plant, P, q, beta, rho, gamma, idx):
    if check == "theorem1":
        inst = theorem1_instance_for_plant(rng, plant, P, beta, rho)
        report = theorem1_margin(inst.plant, inst.P, inst.kt, beta, rho,
                                 sigma=inst.sigma, sigma_hat=inst.sigma_hat)
    elif check == "lemma1":
        inst = lemma1_instance_for_plant(rng, plant, P, q, beta, rho)
        report = lemma1_check(inst.sigma, inst.sigma_hat, inst.sigma_tilde,
                              inst.P, inst.Q, beta, rho)
    else:
        report = lyapunov_decay_check(plant, P, gain_from_q(q))
    extra = {"instance": float(idx)}
    if gamma is not None:
        try:
            extra["alpha"] = alpha_of(beta, rho, gamma)
        except DomainError:
            pass
    return replace(report, details={**report.details, **extra})


def run_certify(cfg: dict, seed: int, out_dir: Path) -> int:
    """Evaluate certificate margins on explicit or random instances.

    Exit 4 when any instance whose hypotheses hold has a conclusion margin
    below -1e-8, which would falsify the certified inequality.
    """
    _reject_unknown(cfg, _COMMON_KEYS + ("checks", "instances", "n", "m", "beta",
                                         "rho", "rho_scale", "gamma", "plant"), "config")
    explicit = cfg.get("plant") is not None
    sampling = [key for key in ("instances", "n", "m") if key in cfg]
    if explicit and sampling:
        raise ConfigError(f"field '{sampling[0]}' sizes the sampled instances; "
                          "it cannot be given with 'plant'")
    checks = cfg.get("checks", ["theorem1", "lemma1"])
    if not isinstance(checks, list) or not checks:
        raise ConfigError("field 'checks' must be a non-empty list")
    for c in checks:
        if c not in CERTIFY_CHECKS:
            raise ConfigError(f"unknown check '{c}' (allowed: {', '.join(CERTIFY_CHECKS)})")
    beta = _field(_check_beta, cfg.get("beta", 2.0), "beta")
    gamma = None if cfg.get("gamma") is None else _field(_check_above, cfg["gamma"], "gamma", beta)
    rho_abs = None if cfg.get("rho") is None else _field(_check_rho, cfg["rho"], "rho")
    rho_scale = (None if cfg.get("rho_scale") is None
                 else _field(_check_rho, cfg["rho_scale"], "rho_scale"))
    if rho_abs is not None and rho_scale is not None:
        raise ConfigError("give at most one of 'rho' and 'rho_scale'")
    rho_field = "rho_scale" if rho_scale is not None else "rho"
    rng = np.random.default_rng(seed)
    root = contraction_rho_root(beta)

    def rho_for_instance():
        if rho_abs is not None:
            return rho_abs
        if rho_scale is not None:
            return rho_scale * root
        return rng.uniform(0.0, 0.9) * root

    reports = []
    if explicit:
        plant = _parse_plant(cfg)
        try:
            P = solve_dare(plant)
        except NotStabilizable as exc:
            raise ConfigError(f"field 'plant' is not stabilizable: {exc}") from exc
        q = q_from_p(plant, P)
        instances = [(plant, P, q)]
    else:
        count = _field(_check_int, cfg.get("instances", 100), "instances")
        n = _field(_check_int, cfg.get("n", 2), "n")
        m = _field(_check_int, cfg.get("m", 1), "m")
        instances = [sample_membership_plant(rng, beta, n, m) for _ in range(count)]

    falsified = False
    for idx, (plant, P, q) in enumerate(instances):
        rho = rho_for_instance()
        for check in checks:
            try:
                report = _certify_instance(check, rng, plant, P, q, beta, rho, gamma, idx)
            except NotStabilizable as exc:
                # Only the theorem-1 instance solves: its estimate at distance rho.
                raise ConfigError(f"field '{rho_field}' gives instance {idx} (rho = {rho:.6g}) "
                                  f"an estimate that is not stabilizable: {exc}") from exc
            reports.append(report)
            if report.hypotheses_hold and report.conclusion_margin < -PSD_SLACK:
                falsified = True
    _write_json(out_dir / "reports.json", {"reports": [r.to_json_dict() for r in reports]})
    return 4 if falsified else 0


_SWEEP_GRID_KEYS = ("beta", "rho", "rho_scale", "gamma", "excitation_amplitude",
                    "disturbance_magnitude")

SWEEP_COLUMNS = ["beta", "rho", "gamma", "excitation_amplitude", "disturbance_magnitude",
                 "alpha", "rho_star", "t0", "t0_found", "max_rho_t", "hypotheses_hold",
                 "corollary_margin", "realized_cost", "overflowed", "error"]


def _parse_sweep_grids(cfg, base_amplitude):
    d = _ensure_mapping(cfg.get("sweep", {}), "sweep")
    _reject_unknown(d, _SWEEP_GRID_KEYS, "sweep")
    betas = _field_list(_check_beta, d.get("beta", [2.0]), "sweep.beta")
    rhos = _field_list(_check_real, d.get("rho", []), "sweep.rho")
    rho_scales = _field_list(_check_real, d.get("rho_scale", []), "sweep.rho_scale")
    if rhos and rho_scales:
        raise ConfigError("give only one of 'sweep.rho' and 'sweep.rho_scale'")
    if not rhos and not rho_scales:
        rho_scales = [0.5]
    gammas = _field_list(_check_real, d.get("gamma", [20.0]), "sweep.gamma")
    amps = _field_list(_check_amplitude, d.get("excitation_amplitude", [base_amplitude]),
                       "sweep.excitation_amplitude")
    mags = _field_list(_check_real, d.get("disturbance_magnitude", [1.0]),
                       "sweep.disturbance_magnitude")
    for name, grid in (("beta", betas), ("gamma", gammas),
                       ("excitation_amplitude", amps), ("disturbance_magnitude", mags)):
        if not grid:
            raise ConfigError(f"sweep grid '{name}' must be non-empty")
    rho_entries = [("abs", r) for r in rhos] or [("scale", s) for s in rho_scales]
    return betas, rho_entries, gammas, amps, mags


def _sweep_row(plant: PlantModel, t0_cfg, log,
               beta: float, rho_entry, gamma: float, amp: float, mag: float) -> list[str]:
    """One sweep.csv row from the log of its (amplitude, magnitude), or the error
    that run raised; an error of this grid point goes to its error column."""
    rho_star = admissible_rho(beta)
    rho = rho_entry[1] if rho_entry[0] == "abs" else rho_entry[1] * rho_star
    error = ""
    alpha = margin = max_rho_t = cost = np.nan
    t0_used, t0_found, hypotheses_hold, overflowed = "", "", False, False
    try:
        alpha = _check_positive(alpha_of(beta, rho, gamma), "alpha")
    except DomainError as exc:
        error = f"alpha: {exc}"
    try:
        if isinstance(log, AdaptiveLqError):
            raise log
        cost, overflowed = log.state_input_cost(), log.overflowed
        t0 = consistent_start(log, rho) if t0_cfg == "auto" else t0_cfg
        t0_used, t0_found = min(0 if t0 is None else t0, len(log) - 1), str(int(t0 is not None))
        max_rho_t = float(np.max(log.rho[t0_used:]))
        if not error:
            report = corollary_bound_check(log, plant, t0_used, gamma, beta, rho)
            margin = report.conclusion_margin
            hypotheses_hold = report.hypotheses_hold and not log.overflowed
    except AdaptiveLqError as exc:
        error = str(exc)
    return [_fmt(beta), _fmt(rho), _fmt(gamma), _fmt(amp), _fmt(mag), _fmt(alpha),
            _fmt(rho_star), str(t0_used), t0_found, _fmt(max_rho_t), str(int(hypotheses_hold)),
            _fmt(margin), _fmt(cost), str(int(overflowed)), error]


def run_sweep(cfg: dict, seed: int, out_dir: Path) -> int:
    """Grid sweep: one simulate per distinct (amplitude, magnitude), bit for bit
    (-0.0 and 0.0 apart), and one certify and one CSV row per point, in grid order.

    Per-row failures are recorded in the row's error column and never abort the sweep.
    """
    _reject_unknown(cfg, _COMMON_KEYS + _SCENARIO_KEYS + ("sweep", "t0"), "config")
    scenario_base = _parse_scenario(cfg, seed)
    t0_cfg = cfg.get("t0", "auto")
    if t0_cfg != "auto":
        t0_cfg = _field(_check_int, t0_cfg, "t0", 0)
    betas, rho_entries, gammas, amps, mags = _parse_sweep_grids(
        cfg, scenario_base.excitation.amplitude)
    points = list(itertools.product(betas, rho_entries, gammas, amps, mags))
    shared = {}   # point indices by (amplitude, magnitude); one run is held at a time
    for i, (*_, amp, mag) in enumerate(points):
        shared.setdefault((amp.hex(), mag.hex()), []).append(i)
    rows = [None] * len(points)
    for indices in shared.values():
        amp, mag = points[indices[0]][3:]
        try:
            log = simulate(replace(scenario_base, disturbance=scenario_base.disturbance.scaled(mag),
                                   excitation=replace(scenario_base.excitation, amplitude=amp)))
        except AdaptiveLqError as exc:
            log = exc
        for i in indices:
            rows[i] = _sweep_row(scenario_base.plant, t0_cfg, log, *points[i])

    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adaptive-lqr",
        description="Adaptive LQ control: fixed-point solvers, closed-loop "
                    "simulation, robustness certificates and parameter sweeps.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="path to a JSON config document")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out-dir", type=str, default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 1

    try:
        seed, out_dir = _parse_common(cfg, args.command)
        if args.seed is not None:
            seed = _field(_check_seed, args.seed, "seed")
        if args.out_dir is not None:
            out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = {"solve": run_solve, "simulate": run_simulate,
                  "certify": run_certify, "sweep": run_sweep}[args.command]
        return runner(cfg, seed, out_dir)
    except AdaptiveLqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
