"""Command-line runner: solve | simulate | certify | sweep.

Every run is described by a single JSON config document (strictly parsed,
unknown keys rejected) so that experiments are archivable and reproducible:
identical config + seed yields byte-identical outputs.  Artifacts land in
the output directory: summary.json (solve, simulate), trajectory.csv
(simulate), reports.json (certify), sweep.csv (sweep).

Exit codes: 0 success, 1 bad config, 2 plant not stabilizable (solve),
3 state overflow (simulate), 4 a hypothesis-satisfying certificate instance
violated its conclusion (certify).
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
from .riccati import PlantModel, check_membership, dare_residual, gain_from_q, solve_dare
from .simulation import DisturbanceModel, Scenario, simulate

COMMANDS = ("solve", "simulate", "certify", "sweep")
CERTIFY_CHECKS = ("theorem1", "lemma1", "lyapunov")
CERTIFY_SLACK = 1e-8


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


def _as_float(val, ctx):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"field '{ctx}' must be a number")
    return float(val)


def _as_int(val, ctx):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"field '{ctx}' must be an integer")
    return int(val)


def _as_str(val, ctx):
    if not isinstance(val, str):
        raise ConfigError(f"field '{ctx}' must be a string")
    return val


def _as_matrix(val, ctx):
    try:
        M = np.asarray(val, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{ctx}' must be a rectangular numeric matrix") from exc
    if M.ndim != 2 or not np.all(np.isfinite(M)):
        raise ConfigError(f"field '{ctx}' must be a finite 2-d matrix")
    return M


def _as_vector(val, ctx):
    try:
        v = np.asarray(val, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{ctx}' must be a numeric vector") from exc
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"field '{ctx}' must be finite")
    return v


def _as_float_list(val, ctx):
    if not isinstance(val, list):
        raise ConfigError(f"field '{ctx}' must be a list of numbers")
    return [_as_float(v, f"{ctx}[{i}]") for i, v in enumerate(val)]


def _parse_plant(cfg, ctx="plant") -> PlantModel:
    if "plant" not in cfg or cfg["plant"] is None:
        raise ConfigError("field 'plant' with matrices A and B is required")
    d = _ensure_mapping(cfg["plant"], ctx)
    _reject_unknown(d, ("A", "B"), ctx)
    if "A" not in d or "B" not in d:
        raise ConfigError(f"'{ctx}' must provide both A and B")
    try:
        return PlantModel(_as_matrix(d["A"], f"{ctx}.A"), _as_matrix(d["B"], f"{ctx}.B"))
    except AdaptiveLqError as exc:
        raise ConfigError(f"invalid '{ctx}': {exc}") from exc


def _parse_excitation(cfg, m, default_seed, ctx="excitation") -> ExcitationSchedule:
    d = _ensure_mapping(cfg.get("excitation", {}), ctx)
    _reject_unknown(d, ("kind", "amplitude", "decay_rate", "seed"), ctx)
    kind = _as_str(d.get("kind", "none"), f"{ctx}.kind")
    seed = default_seed if d.get("seed") is None else _as_int(d["seed"], f"{ctx}.seed")
    try:
        return ExcitationSchedule(kind=kind, m=m,
                                  amplitude=_as_float(d.get("amplitude", 0.0), f"{ctx}.amplitude"),
                                  decay_rate=_as_float(d.get("decay_rate", 0.9), f"{ctx}.decay_rate"),
                                  seed=seed)
    except AdaptiveLqError as exc:
        raise ConfigError(f"invalid '{ctx}': {exc}") from exc


def _parse_disturbance(cfg, ctx="disturbance") -> DisturbanceModel:
    d = _ensure_mapping(cfg.get("disturbance", {}), ctx)
    _reject_unknown(d, ("kind", "sequence", "delta_a", "delta_b", "pole"), ctx)
    kind = _as_str(d.get("kind", "zero"), f"{ctx}.kind")
    try:
        if kind == "zero":
            return DisturbanceModel.zero()
        if kind == "external_sequence":
            if d.get("sequence") is None:
                raise ConfigError(f"'{ctx}.sequence' is required for external_sequence")
            return DisturbanceModel.external(_as_matrix(d["sequence"], f"{ctx}.sequence"))
        if d.get("delta_a") is None or d.get("delta_b") is None:
            raise ConfigError(f"'{ctx}.delta_a' and '{ctx}.delta_b' are required for {kind}")
        da = _as_matrix(d["delta_a"], f"{ctx}.delta_a")
        db = _as_matrix(d["delta_b"], f"{ctx}.delta_b")
        if kind == "linear_unmodeled":
            return DisturbanceModel.linear(da, db)
        if kind == "filtered_unmodeled":
            return DisturbanceModel.filtered(da, db, _as_float(d.get("pole", 0.0), f"{ctx}.pole"))
    except AdaptiveLqError as exc:
        raise ConfigError(f"invalid '{ctx}': {exc}") from exc
    raise ConfigError(f"field '{ctx}.kind' must be one of zero, external_sequence, "
                      f"linear_unmodeled, filtered_unmodeled")


_COMMON_KEYS = ("command", "seed", "out_dir")
_SCENARIO_KEYS = ("plant", "horizon", "x0", "lambda", "sigma0_scale", "excitation",
                  "disturbance", "fallback_gain", "beta", "gamma", "controller_tol")


def _parse_common(cfg, command):
    if "command" in cfg:
        declared = _as_str(cfg["command"], "command")
        if declared != command:
            raise ConfigError(f"config declares command '{declared}' but '{command}' was invoked")
    seed = _as_int(cfg.get("seed", 0), "seed")
    out_dir = Path(_as_str(cfg.get("out_dir", "."), "out_dir"))
    return seed, out_dir


def _parse_scenario(cfg, seed) -> Scenario:
    plant = _parse_plant(cfg)
    n, m = plant.n, plant.m
    horizon = _as_int(cfg.get("horizon", 1000), "horizon")
    x0 = np.ones(n) if cfg.get("x0") is None else _as_vector(cfg["x0"], "x0")
    lam = _as_float(cfg.get("lambda", 0.99), "lambda")
    sigma0_scale = _as_float(cfg.get("sigma0_scale", 1e-3), "sigma0_scale")
    if sigma0_scale <= 0:
        raise ConfigError("field 'sigma0_scale' must be positive")
    excitation = _parse_excitation(cfg, m, seed)
    disturbance = _parse_disturbance(cfg)
    fallback = None if cfg.get("fallback_gain") is None else _as_matrix(cfg["fallback_gain"], "fallback_gain")
    try:
        return Scenario(plant=plant, disturbance=disturbance, x0=x0, horizon=horizon,
                        lam=lam, sigma0=sigma0_scale * np.eye(n + m), excitation=excitation,
                        fallback_gain=fallback,
                        beta=_as_float(cfg.get("beta", 2.0), "beta"),
                        gamma=_as_float(cfg.get("gamma", 20.0), "gamma"),
                        seed=seed,
                        controller_tol=_as_float(cfg.get("controller_tol", 1e-11), "controller_tol"))
    except AdaptiveLqError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def _derive_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def run_solve(cfg: dict, seed: int, out_dir: Path) -> int:
    """Solve the fixed point for one plant; write {P, Q, K, residual, member}."""
    _reject_unknown(cfg, _COMMON_KEYS + ("plant", "beta", "tol", "max_iter"), "config")
    plant = _parse_plant(cfg)
    beta = _as_float(cfg.get("beta", 2.0), "beta")
    if beta <= 1.0:
        raise ConfigError("field 'beta' must exceed 1")
    tol = _as_float(cfg.get("tol", 1e-10), "tol")
    max_iter = _as_int(cfg.get("max_iter", 100_000), "max_iter")
    try:
        P = solve_dare(plant, tol=tol, max_iter=max_iter)
    except NotStabilizable as exc:
        _write_json(out_dir / "summary.json", {"error": f"NotStabilizable: {exc}"})
        print(f"not stabilizable: {exc}", file=sys.stderr)
        return 2
    q = q_from_p(plant, P)
    k = gain_from_q(q)
    member = check_membership(plant, beta)
    _write_json(out_dir / "summary.json", {
        "p": P.P.tolist(),
        "q": q.Q.tolist(),
        "k": k.K.tolist(),
        "residual": dare_residual(plant, P),
        "beta": beta,
        "member": member.member,
        "max_eig_q": member.max_eig_Q,
    })
    return 0


def run_simulate(cfg: dict, seed: int, out_dir: Path) -> int:
    """Simulate one scenario; write trajectory.csv and summary.json."""
    _reject_unknown(cfg, _COMMON_KEYS + _SCENARIO_KEYS, "config")
    scenario = _parse_scenario(cfg, seed)
    log = simulate(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.to_csv(out_dir / "trajectory.csv")
    try:
        k_opt = gain_from_q(q_from_p(scenario.plant, solve_dare(scenario.plant))).K
        gain_error = float(np.linalg.norm(log.k[-1] - k_opt, 2))
    except NotStabilizable:
        gain_error = None
    _write_json(out_dir / "summary.json", {
        "final_state_norm": float(np.linalg.norm(log.x_final)),
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
    checks = cfg.get("checks", ["theorem1", "lemma1"])
    if not isinstance(checks, list) or not checks:
        raise ConfigError("field 'checks' must be a non-empty list")
    for c in checks:
        if c not in CERTIFY_CHECKS:
            raise ConfigError(f"unknown check '{c}' (allowed: {', '.join(CERTIFY_CHECKS)})")
    beta = _as_float(cfg.get("beta", 2.0), "beta")
    if beta <= 1.0:
        raise ConfigError("field 'beta' must exceed 1")
    gamma = None if cfg.get("gamma") is None else _as_float(cfg["gamma"], "gamma")
    if gamma is not None and gamma <= beta:
        raise ConfigError(f"DomainError: gamma = {gamma} must exceed beta = {beta}")
    rho_abs = None if cfg.get("rho") is None else _as_float(cfg["rho"], "rho")
    rho_scale = None if cfg.get("rho_scale") is None else _as_float(cfg["rho_scale"], "rho_scale")
    if rho_abs is not None and rho_scale is not None:
        raise ConfigError("give at most one of 'rho' and 'rho_scale'")
    rng = np.random.default_rng(seed)
    root = contraction_rho_root(beta)

    def rho_for_instance():
        if rho_abs is not None:
            return rho_abs
        if rho_scale is not None:
            return rho_scale * root
        return rng.uniform(0.0, 0.9) * root

    reports = []
    if cfg.get("plant") is not None:
        plant = _parse_plant(cfg)
        P = solve_dare(plant)
        q = q_from_p(plant, P)
        instances = [(plant, P, q)]
    else:
        count = _as_int(cfg.get("instances", 100), "instances")
        if count < 1:
            raise ConfigError("field 'instances' must be at least 1")
        n = _as_int(cfg.get("n", 2), "n")
        m = _as_int(cfg.get("m", 1), "m")
        instances = [sample_membership_plant(rng, beta, n, m) for _ in range(count)]

    falsified = False
    for idx, (plant, P, q) in enumerate(instances):
        rho = rho_for_instance()
        for check in checks:
            report = _certify_instance(check, rng, plant, P, q, beta, rho, gamma, idx)
            reports.append(report)
            if report.hypotheses_hold and report.conclusion_margin < -CERTIFY_SLACK:
                falsified = True
    _write_json(out_dir / "reports.json", {"reports": [r.to_json_dict() for r in reports]})
    return 4 if falsified else 0


_SWEEP_GRID_KEYS = ("beta", "rho", "rho_scale", "gamma", "excitation_amplitude",
                    "disturbance_magnitude")

SWEEP_COLUMNS = ["beta", "rho", "gamma", "excitation_amplitude", "disturbance_magnitude",
                 "alpha", "rho_star", "t0", "max_rho_t", "hypotheses_hold",
                 "corollary_margin", "realized_cost", "overflowed", "error"]


def _parse_sweep_grids(cfg):
    d = _ensure_mapping(cfg.get("sweep", {}), "sweep")
    _reject_unknown(d, _SWEEP_GRID_KEYS, "sweep")
    betas = _as_float_list(d.get("beta", [2.0]), "sweep.beta")
    rhos = _as_float_list(d.get("rho", []), "sweep.rho")
    rho_scales = _as_float_list(d.get("rho_scale", []), "sweep.rho_scale")
    if rhos and rho_scales:
        raise ConfigError("give only one of 'sweep.rho' and 'sweep.rho_scale'")
    if not rhos and not rho_scales:
        rho_scales = [0.5]
    gammas = _as_float_list(d.get("gamma", [20.0]), "sweep.gamma")
    amps = _as_float_list(d.get("excitation_amplitude", [1.0]), "sweep.excitation_amplitude")
    mags = _as_float_list(d.get("disturbance_magnitude", [0.0]), "sweep.disturbance_magnitude")
    for name, grid in (("beta", betas), ("gamma", gammas),
                       ("excitation_amplitude", amps), ("disturbance_magnitude", mags)):
        if not grid:
            raise ConfigError(f"sweep grid '{name}' must be non-empty")
    for b in betas:
        if b <= 1.0:
            raise ConfigError("sweep betas must exceed 1")
    rho_entries = [("abs", r) for r in rhos] or [("scale", s) for s in rho_scales]
    return betas, rho_entries, gammas, amps, mags


def _sweep_row(scenario_base: Scenario, t0_cfg, seed: int, idx: int,
               beta: float, rho_entry, gamma: float, amp: float, mag: float) -> list[str]:
    row_seed = _derive_seed(seed, idx)
    excitation = replace(scenario_base.excitation, amplitude=amp,
                         seed=_derive_seed(scenario_base.excitation.seed, idx))
    scenario = replace(scenario_base,
                       disturbance=scenario_base.disturbance.scaled(mag),
                       excitation=excitation, beta=beta, gamma=gamma, seed=row_seed)
    rho_star = admissible_rho(beta)
    rho = rho_entry[1] if rho_entry[0] == "abs" else rho_entry[1] * rho_star
    error = ""
    alpha = np.nan
    try:
        alpha = alpha_of(beta, rho, gamma)
    except DomainError as exc:
        error = f"alpha: {exc}"
    log = simulate(scenario)
    if t0_cfg == "auto":
        t0 = consistent_start(log, rho)
        t0_used = 0 if t0 is None else t0
    else:
        t0_used = int(t0_cfg)
    margin = np.nan
    hypotheses_hold = False
    max_rho_t = np.nan
    if len(log):
        t0_used = min(t0_used, len(log) - 1)
        max_rho_t = float(np.max(log.rho[t0_used:]))
        if not error:
            try:
                report = corollary_bound_check(log, scenario.plant, t0_used, gamma, beta, rho)
                margin = report.conclusion_margin
                hypotheses_hold = report.hypotheses_hold and not log.overflowed
            except (DomainError, NotStabilizable) as exc:
                error = str(exc)
    return [_fmt(beta), _fmt(rho), _fmt(gamma), _fmt(amp), _fmt(mag), _fmt(alpha),
            _fmt(rho_star), str(t0_used), _fmt(max_rho_t), str(int(hypotheses_hold)),
            _fmt(margin), _fmt(log.state_input_cost()), str(int(log.overflowed)), error]


def run_sweep(cfg: dict, seed: int, out_dir: Path) -> int:
    """Grid sweep: one simulate + certify per point, one CSV row per point.

    Rows are written in grid order; per-row failures are recorded in the
    row's error column and never abort the sweep.
    """
    _reject_unknown(cfg, _COMMON_KEYS + _SCENARIO_KEYS + ("sweep", "t0"), "config")
    scenario_base = _parse_scenario(cfg, seed)
    t0_cfg = cfg.get("t0", "auto")
    if t0_cfg != "auto":
        t0_cfg = _as_int(t0_cfg, "t0")
        if t0_cfg < 0:
            raise ConfigError("field 't0' must be non-negative or 'auto'")
    betas, rho_entries, gammas, amps, mags = _parse_sweep_grids(cfg)
    points = itertools.product(betas, rho_entries, gammas, amps, mags)
    rows = [_sweep_row(scenario_base, t0_cfg, seed, idx, *point)
            for idx, point in enumerate(points)]

    out_dir.mkdir(parents=True, exist_ok=True)
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
            seed = args.seed
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
