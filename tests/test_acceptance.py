"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from adaptive_lqr import (
    CorrelationState,
    DisturbanceModel,
    EstimateNotStabilizable,
    ExcitationSchedule,
    PlantModel,
    Scenario,
    admissible_rho,
    batch_correlations,
    consistent_start,
    corollary_bound_check,
    data_riccati_residual,
    disturbance_correlation,
    estimate_model,
    gain_from_q,
    lemma1_check,
    q_from_p,
    sample_lemma1_instance,
    sample_membership_plant,
    sample_theorem1_instance,
    simulate,
    solve_dare,
    solve_data_riccati,
    theorem1_margin,
)
from adaptive_lqr.cli import main
from conftest import scalar_p


@contextmanager
def criterion(num, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {num}: {description} ({elapsed:.2f} s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget} s budget"


def test_criterion_1_scalar_oracles():
    with criterion(1, "scalar closed-form agreement to 1e-9, under 1 s each"):
        for a in [0.0, 0.3, 0.5, -0.8, 0.95]:
            start = time.perf_counter()
            P = solve_dare(PlantModel([[a]], [[0.0]]), tol=1e-12)
            assert time.perf_counter() - start < 1.0
            assert abs(P.P[0, 0] - 1.0 / (1.0 - a**2)) <= 1e-9
        start = time.perf_counter()
        P = solve_dare(PlantModel([[1.0]], [[1.0]]), tol=1e-12)
        assert time.perf_counter() - start < 1.0
        assert abs(P.P[0, 0] - (1.0 + np.sqrt(5.0)) / 2.0) <= 1e-9
        assert abs(P.P[0, 0] - scalar_p(1.0, 1.0)) <= 1e-9


def test_criterion_2_data_equation_residual():
    with criterion(2, "data-equation residual <= 1e-8 on 100 random states", budget=10.0):
        rng = np.random.default_rng(2002)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            A = rng.uniform(-1, 1, (n, n))
            r = np.max(np.abs(np.linalg.eigvals(A)))
            if r > 1e-9:
                A *= rng.uniform(0.05, 1.5) / r
            ab = np.hstack([A, rng.uniform(-1, 1, (n, m))])
            G = rng.standard_normal((n + m, n + m))
            sigma = G @ G.T + rng.uniform(0.1, 1.0) * np.eye(n + m)
            state = CorrelationState(sigma=sigma, sigma_hat=ab @ sigma, lam=0.99, t=3)
            try:
                q, k, _ = solve_data_riccati(estimate_model(state))
            except EstimateNotStabilizable:
                continue
            assert data_riccati_residual(state, q, k) <= 1e-8
            done += 1


def test_criterion_3_theorem1_suite():
    with criterion(3, "theorem-1 margins >= -1e-8 on 1002 instances plus "
                      "tightness at rho = 0", budget=60.0):
        rng = np.random.default_rng(3003)
        for i in range(1002):
            beta = [1.2, 2.0, 5.0][i % 3]
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            inst = sample_theorem1_instance(rng, beta, n, m)
            assert inst.rho <= 0.9 * (np.sqrt(1 + 1 / (2 * beta**2)) - 1) + 1e-15
            report = theorem1_margin(inst.plant, inst.P, inst.kt, beta, inst.rho,
                                     sigma=inst.sigma, sigma_hat=inst.sigma_hat)
            assert report.hypotheses_hold
            assert report.conclusion_margin >= -1e-8
        for beta in [1.2, 2.0, 5.0]:
            plant, _, _ = sample_membership_plant(rng, beta, 2, 1)
            P = solve_dare(plant, tol=1e-13)
            kbar = gain_from_q(q_from_p(plant, P))
            tight = theorem1_margin(plant, P, kbar, beta, 0.0)
            assert abs(tight.conclusion_margin) <= 1e-9


def test_criterion_4_lemma1_suite():
    with criterion(4, "lemma-1 margins >= -1e-8 on 1002 instances", budget=30.0):
        rng = np.random.default_rng(4004)
        for i in range(1002):
            beta = [1.2, 2.0, 5.0][i % 3]
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            inst = sample_lemma1_instance(rng, beta, n, m)
            report = lemma1_check(inst.sigma, inst.sigma_hat, inst.sigma_tilde,
                                  inst.P, inst.Q, beta, inst.rho)
            assert report.hypotheses_hold
            assert report.conclusion_margin >= -1e-8


def test_criterion_5_corollary_on_simulations():
    with criterion(5, "corollary bound on 200 simulated scenarios", budget=300.0):
        rng = np.random.default_rng(5005)
        checked = 0
        for case in range(50):
            beta = [2.0, 5.0][case % 2]
            gamma = 20.0 * beta
            rho = 0.7 * admissible_rho(beta)
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            plant, _, _ = sample_membership_plant(rng, beta, n, m)
            variants = []
            base_exc = dict(amplitude=50.0, decay_rate=0.9)
            variants.append((DisturbanceModel.zero(), base_exc, np.ones(n)))
            variants.append((DisturbanceModel.zero(),
                             dict(amplitude=200.0, decay_rate=0.85),
                             3.0 * np.ones(n)))
            # Disturbance sizes scale with the consistency radius so the
            # logged rho_t settles below it (it is amplified by the data
            # geometry, most visibly for the filtered dynamics).
            seq = 0.1 * rho * rng.uniform(-1.0, 1.0, (250, n))
            variants.append((DisturbanceModel.external(seq), base_exc, np.ones(n)))
            da = rng.standard_normal((n, n))
            db = rng.standard_normal((n, m))
            scale = 0.01 * rho / np.linalg.norm(np.hstack([da, db]), 2)
            variants.append((DisturbanceModel.filtered(scale * da, scale * db, pole=0.4),
                             base_exc, np.ones(n)))
            for v, (dist, exc_kw, x0) in enumerate(variants):
                exc = ExcitationSchedule.decaying(m, seed=int(rng.integers(0, 2**32)),
                                                  **exc_kw)
                log = simulate(Scenario(plant=plant, disturbance=dist, x0=x0,
                                        horizon=250, excitation=exc,
                                        beta=beta, gamma=gamma))
                t0 = consistent_start(log, rho)
                assert t0 is not None and t0 < len(log), \
                    f"hypotheses never hold for case {case} variant {v}"
                report = corollary_bound_check(log, plant, t0, gamma, beta, rho)
                assert report.hypotheses_hold
                lhs = report.details["lhs"]
                assert report.conclusion_margin >= -1e-6 * (1.0 + lhs)
                checked += 1
        assert checked == 200


def test_criterion_6_adaptive_convergence():
    with criterion(6, "gain within 1e-6 of optimal by t = 500 and state below "
                      "1e-6 by t = 1000 on 20 random plants"):
        rng = np.random.default_rng(6006)
        for case in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            plant, P, _ = sample_membership_plant(rng, 2.0, n, m)
            k_opt = gain_from_q(q_from_p(plant, P)).K
            exc = ExcitationSchedule.decaying(m, amplitude=1e4, decay_rate=0.9,
                                              seed=6000 + case)
            log = simulate(Scenario(plant=plant, disturbance=DisturbanceModel.zero(),
                                    x0=np.ones(n), horizon=1000, excitation=exc))
            assert not log.overflowed
            err = np.linalg.norm(log.k[500:] - k_opt, axis=(1, 2))
            assert np.max(err) <= 1e-6
            assert np.linalg.norm(log.x_final) <= 1e-6


def test_criterion_7_disturbance_identity():
    with criterion(7, "disturbance correlations equal SigmaHat - [A B] Sigma "
                      "to 1e-10 on 200 histories"):
        rng = np.random.default_rng(7007)
        lams = [0.5, 0.9, 0.99, 1.0]
        for i in range(200):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            lam = lams[i % 4]
            length = int(rng.integers(1, 41))
            plant = PlantModel(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, m)))
            sigma0 = rng.uniform(1e-3, 1.0) * np.eye(n + m)
            xuw = [(rng.standard_normal(n), rng.standard_normal(m),
                    rng.standard_normal(n)) for _ in range(length)]
            xux = [(x, u, plant.A @ x + plant.B @ u + w) for x, u, w in xuw]
            corr = batch_correlations(xux, lam, sigma0)
            dist = disturbance_correlation(xuw, plant, lam, sigma0)
            expected = corr.sigma_hat - plant.ab @ corr.sigma
            scale = max(1.0, np.linalg.norm(expected, 2))
            assert np.linalg.norm(dist - expected, 2) <= 1e-10 * scale


def test_criterion_8_admissible_rho_region():
    with criterion(8, "admissible-rho boundary brackets the strict condition; "
                      "beta = 2 value matches the quadratic-formula oracle"):
        for beta in [1.2, 2.0, 5.0, 10.0]:
            rho_star = admissible_rho(beta)
            inflate = lambda r: 1.0 / (1.0 - 2 * beta**2 * r * (r + 2))
            assert inflate(0.99 * rho_star) < 1.0 + beta**-2
            assert not inflate(1.01 * rho_star) < 1.0 + beta**-2
        oracle = float(max(np.roots([8.0, 16.0, -0.2])))   # 8 rho^2 + 16 rho = 0.2
        assert abs(admissible_rho(2.0) - oracle) <= 1e-5


def test_criterion_9_sweep_determinism(tmp_path):
    with criterion(9, "identical sweep configs produce byte-identical sweep.csv"):
        cfg = {
            "command": "sweep",
            "plant": {"A": [[0.6, 0.1], [0.0, 0.5]], "B": [[1.0], [0.3]]},
            "horizon": 200,
            "x0": [1.0, -1.0],
            "excitation": {"amplitude": 30.0, "decay_rate": 0.9},
            "sweep": {
                "beta": [2.0, 5.0],
                "rho_scale": [0.7],
                "gamma": [100.0],
                "excitation_amplitude": [30.0, 60.0],
                "disturbance_magnitude": [0.0],
            },
            "seed": 99,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", str(path), "--out-dir", str(out_a)]) == 0
        assert main(["sweep", str(path), "--out-dir", str(out_b)]) == 0
        bytes_a = (out_a / "sweep.csv").read_bytes()
        assert bytes_a == (out_b / "sweep.csv").read_bytes()
        assert len(bytes_a) > 0
