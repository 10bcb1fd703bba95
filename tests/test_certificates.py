import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from adaptive_lqr import (
    DisturbanceModel,
    DomainError,
    ExcitationSchedule,
    Gain,
    IllConditioned,
    NonFiniteInput,
    NotConverged,
    NotStabilizable,
    PlantModel,
    QMatrix,
    Scenario,
    ShapeMismatch,
    admissible_rho,
    alpha_of,
    check_membership,
    consistent_start,
    contraction_rho_root,
    corollary_bound_check,
    gain_from_q,
    lemma1_check,
    lemma1_instance_for_plant,
    lyapunov_decay_check,
    q_from_p,
    random_plant,
    sample_lemma1_instance,
    sample_membership_plant,
    sample_theorem1_instance,
    simulate,
    solve_dare,
    solve_from_upper,
    theorem1_instance_for_plant,
    theorem1_margin,
)
from adaptive_lqr import certificates, riccati
from adaptive_lqr.cli import main
from adaptive_lqr.estimation import COND_LIMIT
from adaptive_lqr.riccati import PSD_SLACK, ValueMatrix, _trusted, sym


def count_cold_solves(monkeypatch, plant):
    """Patch solve_dare where certificates reach it; count cold solves of `plant`."""
    calls = []
    solve = riccati.solve_dare

    def counting(p, *args, **kwargs):
        if p is plant and kwargs.get("p0", args[2] if len(args) > 2 else None) is None:
            calls.append(p)
        return solve(p, *args, **kwargs)

    monkeypatch.setattr(riccati, "solve_dare", counting)
    monkeypatch.setattr(certificates, "solve_dare", counting)
    return calls


class TestTheorem1Margin:
    def test_zero_rho_optimal_gain_is_tight(self):
        for a, b in [(1.0, 1.0), (0.5, 1.0), (0.3, 0.7)]:
            plant = PlantModel([[a]], [[b]])
            P = solve_dare(plant, tol=1e-13)
            kbar = gain_from_q(q_from_p(plant, P))
            report = theorem1_margin(plant, P, kbar, beta=3.0, rho=0.0)
            assert abs(report.conclusion_margin) <= 1e-9
            assert report.hypotheses_hold

    def test_scalar_data_gain_within_bound(self):
        rng = np.random.default_rng(5)
        plant = PlantModel([[0.5]], [[1.0]])
        P = solve_dare(plant, tol=1e-13)
        inst = theorem1_instance_for_plant(rng, plant, P, beta=2.0, rho=0.01)
        report = theorem1_margin(plant, P, inst.kt, 2.0, 0.01,
                                 sigma=inst.sigma, sigma_hat=inst.sigma_hat)
        assert report.hypotheses_hold
        assert report.conclusion_margin >= 0.0

    def test_gross_gain_violates(self):
        plant = PlantModel([[0.5]], [[1.0]])
        P = solve_dare(plant, tol=1e-13)
        kbar = gain_from_q(q_from_p(plant, P)).K
        report = theorem1_margin(plant, P, Gain(kbar + 10.0), beta=2.0, rho=0.0)
        assert report.conclusion_margin < 0.0

    def test_contraction_hypothesis_gate(self):
        plant = PlantModel([[0.5]], [[1.0]])
        P = solve_dare(plant)
        kbar = gain_from_q(q_from_p(plant, P))
        big_rho = 2.0 * contraction_rho_root(2.0)
        report = theorem1_margin(plant, P, kbar, beta=2.0, rho=big_rho)
        assert not report.hypotheses["contraction"].holds
        assert not report.hypotheses_hold

    def test_data_hypothesis_detects_excess_rho(self):
        rng = np.random.default_rng(6)
        plant = PlantModel([[0.5]], [[1.0]])
        P = solve_dare(plant)
        inst = theorem1_instance_for_plant(rng, plant, P, beta=2.0, rho=0.01)
        report = theorem1_margin(plant, P, inst.kt, 2.0, 0.001,
                                 sigma=inst.sigma, sigma_hat=inst.sigma_hat)
        assert not report.hypotheses["data_consistency"].holds

    @pytest.mark.parametrize("given", ["sigma", "sigma_hat"])
    def test_correlation_data_comes_in_pairs(self, given):
        # Either half alone would drop the data_consistency hypothesis unannounced.
        inst = sample_theorem1_instance(np.random.default_rng(3), 2.0, 2, 1)
        with pytest.raises(ShapeMismatch, match="sigma and sigma_hat must be given together"):
            theorem1_margin(inst.plant, inst.P, inst.kt, 2.0, inst.rho,
                            **{given: getattr(inst, given)})

    def test_given_p_not_solved_again(self, monkeypatch):
        plant = PlantModel([[0.5, 0.2], [0.1, 0.3]], [[1.0], [0.3]])
        P = solve_dare(plant)
        kbar = gain_from_q(q_from_p(plant, P))
        calls = count_cold_solves(monkeypatch, plant)
        report = theorem1_margin(plant, P, kbar, beta=2.0, rho=0.0)
        assert report.hypotheses_hold and calls == []   # verified warm, not re-solved

    @pytest.mark.parametrize("plant, wrong", [
        (PlantModel([[0.5, 0.2], [0.1, 0.3]], [[1.0], [0.3]]), lambda P: 2.0 * P),
        (PlantModel([[0.5, 0.2], [0.1, 0.3]], [[1.0], [0.3]]), lambda P: 0.5 * P),
        (PlantModel([[0.5, 0.2], [0.1, 0.3]], [[1.0], [0.3]]), lambda P: -P),
        # The negative root of p^2 - p/4 - 1 = 0: a fixed point below I, where
        # the warm check stops at once and must fall back to a cold solve.
        (PlantModel([[0.5]], [[1.0]]), lambda P: [[(0.25 - np.sqrt(4.0625)) / 2.0]]),
    ], ids=["twice", "half_below_identity", "negative", "non_stabilizing_fixed_point"])
    @pytest.mark.parametrize("beta", [1.2, 2.0])
    def test_wrong_p_keeps_membership_verdict(self, plant, wrong, beta):
        # A wrong P (buildable without validation when it is not >= I) must
        # not change the membership hypothesis or the reported max eig Q.
        P = solve_dare(plant)
        kbar = gain_from_q(q_from_p(plant, P))
        ref = check_membership(plant, beta)
        report = theorem1_margin(plant, _trusted(ValueMatrix, P=np.asarray(wrong(P.P))), kbar,
                                 beta=beta, rho=0.0)
        assert report.hypotheses["membership"].holds == ref.member
        assert report.details["max_eig_Q"] == pytest.approx(ref.max_eig_Q, rel=1e-9)

    @pytest.mark.parametrize("rho", [-0.05, float("nan"), float("inf")])
    def test_bad_rho_rejected(self, rho):
        plant = PlantModel([[0.5]], [[1.0]])
        P = solve_dare(plant)
        with pytest.raises(DomainError):
            theorem1_margin(plant, P, gain_from_q(q_from_p(plant, P)), beta=2.0, rho=rho)

    def test_randomized_never_falsified(self):
        rng = np.random.default_rng(90)
        for i in range(150):
            beta = [1.2, 2.0, 5.0][i % 3]
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            inst = sample_theorem1_instance(rng, beta, n, m)
            report = theorem1_margin(inst.plant, inst.P, inst.kt, beta, inst.rho,
                                     sigma=inst.sigma, sigma_hat=inst.sigma_hat)
            assert report.hypotheses_hold
            assert report.conclusion_margin >= -1e-8

    @pytest.mark.parametrize("k", [1e150, 1e300],
                             ids=["conclusion_overflows", "closed_loop_overflows"])
    def test_overflow_reports_an_undefined_margin_without_warnings(self, k):
        plant = PlantModel([[0.5]], [[1e10]])
        P = solve_dare(plant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = theorem1_margin(plant, P, Gain([[k]]), 2.0, 0.01)
        assert report.conclusion_margin == certificates.UNDEFINED_MARGIN
        assert report.hypotheses["contraction"].holds


class TestAlphaOf:
    def test_value_at_zero_rho(self):
        # beta = 1.1, gamma = 10: exact rational arithmetic oracle.
        expected = Fraction(121, 100) + (1 / (1 - Fraction(121, 10000))) * (1 - Fraction(121, 100))
        assert abs(alpha_of(1.1, 0.0, 10.0) - float(expected)) <= 1e-12
        assert abs(alpha_of(1.1, 0.0, 10.0) - 0.99743) <= 1e-5

    def test_unit_beta_gives_one(self):
        for gamma in [1.5, 2.0, 100.0]:
            assert alpha_of(1.0, 0.0, gamma) == 1.0

    def test_negative_region(self):
        # rho chosen so the contraction term equals one half.
        beta = 1.1
        rho = float(np.sqrt(1.0 + 0.5 / (2 * beta**2)) - 1.0)
        assert abs(2 * beta**2 * rho * (rho + 2) - 0.5) <= 1e-12
        expected = Fraction(121, 100) + (1 / (1 - Fraction(121, 10000))) * (
            1 - Fraction(121, 100) / Fraction(1, 2))
        got = alpha_of(beta, rho, 10.0)
        assert got < 0.0
        assert abs(got - float(expected)) <= 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            alpha_of(2.0, 0.0, 2.0)          # gamma must exceed beta
        with pytest.raises(DomainError):
            alpha_of(2.0, 0.5, 10.0)         # contraction term >= 1
        with pytest.raises(DomainError):
            alpha_of(-1.0, 0.0, 10.0)

    def test_monotone_in_rho_and_gamma(self):
        beta = 2.0
        rhos = np.linspace(0.0, 0.9 * contraction_rho_root(beta), 25)
        gammas = [2.5, 3.0, 5.0, 10.0, 100.0]
        for gamma in gammas:
            vals = [alpha_of(beta, r, gamma) for r in rhos]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        for r in rhos:
            vals = [alpha_of(beta, r, g) for g in gammas]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def quiet_scenario(plant, horizon=200, amplitude=50.0, seed=0, dist=None):
    return Scenario(plant=plant,
                    disturbance=dist if dist is not None else DisturbanceModel.zero(),
                    x0=np.ones(plant.n), horizon=horizon,
                    excitation=ExcitationSchedule.decaying(plant.m, amplitude=amplitude,
                                                           decay_rate=0.9, seed=seed))


class TestCorollaryBound:
    def test_zero_run_zero_margin(self):
        plant = PlantModel([[0.5]], [[1.0]])
        log = simulate(Scenario(plant=plant, disturbance=DisturbanceModel.zero(),
                                x0=[0.0], horizon=50))
        report = corollary_bound_check(log, plant, t0=0, gamma=10.0, beta=2.0, rho=0.001)
        assert report.details["lhs"] == 0.0
        assert report.details["rhs"] == 0.0
        assert report.conclusion_margin == 0.0

    def test_noiseless_run_bound_holds(self):
        plant = PlantModel([[0.5]], [[1.0]])
        log = simulate(quiet_scenario(plant, seed=3))
        rho = 0.7 * admissible_rho(2.0)
        t0 = consistent_start(log, rho)
        assert t0 is not None and t0 < len(log)
        report = corollary_bound_check(log, plant, t0, gamma=40.0, beta=2.0, rho=rho)
        assert report.hypotheses_hold
        assert report.conclusion_margin >= 0.0

    def test_early_t0_fails_hypotheses(self):
        plant = PlantModel([[0.5]], [[1.0]])
        log = simulate(quiet_scenario(plant, seed=3))
        rho = 0.7 * admissible_rho(2.0)
        assert consistent_start(log, rho) > 0    # consistency really fails early on
        report = corollary_bound_check(log, plant, 0, gamma=40.0, beta=2.0, rho=rho)
        assert not report.hypotheses["data_consistency"].holds
        assert not report.hypotheses_hold

    def test_plant_solved_once(self, monkeypatch):
        plant = PlantModel([[0.5]], [[1.0]])
        log = simulate(quiet_scenario(plant, seed=3))
        calls = count_cold_solves(monkeypatch, plant)
        report = corollary_bound_check(log, plant, 0, gamma=40.0, beta=2.0, rho=0.01)
        assert report.hypotheses["membership"].holds and len(calls) == 1

    def test_domain_errors(self):
        plant = PlantModel([[0.5]], [[1.0]])
        log = simulate(quiet_scenario(plant, horizon=20))
        with pytest.raises(DomainError):
            corollary_bound_check(log, plant, t0=50, gamma=10.0, beta=2.0, rho=0.001)
        with pytest.raises(DomainError):
            corollary_bound_check(log, plant, t0=0, gamma=1.5, beta=2.0, rho=0.001)


class TestLemma1:
    def test_zero_perturbation_tight(self):
        rng = np.random.default_rng(44)
        plant, P, q = sample_membership_plant(rng, 2.0, 2, 1)
        inst_sigma = np.eye(3) + 0.2 * np.diag([1.0, 2.0, 0.5])
        sigma_hat = plant.ab @ inst_sigma
        report = lemma1_check(inst_sigma, sigma_hat, np.zeros((2, 3)), P.P, q.Q,
                              beta=2.0, rho=0.0)
        assert report.hypotheses_hold
        assert abs(report.conclusion_margin) <= 1e-9

    def test_scalar_hand_instance(self):
        # Sigma = 1, Q = 2, beta^2 = 2, P = 1 solves the consistency identity
        # with SigmaHat = 1.1, SigmaTilde = 0.1; margin = 2 + (0.42 - 1) - 1.21.
        report = lemma1_check(np.eye(1), [[1.1]], [[0.1]], np.eye(1), [[2.0]],
                              beta=np.sqrt(2.0), rho=0.1)
        assert report.hypotheses_hold
        assert abs(report.conclusion_margin - 0.21) <= 1e-12

    def test_tilde_bound_violation_flagged(self):
        report = lemma1_check(np.eye(1), [[1.5]], [[0.5]], np.eye(1), [[2.0]],
                              beta=np.sqrt(2.0), rho=0.1)
        assert not report.hypotheses["tilde_bound"].holds
        assert not report.hypotheses_hold
        assert np.isfinite(report.conclusion_margin)   # still evaluated

    @pytest.mark.parametrize("rho", [-0.05, float("nan"), float("inf")])
    def test_bad_rho_rejected(self, rho):
        # tilde_bound squares rho, so a negative rho would pass the hypotheses
        # and report a negative conclusion margin.
        with pytest.raises(DomainError):
            lemma1_check(np.eye(1), [[1.1]], [[0.1]], np.eye(1), [[2.0]],
                         beta=np.sqrt(2.0), rho=rho)

    def test_randomized_never_falsified(self):
        rng = np.random.default_rng(91)
        for i in range(200):
            beta = [1.2, 2.0, 5.0][i % 3]
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            inst = sample_lemma1_instance(rng, beta, n, m)
            report = lemma1_check(inst.sigma, inst.sigma_hat, inst.sigma_tilde,
                                  inst.P, inst.Q, beta, inst.rho)
            assert report.hypotheses_hold
            assert report.conclusion_margin >= -1e-8


    def test_overflow_reports_undefined_margins_without_warnings(self):
        # Sigma = 1e200 I squares past the double range: the hypotheses and the
        # conclusion that read Sigma^2 cannot be evaluated, the Q bounds can.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = lemma1_check(1e200 * np.eye(2), 1e200 * np.ones((1, 2)), np.zeros((1, 2)),
                                  np.eye(1), np.eye(2), 2.0, 0.1)
        undefined = certificates.UNDEFINED_MARGIN
        assert {k: h.margin for k, h in report.hypotheses.items()} == {
            "consistency": undefined, "tilde_bound": undefined, "q_lower": 0.0, "q_upper": 3.0}
        assert not report.hypotheses_hold
        assert report.conclusion_margin == undefined


class TestLyapunovDecay:
    def test_optimal_gain_tight(self):
        plant = PlantModel([[1.0]], [[1.0]])
        P = solve_dare(plant, tol=1e-13)
        K = gain_from_q(q_from_p(plant, P))
        report = lyapunov_decay_check(plant, P, K)
        assert abs(report.conclusion_margin) <= 1e-9

    def test_uncontrolled_stable_plant_tight(self):
        plant = PlantModel([[0.5]], [[0.0]])
        P = solve_dare(plant, tol=1e-13)
        report = lyapunov_decay_check(plant, P, Gain([[0.0]]))
        assert abs(report.conclusion_margin) <= 1e-9

    def test_destabilizing_gain_negative(self):
        plant = PlantModel([[0.5]], [[1.0]])
        P = solve_dare(plant)
        report = lyapunov_decay_check(plant, P, Gain([[1.0]]))   # |a+bk| = 1.5
        assert report.conclusion_margin < 0.0
        assert report.details["closed_loop_radius"] > 1.0

    @pytest.mark.parametrize("k, radius", [(1e150, 1e160), (1e300, np.inf)],
                             ids=["decay_overflows", "closed_loop_overflows"])
    def test_overflow_reports_an_undefined_margin_without_warnings(self, k, radius):
        plant = PlantModel([[0.5]], [[1e10]])
        P = solve_dare(plant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = lyapunov_decay_check(plant, P, Gain([[k]]))
        assert report.conclusion_margin == certificates.UNDEFINED_MARGIN
        assert report.details["closed_loop_radius"] == radius


class TestInvariantAtTheBoundaries:
    """No report whose hypotheses hold is falsified (conclusion below -PSD_SLACK)
    with beta just above 1, rho just below the contraction root, or cond(Sigma)
    near COND_LIMIT."""

    BETAS = (1.01, 1.05)
    SIZES = ((1, 1), (1, 2), (2, 1), (2, 2))

    def plants(self, rng):
        """(plant, P, q, beta, rho): 5 membership plants per beta and (n, m)."""
        for beta in self.BETAS:
            rho = (1.0 - 1e-6) * contraction_rho_root(beta)
            for n, m in self.SIZES:
                for _ in range(5):
                    yield (*sample_membership_plant(rng, beta, n, m), beta, rho)

    @staticmethod
    def assert_not_falsified(reports):
        falsified = [r for r in reports if r.hypotheses_hold and r.conclusion_margin < -PSD_SLACK]
        assert not falsified, falsified[0]

    def test_beta_and_rho_at_their_bounds(self):
        rng = np.random.default_rng(2024)
        reports = []
        for plant, P, q, beta, rho in self.plants(rng):
            inst = theorem1_instance_for_plant(rng, plant, P, beta, rho)
            reports.append(theorem1_margin(plant, P, inst.kt, beta, rho,
                                           sigma=inst.sigma, sigma_hat=inst.sigma_hat))
            lem = lemma1_instance_for_plant(rng, plant, P, q, beta, rho)
            reports.append(lemma1_check(lem.sigma, lem.sigma_hat, lem.sigma_tilde,
                                        lem.P, lem.Q, beta, rho))
            reports.append(lyapunov_decay_check(plant, P, gain_from_q(q)))
        # Sampled instances meet their hypotheses, so none of the checks is vacuous.
        assert len(reports) == 120 and all(r.hypotheses_hold for r in reports)
        self.assert_not_falsified(reports)

    def test_sigma_conditioned_near_the_limit(self):
        rng = np.random.default_rng(2025)
        reports = []
        for plant, P, _, beta, rho in self.plants(rng):
            n, d = plant.n, plant.n + plant.m
            # Sigma = U diag(1 .. 2 / COND_LIMIT) U': cond(Sigma) = COND_LIMIT / 2.
            U = np.linalg.qr(rng.standard_normal((d, d)))[0]
            sigma = sym((U * np.geomspace(1.0, 2.0 / COND_LIMIT, d)) @ U.T)
            delta = rng.standard_normal((n, d))
            delta *= rho / np.linalg.norm(delta, 2)
            est = PlantModel(plant.A + delta[:, :n], plant.B + delta[:, n:])
            kt = gain_from_q(q_from_p(est, solve_dare(est, tol=1e-12)))
            reports.append(theorem1_margin(plant, P, kt, beta, rho, sigma=sigma,
                                           sigma_hat=(plant.ab + delta) @ sigma))
        # Rounding at this conditioning may break data_consistency, but not all of it.
        assert any(r.hypotheses_hold for r in reports)
        self.assert_not_falsified(reports)


class TestAdmissibleRho:
    def test_beta_two_against_quadratic_oracle(self):
        # Positive root of 8 rho^2 + 16 rho - 0.2 = 0 via np.roots.
        roots = np.roots([8.0, 16.0, -0.2])
        oracle = float(max(roots))
        assert abs(admissible_rho(2.0) - oracle) <= 1e-12

    def test_substitution_brackets_the_boundary(self):
        for beta in [1.2, 2.0, 5.0, 10.0]:
            rho_star = admissible_rho(beta)
            inflate = lambda r: 1.0 / (1.0 - 2 * beta**2 * r * (r + 2))
            assert inflate(0.99 * rho_star) < 1.0 + beta**-2
            assert inflate(1.01 * rho_star) >= 1.0 + beta**-2

    def test_decreasing_in_beta(self):
        assert admissible_rho(100.0) < admissible_rho(10.0) < admissible_rho(2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            admissible_rho(1.0)


def unscreened_membership_plant(rng, beta, n, m):
    """sample_membership_plant as it would be without the screen: every
    candidate is solved cold and tested on the max eigenvalue of its Q."""
    for _ in range(certificates.MAX_SAMPLE_TRIES):
        plant = random_plant(rng, n, m, spectral_radius=rng.uniform(0.02, 0.9),
                             input_scale=rng.uniform(0.05, 1.0))
        try:
            P = solve_dare(plant)
        except NotStabilizable:
            continue
        q = q_from_p(plant, P)
        if np.linalg.eigvalsh(q.Q).max() <= beta**2:
            return plant, P, q
    raise NotConverged("budget exhausted")


class TestSampleMembershipPlant:
    def test_exhausted_budget_raises_typed_error(self, monkeypatch):
        # Q <= 1.001^2 I is all but empty for n = 3; the search gives up.  Every
        # candidate has 1 + |[A B]|^2 > 1.001^2, so the screen rejects all five
        # before a solve, and each counts as a try.
        calls = {"random_plant": 0, "solve_dare": 0}

        def counting(name):
            f = getattr(certificates, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            monkeypatch.setattr(certificates, name, wrapped)

        counting("random_plant")
        counting("solve_dare")
        monkeypatch.setattr(certificates, "MAX_SAMPLE_TRIES", 5)
        with pytest.raises(NotConverged, match="after 5 tries"):
            sample_membership_plant(np.random.default_rng(0), 1.001, 3, 1)
        assert calls == {"random_plant": 5, "solve_dare": 0}

    def test_unstabilizable_candidates_are_skipped(self, monkeypatch):
        # Every candidate passes the screen at beta = 5, and every solve fails;
        # each failure is a rejected try, not a raw NotStabilizable.
        calls = []

        def unstabilizable(plant, *args, **kwargs):
            calls.append(plant)
            raise NotStabilizable("patched")

        monkeypatch.setattr(certificates, "solve_dare", unstabilizable)
        monkeypatch.setattr(certificates, "MAX_SAMPLE_TRIES", 5)
        with pytest.raises(NotConverged, match="after 5 tries"):
            sample_membership_plant(np.random.default_rng(0), 5.0, 2, 1)
        assert len(calls) == 5

    @pytest.mark.parametrize("beta", [1.05, 1.2, 2.0, 5.0])
    def test_screen_keeps_every_sample_bit_for_bit(self, beta):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                screened, unscreened = np.random.default_rng(5), np.random.default_rng(5)
                for _ in range(3):
                    plant, P, q = sample_membership_plant(screened, beta, n, m)
                    ref_plant, ref_P, ref_q = unscreened_membership_plant(unscreened, beta, n, m)
                    for got, want in [(plant.A, ref_plant.A), (plant.B, ref_plant.B),
                                      (P.P, ref_P.P), (q.Q, ref_q.Q)]:
                        assert got.tobytes() == want.tobytes()
                assert screened.random() == unscreened.random()

    def test_screen_bound_is_below_the_max_eigenvalue_of_q(self):
        # P >= I gives lambda_max(Q) >= 1 + |[A B]|^2; equality at A = 0, where P = I.
        rng = np.random.default_rng(17)
        plants = [PlantModel(np.zeros((n, n)), rng.uniform(-1.0, 1.0, (n, m)))
                  for n in (1, 2, 3) for m in (1, 2, 3)]
        plants += [random_plant(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                spectral_radius=rng.uniform(0.02, 1.5),
                                input_scale=rng.uniform(0.05, 2.0)) for _ in range(300)]
        checked = 0
        for plant in plants:
            try:
                P = solve_dare(plant)
            except NotStabilizable:
                continue
            bound = 1.0 + certificates._spectral_norm(plant.ab)**2
            lam = np.linalg.eigvalsh(q_from_p(plant, P).Q).max()
            assert bound <= lam * (1.0 + 1e-12)
            if not plant.A.any():
                assert np.array_equal(P.P, np.eye(plant.n))
                assert bound == pytest.approx(lam, rel=1e-12)
            checked += 1
        assert checked >= 300


class TestReportSerialization:
    def test_margins_finite(self):
        cert = theorem1_margin(PlantModel([[2.0]], [[0.0]]),
                               solve_dare(PlantModel([[0.5]], [[1.0]])),
                               Gain([[0.0]]), 2.0, 0.0)
        assert np.isfinite(cert.conclusion_margin)
        assert all(np.isfinite(h.margin) for h in cert.hypotheses.values())
        assert not cert.hypotheses["membership"].holds

    @pytest.mark.parametrize("x", [s * v for v in (0.0, 5e-324, 1e300, 1e301, np.finfo(float).max,
                                                    np.inf) for s in (1.0, -1.0)])
    def test_margin_clamp_equals_clip(self, x):
        bound = certificates.UNDEFINED_MARGIN
        out, clipped = certificates._finite(x), float(np.clip(x, bound, -bound))
        assert type(out) is float and out == clipped and np.signbit(out) == np.signbit(clipped)


def scalar_instance():
    plant = PlantModel([[0.5]], [[1.0]])
    P = solve_dare(plant)
    return plant, P, gain_from_q(q_from_p(plant, P))


LEMMA1_ARGS = dict(sigma=np.eye(2), sigma_hat=[[1.0, 1.0]], sigma_tilde=[[0.0, 0.0]],
                   P=2.0 * np.eye(1), Q=2.0 * np.eye(2), beta=2.0, rho=0.01)


class TestMalformedInput:
    @pytest.mark.parametrize("call, name", [
        (lambda: admissible_rho(1e155), "beta"),
        (lambda: contraction_rho_root(1e155), "beta"),
        (lambda: alpha_of(1e155, 0.0, 1e160), "beta"),
        (lambda: alpha_of(2.0, 0.0, 1e160), "gamma"),
        (lambda: theorem1_margin(*scalar_instance(), beta=1e155, rho=0.01), "beta"),
        (lambda: theorem1_margin(*scalar_instance(), beta=2.0, rho=1e155), "rho"),
        (lambda: lemma1_check(**{**LEMMA1_ARGS, "beta": 1e155}), "beta"),
        (lambda: lemma1_check(**{**LEMMA1_ARGS, "rho": 1e155}), "rho"),
        (lambda: sample_membership_plant(np.random.default_rng(0), 1e155, 1, 1), "beta"),
    ], ids=["admissible_rho", "contraction_rho_root", "alpha_beta", "alpha_gamma",
            "theorem1_beta", "theorem1_rho", "lemma1_beta", "lemma1_rho", "sampler_beta"])
    def test_square_that_overflows_is_a_domain_error(self, call, name):
        with pytest.raises(DomainError, match=f"^{name} = "):
            call()

    def test_wrong_p_never_gives_a_falsified_report(self):
        # The conclusion is taken on the P whose membership was tested, not
        # on a P the solve did not confirm.
        rng = np.random.default_rng(3)
        falsified = 0
        for _ in range(200):
            plant, P, q = sample_membership_plant(rng, 2.0, 2, 1)
            for wrong in (2.0 * P.P, P.P + np.eye(2), np.eye(2)):
                report = theorem1_margin(plant, ValueMatrix(wrong), gain_from_q(q), 2.0, 0.02)
                falsified += report.hypotheses_hold and report.conclusion_margin < -1e-8
        assert falsified == 0

    def test_unsolvable_plant_solved_cold_once(self, monkeypatch):
        plant = PlantModel([[2.0]], [[0.0]])
        P = scalar_instance()[1]
        calls = count_cold_solves(monkeypatch, plant)
        report = theorem1_margin(plant, P, Gain([[0.0]]), 2.0, 0.0)
        assert not report.hypotheses["membership"].holds and len(calls) == 1

    def test_confirmed_p_is_the_one_evaluated(self):
        # A P the warm solve confirms is used as given, bit for bit; at
        # rho = 0 the margin is a difference of near-equal terms, so the
        # one-step iterate (a few ulps away) gives other bits.
        plant, P, q = sample_membership_plant(np.random.default_rng(1), 2.0, 3, 2)
        K = gain_from_q(q)
        beta, rho = 2.0, 0.0
        c = 2.0 * beta**2 * rho * (rho + 2.0)
        closed = plant.A + plant.B @ K.K
        M = P.P / (1.0 - c) - (np.eye(3) + K.K.T @ K.K + closed.T @ P.P @ closed)
        expected = float(np.linalg.eigvalsh((M + M.T) / 2.0).min())
        assert theorem1_margin(plant, P, K, beta, rho).conclusion_margin == expected

    @pytest.mark.parametrize("check", ["theorem1", "lyapunov"])
    def test_gain_of_wrong_shape_rejected(self, check):
        plant, P, _ = scalar_instance()
        with pytest.raises(ShapeMismatch):
            if check == "theorem1":
                theorem1_margin(plant, P, Gain([[1.0, 2.0]]), 2.0, 0.01)
            else:
                lyapunov_decay_check(plant, P, Gain([[1.0, 2.0]]))

    @pytest.mark.parametrize("sigma, sigma_hat, error", [
        (np.zeros((2, 2)), np.zeros((1, 2)), IllConditioned),
        (np.eye(3), np.zeros((1, 3)), ShapeMismatch),
        (np.eye(2), np.zeros((2, 2)), ShapeMismatch),
        (np.full((2, 2), np.nan), np.zeros((1, 2)), NonFiniteInput),
        # Exact data (sigma_hat = [A B] sigma) whose transpose would estimate rho_data 17.68.
        (np.array([[1.0, 5.0], [0.0, 1.0]]), np.array([[0.5, 3.5]]), ShapeMismatch),
    ], ids=["singular_sigma", "sigma_shape", "sigma_hat_shape", "nan_sigma", "asymmetric_sigma"])
    def test_theorem1_correlation_data_checked(self, sigma, sigma_hat, error):
        plant, P, K = scalar_instance()
        with pytest.raises(error):
            theorem1_margin(plant, P, K, 2.0, 0.01, sigma=sigma, sigma_hat=sigma_hat)

    @pytest.mark.parametrize("field, value, error", [
        ("sigma", np.eye(3), ShapeMismatch),
        ("sigma", np.full((2, 2), np.nan), NonFiniteInput),
        ("sigma_tilde", np.zeros((2, 2)), ShapeMismatch),
        ("P", np.eye(2), ShapeMismatch),
        ("Q", np.eye(3), ShapeMismatch),
        ("sigma_hat", [1.0, 1.0], ShapeMismatch),
    ], ids=["sigma_shape", "sigma_nan", "sigma_tilde_shape", "p_shape", "q_shape",
            "sigma_hat_vector"])
    def test_lemma1_matrices_checked(self, field, value, error):
        with pytest.raises(error):
            lemma1_check(**{**LEMMA1_ARGS, field: value})

    def test_corollary_log_dimensions_checked(self):
        log = simulate(quiet_scenario(PlantModel([[0.5]], [[1.0]]), horizon=20))
        other = PlantModel(0.5 * np.eye(2), [[1.0], [0.0]])
        with pytest.raises(ShapeMismatch):
            corollary_bound_check(log, other, t0=0, gamma=10.0, beta=2.0, rho=0.001)


def test_certificates_solvers_and_cli_make_no_svd(monkeypatch, tmp_path):
    # Every spectral norm and extreme eigenvalue in the package comes from
    # eigvalsh: certificates, instance generation, solve_from_upper and the
    # CLI's gain_error make no svd, cond or norm(., 2) call.
    counts = {"svd": 0, "cond": 0, "norm2": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    norm = np.linalg.norm

    def counting_norm(x, ord=None, *args, **kwargs):
        counts["norm2"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    rng = np.random.default_rng(8)
    for n, m in ((2, 1), (3, 2)):
        t1 = sample_theorem1_instance(rng, 2.0, n, m)
        theorem1_margin(t1.plant, t1.P, t1.kt, t1.beta, t1.rho,
                        sigma=t1.sigma, sigma_hat=t1.sigma_hat)
        l1 = sample_lemma1_instance(rng, 2.0, n, m)
        lemma1_check(l1.sigma, l1.sigma_hat, l1.sigma_tilde, l1.P, l1.Q, l1.beta, l1.rho)
        q = q_from_p(t1.plant, t1.P)
        lyapunov_decay_check(t1.plant, t1.P, gain_from_q(q))
        qbar = QMatrix(1.5 * q.Q, n, m)
        solve_from_upper(t1.plant, qbar, gain_from_q(qbar))
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps({
        "plant": {"A": [[0.9, 0.2], [0.0, 0.7]], "B": [[1.0, 0.0], [0.3, 0.5]]},
        "horizon": 30, "excitation": {"amplitude": 1.0}}))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["gain_error"] is not None
    assert counts == {"svd": 0, "cond": 0, "norm2": 0}
