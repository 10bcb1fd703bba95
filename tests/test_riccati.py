import numpy as np
import pytest

from adaptive_lqr import (
    DomainError,
    Gain,
    NotStabilizable,
    PlantModel,
    QMatrix,
    HypothesisViolated,
    ShapeMismatch,
    SingularQuu,
    ValueMatrix,
    check_membership,
    dare_residual,
    gain_from_q,
    q_from_p,
    riccati_step,
    solve_dare,
    solve_from_upper,
)
from conftest import random_stabilizable_plant, scalar_p, scipy_dare

PHI = (1.0 + np.sqrt(5.0)) / 2.0


class TestSolveDare:
    def test_zero_a_gives_identity(self):
        # With A = 0 the optimal input is 0 and the cost is |x0|^2.
        P = solve_dare(PlantModel([[0.0]], [[1.0]]))
        assert abs(P.P[0, 0] - 1.0) < 1e-12

    def test_scalar_no_input(self):
        P = solve_dare(PlantModel([[0.5]], [[0.0]]))
        assert abs(P.P[0, 0] - scalar_p(0.5, 0.0)) < 1e-9

    def test_scalar_golden_ratio(self):
        P = solve_dare(PlantModel([[1.0]], [[1.0]]))
        assert abs(P.P[0, 0] - PHI) < 1e-9
        assert abs(P.P[0, 0] - scalar_p(1.0, 1.0)) < 1e-9

    def test_not_stabilizable_unstable_uncontrollable(self):
        with pytest.raises(NotStabilizable):
            solve_dare(PlantModel([[2.0]], [[0.0]]))

    def test_max_iter_exhaustion_raises(self):
        with pytest.raises(NotStabilizable):
            solve_dare(PlantModel([[0.9]], [[1.0]]), tol=1e-10, max_iter=2)

    def test_residual_definition(self):
        plant = PlantModel([[0.8, 0.1], [0.0, 0.6]], [[1.0], [0.5]])
        P = solve_dare(plant, tol=1e-12)
        assert dare_residual(plant, P) <= 1e-12

    def test_warm_start_at_a_non_stabilizing_fixed_point_rejected(self):
        # p0 at the negative root of p^2 - p/4 - 1 = 0 (a = 0.5, b = 1) is a
        # fixed point, so the iteration stops there at once with P < I.
        p_neg = (0.25 - np.sqrt(0.25**2 + 4.0)) / 2.0
        with pytest.raises(DomainError):
            solve_dare(PlantModel([[0.5]], [[1.0]]), p0=[[p_neg]])

    def test_invariants_on_500_random_plants(self):
        # Residual, P >= I, monotone value iteration from the identity, and
        # agreement with the independent scipy oracle.
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            plant = random_stabilizable_plant(rng, n, m)
            P = np.eye(n)
            for _ in range(200_000):
                Pn = riccati_step(plant, P)
                assert np.linalg.eigvalsh(Pn - P).min() >= -1e-10
                done = np.linalg.norm(Pn - P, 2) <= 1e-11 * np.linalg.norm(Pn, 2)
                P = Pn
                if done:
                    break
            assert dare_residual(plant, P) <= 1e-9
            assert np.linalg.eigvalsh(P).min() >= 1.0 - 1e-9
            P_ref, _ = scipy_dare(plant)
            assert np.linalg.norm(P - P_ref, 2) <= 1e-6 * np.linalg.norm(P_ref, 2)
            assert np.linalg.norm(solve_dare(plant, tol=1e-11).P - P, 2) <= \
                1e-8 * np.linalg.norm(P, 2)


class TestQFromP:
    def test_zero_plant_identity(self):
        plant = PlantModel([[0.0]], [[0.0]])
        q = q_from_p(plant, solve_dare(plant))
        assert np.allclose(q.Q, np.eye(2), atol=1e-12)

    def test_golden_ratio_blocks(self):
        plant = PlantModel([[1.0]], [[1.0]])
        q = q_from_p(plant, solve_dare(plant, tol=1e-13))
        expected = np.eye(2) + PHI * np.array([[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(q.Q, expected, atol=1e-9)
        assert abs(q.Q[0, 0] - 2.6180) < 1e-4

    def test_no_input_blocks(self):
        p = scalar_p(0.5, 0.0)
        q = q_from_p(PlantModel([[0.5]], [[0.0]]), np.array([[p]]))
        assert np.allclose(q.Q, np.array([[1.0 + 0.25 * p, 0.0], [0.0, 1.0]]), atol=1e-12)
        assert abs(q.Q[0, 0] - 4.0 / 3.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            q_from_p(PlantModel([[0.5]], [[1.0]]), np.eye(2))

    @pytest.mark.parametrize("build, error", [
        (lambda: ValueMatrix([[2.0, 0.1], [0.0, 2.0]]), ShapeMismatch),
        (lambda: ValueMatrix(0.5 * np.eye(2)), DomainError),
        (lambda: QMatrix(0.5 * np.eye(3), n=2, m=1), DomainError),
        (lambda: q_from_p(PlantModel(np.eye(2), [[1.0], [0.0]]), [[2.0, 0.5], [0.0, 2.0]]),
         ShapeMismatch),
    ], ids=["value_asymmetric", "value_below_identity", "q_below_identity",
            "q_from_raw_asymmetric_p"])
    def test_boundary_checks_kept(self, build, error):
        with pytest.raises(error):
            build()

    def test_block_layout_exact_transpose(self):
        rng = np.random.default_rng(3)
        plant = random_stabilizable_plant(rng, 3, 2)
        q = q_from_p(plant, solve_dare(plant))
        assert np.array_equal(q.qux, q.qxu.T)
        assert q.qxx.shape == (3, 3) and q.quu.shape == (2, 2)


class TestGainFromQ:
    def test_identity_gives_zero(self):
        q = QMatrix(np.eye(3), n=2, m=1)
        assert np.array_equal(gain_from_q(q).K, np.zeros((1, 2)))

    def test_golden_ratio_gain(self):
        plant = PlantModel([[1.0]], [[1.0]])
        q = q_from_p(plant, solve_dare(plant, tol=1e-13))
        assert abs(gain_from_q(q).K[0, 0] - (-1.0 / PHI)) < 1e-9

    def test_zero_cross_term_gives_zero(self):
        q = QMatrix(np.diag([2.0, 3.0, 1.5]), n=1, m=2)
        assert np.array_equal(gain_from_q(q).K, np.zeros((2, 1)))

    def test_minimizer_within_tolerance(self):
        rng = np.random.default_rng(11)
        plant = random_stabilizable_plant(rng, 3, 2)
        q = q_from_p(plant, solve_dare(plant, tol=1e-12))
        K = gain_from_q(q).K
        IK = np.vstack([np.eye(3), K])
        direct = IK.T @ q.Q @ IK
        schur = q.qxx - q.qxu @ np.linalg.solve(q.quu, q.qux)
        assert np.linalg.norm(direct - schur, 2) <= 1e-10 * np.linalg.norm(schur, 2)

    def test_singular_quu_guard(self):
        # Unreachable through validated construction; exercise the guard on a
        # corrupted instance built without validation.
        q = object.__new__(QMatrix)
        object.__setattr__(q, "Q", np.diag([1.0, 1e-14]))
        object.__setattr__(q, "n", 1)
        object.__setattr__(q, "m", 1)
        with pytest.raises(SingularQuu):
            gain_from_q(q)

    def test_perturbed_gains_never_beat_minimizer(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            plant = random_stabilizable_plant(rng, n, m)
            q = q_from_p(plant, solve_dare(plant, tol=1e-12))
            K = gain_from_q(q).K
            IK = np.vstack([np.eye(n), K])
            base = IK.T @ q.Q @ IK
            for _ in range(100):
                D = rng.standard_normal((m, n))
                D *= 1e-3 / np.linalg.norm(D, 2)
                IKp = np.vstack([np.eye(n), K + D])
                diff = IKp.T @ q.Q @ IKp - base
                assert np.linalg.eigvalsh((diff + diff.T) / 2).min() >= -1e-8


class TestCheckMembership:
    def test_zero_plant_member(self):
        cert = check_membership(PlantModel([[0.0]], [[0.0]]), 1.01)
        assert cert.member
        assert abs(cert.max_eig_Q - 1.0) < 1e-12

    def test_no_input_exceeds_beta(self):
        cert = check_membership(PlantModel([[0.9]], [[0.0]]), 2.0)
        assert not cert.member
        assert abs(cert.max_eig_Q - 1.0 / (1.0 - 0.81)) < 1e-7
        assert cert.max_eig_Q > 4.0

    def test_scalar_member_eigenvalue(self):
        cert = check_membership(PlantModel([[0.5]], [[1.0]]), 2.0)
        p = scalar_p(0.5, 1.0)
        assert cert.member
        assert abs(cert.max_eig_Q - (1.0 + 1.25 * p)) < 1e-8
        assert abs(cert.max_eig_Q - 2.4160) < 1e-4

    def test_unsolvable_reports_non_member(self):
        cert = check_membership(PlantModel([[2.0]], [[0.0]]), 2.0)
        assert not cert.member
        assert cert.Q is None
        assert cert.reason != ""

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(55)
        betas = [1.05, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0]
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            A = rng.uniform(-1.0, 1.0, (n, n))
            r = np.max(np.abs(np.linalg.eigvals(A)))
            if r > 1e-9:
                A *= rng.uniform(0.05, 1.2) / r
            plant = PlantModel(A, rng.uniform(-1.0, 1.0, (n, m)))
            members = [check_membership(plant, b).member for b in betas]
            for lo, hi in zip(members, members[1:]):
                assert hi or not lo


class TestSolveFromUpper:
    def test_fixed_point_returned(self):
        plant = PlantModel([[0.5]], [[1.0]])
        q = q_from_p(plant, solve_dare(plant, tol=1e-12))
        out = solve_from_upper(plant, q, gain_from_q(q))
        assert np.linalg.norm(out.Q - q.Q, 2) <= 1e-7 * np.linalg.norm(q.Q, 2)

    def test_scaled_upper_bound_recovers_solution(self):
        plant = PlantModel([[0.5]], [[1.0]])
        q = q_from_p(plant, solve_dare(plant, tol=1e-12))
        qbar = QMatrix(2.0 * q.Q, q.n, q.m)
        out = solve_from_upper(plant, qbar, gain_from_q(qbar))
        assert np.linalg.norm(out.Q - q.Q, 2) <= 1e-7 * np.linalg.norm(q.Q, 2)

    def test_zero_a_closed_form(self):
        plant = PlantModel([[0.0]], [[0.5, 0.25]])
        ab = plant.ab
        expected = np.eye(3) + ab.T @ ab   # P = I when A = 0
        qbar = QMatrix(3.0 * np.eye(3), n=1, m=2)
        out = solve_from_upper(plant, qbar, Gain(np.zeros((2, 1))))
        assert np.allclose(out.Q, expected, atol=1e-9)

    def test_hypothesis_violated(self):
        plant = PlantModel([[0.0]], [[1.0, 0.5]])
        qbar = QMatrix(3.0 * np.eye(3), n=1, m=2)
        with pytest.raises(HypothesisViolated):
            solve_from_upper(plant, qbar, Gain(np.zeros((2, 1))))

    def test_agrees_with_direct_solution(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            plant = random_stabilizable_plant(rng, n, m, max_radius=0.95)
            q = q_from_p(plant, solve_dare(plant, tol=1e-12))
            c = rng.uniform(1.2, 3.0)
            qbar = QMatrix(c * q.Q, n, m)
            out = solve_from_upper(plant, qbar, gain_from_q(qbar))
            assert np.linalg.norm(out.Q - q.Q, 2) <= 1e-7 * np.linalg.norm(q.Q, 2)
            # Fixed-point residual of the returned Q in its own equation.
            mv = out.min_value()
            resid = np.linalg.norm(out.Q - np.eye(n + m) - plant.ab.T @ mv @ plant.ab, 2)
            assert resid <= 1e-8 * np.linalg.norm(out.Q, 2)
