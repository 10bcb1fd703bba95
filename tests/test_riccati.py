import warnings
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from adaptive_lqr import (
    CorrelationState,
    DisturbanceModel,
    DomainError,
    ExcitationSchedule,
    NonFiniteInput,
    Gain,
    NotStabilizable,
    PlantModel,
    QMatrix,
    HypothesisViolated,
    Scenario,
    ShapeMismatch,
    SingularQuu,
    ValueMatrix,
    check_membership,
    dare_error_estimate,
    dare_residual,
    estimate_model,
    gain_from_q,
    q_from_p,
    riccati_step,
    simulate,
    solve_dare,
    solve_from_upper,
    theorem1_margin,
)
from adaptive_lqr import _lapack, riccati
from adaptive_lqr.certificates import random_plant
from adaptive_lqr.riccati import CONFIRM_FRACTION, DEFAULT_TOL, _converged, sym
from conftest import (LINALG_WRAPPERS, count_calls, matrices, orthogonal,
                      random_stabilizable_plant, scalar_p, scipy_dare)
from hypothesis import given, settings, strategies as st

PHI = (1.0 + np.sqrt(5.0)) / 2.0


class TestPlantModel:
    def test_replace_restacks_ab(self):
        plant = PlantModel([[0.5, 0.1], [0.0, 0.7]], [[1.0], [0.3]])
        moved = replace(plant, A=[[0.2, 0.0], [0.4, 0.9]])
        assert np.array_equal(plant.ab, [[0.5, 0.1, 1.0], [0.0, 0.7, 0.3]])
        assert np.array_equal(moved.ab, [[0.2, 0.0, 1.0], [0.4, 0.9, 0.3]])

    def test_estimate_holds_its_stack(self):
        rng = np.random.default_rng(3)
        sigma = np.eye(5) + 0.1 * np.ones((5, 5))
        est = estimate_model(CorrelationState(sigma=sigma, sigma_hat=rng.standard_normal((3, 5)),
                                              lam=0.9, t=1))
        assert np.array_equal(est.ab, np.hstack([est.A, est.B]))


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

    def test_overflow_in_the_cold_iterates_is_no_warning(self):
        # Tier-1 turns RuntimeWarning into an error. A'H W A overflows on the
        # first step and is reported as divergence; B B' overflows to inf,
        # yet the fixed point of a stable A with so large an input is I.
        with pytest.raises(NotStabilizable, match="exceeds cap"):
            solve_dare(PlantModel([[1.3e154, 0.1], [0.0, 0.4]], [[1.0], [0.2]]))
        assert np.array_equal(solve_dare(PlantModel([[0.5]], [[1.35e154]])).P, [[1.0]])

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_tol_not_positive_rejected(self, tol):
        # A NaN tol would otherwise never stop and spend the whole budget.
        with pytest.raises(DomainError):
            solve_dare(PlantModel([[0.5]], [[1.0]]), tol=tol)

    def test_max_iter_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(riccati, "DOUBLING_STEPS", 2)
        with pytest.raises(NotStabilizable, match="within 2 doubling steps"):
            solve_dare(PlantModel([[0.9]], [[1.0]]), tol=1e-10)

    def test_residual_definition(self):
        plant = PlantModel([[0.8, 0.1], [0.0, 0.6]], [[1.0], [0.5]])
        P = solve_dare(plant, tol=1e-12)
        assert dare_residual(plant, P) <= 1e-12

    def test_warm_start_at_a_non_stabilizing_fixed_point_rejected(self):
        # p0 at the negative root of p^2 - p/4 - 1 = 0 (a = 0.5, b = 1) is a
        # fixed point, so its step passes the test but fails Pn >= I: the
        # p0 is rejected and the result is the cold solve.
        plant = PlantModel([[0.5]], [[1.0]])
        p_neg = (0.25 - np.sqrt(0.25**2 + 4.0)) / 2.0
        assert np.array_equal(solve_dare(plant, p0=[[p_neg]]).P, solve_dare(plant).P)

    def test_max_iter_counts_doubling_steps_when_cold(self, monkeypatch):
        # Closed-loop pole ~0.9: value iteration needs over a hundred steps,
        # the doubling cold path covers 2^k - 1 of them in k steps, one
        # linear solve each.
        plant = PlantModel([[0.99]], [[0.1]])
        solves = count_calls(monkeypatch, _lapack, ["solve_nan"])
        P = solve_dare(plant)
        monkeypatch.undo()
        assert 1 <= solves["solve_nan"] <= 10

        def value_iteration(budget):
            X = np.eye(1)
            for _ in range(budget):
                Xn = riccati_step(plant, X)[0]
                if _converged(X, Xn, DEFAULT_TOL):
                    return Xn
                X = Xn
            return None

        assert value_iteration(10) is None
        assert np.allclose(value_iteration(10_000), P.P, rtol=1e-8, atol=0.0)

    def test_stopping_rule_implies_spectral_step(self):
        # Every step the Frobenius/diagonal rule accepts is within tol in the
        # relative spectral norm as well.
        rng = np.random.default_rng(17)
        accepted = 0
        for _ in range(20):
            plant = random_stabilizable_plant(rng, 4, 2, max_radius=0.99)
            P = np.eye(4)
            for _ in range(60):
                Pn = riccati_step(plant, P)[0]
                if _converged(P, Pn, 1e-6):
                    accepted += 1
                    assert np.linalg.norm(Pn - P, 2) <= 1e-6 * np.linalg.norm(Pn, 2)
                P = Pn
        assert accepted > 0

    def test_warm_start_with_singular_input_block_rejected(self):
        # p0 = -1 with b = 1 makes 1 + b p b = 0: the step cannot be taken,
        # the p0 is rejected and the result is the cold solve.
        plant = PlantModel([[0.5]], [[1.0]])
        assert np.array_equal(solve_dare(plant, p0=[[-1.0]]).P, solve_dare(plant).P)

    def test_warm_step_that_overflows_falls_back_to_cold(self, cold_solves):
        # B = 1e160 makes I + B'PB inf at p0 = 1, and its gain -0: Newton from
        # there would settle at 4/3, the fixed point with no input.  The cold
        # solve gives 1, the true P to within 1e-300.
        plant = PlantModel([[0.5]], [[1e160]])
        assert np.array_equal(solve_dare(plant, p0=[[1.0]]).P, [[1.0]])
        assert len(cold_solves) == 1
        with pytest.raises(NotStabilizable, match="overflows"):
            riccati_step(plant, np.eye(1))

    def test_confirmed_p0_returns_its_step(self):
        # At the solution the one step passes the test and is the result.
        rng = np.random.default_rng(4)
        for _ in range(20):
            plant = random_stabilizable_plant(rng, 3, 2)
            P = solve_dare(plant, tol=1e-12).P
            assert np.array_equal(solve_dare(plant, p0=P).P, riccati_step(plant, P)[0])

    def test_confirm_uses_a_tenth_of_tol(self, cold_solves):
        # A step between CONFIRM_FRACTION * tol and tol is not returned as is:
        # Newton refines it, without a cold solve.  A step below is returned.
        plant = PlantModel([[0.5, 0.2], [0.1, 0.3]], [[1.0], [0.3]])
        P = solve_dare(plant).P
        p0 = P + 1e-11 * np.abs(P).max() * np.eye(2)
        Pn = riccati_step(plant, sym(p0))[0]
        step = np.linalg.norm(Pn - sym(p0)) / np.abs(Pn.diagonal()).max()
        tol = 2.0 * step
        assert CONFIRM_FRACTION * tol < step <= tol
        P = solve_dare(plant, tol=tol, p0=p0).P
        assert not np.array_equal(P, Pn) and not cold_solves
        assert np.linalg.norm(P - solve_dare(plant, tol).P, 2) <= tol * np.linalg.norm(P, 2)
        assert np.array_equal(solve_dare(plant, tol=20.0 * step, p0=p0).P, Pn)
        assert not cold_solves

    def test_newton_refines_the_p0_of_a_moved_plant(self, cold_solves):
        # p0 solved for [A B] moved by 1e-4 fails the confirm; Newton
        # corrections bring it within tol of scipy, with no cold solve.
        rng = np.random.default_rng(10)
        for _ in range(20):
            n, m = (int(k) for k in rng.integers(1, 5, size=2))
            plant = random_stabilizable_plant(rng, n, m)
            move = rng.uniform(-1.0, 1.0, (n, n + m))
            move *= 1e-4 / np.abs(move).max()
            p0 = solve_dare(PlantModel(plant.A + move[:, :n], plant.B + move[:, n:])).P
            P = solve_dare(plant, p0=p0).P
            P_ref, _ = scipy_dare(plant)
            assert np.linalg.norm(P - P_ref, 2) <= DEFAULT_TOL * np.linalg.norm(P_ref, 2)
        assert not cold_solves

    def test_p0_with_a_destabilizing_gain_is_solved_cold_once(self, monkeypatch, cold_solves):
        # The gain of p0 = I leaves the closed loop unstable; Newton from it
        # heads for the non-stabilizing fixed point, which is not >= I, and
        # the result is the cold solve, without a RuntimeWarning.
        plant = PlantModel([[1.5, 0.3], [0.0, 1.2]], [[0.1], [0.05]])
        p0 = np.eye(2)
        K = riccati_step(plant, p0)[1]
        assert np.abs(np.linalg.eigvals(plant.A + plant.B @ K)).min() > 1.0
        steps = []
        step = riccati.riccati_step

        def counting(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(riccati, "riccati_step", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            P = solve_dare(plant, p0=p0).P
        assert len(steps) > 1 and len(cold_solves) == 1
        assert np.array_equal(P, solve_dare(plant).P)

    def test_one_linear_solve_per_step_and_per_newton_correction(self, monkeypatch, cold_solves):
        # riccati_step's one solve of I + B'PB also gives the gain of the
        # Newton correction: c corrections cost c + 1 steps and c Stein
        # solves, 2c + 1 linear solves, and the error estimate costs two.
        plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], [[1.0], [0.3]])
        p0s = [scipy_dare(PlantModel(plant.A + move, plant.B))[0]
               for move in (0.0, 1e-6, 1e-4, 1e-2)]
        kernels = count_calls(monkeypatch, _lapack, ["solve_nan"])
        steps = count_calls(monkeypatch, riccati, ["riccati_step"])
        corrections = []
        for p0 in p0s:
            kernels.update(solve_nan=0)
            steps.update(riccati_step=0)
            P = solve_dare(plant, p0=p0).P
            corrections.append(steps["riccati_step"] - 1)
            assert kernels["solve_nan"] == 2 * corrections[-1] + 1
        assert corrections == [0, 1, 2, 3] and not cold_solves
        kernels.update(solve_nan=0)
        dare_error_estimate(plant, P)
        assert kernels["solve_nan"] == 2

    def test_simulate_makes_at_most_three_cold_solves(self, monkeypatch, cold_solves):
        # Newton refines the held P of a 200-step adaptive run; only the
        # start-up transient solves cold.  Its kernels all run through _lapack.
        plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], [[1.0], [0.3]])
        wrappers = count_calls(monkeypatch, np.linalg, LINALG_WRAPPERS)
        log = simulate(Scenario(plant=plant, disturbance=DisturbanceModel.zero(),
                                x0=np.ones(2), horizon=200,
                                excitation=ExcitationSchedule.constant(1, 1.0, seed=5)))
        assert np.sum(~log.fallback) > 100
        assert len(cold_solves) <= 3
        assert wrappers == dict.fromkeys(LINALG_WRAPPERS, 0)

    def test_over_cap_step_falls_back_to_cold(self):
        plant = PlantModel([[0.5]], [[0.0]])
        assert np.array_equal(solve_dare(plant, p0=[[1e13]]).P, solve_dare(plant).P)
        with pytest.raises(NotStabilizable):
            solve_dare(PlantModel([[2.0]], [[0.0]]), p0=[[1e13]])

    def test_p0_checked(self):
        plant = PlantModel([[0.5]], [[1.0]])
        with pytest.raises(ShapeMismatch):
            solve_dare(plant, p0=np.eye(2))
        with pytest.raises(NonFiniteInput):
            solve_dare(plant, p0=[[np.nan]])

    def test_cold_solve_singular_to_working_precision_not_stabilizable(self):
        # B B' of entries 1e304 makes I + G H exactly singular in doubles.
        plant = PlantModel([[1e152, 0.0], [0.0, 1e152]], [[1e152], [1e152]])
        with pytest.raises(NotStabilizable, match="singular"):
            solve_dare(plant)

    def test_invariants_on_500_random_plants(self, monkeypatch):
        # Residual, P >= I, monotone value iteration from the identity, and
        # agreement with the independent scipy oracle.  A cold solve meets
        # its tol as an error against scipy, within 10 doubling steps.
        monkeypatch.setattr(riccati, "DOUBLING_STEPS", 10)
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            plant = random_stabilizable_plant(rng, n, m)
            P = np.eye(n)
            for _ in range(200_000):
                Pn = riccati_step(plant, P)[0]
                assert np.linalg.eigvalsh(Pn - P).min() >= -1e-10
                done = np.linalg.norm(Pn - P, 2) <= 1e-11 * np.linalg.norm(Pn, 2)
                P = Pn
                if done:
                    break
            assert dare_residual(plant, P) <= 1e-9
            assert np.linalg.eigvalsh(P).min() >= 1.0 - 1e-9
            P_ref, _ = scipy_dare(plant)
            assert np.linalg.norm(P - P_ref, 2) <= 1e-6 * np.linalg.norm(P_ref, 2)
            cold = solve_dare(plant).P
            assert np.linalg.norm(cold - P_ref, 2) <= 1e-10 * np.linalg.norm(P_ref, 2)
            assert np.linalg.norm(solve_dare(plant, tol=1e-11).P - P, 2) <= \
                1e-8 * np.linalg.norm(P, 2)


class TestFailuresInTheLoopsErrorState:
    # simulate runs these kernels inside _lapack.quiet(), where a failed LAPACK
    # call gives NaN instead of raising: each failure is still told apart as
    # it is outside, without a warning.
    BIG = PlantModel([[1e152, 0.0], [0.0, 1e152]], [[1e152], [1e152]])
    PLANT = PlantModel([[0.5]], [[1.0]])

    @pytest.mark.parametrize("quiet", [False, True], ids=["public", "quiet"])
    def test_singular_step_raises_numpys_error(self, quiet):
        with warnings.catch_warnings(), _lapack.quiet() if quiet else nullcontext():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                riccati_step((self.PLANT.A, self.PLANT.B), np.array([[-1.0]]))
            with pytest.raises(NotStabilizable, match="overflows"):
                riccati_step(PlantModel([[0.5]], [[1e160]]), np.eye(1))

    @pytest.mark.parametrize("quiet", [False, True], ids=["public", "quiet"])
    def test_cold_solve_singular_to_working_precision(self, quiet):
        with warnings.catch_warnings(), _lapack.quiet() if quiet else nullcontext():
            warnings.simplefilter("error")
            with pytest.raises(NotStabilizable, match="singular to working precision"):
                solve_dare(self.BIG)

    def test_held_solve_that_fails_leaves_the_cold_solve_to_the_caller(self):
        # p0 = -1 makes I + B'PB singular; with B = 0 the step from p0 = 1e13
        # passes the cap.  Neither gives a P.
        plant = self.PLANT
        with warnings.catch_warnings(), _lapack.quiet():
            warnings.simplefilter("error")
            for A, B, p0 in ((plant.A, plant.B, -1.0), (plant.A, np.zeros((1, 1)), 1e13)):
                assert riccati._solve_held((A, B), DEFAULT_TOL, np.array([[p0]])) is None
            P = riccati._solve_held((plant.A, plant.B), DEFAULT_TOL, solve_dare(plant).P)
        assert np.array_equal(P, solve_dare(plant, p0=solve_dare(plant).P).P)


class TestErrorEstimate:
    def test_bounds_the_error_of_value_iteration_from_below(self):
        # Value iteration from I stays below the solution and the Newton
        # step from a stabilizing gain overshoots it (Hewer 1971), so the
        # estimate bounds the error once the gain stabilizes.
        plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], [[1.0], [0.3]])
        P_ref, _ = scipy_dare(plant)
        P = np.eye(2)
        for _ in range(30):
            P = riccati_step(plant, P)[0]
            err = np.linalg.norm(P - P_ref, 2) / np.linalg.norm(P_ref, 2)
            assert err <= dare_error_estimate(plant, P) + 1e-14
        assert dare_error_estimate(plant, ValueMatrix(P)) == dare_error_estimate(plant, P)

    def test_inf_when_the_gain_does_not_stabilize(self):
        plant = PlantModel([[1.5, 0.3], [0.0, 1.2]], [[0.1], [0.05]])
        assert dare_error_estimate(plant, np.eye(2)) == np.inf
        assert dare_error_estimate(plant, solve_dare(plant)) < 1e-12

    def test_p_checked(self):
        plant = PlantModel([[0.5]], [[1.0]])
        with pytest.raises(ShapeMismatch):
            dare_error_estimate(plant, np.eye(2))
        with pytest.raises(NonFiniteInput):
            dare_error_estimate(plant, [[np.inf]])


class TestOrthogonalCoordinates:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 3), st.floats(0.05, 0.95))
    def test_solutions_rotate_with_the_plant(self, data, n, m, radius):
        # In the coordinates x -> U x, u -> V u of orthogonal U and V the plant
        # is (U A U', U B V'); its step, gain and solutions are the rotated ones.
        A = data.draw(matrices(n, n))
        A = A * (radius / max(np.abs(np.linalg.eigvals(A)).max(), radius))
        plant = PlantModel(A, data.draw(matrices(n, m)))
        U, V = data.draw(orthogonal(n)), data.draw(orthogonal(m))
        turned = PlantModel(U @ plant.A @ U.T, U @ plant.B @ V.T)

        def close(X, Y, rtol):
            return np.linalg.norm(X - Y, 2) <= rtol * max(1.0, np.linalg.norm(Y, 2))

        P = solve_dare(plant).P
        Pn, K = riccati_step(plant, P)
        Pn_turned, K_turned = riccati_step(turned, U @ P @ U.T)
        assert close(Pn_turned, U @ Pn @ U.T, 1e-10)
        assert close(K_turned, V @ K @ U.T, 1e-10)
        assert close(solve_dare(turned).P, U @ P @ U.T, 1e-8)
        p0 = sym(P + 1e-4 * np.linalg.norm(P, 2) * data.draw(matrices(n, n)))
        assert close(solve_dare(turned, p0=U @ p0 @ U.T).P, U @ P @ U.T, 1e-8)


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
        (lambda: ValueMatrix([[1.0 - 1e-6]]), DomainError),
        (lambda: ValueMatrix(np.diag([0.999, 2.0])), DomainError),
        (lambda: q_from_p(PlantModel(np.eye(2), [[1.0], [0.0]]), [[2.0, 0.5], [0.0, 2.0]]),
         ShapeMismatch),
    ], ids=["value_asymmetric", "value_below_identity", "q_below_identity",
            "value_just_below_identity", "value_one_eigenvalue_below_1",
            "q_from_raw_asymmetric_p"])
    def test_boundary_checks_kept(self, build, error):
        with pytest.raises(error):
            build()

    def test_every_q_the_package_builds_is_accepted(self):
        # Q - I = [A B]'P[A B] has rank n < n + m, so lambda_min(Q) is 1 exactly;
        # eigvalsh returns it only to about d eps lambda_max, below 1 at |B| ~ 1e4.
        rng = np.random.default_rng(1804)
        plants = [PlantModel([[0.5, 0.1], [0.0, 0.3]], [[1e4], [7e3]])]
        plants += [random_plant(rng, 2, 1, rng.uniform(0.1, 0.95), 10 ** rng.uniform(-2, 6))
                   for _ in range(200)]
        for plant in plants:
            P = solve_dare(plant)
            q = q_from_p(plant, P)
            assert np.array_equal(QMatrix(q.Q, plant.n, plant.m).Q, q.Q)
            assert np.array_equal(q_from_p(plant, P.P).Q, q.Q)

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

    def test_quu_whose_eigvalsh_fails_is_singular(self):
        # A NaN in Quu makes eigvalsh give NaN, which the guard rejects.
        q = object.__new__(QMatrix)
        object.__setattr__(q, "Q", np.diag([1.0, np.nan]))
        object.__setattr__(q, "n", 1)
        object.__setattr__(q, "m", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularQuu, match="nan"):
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

    def test_q_that_overflows_reports_non_member(self):
        # The solved P is 1, but Q holds B'PB = 1e320: lambda_max(Q) exceeds
        # every admissible beta^2.
        cert = check_membership(PlantModel([[0.5]], [[1e160]]), 2.0)
        assert not cert.member and cert.Q is None
        assert cert.max_eig_Q == np.inf and "overflows" in cert.reason

    @pytest.mark.parametrize("beta", [1.0, 1e155, float("nan")])
    def test_beta_out_of_range_rejected(self, beta):
        with pytest.raises(DomainError, match="beta"):
            check_membership(PlantModel([[0.5]], [[1.0]]), beta)

    def test_agrees_with_theorem1_membership(self):
        # The verdict reads only lambda_max(Q): P >= I already gives Q >= I, and
        # eigvalsh gives lambda_min(Q) = 1 only to about eps lambda_max.
        rng = np.random.default_rng(1805)
        for _ in range(100):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            plant = random_plant(rng, n, m, rng.uniform(0.1, 0.95), 10 ** rng.uniform(-2, 6))
            P = solve_dare(plant)
            q = q_from_p(plant, P)
            beta = max(1.01, np.sqrt(np.linalg.eigvalsh(q.Q)[-1]) * 10 ** rng.uniform(-0.5, 0.5))
            report = theorem1_margin(plant, P, gain_from_q(q), beta, 0.0)
            assert check_membership(plant, beta).member == report.hypotheses["membership"].holds

    def test_large_input_plant_is_a_member(self):
        cert = check_membership(PlantModel([[0.5, 0.1], [0.0, 0.3]], [[1e4], [7e3]]), 1e9)
        assert cert.member and cert.reason == ""

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

    def test_hypothesis_that_overflows_is_violated(self):
        # M' Qbar M overflows at Kbar = 1e200: a hypothesis that cannot be
        # evaluated does not hold.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HypothesisViolated):
                solve_from_upper(PlantModel([[0.5]], [[1.0]]), QMatrix(1e300 * np.eye(2), 1, 1),
                                 Gain([[1e200]]))

    @staticmethod
    def upper_bound_cases():
        """(plant, Q*, Qbar = c Q*) for 20 plants, c in [1.2, 3]."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            plant = random_stabilizable_plant(rng, n, m, max_radius=0.95)
            q = q_from_p(plant, solve_dare(plant, tol=1e-12))
            yield plant, q, QMatrix(rng.uniform(1.2, 3.0) * q.Q, n, m)

    def test_agrees_with_direct_solution(self):
        for plant, q, qbar in self.upper_bound_cases():
            out = solve_from_upper(plant, qbar, gain_from_q(qbar))
            assert np.linalg.norm(out.Q - q.Q, 2) <= 1e-12 * np.linalg.norm(q.Q, 2)
            # Fixed-point residual of the returned Q in its own equation.
            mv = out.qxx - out.qxu @ np.linalg.solve(out.quu, out.qux)
            resid = np.linalg.norm(out.Q - np.eye(out.n + out.m) - plant.ab.T @ mv @ plant.ab, 2)
            assert resid <= 1e-12 * np.linalg.norm(out.Q, 2)

    def test_takes_no_value_iteration_step(self, monkeypatch):
        # The fixed point below Qbar is solve_dare's cold solve, which runs
        # doubling and never calls riccati_step.
        steps = []
        step = riccati.riccati_step
        monkeypatch.setattr(riccati, "riccati_step", lambda *a: steps.append(a) or step(*a))
        for plant, _, qbar in self.upper_bound_cases():
            solve_from_upper(plant, qbar, gain_from_q(qbar))
        assert steps == []
