import warnings

import numpy as np
import pytest

from adaptive_lqr import (
    CorrelationState,
    DomainError,
    EstimateNotStabilizable,
    ExcitationSchedule,
    IllConditioned,
    NonFiniteInput,
    PlantModel,
    ShapeMismatch,
    batch_correlations,
    controller_observe,
    controller_step,
    data_riccati_residual,
    disturbance_correlation,
    estimate_model,
    gain_from_q,
    initial_controller,
    initial_correlation,
    q_from_p,
    rho_of,
    solve_dare,
    solve_data_riccati,
    update_correlations,
)
from adaptive_lqr import _lapack
from adaptive_lqr.estimation import _cond, _fold
from dataclasses import replace
from adaptive_lqr.riccati import _spectral_norm, _sym_norm, sym
from conftest import matrices, orthogonal, random_history, random_stabilizable_plant, scalar_k, scalar_p
from hypothesis import assume, given, settings, strategies as st


def make_state(sigma, sigma_hat, lam=0.99, t=1):
    return CorrelationState(sigma=np.asarray(sigma, dtype=float),
                            sigma_hat=np.asarray(sigma_hat, dtype=float), lam=lam, t=t)


class TestUpdateCorrelations:
    def test_single_point_no_forgetting(self):
        state = initial_correlation(1, 1, lam=1.0, sigma0=np.eye(2))
        out = update_correlations(state, [1.0], [0.0], [0.3])
        assert np.allclose(out.sigma, [[2.0, 0.0], [0.0, 1.0]], atol=1e-15)
        assert out.t == 1

    def test_single_step_hand_computation(self):
        state = initial_correlation(1, 1, lam=0.5, sigma0=np.eye(2))
        out = update_correlations(state, [1.0], [0.0], [0.5])
        assert np.allclose(out.sigma, [[1.5, 0.0], [0.0, 0.5]], atol=1e-15)
        assert np.allclose(out.sigma_hat, [[0.5, 0.0]], atol=1e-15)

    def test_zero_data_point_only_decays(self):
        state = make_state([[2.0, 0.1], [0.1, 1.0]], [[0.4, 0.2]], lam=0.7)
        out = update_correlations(state, [0.0], [0.0], [0.0])
        assert np.allclose(out.sigma, 0.7 * state.sigma, atol=1e-15)
        assert np.allclose(out.sigma_hat, 0.7 * state.sigma_hat, atol=1e-15)

    def test_non_finite_rejected(self):
        state = initial_correlation(1, 1)
        with pytest.raises(NonFiniteInput):
            update_correlations(state, [np.nan], [0.0], [0.0])

    def test_overflowing_data_point_rejected(self):
        # Rejected with no RuntimeWarning, which Tier-1 turns into an error.
        state = initial_correlation(1, 1)
        with pytest.raises(NonFiniteInput):
            update_correlations(state, [1e200], [0.0], [0.0])

    @pytest.mark.parametrize("sigma, lam, error", [
        ([[2.0, 0.1], [0.0, 1.0]], 0.99, ShapeMismatch),
        ([[2.0, 0.1], [0.1, 1.0]], 0.0, DomainError),
        ([[2.0, 0.1], [0.1, 1.0]], 1.5, DomainError),
    ], ids=["asymmetric_sigma", "lambda_zero", "lambda_above_one"])
    def test_constructor_checks_kept(self, sigma, lam, error):
        with pytest.raises(error):
            make_state(sigma, [[0.4, 0.2]], lam=lam)

    def test_initial_conditions(self):
        sigma0 = np.diag([1.0, 2.0, 3.0])
        state = initial_correlation(2, 1, lam=0.9, sigma0=sigma0)
        assert np.array_equal(state.sigma, sigma0)
        assert np.array_equal(initial_correlation(2, 1).sigma, 1e-3 * np.eye(3))
        assert np.array_equal(state.sigma_hat, np.zeros((2, 3)))
        assert state.t == 0


class TestBatchCorrelations:
    def test_empty_history(self):
        out = batch_correlations([], 0.9, np.eye(3), n=2)
        assert np.array_equal(out.sigma, np.eye(3))
        assert np.array_equal(out.sigma_hat, np.zeros((2, 3)))
        assert out.t == 0

    def test_single_step_matches_update(self):
        state = initial_correlation(1, 1, lam=0.5, sigma0=np.eye(2))
        rec = update_correlations(state, [1.0], [0.0], [0.5])
        bat = batch_correlations([([1.0], [0.0], [0.5])], 0.5, np.eye(2))
        assert np.array_equal(rec.sigma, bat.sigma)
        assert np.array_equal(rec.sigma_hat, bat.sigma_hat)

    def test_two_step_hand_values(self):
        # Noiseless run of x+ = 0.5 x + u from x0 = 1: (1, 0) -> 0.5, (0.5, 1) -> 1.25.
        history = [([1.0], [0.0], [0.5]), ([0.5], [1.0], [1.25])]
        out = batch_correlations(history, 1.0, 1e-6 * np.eye(2))
        expected_sigma = np.array([[1.25, 0.5], [0.5, 1.0]]) + 1e-6 * np.eye(2)
        assert np.allclose(out.sigma, expected_sigma, atol=1e-12)
        assert np.allclose(out.sigma_hat, [[1.125, 1.25]], atol=1e-12)

    def test_fold_is_the_two_textbook_recursions_bit_for_bit(self):
        # _fold adds the broadcast product y[:, None] * y[:n+m] for y = [z; x_next],
        # whose products are those of np.outer: the same bits as each recursion.
        rng = np.random.default_rng(2828)
        for _ in range(500):
            n, m = (int(k) for k in rng.integers(1, 7, 2))
            d = n + m
            scale = 10.0 ** rng.integers(-3, 4, 3)
            sigma = scale[0] * rng.standard_normal((d, d))
            sigma_hat = scale[0] * rng.standard_normal((n, d))
            x, x_next = scale[1] * rng.standard_normal((2, n))
            u = scale[2] * rng.standard_normal(m)
            lam = rng.uniform(0.5, 1.0)
            z = np.concatenate([x, u])
            S = _fold(np.concatenate([sigma, sigma_hat]), lam, x, u, x_next)
            assert np.array_equal(S[:d], lam * sigma + np.outer(z, z))
            assert np.array_equal(S[d:], lam * sigma_hat + np.outer(x_next, z))

    def test_fold_equivalence_200_histories(self):
        rng = np.random.default_rng(101)
        lams = [0.5, 0.9, 0.99, 1.0]
        for i in range(200):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            lam = lams[i % 4]
            length = int(rng.integers(1, 51))
            sigma0 = np.eye(n + m) * rng.uniform(1e-3, 1.0)
            history = random_history(rng, n, m, length)
            folded = initial_correlation(n, m, lam=lam, sigma0=sigma0)
            for x, u, xn in history:
                folded = update_correlations(folded, x, u, xn)
            batch = batch_correlations(history, lam, sigma0)
            assert np.array_equal(folded.sigma, batch.sigma)
            assert np.array_equal(folded.sigma_hat, batch.sigma_hat)
            # Positive definiteness along the history endpoint.
            assert np.linalg.eigvalsh(batch.sigma).min() >= \
                lam**length * np.linalg.eigvalsh(sigma0).min() - 1e-12

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 3), st.floats(0.1, 1.0))
    def test_batch_equals_the_fold_of_updates(self, data, n, m, lam):
        def vec(k):
            return st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k)

        history = data.draw(st.lists(st.tuples(vec(n), vec(m), vec(n)), max_size=30))
        sigma0 = np.diag(data.draw(vec(n + m).map(lambda v: 1e-3 + np.abs(v))))
        folded = initial_correlation(n, m, lam=lam, sigma0=sigma0)
        for x, u, x_next in history:
            folded = update_correlations(folded, x, u, x_next)
        batch = batch_correlations(history, lam, sigma0, n=n)
        assert batch.t == folded.t == len(history)
        assert np.array_equal(batch.sigma, folded.sigma)
        assert np.array_equal(batch.sigma_hat, folded.sigma_hat)
        assert np.array_equal(batch.sigma, batch.sigma.T)


class TestEstimateModel:
    def test_zero_sigma_hat(self):
        est = estimate_model(initial_correlation(2, 1))
        assert np.array_equal(est.A, np.zeros((2, 2)))
        assert np.array_equal(est.B, np.zeros((2, 1)))

    def test_two_step_recovery(self):
        history = [([1.0], [0.0], [0.5]), ([0.5], [1.0], [1.25])]
        out = batch_correlations(history, 1.0, 1e-6 * np.eye(2))
        est = estimate_model(out)
        assert abs(est.A[0, 0] - 0.5) < 1e-5
        assert abs(est.B[0, 0] - 1.0) < 1e-5

    def test_consistent_system_exact_recovery(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            ab = rng.standard_normal((n, n + m))
            G = rng.standard_normal((n + m, n + m))
            sigma = G @ G.T + 0.5 * np.eye(n + m)
            state = make_state(sigma, ab @ sigma)
            est = estimate_model(state)
            got = np.hstack([est.A, est.B])
            assert np.linalg.norm(got - ab, 2) <= 1e-10
            # Solve residual of the defining linear system.
            resid = np.linalg.norm(got @ sigma - state.sigma_hat, 2)
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(state.sigma_hat, 2))

    def test_ill_conditioned(self):
        state = make_state(np.diag([1.0, 1e-16]), np.zeros((1, 2)))
        with pytest.raises(IllConditioned):
            estimate_model(state)

    @pytest.mark.parametrize("sigma, sigma_hat", [
        # Subnormal Sigma of moderate cond: the solve returns nan and inf.
        (1e-315 * np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]),
         1e-315 * np.array([[1.0, 0.5, 0.2], [0.0, 1.0, 0.0]])),
        # Normal, perfectly conditioned Sigma whose solve overflows.
        (1e-300 * np.eye(3), np.array([[1e10, 0.0, 0.0], [0.0, 1e10, 0.0]])),
    ])
    def test_non_finite_estimate_rejected_and_the_controller_falls_back(self, sigma, sigma_hat):
        state = make_state(sigma, sigma_hat)
        with pytest.raises(IllConditioned):
            estimate_model(state)
        ctrl = replace(initial_controller(2, 1), corr=state)
        _, _, diag = controller_step(ctrl, [1.0, 1.0])
        assert diag.fallback and diag.estimate is None


class TestSolveDataRiccati:
    def test_no_data_identity(self):
        q, k, _ = solve_data_riccati(estimate_model(initial_correlation(1, 1)))
        assert np.allclose(q.Q, np.eye(2), atol=1e-12)
        assert np.array_equal(k.K, np.zeros((1, 1)))

    def test_two_step_scalar_values(self):
        history = [([1.0], [0.0], [0.5]), ([0.5], [1.0], [1.25])]
        state = batch_correlations(history, 1.0, 1e-6 * np.eye(2))
        q, k, _ = solve_data_riccati(estimate_model(state))
        p = scalar_p(0.5, 1.0)
        expected_q = np.eye(2) + p * np.outer([0.5, 1.0], [0.5, 1.0])
        assert np.allclose(q.Q, expected_q, atol=1e-4)
        assert abs(k.K[0, 0] - scalar_k(0.5, 1.0, p)) < 1e-4
        assert abs(k.K[0, 0] - (-0.2656)) < 1e-3

    def test_consistent_correlations_match_true_plant(self):
        plant = PlantModel([[1.0]], [[1.0]])
        rng = np.random.default_rng(12)
        G = rng.standard_normal((2, 2))
        sigma = G @ G.T + 0.3 * np.eye(2)
        state = make_state(sigma, plant.ab @ sigma)
        q, k, P = solve_data_riccati(estimate_model(state))
        assert np.array_equal(q.Q, q_from_p(estimate_model(state), P).Q)
        q_true = q_from_p(plant, solve_dare(plant, tol=1e-12))
        assert np.allclose(q.Q, q_true.Q, atol=1e-9)
        assert abs(k.K[0, 0] - (-0.6180)) < 1e-4

    def test_unstabilizable_estimate(self):
        sigma = np.eye(2)
        state = make_state(sigma, np.array([[2.0, 0.0]]) @ sigma)
        with pytest.raises(EstimateNotStabilizable):
            solve_data_riccati(estimate_model(state))

    def test_re_solve_is_the_controllers_cold_solve(self):
        # One tolerance: solve_data_riccati of a step's estimate returns that
        # step's gain and held P bit for bit whenever the step solved cold.
        plant = PlantModel([[0.9, 0.2], [0.0, 1.1]], [[1.0], [0.5]])
        ctrl = initial_controller(2, 1, excitation=ExcitationSchedule.constant(1, 2.0, seed=4))
        x, cold = np.ones(2), 0
        for _ in range(60):
            ctrl = replace(ctrl, warm_p=None)   # no held P: every step solves cold
            u, ctrl, diag = controller_step(ctrl, x)
            if not diag.fallback:
                _, gain, P = solve_data_riccati(diag.estimate)
                assert np.array_equal(gain.K, diag.gain) and np.array_equal(P.P, ctrl.warm_p)
                cold += 1
            x_next = plant.A @ x + plant.B @ u
            ctrl, x = controller_observe(ctrl, x, u, x_next), x_next
        assert cold >= 50
        with pytest.raises(TypeError):
            solve_data_riccati(diag.estimate, tol=1e-10)

    def test_residual_small_on_random_states(self):
        rng = np.random.default_rng(2)
        count = 0
        while count < 100:
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            plant = random_stabilizable_plant(rng, n, m)
            G = rng.standard_normal((n + m, n + m))
            sigma = G @ G.T + rng.uniform(0.1, 1.0) * np.eye(n + m)
            state = make_state(sigma, plant.ab @ sigma + 0.05 * rng.standard_normal((n, n + m)))
            try:
                q, k, _ = solve_data_riccati(estimate_model(state))
            except EstimateNotStabilizable:
                continue
            assert data_riccati_residual(state, q, k) <= 1e-8
            count += 1

    def test_residual_does_not_depend_on_the_scale(self):
        # A Q that does not solve the equation keeps the residual of order one.
        # At c = 2^600 |Sigma Q Sigma| would overflow, at 2^-600 underflow; all
        # three are evaluated on the same matrices, scaled exactly by powers of two.
        rng = np.random.default_rng(5)
        plant = random_stabilizable_plant(rng, 2, 1)
        G = rng.standard_normal((3, 3))
        sigma = G @ G.T + 0.5 * np.eye(3)
        q = q_from_p(plant, 3.0 * np.eye(2))
        k = gain_from_q(q)
        base = data_riccati_residual(make_state(sigma, plant.ab @ sigma), q, k)
        scaled = [data_riccati_residual(make_state(c * sigma, c * plant.ab @ sigma), q, k)
                  for c in (2.0**600, 2.0**-600)]
        assert 1e-3 < base < np.inf
        assert scaled == [base, base]


class TestPowerOfTwoScaling:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(-60, 60))
    def test_scaling_the_correlations_by_2_to_the_k_keeps_every_bit(self, data, n, m, k):
        # (2^k Sigma, 2^k SigmaHat) is exact, and so is every rounding of the
        # data path on it, away from overflow and subnormals (Higham 2002, 2.1).
        d = n + m
        G = data.draw(matrices(d, d))
        sigma = G @ G.T + np.eye(d)
        plant = PlantModel(data.draw(matrices(n, n)), data.draw(matrices(n, m)))
        sigma_hat = plant.ab @ sigma + 0.1 * data.draw(matrices(n, d))

        def outputs(state):
            est = estimate_model(state)
            try:
                q, gain, _ = solve_data_riccati(est)
            except EstimateNotStabilizable:
                return est.ab, rho_of(est, plant), None, None
            return est.ab, rho_of(est, plant), gain.K, data_riccati_residual(state, q, gain)

        base = outputs(make_state(sigma, sigma_hat))
        scaled = outputs(make_state(2.0**k * sigma, 2.0**k * sigma_hat))
        assert all(np.array_equal(a, b) for a, b in zip(base, scaled))


class TestGeneralScaling:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 3), st.floats(-6.0, 0.0),
           st.floats(0.05, 0.95), st.floats(-100.0, 100.0))
    def test_any_positive_scale_changes_only_roundings(self, data, n, m, shift, radius, log_c):
        # Scaling by c rounds each entry of (Sigma, SigmaHat) once, a relative
        # perturbation of eps that the solve for [A B] amplifies by cond(Sigma);
        # rho moves by at most as much, and the gain by up to |P| times more
        # (the sensitivity of the Riccati solution).
        c = 10.0**log_c
        assume(np.frexp(c)[0] != 0.5)
        d = n + m
        G = data.draw(matrices(d, d))
        sigma = G @ G.T + 10.0**shift * np.eye(d)
        A = data.draw(matrices(n, n))
        A = A * (radius / max(np.abs(np.linalg.eigvals(A)).max(), radius))
        plant = PlantModel(A, data.draw(matrices(n, m)))
        sigma_hat = plant.ab @ sigma + 0.1 * data.draw(matrices(n, d))
        tol = 4 * d * _cond(sigma) * np.finfo(float).eps

        def outputs(state):
            est = estimate_model(state)
            try:
                _, gain, P = solve_data_riccati(est)
            except EstimateNotStabilizable:
                return est.ab, rho_of(est, plant), None, None
            return est.ab, rho_of(est, plant), gain.K, _spectral_norm(P.P)

        ab, rho, K, p_norm = outputs(make_state(sigma, sigma_hat))
        ab_c, rho_c, K_c, _ = outputs(make_state(c * sigma, c * sigma_hat))
        assert _spectral_norm(ab_c - ab) <= tol * _spectral_norm(ab)
        assert abs(rho_c - rho) <= tol * _spectral_norm(ab)
        assert (K is None) == (K_c is None)
        if K is not None:
            assert _spectral_norm(K_c - K) <= 16 * tol * p_norm * max(1.0, _spectral_norm(K))


class TestOrthogonalCoordinates:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 3), st.floats(0.05, 0.95))
    def test_the_data_path_rotates_with_the_correlations(self, data, n, m, radius):
        # In the coordinates x -> U x, u -> V u the data points are z -> W z with
        # W = diag(U, V), so the correlations are (W Sigma W', U SigmaHat W').
        # The estimate is then (U A U', U B V'), the gain V K U', and the
        # residual and rho against the rotated plant are unchanged.
        d = n + m
        G = data.draw(matrices(d, d))
        sigma = G @ G.T + np.eye(d)
        A = data.draw(matrices(n, n))
        A = A * (radius / max(np.abs(np.linalg.eigvals(A)).max(), radius))
        plant = PlantModel(A, data.draw(matrices(n, m)))
        sigma_hat = plant.ab @ sigma + 0.1 * data.draw(matrices(n, d))
        U, V = data.draw(orthogonal(n)), data.draw(orthogonal(m))
        W = np.block([[U, np.zeros((n, m))], [np.zeros((m, n)), V]])
        turned = PlantModel(U @ plant.A @ U.T, U @ plant.B @ V.T)

        def close(X, Y):
            return np.linalg.norm(np.atleast_2d(X - Y), 2) <= 1e-10 * max(
                1.0, np.linalg.norm(np.atleast_2d(Y), 2))

        state = make_state(sigma, sigma_hat)
        state_turned = make_state(W @ sigma @ W.T, U @ sigma_hat @ W.T)
        est, est_turned = estimate_model(state), estimate_model(state_turned)
        assert close(est_turned.A, U @ est.A @ U.T)
        assert close(est_turned.B, U @ est.B @ V.T)
        assert close(rho_of(est_turned, turned), rho_of(est, plant))
        try:
            q, gain, _ = solve_data_riccati(est)
        except EstimateNotStabilizable:
            return
        q_turned, gain_turned, _ = solve_data_riccati(est_turned)
        assert close(gain_turned.K, V @ gain.K @ U.T)
        assert close(data_riccati_residual(state_turned, q_turned, gain_turned),
                     data_riccati_residual(state, q, gain))


class TestDisturbanceCorrelation:
    def test_regularizer_term_only(self):
        plant = PlantModel([[0.5]], [[1.0]])
        out = disturbance_correlation([([1.0], [0.0], [0.0])], plant, 0.5, np.eye(2))
        assert np.allclose(out, [[-0.25, -0.5]], atol=1e-15)

    def test_vanishing_regularizer(self):
        plant = PlantModel([[0.5]], [[1.0]])
        history = [([1.0], [0.2], [0.0]), ([0.4], [-0.1], [0.0])]
        out = disturbance_correlation(history, plant, 0.9, 1e-14 * np.eye(2))
        assert np.linalg.norm(out, 2) <= 1e-13

    def test_single_disturbance_term(self):
        plant = PlantModel([[0.5]], [[1.0]])
        out = disturbance_correlation([([1.0], [0.0], [1.0])], plant, 1.0, np.eye(2))
        assert np.allclose(out, np.array([[1.0, 0.0]]) - plant.ab, atol=1e-15)

    def test_identity_against_batch_on_200_histories(self):
        rng = np.random.default_rng(303)
        lams = [0.5, 0.9, 0.99, 1.0]
        for i in range(200):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            lam = lams[i % 4]
            length = int(rng.integers(1, 51))
            plant = PlantModel(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, m)))
            sigma0 = np.eye(n + m) * rng.uniform(1e-3, 1.0)
            xuw = [(rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(n))
                   for _ in range(length)]
            xux = [(x, u, plant.A @ x + plant.B @ u + w) for x, u, w in xuw]
            corr = batch_correlations(xux, lam, sigma0)
            dist = disturbance_correlation(xuw, plant, lam, sigma0)
            expected = corr.sigma_hat - plant.ab @ corr.sigma
            scale = max(1.0, np.linalg.norm(expected, 2))
            assert np.linalg.norm(dist - expected, 2) <= 1e-10 * scale


    def test_overflowing_history_rejected(self):
        # batch_correlations rejects the same history; neither warns.
        history = [(np.array([1e200]), np.array([1.0]), np.array([1e200]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput):
                disturbance_correlation(history, PlantModel([[0.5]], [[1.0]]), 0.9, np.eye(2))
            with pytest.raises(NonFiniteInput):
                batch_correlations(history, 0.9, np.eye(2))

    def test_returns_the_stacked_array(self):
        plant = PlantModel([[0.5, 0.0], [0.1, 0.2]], [[1.0], [0.0]])
        history = [([1.0, 0.0], [2.0], [0.5, -1.0])]
        out = disturbance_correlation(history, plant, 1.0, np.eye(3))
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, np.array([[0.5, 0.0, 1.0], [-1.0, 0.0, -2.0]]) - plant.ab)


class TestRhoOf:
    def test_consistent_data_zero(self):
        plant = PlantModel([[0.7]], [[0.4]])
        rng = np.random.default_rng(4)
        G = rng.standard_normal((2, 2))
        sigma = G @ G.T + 0.2 * np.eye(2)
        state = make_state(sigma, plant.ab @ sigma)
        assert rho_of(estimate_model(state), plant) <= 1e-12

    def test_two_step_small_regularizer(self):
        plant = PlantModel([[0.5]], [[1.0]])
        history = [([1.0], [0.0], [0.5]), ([0.5], [1.0], [1.25])]
        state = batch_correlations(history, 1.0, 1e-6 * np.eye(2))
        assert rho_of(estimate_model(state), plant) <= 1e-5

    def test_constructed_offset(self):
        plant = PlantModel([[0.5]], [[1.0]])
        rng = np.random.default_rng(9)
        G = rng.standard_normal((2, 2))
        sigma = G @ G.T + 0.2 * np.eye(2)
        delta = rng.standard_normal((1, 2))
        delta *= 0.1 / np.linalg.norm(delta, 2)
        state = make_state(sigma, (plant.ab + delta) @ sigma)
        assert abs(rho_of(estimate_model(state), plant) - 0.1) < 1e-10

    def test_difference_that_overflows_is_inf(self):
        # [A B] - [Ahat Bhat] = 2e308 overflows; no RuntimeWarning, no NaN.
        assert rho_of(PlantModel([[1e308]], [[1.0]]), PlantModel([[-1e308]], [[1.0]])) == np.inf

    def test_equals_disturbance_correlation_ratio(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            plant = PlantModel(rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, m)))
            lam = 0.95
            sigma0 = 0.01 * np.eye(n + m)
            xuw = [(rng.standard_normal(n), rng.standard_normal(m),
                    0.1 * rng.standard_normal(n)) for _ in range(10)]
            xux = [(x, u, plant.A @ x + plant.B @ u + w) for x, u, w in xuw]
            corr = batch_correlations(xux, lam, sigma0)
            dist = disturbance_correlation(xuw, plant, lam, sigma0)
            direct = rho_of(estimate_model(corr), plant)
            via_ratio = np.linalg.norm(
                np.linalg.solve(corr.sigma, dist.T).T, 2)
            assert abs(direct - via_ratio) <= 1e-9 * max(1.0, direct)


# Matrices with entries k * 10^e, k in [-1000, 1000] and e in [-6, 6]: wide
# in scale, far from underflow and overflow.
def _matrices(rows, cols):
    return st.tuples(
        st.lists(st.integers(-1000, 1000), min_size=rows * cols, max_size=rows * cols),
        st.integers(-6, 6),
    ).map(lambda ke: np.asarray(ke[0], dtype=float).reshape(rows, cols) * 10.0 ** ke[1])


class TestEigvalshForms:
    """The SVD-free forms of the adaptive step equal the SVD forms they replace."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 4))
    def test_rho_of_is_the_spectral_norm(self, data, n, m):
        D = data.draw(_matrices(n, n + m))
        estimate = PlantModel(np.zeros((n, n)), np.zeros((n, m)))
        plant = PlantModel(D[:, :n], D[:, n:])
        ref = np.linalg.norm(D, 2)
        assert abs(rho_of(estimate, plant) - ref) <= 1e-12 * ref

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 7))
    def test_symmetric_norm_is_the_spectral_norm(self, data, d):
        M = sym(data.draw(_matrices(d, d)))
        ref = np.linalg.norm(M, 2)
        assert abs(_sym_norm(M) - ref) <= 1e-12 * ref

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 7), st.integers(0, 2))
    def test_cond_is_the_svd_condition_number(self, data, d, shift):
        # Sigma = X X' + c I with cond(Sigma) at most about 1e2 * (d + 1), where
        # both forms resolve the smallest eigenvalue to 1e-12 relative.
        X = data.draw(_matrices(d, d))
        X = X / max(1.0, np.abs(X).max())
        sigma = sym(X @ X.T + 10.0 ** -shift * np.eye(d))
        ref = np.linalg.cond(sigma)
        assert abs(_cond(sigma) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_spectral_norm_free_of_overflow_and_underflow(self, scale):
        D = scale * np.array([[3.0, 0.0, 4.0], [0.0, 1.0, 0.0]])
        assert abs(_spectral_norm(D) - 5.0 * scale) <= 1e-15 * 5.0 * scale
        assert _spectral_norm(np.zeros((2, 3))) == 0.0

    def test_stack_mixing_special_and_ordinary_slices(self):
        # A zero and an infinite slice take their scale; the ordinary slices,
        # a NaN one among them, recurse as a stack of their own.  Each entry
        # is the one-matrix call on its slice.
        scales = 10.0 ** np.arange(-2, 4)[:, None, None]
        M = np.random.default_rng(31).standard_normal((6, 3, 5)) * scales
        M[1], M[3, 2, 4], M[4, 0, 1] = 0.0, np.inf, np.nan
        with _lapack.quiet():
            stacked = _spectral_norm(M)
            single = np.array([_spectral_norm(S) for S in M])
        assert stacked.shape == (6,) and stacked[1] == 0.0 and stacked[3] == np.inf
        assert np.isnan(stacked[4]) and np.isfinite(stacked[[0, 2, 5]]).all()
        assert np.array_equal(stacked, single, equal_nan=True)
        assert stacked[[0, 2, 5]].tobytes() == single[[0, 2, 5]].tobytes()

    def test_cond_infinite_unless_positive_definite(self):
        assert _cond(np.zeros((2, 2))) == np.inf
        assert _cond(np.diag([1.0, -1.0])) == np.inf
