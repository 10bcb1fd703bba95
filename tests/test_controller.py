import numpy as np
import pytest

from adaptive_lqr import (
    CorrelationState,
    ExcitationSchedule,
    Gain,
    PlantModel,
    ShapeMismatch,
    controller_observe,
    controller_step,
    estimate_model,
    excitation_sample,
    gain_from_q,
    initial_controller,
    q_from_p,
    sample_membership_plant,
    solve_dare,
    update_correlations,
)
from dataclasses import replace
from conftest import scalar_k, scalar_p


def consistent_state(plant, seed=0, lam=0.99):
    """CorrelationState whose implied estimate is exactly the plant."""
    rng = np.random.default_rng(seed)
    d = plant.n + plant.m
    G = rng.standard_normal((d, d))
    sigma = G @ G.T + 0.3 * np.eye(d)
    return CorrelationState(sigma=sigma, sigma_hat=plant.ab @ sigma,
                            lam=lam, sigma0=1e-3 * np.eye(d), t=5)


class TestExcitationSample:
    def test_none_is_zero(self):
        sched = ExcitationSchedule.none(3)
        for t in [0, 1, 17]:
            assert np.array_equal(excitation_sample(sched, t), np.zeros(3))

    def test_zero_amplitude_is_zero(self):
        sched = ExcitationSchedule.constant(2, amplitude=0.0, seed=4)
        assert np.array_equal(excitation_sample(sched, 3), np.zeros(2))

    def test_decaying_bound(self):
        sched = ExcitationSchedule.decaying(4, amplitude=1.0, decay_rate=0.5, seed=1)
        v = excitation_sample(sched, 3)
        assert np.max(np.abs(v)) <= 0.125

    def test_constant_bound(self):
        sched = ExcitationSchedule.constant(4, amplitude=0.7, seed=2)
        for t in range(30):
            assert np.max(np.abs(excitation_sample(sched, t))) <= 0.7

    def test_deterministic_per_key(self):
        sched = ExcitationSchedule.constant(3, amplitude=1.0, seed=9)
        assert np.array_equal(excitation_sample(sched, 5), excitation_sample(sched, 5))
        assert not np.array_equal(excitation_sample(sched, 5), excitation_sample(sched, 6))
        other = ExcitationSchedule.constant(3, amplitude=1.0, seed=10)
        assert not np.array_equal(excitation_sample(sched, 5), excitation_sample(other, 5))

    def test_invalid_kind_rejected(self):
        with pytest.raises(ShapeMismatch):
            ExcitationSchedule(kind="gaussian", m=1)


class TestControllerStep:
    def test_no_data_zero_input(self):
        ctrl = initial_controller(1, 1)
        u, _, diag = controller_step(ctrl, [1.0])
        assert np.array_equal(u, np.zeros(1))
        assert np.array_equal(diag.gain, np.zeros((1, 1)))
        assert not diag.fallback

    def test_golden_ratio_gain_applied(self):
        plant = PlantModel([[1.0]], [[1.0]])
        ctrl = replace(initial_controller(1, 1, tol=1e-12), corr=consistent_state(plant))
        u, _, diag = controller_step(ctrl, [1.0])
        assert abs(u[0] - (-0.6180)) < 1e-4
        assert diag.eq6_residual <= 1e-9

    def test_scaled_state(self):
        plant = PlantModel([[0.5]], [[1.0]])
        ctrl = replace(initial_controller(1, 1, tol=1e-12), corr=consistent_state(plant))
        u, _, _ = controller_step(ctrl, [2.0])
        expected = 2.0 * scalar_k(0.5, 1.0, scalar_p(0.5, 1.0))
        assert abs(u[0] - expected) < 1e-9
        assert abs(u[0] - (-0.5311)) < 1e-3

    def test_fallback_reuses_last_gain(self):
        good = PlantModel([[0.5]], [[1.0]])
        bad = PlantModel([[2.0]], [[0.0]])
        ctrl = replace(initial_controller(1, 1), corr=consistent_state(good))
        _, ctrl, diag_ok = controller_step(ctrl, [1.0])
        assert not diag_ok.fallback
        ctrl = replace(ctrl, corr=consistent_state(bad))
        u, ctrl, diag_fb = controller_step(ctrl, [1.0])
        assert diag_fb.fallback
        assert np.array_equal(diag_fb.gain, diag_ok.gain)
        assert np.isnan(diag_fb.eq6_residual)

    def test_excitation_added(self):
        sched = ExcitationSchedule.constant(1, amplitude=0.5, seed=3)
        ctrl = initial_controller(1, 1, excitation=sched)
        u, _, diag = controller_step(ctrl, [1.0])
        assert np.array_equal(u, diag.excitation)   # K is zero with no data
        assert np.array_equal(diag.excitation, excitation_sample(sched, 0))

    @pytest.mark.parametrize("field", ["last_gain", "fallback_gain"])
    def test_replace_with_wrong_gain_shape_rejected(self, field):
        ctrl = initial_controller(2, 1)
        with pytest.raises(ShapeMismatch):
            replace(ctrl, **{field: Gain(np.zeros((2, 1)))})


class TestControllerObserve:
    def test_zero_triple_decays(self):
        ctrl = initial_controller(1, 1, lam=0.5, sigma0=np.eye(2))
        out = controller_observe(ctrl, [0.0], [0.0], [0.0])
        assert np.allclose(out.corr.sigma, 0.5 * np.eye(2), atol=1e-15)

    def test_delegates_to_update(self):
        ctrl = initial_controller(1, 1, lam=0.5, sigma0=np.eye(2))
        out = controller_observe(ctrl, [1.0], [0.0], [0.5])
        ref = update_correlations(ctrl.corr, [1.0], [0.0], [0.5])
        assert np.array_equal(out.corr.sigma, ref.sigma)
        assert np.array_equal(out.corr.sigma_hat, ref.sigma_hat)

    def test_two_observes_match_batch(self):
        from adaptive_lqr import batch_correlations
        ctrl = initial_controller(1, 1, lam=1.0, sigma0=np.eye(2))
        history = [([1.0], [0.0], [0.5]), ([0.5], [1.0], [1.25])]
        for x, u, xn in history:
            ctrl = controller_observe(ctrl, x, u, xn)
        batch = batch_correlations(history, 1.0, np.eye(2))
        assert np.allclose(ctrl.corr.sigma, batch.sigma, atol=1e-14)
        assert np.allclose(ctrl.corr.sigma_hat, batch.sigma_hat, atol=1e-14)


def run_loop(plant, ctrl, x0, steps):
    """Drive the plant with the controller, returning the gain sequence."""
    x = np.asarray(x0, dtype=float)
    gains = []
    for _ in range(steps):
        u, ctrl, diag = controller_step(ctrl, x)
        x_next = plant.A @ x + plant.B @ u
        ctrl = controller_observe(ctrl, x, u, x_next)
        gains.append(diag.gain)
        x = x_next
    return np.asarray(gains), x, ctrl


class TestClosedLoopProperties:
    def test_gain_sequence_deterministic(self):
        plant = PlantModel([[0.6, 0.1], [0.0, 0.5]], [[1.0], [0.4]])
        sched = ExcitationSchedule.decaying(1, amplitude=1.0, decay_rate=0.9, seed=21)
        runs = []
        for _ in range(2):
            ctrl = initial_controller(2, 1, excitation=sched)
            gains, _, _ = run_loop(plant, ctrl, [1.0, -1.0], 60)
            runs.append(gains)
        assert np.array_equal(runs[0], runs[1])

    def test_certainty_equivalence_identity(self):
        # The gain applied each step equals the cold re-solve on the estimate.
        plant = PlantModel([[0.7, 0.2], [0.1, 0.4]], [[1.0], [0.3]])
        sched = ExcitationSchedule.decaying(1, amplitude=2.0, decay_rate=0.9, seed=5)
        ctrl = initial_controller(2, 1, excitation=sched, tol=1e-12)
        x = np.array([1.0, 0.5])
        for _ in range(40):
            u, ctrl, diag = controller_step(ctrl, x)
            est = estimate_model(ctrl.corr)
            try:
                cold = gain_from_q(q_from_p(est.as_plant(),
                                            solve_dare(est.as_plant(), tol=1e-12)))
                assert np.linalg.norm(diag.gain - cold.K, 2) <= 1e-9
            except Exception:
                assert diag.fallback
            x_next = plant.A @ x + plant.B @ u
            ctrl = controller_observe(ctrl, x, u, x_next)
            x = x_next

    def test_noiseless_convergence_to_optimal_gain(self):
        # Decaying excitation large enough to swamp the regularizer bias.
        rng = np.random.default_rng(314)
        for case in range(3):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            plant, P, _ = sample_membership_plant(rng, 2.0, n, m)
            k_opt = gain_from_q(q_from_p(plant, P)).K
            sched = ExcitationSchedule.decaying(m, amplitude=1e4, decay_rate=0.9,
                                                seed=1000 + case)
            ctrl = initial_controller(n, m, lam=0.99, sigma0=1e-3 * np.eye(n + m),
                                      excitation=sched)
            gains, x_final, _ = run_loop(plant, ctrl, np.ones(n), 550)
            err = np.linalg.norm(gains[500:] - k_opt, axis=(1, 2) if gains.ndim == 3 else None)
            assert np.max(err) <= 1e-6
