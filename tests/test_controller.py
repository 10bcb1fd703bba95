import numpy as np
import pytest

from adaptive_lqr import (
    CorrelationState,
    DomainError,
    ExcitationSchedule,
    Gain,
    NonFiniteInput,
    PlantModel,
    ShapeMismatch,
    controller_observe,
    controller_step,
    dare_error_estimate,
    estimate_model,
    excitation_sample,
    gain_from_q,
    initial_controller,
    q_from_p,
    sample_membership_plant,
    simulate,
    solve_dare,
    update_correlations,
)
from adaptive_lqr import _lapack, controller, riccati
from adaptive_lqr.controller import SOLVE_TOL, _excitation_block
from dataclasses import replace
from conftest import (LINALG_WRAPPERS, count_calls, criterion5_scenarios, random_history,
                      scalar_k, scalar_p, scipy_dare)


def consistent_state(plant, seed=0, lam=0.99):
    """CorrelationState whose implied estimate is exactly the plant."""
    rng = np.random.default_rng(seed)
    d = plant.n + plant.m
    G = rng.standard_normal((d, d))
    sigma = G @ G.T + 0.3 * np.eye(d)
    return CorrelationState(sigma=sigma, sigma_hat=plant.ab @ sigma, lam=lam, t=5)


class TestExcitationSample:
    def test_none_is_zero(self):
        sched = ExcitationSchedule(3)
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

    @staticmethod
    def _kind_formula(kind, m, amplitude, decay_rate, seed, t):
        """The per-kind sample the schedule used to compute, kept as a reference."""
        if kind == "none" or amplitude == 0.0:
            return np.zeros(m)
        v = np.random.default_rng((seed, t)).uniform(-amplitude, amplitude, m)
        if kind == "decaying":
            v = v * decay_rate ** t
        return v

    @pytest.mark.parametrize("sched, kind", [
        (ExcitationSchedule.constant(3, amplitude=0.7, seed=2), "constant_amplitude"),
        (ExcitationSchedule.constant(2, amplitude=0.0, seed=4), "constant_amplitude"),
        (ExcitationSchedule.decaying(2, amplitude=5.0, decay_rate=0.9, seed=6), "decaying"),
        (ExcitationSchedule.decaying(1, amplitude=1e4, decay_rate=0.5, seed=11), "decaying"),
        (ExcitationSchedule.decaying(3, amplitude=0.0, decay_rate=0.9, seed=1), "decaying"),
        (ExcitationSchedule(2), "none"),
        (ExcitationSchedule(3, amplitude=1.5, seed=8), "constant_amplitude"),
        (ExcitationSchedule(2, amplitude=2.0, decay_rate=0.98, seed=5), "decaying"),
    ], ids=["constant", "constant_zero", "decaying", "decaying_fast", "decaying_zero", "bare",
            "bare_constant", "bare_decaying"])
    def test_one_formula_keeps_the_bits_of_each_kind(self, sched, kind):
        for t in range(61):
            ref = self._kind_formula(kind, sched.m, sched.amplitude, sched.decay_rate,
                                     sched.seed, t)
            assert excitation_sample(sched, t).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("amplitude, decay_rate", [
        (np.nan, 0.9), (np.inf, 0.9), (-1.0, 0.9), (1e308, 0.9), (1.0, 0.0), (1.0, np.nan),
    ], ids=["nan", "inf", "negative", "range_overflows", "decay_zero", "decay_nan"])
    def test_out_of_range_scalars_rejected(self, amplitude, decay_rate):
        with pytest.raises(DomainError):
            ExcitationSchedule.decaying(1, amplitude=amplitude, decay_rate=decay_rate)

    def test_negative_seed_rejected(self):
        # numpy's generator would reject it only at the first sample, untyped.
        with pytest.raises(DomainError):
            ExcitationSchedule.constant(1, amplitude=1.0, seed=-1)


def stacked_samples(sched, t0, count):
    """excitation_sample at t0 .. t0 + count - 1, one row each."""
    return np.array([excitation_sample(sched, t) for t in range(t0, t0 + count)])


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestExcitationBlock:
    """_excitation_block, simulate's stacked draw, against excitation_sample."""

    # Seeds of 1 to 5 entropy words: words(seed) + words(t) past SeedSequence's
    # pool of 4 words runs its extra mix loop.
    SEEDS = [0, 7, 2**32 - 1, 2**32, 2**63 + 11, 2**64 + 3, 2**96, 2**133 + 5]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_schedules_match_stacked_samples(self, seed):
        rng = np.random.default_rng(seed % 1000)
        for k in range(30):
            m = k % 3 + 1
            amplitude = [0.0, 1.0, float(rng.uniform(0.0, 1e3))][k // 3 % 3]
            decay_rate = 1.0 if k % 2 else float(rng.uniform(0.5, 1.0))
            sched = ExcitationSchedule(m, amplitude, decay_rate, seed)
            # t0 = 0, blocks that cross a multiple of 64, and blocks anywhere below 10^5
            t0 = [0, 64 * int(rng.integers(1, 100)) - int(rng.integers(1, 64)),
                  int(rng.integers(0, 10**5))][k % 3]
            count = int(rng.integers(1, 129))
            assert same_bytes(_excitation_block(sched, t0, count),
                              stacked_samples(sched, t0, count))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("t0", [2**32 - 40, 2**64 - 40, 2**96 + 3])
    def test_blocks_past_one_word_of_t(self, seed, t0):
        # A block across 2^32 or 2^64 mixes rows whose t has a different number of words.
        sched = ExcitationSchedule(2, 3.0, 0.999, seed)
        assert same_bytes(_excitation_block(sched, t0, 64), stacked_samples(sched, t0, 64))

    def test_zero_amplitude_draws_nothing(self, monkeypatch):
        calls = count_calls(monkeypatch, controller, ["_hashmix"])
        block = _excitation_block(ExcitationSchedule(3, 0.0, 0.9, seed=4), 64, 10)
        assert same_bytes(block, np.zeros((10, 3))) and calls == {"_hashmix": 0}


class TestControllerStep:
    @pytest.mark.parametrize("x, error", [([np.nan], NonFiniteInput), ([1.0, 2.0], ShapeMismatch)],
                             ids=["nan", "wrong_length"])
    def test_bad_state_rejected(self, x, error):
        with pytest.raises(error):
            controller_step(initial_controller(1, 1), x)

    def test_no_data_zero_input(self):
        ctrl = initial_controller(1, 1)
        u, _, diag = controller_step(ctrl, [1.0])
        assert np.array_equal(u, np.zeros(1))
        assert np.array_equal(diag.gain, np.zeros((1, 1)))
        assert not diag.fallback

    def test_golden_ratio_gain_applied(self):
        plant = PlantModel([[1.0]], [[1.0]])
        ctrl = replace(initial_controller(1, 1), corr=consistent_state(plant))
        u, _, diag = controller_step(ctrl, [1.0])
        assert abs(u[0] - (-0.6180)) < 1e-4
        assert diag.eq6_residual <= 1e-9

    def test_scaled_state(self):
        plant = PlantModel([[0.5]], [[1.0]])
        ctrl = replace(initial_controller(1, 1), corr=consistent_state(plant))
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

    def test_singular_quu_falls_back(self):
        # A valid state whose estimate B = [1e7, 1] spreads Quu's eigenvalues
        # over 14 decades: gain_from_q raises SingularQuu, the step falls back.
        corr = CorrelationState(sigma=np.eye(3), sigma_hat=[[0.5, 1e7, 1.0]], lam=0.99, t=5)
        ctrl = replace(initial_controller(1, 2, fallback_gain=[[0.1], [0.2]]), corr=corr,
                       warm_p=np.eye(1))
        u, new, diag = controller_step(ctrl, [1.0])
        assert diag.fallback and np.isnan(diag.eq6_residual)
        assert np.array_equal(diag.gain, ctrl.last_gain.K) and np.array_equal(u, [0.1, 0.2])
        assert new.warm_p is ctrl.warm_p
        est = estimate_model(corr)
        assert np.array_equal(diag.estimate.A, est.A)
        assert np.array_equal(diag.estimate.B, est.B)

    @pytest.mark.parametrize("kind", ["solved", "not_stabilizable", "ill_conditioned"])
    def test_diagnostics_carry_the_step_estimate(self, kind):
        corr = {
            "solved": lambda: consistent_state(PlantModel([[0.5]], [[1.0]])),
            "not_stabilizable": lambda: consistent_state(PlantModel([[2.0]], [[0.0]])),
            "ill_conditioned": lambda: CorrelationState(
                sigma=np.diag([1.0, 1e-16]), sigma_hat=np.zeros((1, 2)), lam=0.99, t=1),
        }[kind]()
        ctrl = replace(initial_controller(1, 1), corr=corr)
        _, _, diag = controller_step(ctrl, [1.0])
        assert diag.fallback == (kind != "solved")
        if kind == "ill_conditioned":
            assert diag.estimate is None
        else:
            est = estimate_model(corr)
            assert np.array_equal(diag.estimate.A, est.A)
            assert np.array_equal(diag.estimate.B, est.B)

    def test_holds_the_solved_p_for_the_next_solve(self):
        ctrl = replace(initial_controller(1, 1), corr=consistent_state(PlantModel([[0.5]], [[1.0]])))
        _, new, diag = controller_step(ctrl, [1.0])
        assert not diag.fallback
        assert np.array_equal(new.warm_p, solve_dare(diag.estimate, tol=SOLVE_TOL).P)

    def test_a_confirmed_step_makes_three_solves_and_four_eigvalsh(self, monkeypatch):
        # One solve each for the estimate, the confirming step and the gain; one
        # eigvalsh each for cond(Sigma), the Quu test and the residual's two
        # norms.  The residual reads the applied gain and does not solve Quu again.
        # Every kernel call goes through _lapack, none through numpy.linalg.
        plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], [[1.0], [0.3]])
        ctrl = replace(initial_controller(2, 1), corr=consistent_state(plant))
        for _ in range(2):   # a cold solve, then the held P refined until it confirms
            _, ctrl, _ = controller_step(ctrl, [1.0, -0.5])
        kernels = count_calls(monkeypatch, _lapack, ["solve_nan", "eigvalsh_nan"])
        steps = count_calls(monkeypatch, riccati, ["riccati_step"])
        wrappers = count_calls(monkeypatch, np.linalg, LINALG_WRAPPERS)
        _, _, diag = controller_step(ctrl, [1.0, -0.5])
        assert not diag.fallback
        assert kernels == {"solve_nan": 3, "eigvalsh_nan": 4} and steps == {"riccati_step": 1}
        assert wrappers == dict.fromkeys(LINALG_WRAPPERS, 0)

    def test_excitation_added(self):
        sched = ExcitationSchedule.constant(1, amplitude=0.5, seed=3)
        ctrl = initial_controller(1, 1, excitation=sched)
        u, _, diag = controller_step(ctrl, [1.0])
        assert np.array_equal(u, diag.excitation)   # K is zero with no data
        assert np.array_equal(diag.excitation, excitation_sample(sched, 0))

    @pytest.mark.parametrize("field", ["last_gain"])
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
        assert np.array_equal(ctrl.corr.sigma, batch.sigma)
        assert np.array_equal(ctrl.corr.sigma_hat, batch.sigma_hat)
        # A longer run with forgetting, where reordering the sums would change bits.
        ctrl = initial_controller(2, 1, lam=0.9, sigma0=np.eye(3))
        history = random_history(np.random.default_rng(5), 2, 1, 20)
        for x, u, xn in history:
            ctrl = controller_observe(ctrl, x, u, xn)
        batch = batch_correlations(history, 0.9, np.eye(3))
        assert np.array_equal(ctrl.corr.sigma, batch.sigma)
        assert np.array_equal(ctrl.corr.sigma_hat, batch.sigma_hat)


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
        ctrl = initial_controller(2, 1, excitation=sched)
        x = np.array([1.0, 0.5])
        for _ in range(40):
            u, ctrl, diag = controller_step(ctrl, x)
            est = estimate_model(ctrl.corr)
            try:
                cold = gain_from_q(q_from_p(est, solve_dare(est, tol=1e-12)))
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


class TestSolveAccuracy:
    def test_every_controller_solve_meets_tol_against_scipy(self, monkeypatch):
        # Confirmed and cold solves alike are within the controller tol of
        # scipy's solver on the step's estimate, in relative spectral norm.
        solves = []
        solve = controller._solve_data_riccati

        def recording(A, B, ab, tol, held):
            out = solve(A, B, ab, tol, held)
            solves.append((PlantModel(A, B), tol, out[2]))
            return out

        monkeypatch.setattr(controller, "_solve_data_riccati", recording)
        scenarios = criterion5_scenarios(5005, 2)
        assert len(scenarios) == 8
        for sc, _ in scenarios:
            simulate(sc)
        assert len(solves) > 1000
        worst = 0.0
        for plant, tol, P in solves:
            P_ref, _ = scipy_dare(plant)
            err = np.linalg.norm(P - P_ref, 2) / np.linalg.norm(P_ref, 2)
            worst = max(worst, err / tol)
        assert worst <= 1.0, worst

    def test_error_estimate_bounds_the_error_of_every_controller_solve(self, monkeypatch):
        # On the same oracle set, the true relative error of each solve
        # against scipy is at most twice its first-order error estimate.
        solves = []
        solve = controller._solve_data_riccati

        def recording(A, B, ab, tol, held):
            out = solve(A, B, ab, tol, held)
            solves.append((PlantModel(A, B), out[2]))
            return out

        monkeypatch.setattr(controller, "_solve_data_riccati", recording)
        for sc, _ in criterion5_scenarios(5005, 2):
            simulate(sc)
        assert len(solves) > 1000
        for plant, P in solves:
            P_ref, _ = scipy_dare(plant)
            err = np.linalg.norm(P - P_ref, 2) / np.linalg.norm(P_ref, 2)
            assert err <= 2.0 * dare_error_estimate(plant, P) + 1e-14
