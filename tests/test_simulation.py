import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from adaptive_lqr import (
    ControllerState,
    CorrelationState,
    DisturbanceModel,
    DomainError,
    ExcitationSchedule,
    Gain,
    IllConditioned,
    PlantModel,
    QMatrix,
    Scenario,
    ShapeMismatch,
    TrajectoryLog,
    ValueMatrix,
    controller_observe,
    controller_step,
    disturbance_eval,
    estimate_model,
    excitation_sample,
    gain_from_q,
    initial_controller,
    logs_equal,
    q_from_p,
    rho_of,
    simulate,
    solve_dare,
)
from adaptive_lqr import _lapack
from adaptive_lqr.simulation import CERTIFY_BLOCK, STATE_CAP

from conftest import count_calls


class TestDisturbanceModel:
    @pytest.mark.parametrize("kind, arrays, unread", [
        ("zero", {"sequence": [[0.1]]}, "sequence"),
        ("zero", {"delta_a": [[0.1]], "delta_b": [[0.1]]}, "delta_a"),
        ("external_sequence", {"sequence": [[0.1]], "delta_b": [[0.1]]}, "delta_b"),
        ("linear_unmodeled", {"delta_a": [[0.1]], "delta_b": [[0.1]], "sequence": [[0.1]]},
         "sequence"),
        ("filtered_unmodeled", {"delta_a": [[0.1]], "delta_b": [[0.1]], "sequence": [[0.1]]},
         "sequence"),
    ], ids=["zero_sequence", "zero_deltas", "external_delta_b", "linear_sequence",
            "filtered_sequence"])
    def test_array_the_kind_does_not_read_rejected(self, kind, arrays, unread):
        with pytest.raises(ShapeMismatch, match=f"{unread} is not read by kind '{kind}'"):
            DisturbanceModel(kind=kind, **arrays)

    @pytest.mark.parametrize("model", [
        DisturbanceModel.zero(),
        DisturbanceModel.external([[0.1], [-0.3]]),
        DisturbanceModel.linear([[0.1]], [[0.2]]),
        DisturbanceModel.filtered([[0.1]], [[0.2]], pole=0.5),
    ], ids=["zero", "external", "linear", "filtered"])
    def test_scaled_scales_exactly_the_arrays_the_kind_reads(self, model):
        out = model.scaled(3.0)
        assert (out.kind, out.pole) == (model.kind, model.pole)
        for name in ("sequence", "delta_a", "delta_b"):
            array = getattr(model, name)
            if array is None:
                assert getattr(out, name) is None
            else:
                assert np.array_equal(getattr(out, name), 3.0 * array)


class TestDisturbanceEval:
    def test_zero(self):
        model = DisturbanceModel.zero()
        w, state = disturbance_eval(model, 0, [1.0, 2.0], [0.5], None)
        assert np.array_equal(w, np.zeros(2))

    def test_external_sequence_and_past_end(self):
        model = DisturbanceModel.external([[1.0], [2.0]])
        w0, st = disturbance_eval(model, 0, [0.0], [0.0], None)
        w1, st = disturbance_eval(model, 1, [0.0], [0.0], st)
        w2, st = disturbance_eval(model, 2, [0.0], [0.0], st)
        assert w0[0] == 1.0 and w1[0] == 2.0 and w2[0] == 0.0

    @pytest.mark.parametrize("model, x, u", [
        (DisturbanceModel.external([[1.0], [2.0]]), [1.0, 1.0], [0.0]),
        (DisturbanceModel.linear([[0.1]], [[0.0]]), [1.0, 1.0], [0.0]),
        (DisturbanceModel.filtered([[0.1]], [[0.0]], pole=0.5), [1.0], [0.0, 0.0]),
    ], ids=["sequence_x", "linear_x", "filtered_u"])
    def test_shapes_checked_against_model(self, model, x, u):
        with pytest.raises(ShapeMismatch):
            disturbance_eval(model, 0, x, u, None)

    def test_linear_static_map(self):
        model = DisturbanceModel.linear([[0.1]], [[0.0]])
        w, _ = disturbance_eval(model, 3, [2.0], [17.0], None)
        assert abs(w[0] - 0.2) < 1e-15

    def test_filtered_hand_iteration(self):
        model = DisturbanceModel.filtered([[1.0]], [[0.0]], pole=0.5)
        st = None
        w0, st = disturbance_eval(model, 0, [1.0], [0.0], st)
        w1, st = disturbance_eval(model, 1, [1.0], [0.0], st)
        w2, st = disturbance_eval(model, 2, [0.0], [0.0], st)
        assert w0[0] == 0.0
        assert abs(w1[0] - 1.0) < 1e-15
        assert abs(w2[0] - 1.5) < 1e-15

    def test_bad_pole_rejected(self):
        with pytest.raises(DomainError):
            DisturbanceModel.filtered([[1.0]], [[0.0]], pole=1.0)


def scenario(plant, horizon, x0=None, dist=None, exc=None, **kw):
    n, m = plant.n, plant.m
    return Scenario(plant=plant,
                    disturbance=dist if dist is not None else DisturbanceModel.zero(),
                    x0=np.ones(n) if x0 is None else x0,
                    horizon=horizon,
                    excitation=exc if exc is not None else ExcitationSchedule(m), **kw)


class TestSimulate:
    def test_deadbeat_plant_reaches_zero_immediately(self):
        # A = 0: the first input is 0 (no data) and A annihilates the state.
        log = simulate(scenario(PlantModel([[0.0]], [[1.0]]), 10, x0=[1.0]))
        assert log.u[0, 0] == 0.0
        assert np.array_equal(log.x[1:], np.zeros((9, 1)))
        assert np.array_equal(log.x_final, np.zeros(1))

    def test_equilibrium_stays_zero(self):
        plant = PlantModel([[0.7, 0.1], [0.0, 0.8]], [[1.0], [0.2]])
        log = simulate(scenario(plant, 50, x0=[0.0, 0.0]))
        assert np.array_equal(log.x, np.zeros((50, 2)))
        assert np.array_equal(log.u, np.zeros((50, 1)))
        assert np.array_equal(log.x_final, np.zeros(2))

    def test_replay_identity(self):
        rng = np.random.default_rng(17)
        for kind in ("zero", "external", "linear", "filtered"):
            n, m = 2, 1
            plant = PlantModel(0.5 * rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, m)))
            if kind == "zero":
                dist = DisturbanceModel.zero()
            elif kind == "external":
                dist = DisturbanceModel.external(0.01 * rng.standard_normal((40, n)))
            elif kind == "linear":
                dist = DisturbanceModel.linear(0.01 * rng.standard_normal((n, n)),
                                               0.01 * rng.standard_normal((n, m)))
            else:
                dist = DisturbanceModel.filtered(0.01 * rng.standard_normal((n, n)),
                                                 0.01 * rng.standard_normal((n, m)), pole=0.4)
            exc = ExcitationSchedule.decaying(m, amplitude=1.0, decay_rate=0.9, seed=3)
            log = simulate(scenario(plant, 40, dist=dist, exc=exc))
            replay = log.x @ plant.A.T + log.u @ plant.B.T + log.w
            actual = np.vstack([log.x[1:], log.x_final])
            assert np.max(np.abs(replay - actual)) <= 1e-12
            assert logs_equal(log, simulate(scenario(plant, 40, dist=dist, exc=exc)))
        u = log.u.copy()
        u[7, 0] = np.nextafter(u[7, 0], np.inf)
        assert not logs_equal(log, replace(log, u=u))
        # Fallback steps log a NaN residual, which must still compare equal.
        plant = PlantModel([[0.5]], [[1.0]])
        dist = DisturbanceModel.linear([[2.0]], [[-1.0]])
        exc = ExcitationSchedule.decaying(1, amplitude=1.0, decay_rate=0.9, seed=2)
        log = simulate(scenario(plant, 300, dist=dist, exc=exc))
        assert np.isnan(log.eq6_residual).any()
        assert logs_equal(log, simulate(scenario(plant, 300, dist=dist, exc=exc)))

    def test_causality_prefix_invariance(self):
        rng = np.random.default_rng(23)
        for i in range(50):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            plant = PlantModel(0.6 * rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, m)))
            dist = DisturbanceModel.filtered(0.05 * rng.standard_normal((n, n)),
                                             0.05 * rng.standard_normal((n, m)),
                                             pole=float(rng.uniform(-0.8, 0.8)))
            exc = ExcitationSchedule.constant(m, amplitude=0.5, seed=i)
            full = simulate(scenario(plant, 30, dist=dist, exc=exc))
            short = simulate(scenario(plant, 12, dist=dist, exc=exc))
            assert np.array_equal(full.w[:12], short.w)

    def test_gain_convergence_golden_ratio_plant(self):
        plant = PlantModel([[1.0]], [[1.0]])
        exc = ExcitationSchedule.decaying(1, amplitude=1e4, decay_rate=0.9, seed=13)
        log = simulate(scenario(plant, 1000, x0=[1.0], exc=exc))
        k_opt = np.array([[-(np.sqrt(5.0) - 1.0) / 2.0]])
        err = np.linalg.norm(log.k[500:] - k_opt, axis=(1, 2))
        assert np.max(err) <= 1e-6
        assert np.linalg.norm(log.x_final) <= 1e-6

    def test_overflow_truncates_and_flags(self):
        # delta_b = -B cancels the input path, leaving unstable open-loop growth
        # that no gain can touch; the run must truncate at the cap.
        plant = PlantModel([[0.5]], [[1.0]])
        dist = DisturbanceModel.linear([[2.0]], [[-1.0]])
        exc = ExcitationSchedule.decaying(1, amplitude=1.0, decay_rate=0.9, seed=2)
        log = simulate(scenario(plant, 300, dist=dist, exc=exc))
        assert log.overflowed
        assert len(log) < 300
        assert np.linalg.norm(log.x_final) > 1e12
        assert log.fallback.any()

    def test_rho_logged_against_true_plant(self):
        plant = PlantModel([[0.5]], [[1.0]])
        exc = ExcitationSchedule.decaying(1, amplitude=10.0, decay_rate=0.9, seed=4)
        log = simulate(scenario(plant, 100, exc=exc))
        # Early consistency is poor, later excellent (noiseless data).
        assert log.rho[0] > log.rho[-1]
        assert log.rho[-1] <= 1e-4

    @pytest.mark.parametrize("dist", [
        DisturbanceModel.external(np.zeros((5, 3))),
        DisturbanceModel.linear([[0.1]], [[0.0]]),
        DisturbanceModel.filtered(np.zeros((2, 2)), np.zeros((2, 2)), pole=0.5),
    ], ids=["sequence_columns", "delta_a", "delta_b"])
    def test_disturbance_shape_checked_against_plant(self, dist):
        plant = PlantModel([[0.5, 0.0], [0.0, 0.5]], [[1.0], [0.0]])
        with pytest.raises(ShapeMismatch):
            scenario(plant, 10, dist=dist)

    @pytest.mark.parametrize("kw, error", [
        ({"fallback_gain": [[1.0, 2.0]]}, ShapeMismatch),
        ({"exc": ExcitationSchedule(2)}, ShapeMismatch),
    ], ids=["fallback_gain_shape", "excitation_m"])
    def test_controller_settings_checked(self, kw, error):
        with pytest.raises(error):
            scenario(PlantModel([[0.5]], [[1.0]]), 10, **kw)

    def test_scenario_keeps_its_own_x0(self):
        x0 = np.ones(1)
        sc = scenario(PlantModel([[0.5]], [[1.0]]), 10, x0=x0)
        x0[0] = 5.0
        assert np.array_equal(sc.x0, [1.0])

    def test_one_model_estimate_per_step(self, monkeypatch):
        import adaptive_lqr.controller as controller
        import adaptive_lqr.estimation as estimation
        calls = []
        estimate = estimation.estimate_model

        def counting(state):
            calls.append(state.t)
            return estimate(state)

        monkeypatch.setattr(estimation, "estimate_model", counting)
        monkeypatch.setattr(controller, "estimate_model", counting)
        plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], [[1.0], [0.3]])
        exc = ExcitationSchedule.constant(1, amplitude=1.0, seed=5)
        assert len(simulate(scenario(plant, 200, exc=exc))) == 200
        assert calls == list(range(200))

    def test_no_svd_and_at_most_one_value_iteration_step_per_solve(self, monkeypatch, cold_solves):
        # The adaptive step makes no SVD (no svd, cond or spectral norm); the
        # held P costs one value-iteration step per Newton correction plus
        # one, and only the start-up transient is solved cold by doubling.
        import adaptive_lqr.riccati as riccati
        counts = {"svd": 0, "cond": 0, "norm2": 0, "riccati_step": 0}

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
        monkeypatch.setattr(riccati, "riccati_step", counting("riccati_step", riccati.riccati_step))
        plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], [[1.0], [0.3]])
        exc = ExcitationSchedule.constant(1, amplitude=1.0, seed=5)
        log = simulate(scenario(plant, 200, exc=exc))
        solved = int(np.sum(~log.fallback))
        assert len(log) == 200 and solved > 0
        assert (counts["svd"], counts["cond"], counts["norm2"]) == (0, 0, 0)
        assert 0 < counts["riccati_step"] <= (riccati.NEWTON_STEPS + 1) * solved
        assert len(cold_solves) <= 3

    def test_two_eigvalsh_per_solved_step_and_three_per_block(self, monkeypatch):
        # A solved step makes one eigvalsh for cond(Sigma) and one for the Quu
        # test.  The log's residuals (two norms) and rho_t (one) take one
        # stacked eigvalsh each per block of steps, not one each per step.
        plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], [[1.0], [0.3]])
        exc = ExcitationSchedule.constant(1, amplitude=1.0, seed=5)
        kernels = count_calls(monkeypatch, _lapack, ["eigvalsh"])
        log = simulate(scenario(plant, 200, exc=exc))
        assert len(log) == 200 and not log.fallback.any()
        assert kernels == {"eigvalsh": 2 * 200 + 3 * -(-200 // CERTIFY_BLOCK)}

    def test_excitation_is_drawn_once_per_block_without_a_generator(self, monkeypatch):
        # No default_rng per step: one stacked draw per CERTIFY_BLOCK steps,
        # with the bits of excitation_sample.
        import adaptive_lqr.simulation as simulation
        plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], [[1.0], [0.3]])
        exc = ExcitationSchedule.decaying(1, amplitude=1.0, decay_rate=0.99, seed=5)
        generators = count_calls(monkeypatch, np.random, ["default_rng"])
        blocks = count_calls(monkeypatch, simulation, ["_excitation_block"])
        log = simulate(scenario(plant, 200, exc=exc))
        assert generators == {"default_rng": 0} and blocks == {"_excitation_block": 4}
        assert len(log) == 200 == len(log.eps)
        monkeypatch.undo()
        assert log.eps.tobytes() == np.array([excitation_sample(exc, t)
                                              for t in range(200)]).tobytes()

    def test_step_estimate_and_logged_rho(self, monkeypatch):
        # sigma0 = 1e-17 I makes Sigma ill-conditioned after one data point,
        # and delta_b = -B hides the input, so the run has solved,
        # non-stabilizable and ill-conditioned steps.
        import adaptive_lqr.simulation as simulation
        steps = []
        step = simulation._step

        def recording(ctrl, x, eps):
            out = step(ctrl, x, eps)
            _, _, estimate, q = out
            steps.append((ctrl.corr, estimate, q is None))
            return out

        monkeypatch.setattr(simulation, "_step", recording)
        plant = PlantModel([[0.5]], [[1.0]])
        dist = DisturbanceModel.linear([[2.0]], [[-1.0]])
        exc = ExcitationSchedule.decaying(1, amplitude=1.0, decay_rate=0.9, seed=2)
        log = simulate(scenario(plant, 300, dist=dist, exc=exc, sigma0=1e-17 * np.eye(2)))
        kinds = set()
        for (corr, estimate, fallback), rho in zip(steps, log.rho):
            try:
                est = estimate_model(corr)
            except IllConditioned:
                assert estimate is None and fallback and rho == np.inf
                kinds.add("ill_conditioned")
                continue
            assert np.array_equal(estimate.A, est.A)
            assert np.array_equal(estimate.B, est.B)
            assert rho == rho_of(est, plant)
            kinds.add("not_stabilizable" if fallback else "solved")
        assert kinds == {"solved", "not_stabilizable", "ill_conditioned"}

    def test_trusted_objects_survive_their_constructors(self, monkeypatch):
        # Every object the per-step path builds without validation must pass
        # its public constructor unchanged.
        import adaptive_lqr.estimation as estimation
        import adaptive_lqr.simulation as simulation
        import adaptive_lqr.controller as controller
        trusted = (ValueMatrix, QMatrix, Gain, CorrelationState, ControllerState)
        built = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                built.extend(o for o in (out if isinstance(out, tuple) else (out,))
                             if isinstance(o, trusted))
                return out
            return wrapped

        for module, name in ((estimation, "_solve_held"), (controller, "_solve_data_riccati"),
                             (simulation, "_fold"), (simulation, "_step")):
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
        plant = PlantModel([[0.9, 0.2, 0.0], [0.0, 0.7, 0.3], [0.1, 0.0, 0.5]],
                           [[1.0, 0.0], [0.2, 0.5], [0.0, 1.0]])
        dist = DisturbanceModel.filtered(0.05 * np.eye(3), 0.02 * np.ones((3, 2)), pole=0.3)
        exc = ExcitationSchedule.decaying(2, amplitude=5.0, decay_rate=0.98, seed=6)
        assert len(simulate(scenario(plant, 200, dist=dist, exc=exc))) == 200
        assert {type(obj) for obj in built} == set(trusted)
        for obj in built:
            rebuilt = type(obj)(**vars(obj))
            assert all(getattr(rebuilt, k) is v or np.array_equal(getattr(rebuilt, k), v)
                       for k, v in vars(obj).items())

    def test_worst_case_disturbance_maximizer(self):
        # max_w |x+|^2_P - g^2 |w|^2 at fixed (x, u) against a grid search.
        plant = PlantModel([[0.5]], [[1.0]])
        P = solve_dare(plant, tol=1e-13).P[0, 0]
        K = gain_from_q(q_from_p(plant, np.array([[P]]))).K[0, 0]
        gamma = 10.0
        for x in [0.3, 1.0, -2.0]:
            v = (0.5 + K) * x
            w_star = P * v / (gamma**2 - P)
            analytic = P * v**2 / (1.0 - P / gamma**2)
            grid = np.linspace(w_star - 1.0, w_star + 1.0, 400001)
            vals = P * (v + grid) ** 2 - gamma**2 * grid**2
            assert abs(vals.max() - analytic) <= 1e-6
            assert abs(grid[vals.argmax()] - w_star) <= 1e-5


def kind_scenario(kind, horizon, seed=17, n=3, m=2):
    """An n-state, m-input run with a disturbance of the given kind."""
    rng = np.random.default_rng(seed)
    plant = PlantModel(0.5 * rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, (n, m)))
    da, db = 0.01 * rng.standard_normal((n, n)), 0.01 * rng.standard_normal((n, m))
    dist = {"zero": DisturbanceModel.zero(),
            "external": DisturbanceModel.external(0.01 * rng.standard_normal((horizon // 2, n))),
            "linear": DisturbanceModel.linear(da, db),
            "filtered": DisturbanceModel.filtered(da, db, pole=0.4)}[kind]
    exc = ExcitationSchedule.decaying(m, amplitude=1.0, decay_rate=0.98, seed=seed)
    return scenario(plant, horizon, dist=dist, exc=exc)


def public_loop(sc):
    """simulate's loop driven through the checked public per-step functions,
    one step at a time as a controller user drives it."""
    plant = sc.plant
    ctrl = initial_controller(plant.n, plant.m, lam=sc.lam, sigma0=sc.sigma0,
                              excitation=sc.excitation, fallback_gain=sc.fallback_gain)
    x, xi, rows = sc.x0, None, []
    for t in range(sc.horizon):
        u, ctrl, diag = controller_step(ctrl, x)
        with np.errstate(over="ignore", invalid="ignore"):
            w, xi = disturbance_eval(sc.disturbance, t, x, u, xi)
            x_next = plant.A @ x + plant.B @ u + w
            overflowed = not np.linalg.norm(x_next) <= STATE_CAP
        rho = np.inf if diag.estimate is None else rho_of(diag.estimate, plant)
        rows.append(dict(t=t, x=x, u=u, eps=diag.excitation, w=w, k=diag.gain, rho=rho,
                         eq6_residual=diag.eq6_residual, fallback=diag.fallback))
        if overflowed:
            break
        ctrl = controller_observe(ctrl, x, u, x_next)
        x = x_next
    columns = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    return TrajectoryLog(n=plant.n, m=plant.m, **columns, x_final=x_next, overflowed=overflowed)


class TestTrustedLoop:
    @pytest.mark.parametrize("kind", ["zero", "external", "linear", "filtered"])
    def test_loop_checks_no_vector(self, monkeypatch, kind):
        # simulate trusts its Scenario and the arrays it builds: neither its
        # start nor its steps re-check a vector or a matrix, the held P of a
        # warm solve included.  The hooks count calls in every module that
        # bound the checker.
        import adaptive_lqr.riccati as riccati
        sc = kind_scenario(kind, 200)
        calls = {"_check_vector": [], "_check_matrix": []}

        def counting(check, names):
            def wrapped(*args, **kwargs):
                names.append(args[1])
                return check(*args, **kwargs)
            return wrapped

        for checker, names in calls.items():
            check = getattr(riccati, checker)
            for name, module in list(sys.modules.items()):
                if name.startswith("adaptive_lqr") and getattr(module, checker, None) is check:
                    monkeypatch.setattr(module, checker, counting(check, names))
        assert len(simulate(sc)) == 200
        assert calls == {"_check_vector": [], "_check_matrix": []}
        controller_step(initial_controller(3, 2), np.ones(3))
        assert calls["_check_vector"] == ["x"]

    @pytest.mark.parametrize("sc", [
        kind_scenario("zero", 120), kind_scenario("external", 120),
        kind_scenario("linear", 120), kind_scenario("filtered", 120),
        # test_overflow_truncates_and_flags's run: fallback steps, then the cap.
        scenario(PlantModel([[0.5]], [[1.0]]), 300, dist=DisturbanceModel.linear([[2.0]], [[-1.0]]),
                 exc=ExcitationSchedule.decaying(1, amplitude=1.0, decay_rate=0.9, seed=2)),
        # The state overflows the double range on the first step.
        scenario(PlantModel([[1e308, 1e308], [0.0, 0.5]], [[1.0], [0.0]]), 5, x0=[2.0, -2.0]),
        # d = n + m = 9.
        kind_scenario("filtered", 120, n=6, m=3),
        # test_step_estimate_and_logged_rho's run: ill-conditioned,
        # non-stabilizable and solved steps.
        scenario(PlantModel([[0.5]], [[1.0]]), 300, dist=DisturbanceModel.linear([[2.0]], [[-1.0]]),
                 exc=ExcitationSchedule.decaying(1, amplitude=1.0, decay_rate=0.9, seed=2),
                 sigma0=1e-17 * np.eye(2)),
        # Two full blocks of the stacked pass and a part of a third.
        kind_scenario("linear", 2 * CERTIFY_BLOCK + 37),
        # delta_b = -B hides the input, so x_{t+1} = 1.1 x_t whatever the gain:
        # the cap truncates the run after 290 steps, inside a block.
        scenario(PlantModel([[0.5]], [[1.0]]), 400, dist=DisturbanceModel.linear([[0.6]], [[-1.0]])),
    ], ids=["zero", "external", "linear", "filtered", "fallback_then_cap", "overflow",
            "n6_m3", "ill_conditioned_steps", "two_blocks_and_a_part", "cap_inside_a_block"])
    def test_same_log_as_the_public_functions(self, sc):
        log = simulate(sc)
        assert logs_equal(log, public_loop(sc))
        assert log.overflowed == (len(log) < sc.horizon)

    @pytest.mark.parametrize("plant, x0, dist", [
        (PlantModel([[1e308, 1e308], [0.0, 0.5]], [[1.0], [0.0]]), [2.0, -2.0], None),
        (PlantModel([[1e200]], [[1.0]]), None, None),
        (PlantModel([[1e160]], [[1.0]]), None, None),
        (PlantModel([[0.5]], [[1.0]]), [1e200], None),
        (PlantModel([[0.5]], [[1.0]]), [1e308], DisturbanceModel.linear([[10.0]], [[0.0]])),
    ], ids=["cancelling_overflows", "state_overflows", "norm_overflows", "huge_x0",
            "disturbance_overflows"])
    def test_state_beyond_the_double_range_truncates(self, plant, x0, dist):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = simulate(scenario(plant, 5, x0=x0, dist=dist))
        assert log.overflowed and len(log) == 1
        with np.errstate(over="ignore"):
            assert not np.linalg.norm(log.x_final) <= STATE_CAP


class TestSerialization:
    def make_log(self):
        plant = PlantModel([[0.6, 0.1], [0.0, 0.5]], [[1.0], [0.3]])
        exc = ExcitationSchedule.decaying(1, amplitude=1.0, decay_rate=0.9, seed=8)
        dist = DisturbanceModel.external(0.01 * np.random.default_rng(0).standard_normal((30, 2)))
        return simulate(scenario(plant, 30, dist=dist, exc=exc))

    def test_csv_layout_and_values(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "trajectory.csv"
        log.to_csv(path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["t", "x_0", "x_1", "u_0", "eps_0", "w_0", "w_1",
                          "K_0_0", "K_0_1", "rho", "eq6_residual", "fallback"]
        assert len(lines) == 1 + len(log)
        row5 = lines[6].split(",")
        assert int(row5[0]) == 5
        assert float(row5[1]) == log.x[5, 0]          # 17 digits round-trips exactly
        assert float(row5[7]) == log.k[5, 0, 0]
        assert int(row5[-1]) == int(log.fallback[5])

    def test_csv_byte_identical(self, tmp_path):
        log = self.make_log()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        log.to_csv(a)
        log.to_csv(b)
        assert a.read_bytes() == b.read_bytes()
