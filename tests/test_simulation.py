import numpy as np
import pytest

from adaptive_lqr import (
    ControllerState,
    CorrelationState,
    DisturbanceModel,
    ExcitationSchedule,
    Gain,
    PlantModel,
    QMatrix,
    Scenario,
    ShapeMismatch,
    TrajectoryLog,
    ValueMatrix,
    disturbance_eval,
    gain_from_q,
    logs_equal,
    q_from_p,
    simulate,
    solve_dare,
)


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
        with pytest.raises(ShapeMismatch):
            DisturbanceModel.filtered([[1.0]], [[0.0]], pole=1.0)


def scenario(plant, horizon, x0=None, dist=None, exc=None, seed=0, **kw):
    n, m = plant.n, plant.m
    return Scenario(plant=plant,
                    disturbance=dist if dist is not None else DisturbanceModel.zero(),
                    x0=np.ones(n) if x0 is None else x0,
                    horizon=horizon,
                    excitation=exc if exc is not None else ExcitationSchedule.none(m),
                    seed=seed, **kw)


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
            full = simulate(scenario(plant, 30, dist=dist, exc=exc, seed=i))
            short = simulate(scenario(plant, 12, dist=dist, exc=exc, seed=i))
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

        for module, name in ((estimation, "solve_dare"), (controller, "solve_data_riccati"),
                             (controller, "update_correlations"),
                             (simulation, "controller_step"), (simulation, "controller_observe")):
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


class TestSerialization:
    def make_log(self):
        plant = PlantModel([[0.6, 0.1], [0.0, 0.5]], [[1.0], [0.3]])
        exc = ExcitationSchedule.decaying(1, amplitude=1.0, decay_rate=0.9, seed=8)
        dist = DisturbanceModel.external(0.01 * np.random.default_rng(0).standard_normal((30, 2)))
        return simulate(scenario(plant, 30, dist=dist, exc=exc))

    def test_json_round_trip_exact(self):
        log = self.make_log()
        back = TrajectoryLog.from_json_dict(log.to_json_dict())
        assert logs_equal(log, back)

    def test_json_file_round_trip(self, tmp_path):
        import json
        log = self.make_log()
        path = tmp_path / "log.json"
        log.to_json(path)
        with open(path) as fh:
            back = TrajectoryLog.from_json_dict(json.load(fh))
        assert logs_equal(log, back)

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
