"""Every public entry point turns a malformed argument into a typed error.

Ragged nesting, non-numeric entries and non-array objects must end in
ShapeMismatch naming the argument, never in a raw numpy ValueError/TypeError.
Integer arguments reject bools, floats and out-of-range values with the
argument's own error type, and history entries that are not triples are
ShapeMismatch naming the entry.
"""

import numpy as np
import pytest

from adaptive_lqr import (
    CorrelationState,
    DisturbanceModel,
    DomainError,
    ExcitationSchedule,
    Gain,
    NonFiniteInput,
    PlantModel,
    QMatrix,
    Scenario,
    ShapeMismatch,
    ValueMatrix,
    batch_correlations,
    controller_observe,
    controller_step,
    dare_residual,
    disturbance_correlation,
    disturbance_eval,
    excitation_sample,
    gain_from_q,
    initial_controller,
    initial_correlation,
    lemma1_check,
    q_from_p,
    random_plant,
    rho_of,
    sample_membership_plant,
    solve_dare,
    theorem1_margin,
    update_correlations,
)

PLANT = PlantModel([[0.5]], [[1.0]])
P = solve_dare(PLANT)
KT = gain_from_q(q_from_p(PLANT, P))
ZERO = DisturbanceModel.zero()
LINEAR = DisturbanceModel.linear([[0.1]], [[0.0]])

MALFORMED = {
    "ragged": [[1.0, 2.0], [3.0]],
    "non_numeric": [["a", 1.0], [1.0, 1.0]],
    "object": {"a": 1.0},
}

# Each entry passes the malformed value as one array argument of n = m = 1 data.
PROBES = {
    "PlantModel.A": lambda bad: PlantModel(bad, [[1.0], [1.0]]),
    "PlantModel.B": lambda bad: PlantModel([[0.5]], bad),
    "Gain": lambda bad: Gain(bad),
    "ValueMatrix": lambda bad: ValueMatrix(bad),
    "QMatrix": lambda bad: QMatrix(bad, 1, 1),
    "q_from_p": lambda bad: q_from_p(PLANT, bad),
    "solve_dare.p0": lambda bad: solve_dare(PLANT, p0=bad),
    "dare_residual": lambda bad: dare_residual(PLANT, bad),
    "initial_correlation": lambda bad: initial_correlation(1, 1, sigma0=bad),
    "CorrelationState": lambda bad: CorrelationState(sigma=bad, sigma_hat=[[0.0, 0.0]],
                                                     lam=0.99, sigma0=np.eye(2), t=0),
    "update_correlations": lambda bad: update_correlations(initial_correlation(1, 1),
                                                           bad, [0.0], [0.0]),
    "batch_correlations.history": lambda bad: batch_correlations([(bad, [0.0], [0.0])],
                                                                 0.99, np.eye(2)),
    "batch_correlations.sigma0": lambda bad: batch_correlations([], 0.99, bad, n=1),
    "disturbance_correlation": lambda bad: disturbance_correlation([([1.0], [0.0], bad)],
                                                                   PLANT, 0.99, np.eye(2)),
    "controller_step": lambda bad: controller_step(initial_controller(1, 1), bad),
    "controller_observe": lambda bad: controller_observe(initial_controller(1, 1),
                                                         [1.0], bad, [0.0]),
    "initial_controller": lambda bad: initial_controller(1, 1, fallback_gain=bad),
    "Scenario.x0": lambda bad: Scenario(PLANT, ZERO, x0=bad, horizon=5),
    "Scenario.fallback_gain": lambda bad: Scenario(PLANT, ZERO, x0=[1.0], horizon=5,
                                                   fallback_gain=bad),
    "DisturbanceModel.external": lambda bad: DisturbanceModel.external(bad),
    "DisturbanceModel.linear": lambda bad: DisturbanceModel.linear(bad, [[0.0]]),
    "disturbance_eval.x": lambda bad: disturbance_eval(ZERO, 0, bad, [0.0], None),
    "disturbance_eval.u": lambda bad: disturbance_eval(LINEAR, 0, [1.0], bad, None),
    "lemma1_check": lambda bad: lemma1_check(bad, [[0.5, 1.0]], [[0.0, 0.0]], [[1.0]],
                                             np.eye(2), 2.0, 0.01),
    "theorem1_margin": lambda bad: theorem1_margin(PLANT, P, KT, 2.0, 0.01, sigma=bad,
                                                   sigma_hat=[[0.5, 1.0]]),
}


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("probe", PROBES)
def test_malformed_array_is_a_shape_mismatch(probe, kind):
    with pytest.raises(ShapeMismatch, match="rectangular array of numbers"):
        PROBES[probe](MALFORMED[kind])


@pytest.mark.parametrize("call", [
    lambda: rho_of(PLANT, PlantModel(np.eye(2), np.ones((2, 1)))),
    lambda: rho_of(PLANT, PlantModel([[0.5]], [[1.0, 0.0]])),
    lambda: dare_residual(PlantModel(np.eye(2), np.ones((2, 1))), np.eye(3)),
    lambda: dare_residual(PlantModel(np.eye(2), np.ones((2, 1))), P),
    lambda: DisturbanceModel.external([0.1, 0.2]),
], ids=["rho_of_n", "rho_of_m", "dare_residual_p", "dare_residual_value_matrix",
        "external_one_dimensional"])
def test_mismatched_shape_is_a_shape_mismatch(call):
    with pytest.raises(ShapeMismatch):
        call()


@pytest.mark.parametrize("call", [
    lambda: dare_residual(PLANT, [[np.nan]]),
    lambda: disturbance_eval(ZERO, 0, [np.inf], [0.0], None),
    lambda: Scenario(PLANT, ZERO, x0=[np.nan], horizon=5),
], ids=["dare_residual_p", "disturbance_eval_x", "scenario_x0"])
def test_non_finite_array_is_rejected(call):
    with pytest.raises(NonFiniteInput):
        call()


EXTERNAL = DisturbanceModel.external([[1.0], [2.0]])
SCHEDULE = ExcitationSchedule.constant(1, 1.0, seed=3)


@pytest.mark.parametrize("call, error", [
    (lambda: disturbance_eval(EXTERNAL, -1, [0.0], [0.0], None), ShapeMismatch),
    (lambda: disturbance_eval(EXTERNAL, 1.5, [0.0], [0.0], None), ShapeMismatch),
    (lambda: ExcitationSchedule.constant(1.5, 1.0), ShapeMismatch),
    (lambda: ExcitationSchedule.constant(True, 1.0), ShapeMismatch),
    (lambda: ExcitationSchedule.constant(1, 1.0, seed=1.5), DomainError),
    (lambda: ExcitationSchedule.constant(1, 1.0, seed="1"), DomainError),
    (lambda: excitation_sample(SCHEDULE, 1.5), ShapeMismatch),
    (lambda: Scenario(PLANT, ZERO, x0=[1.0], horizon=2.5), ShapeMismatch),
    (lambda: CorrelationState(sigma=np.eye(2), sigma_hat=[[0.0, 0.0]], lam=0.99,
                              sigma0=np.eye(2), t=1.5), ShapeMismatch),
    (lambda: initial_correlation(1.5, 1), ShapeMismatch),
    (lambda: initial_correlation(-1, 2), ShapeMismatch),
    (lambda: initial_controller(1.5, 1), ShapeMismatch),
    (lambda: batch_correlations([], 0.99, np.eye(2), n=1.5), ShapeMismatch),
    (lambda: solve_dare(PLANT, max_iter=2.5), DomainError),
    (lambda: random_plant(np.random.default_rng(0), 0, 1, 0.5), ShapeMismatch),
    (lambda: random_plant(np.random.default_rng(0), 1.5, 1, 0.5), ShapeMismatch),
    (lambda: sample_membership_plant(np.random.default_rng(0), 2.0, 0, 1), ShapeMismatch),
], ids=["disturbance_eval_negative_t", "disturbance_eval_float_t", "excitation_float_m",
        "excitation_bool_m", "excitation_float_seed", "excitation_string_seed",
        "excitation_sample_float_t", "scenario_float_horizon", "correlation_state_float_t",
        "initial_correlation_float_n", "initial_correlation_negative_n",
        "initial_controller_float_n", "batch_correlations_float_n",
        "solve_dare_float_max_iter", "random_plant_zero_n", "random_plant_float_n",
        "sample_membership_plant_zero_n"])
def test_bad_integer_argument_is_typed(call, error):
    with pytest.raises(error, match="must be an integer >= "):
        call()


def test_numpy_integers_are_integers():
    schedule = ExcitationSchedule.constant(np.int64(1), 1.0, seed=np.uint32(3))
    assert (type(schedule.m), type(schedule.seed)) == (int, int)
    assert np.array_equal(excitation_sample(schedule, np.int32(4)), excitation_sample(SCHEDULE, 4))
    w, _ = disturbance_eval(EXTERNAL, np.int64(1), [0.0], [0.0], None)
    assert np.array_equal(w, [2.0])


@pytest.mark.parametrize("entry", [([1.0], [0.0]), 1.0], ids=["pair", "number"])
@pytest.mark.parametrize("call", [
    lambda history: batch_correlations(history, 0.99, np.eye(2)),
    lambda history: batch_correlations(history, 0.99, np.eye(2), n=1),
    lambda history: disturbance_correlation(history, PLANT, 0.99, np.eye(2)),
], ids=["batch_inferred_n", "batch_given_n", "disturbance_correlation"])
def test_history_entry_not_a_triple_is_a_shape_mismatch(call, entry):
    with pytest.raises(ShapeMismatch, match=r"history\[0\]"):
        call([entry])
    with pytest.raises(ShapeMismatch, match=r"history\[1\]"):
        call([([1.0], [0.0], [0.5]), entry])
