"""Every public entry point turns a malformed argument into a typed error.

Ragged nesting, non-numeric entries and non-array objects must end in
ShapeMismatch naming the argument, never in a raw numpy ValueError/TypeError.
Integer arguments reject bools, floats and out-of-range values with the
argument's own error type, and history entries that are not triples are
ShapeMismatch naming the entry.  Real arguments reject strings, None, bools,
NaN, infinities, ints beyond the float range and out-of-range values with
DomainError naming the argument.
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
    admissible_rho,
    alpha_of,
    batch_correlations,
    check_membership,
    consistent_start,
    contraction_rho_root,
    controller_observe,
    controller_step,
    corollary_bound_check,
    dare_error_estimate,
    dare_residual,
    data_riccati_residual,
    disturbance_correlation,
    disturbance_eval,
    excitation_sample,
    gain_from_q,
    initial_controller,
    initial_correlation,
    lemma1_check,
    lemma1_instance_for_plant,
    q_from_p,
    random_plant,
    rho_of,
    sample_lemma1_instance,
    sample_membership_plant,
    sample_theorem1_instance,
    simulate,
    solve_dare,
    solve_data_riccati,
    solve_from_upper,
    theorem1_instance_for_plant,
    theorem1_margin,
    update_correlations,
)

PLANT = PlantModel([[0.5]], [[1.0]])
P = solve_dare(PLANT)
KT = gain_from_q(q_from_p(PLANT, P))
ZERO = DisturbanceModel.zero()
LINEAR = DisturbanceModel.linear([[0.1]], [[0.0]])
Q = q_from_p(PLANT, P)
LOG = simulate(Scenario(PLANT, ZERO, x0=[1.0], horizon=3))

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
                                                     lam=0.99, t=0),
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
    lambda: data_riccati_residual(initial_correlation(1, 1), QMatrix(np.eye(3), 2, 1), KT),
    lambda: data_riccati_residual(initial_correlation(1, 1), Q, Gain([[0.0, 0.0]])),
    lambda: initial_controller(1, 1, excitation=ExcitationSchedule(2)),
    lambda: CorrelationState(sigma=np.eye(2), sigma_hat=[[0.0, 0.0, 0.0]], lam=0.99, t=0),
    lambda: batch_correlations([], 0.99, np.eye(2)),
    lambda: solve_from_upper(PLANT, QMatrix(2 * np.eye(3), 2, 1), KT),
    lambda: DisturbanceModel.linear([[0.1, 0.0]], [[0.0]]),
    lambda: ValueMatrix(np.zeros((0, 0))),
    lambda: CorrelationState(sigma=np.zeros((0, 0)), sigma_hat=np.zeros((0, 0)), lam=0.9, t=0),
    lambda: disturbance_correlation([], PLANT, 0.99, [[1.0, 5.0], [0.0, 1.0]]),
    lambda: disturbance_correlation([], PLANT, 0.99, np.diag([-1.0, 1.0])),
], ids=["rho_of_n", "rho_of_m", "dare_residual_p", "dare_residual_value_matrix",
        "external_one_dimensional", "data_riccati_residual_q", "data_riccati_residual_gain",
        "controller_excitation_m", "correlation_state_sigma_hat",
        "batch_correlations_empty_without_n", "solve_from_upper_qbar",
        "disturbance_delta_a_not_square", "value_matrix_empty", "correlation_state_empty",
        "disturbance_correlation_sigma0_asymmetric", "disturbance_correlation_sigma0_indefinite"])
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


# P = -1 makes I + B'PB = 0 for the plant (0.5, 1); P = 0 has no relative scale.
@pytest.mark.parametrize("call", [dare_residual, dare_error_estimate])
@pytest.mark.parametrize("bad, match", [([[-1.0]], "I \\+ B'PB singular"),
                                        ([[0.0]], "zero symmetric part")],
                         ids=["singular_step", "zero"])
def test_p_outside_the_residual_domain_is_a_domain_error(call, bad, match):
    with pytest.raises(DomainError, match=f"^P .*{match}"):
        call(PLANT, bad)


# For the plant (1e200, 1), A'PA overflows at P = 1 and P = 1e200; the gain term
# W'K is -inf, so the step from either P is NaN (a RuntimeWarning fails the test).
@pytest.mark.parametrize("call", [dare_residual, dare_error_estimate])
@pytest.mark.parametrize("P", [[[1.0]], [[1e200]]])
def test_p_whose_step_overflows_is_a_domain_error(call, P):
    with pytest.raises(DomainError, match="^P makes the Riccati step overflow"):
        call(PlantModel([[1e200]], [[1.0]]), P)


@pytest.mark.parametrize("state", ["abc", [1.0, 2.0, 3.0]], ids=["string", "wrong_length"])
def test_filtered_internal_state_is_a_shape_mismatch(state):
    filtered = DisturbanceModel.filtered([[0.1]], [[0.0]], 0.5)
    with pytest.raises(ShapeMismatch, match="internal_state"):
        disturbance_eval(filtered, 0, [1.0], [0.0], state)


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
    (lambda: CorrelationState(sigma=np.eye(2), sigma_hat=[[0.0, 0.0]], lam=0.99, t=1.5),
     ShapeMismatch),
    (lambda: initial_correlation(1.5, 1), ShapeMismatch),
    (lambda: initial_correlation(-1, 2), ShapeMismatch),
    (lambda: initial_controller(1.5, 1), ShapeMismatch),
    (lambda: batch_correlations([], 0.99, np.eye(2), n=1.5), ShapeMismatch),
    (lambda: random_plant(np.random.default_rng(0), 0, 1, 0.5), ShapeMismatch),
    (lambda: random_plant(np.random.default_rng(0), 1.5, 1, 0.5), ShapeMismatch),
    (lambda: sample_membership_plant(np.random.default_rng(0), 2.0, 0, 1), ShapeMismatch),
    (lambda: corollary_bound_check(LOG, PLANT, 1.5, 20.0, 2.0, 0.01), DomainError),
    (lambda: QMatrix(2 * np.eye(3), 1.5, 1.5), ShapeMismatch),
    (lambda: QMatrix(2 * np.eye(3), -1, 4), ShapeMismatch),
    (lambda: QMatrix(2 * np.eye(3), 3, 0), ShapeMismatch),
    (lambda: QMatrix(2 * np.eye(2), True, 1), ShapeMismatch),
], ids=["disturbance_eval_negative_t", "disturbance_eval_float_t", "excitation_float_m",
        "excitation_bool_m", "excitation_float_seed", "excitation_string_seed",
        "excitation_sample_float_t", "scenario_float_horizon", "correlation_state_float_t",
        "initial_correlation_float_n", "initial_correlation_negative_n",
        "initial_controller_float_n", "batch_correlations_float_n",
        "random_plant_zero_n", "random_plant_float_n",
        "sample_membership_plant_zero_n", "corollary_float_t0", "qmatrix_float_n",
        "qmatrix_negative_n", "qmatrix_zero_m", "qmatrix_bool_n"])
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


# Each value is a malformed real argument: none is a finite int, float or numpy real.
BAD_REALS = {
    "string": "0.5",
    "none": None,
    "bool": True,
    "nan": float("nan"),
    "inf": float("inf"),
    "minus_inf": float("-inf"),
    "int_beyond_float": 10**400,
}
LEMMA1 = dict(sigma=np.eye(2), sigma_hat=[[0.5, 1.0]], sigma_tilde=[[0.0, 0.0]], P=[[1.0]],
              Q=np.eye(2), beta=2.0, rho=0.01)

# Each entry passes the malformed value as the named real argument; the
# error message must start with that name.
REAL_PROBES = {
    "solve_dare.tol": ("tol", lambda bad: solve_dare(PLANT, tol=bad)),
    "solve_data_riccati.tol": ("tol", lambda bad: solve_data_riccati(PLANT, tol=bad)),
    "check_membership.beta": ("beta", lambda bad: check_membership(PLANT, bad)),
    "CorrelationState.lam": ("lam", lambda bad: CorrelationState(
        sigma=np.eye(2), sigma_hat=[[0.0, 0.0]], lam=bad, t=0)),
    "initial_correlation.lam": ("lam", lambda bad: initial_correlation(1, 1, lam=bad)),
    "batch_correlations.lam": ("lam", lambda bad: batch_correlations([], bad, np.eye(2), n=1)),
    "disturbance_correlation.lam": ("lam", lambda bad: disturbance_correlation(
        [], PLANT, bad, np.eye(2))),
    "ExcitationSchedule.amplitude": ("amplitude", lambda bad: ExcitationSchedule.constant(1, bad)),
    "ExcitationSchedule.decay_rate": ("decay_rate",
                                      lambda bad: ExcitationSchedule.decaying(1, 1.0, bad)),
    "initial_controller.lam": ("lam", lambda bad: initial_controller(1, 1, lam=bad)),
    "DisturbanceModel.pole": ("pole", lambda bad: DisturbanceModel.filtered([[0.1]], [[0.0]], bad)),
    "DisturbanceModel.scaled": ("magnitude", lambda bad: LINEAR.scaled(bad)),
    "Scenario.lam": ("lam", lambda bad: Scenario(PLANT, ZERO, x0=[1.0], horizon=5, lam=bad)),
    "alpha_of.beta": ("beta", lambda bad: alpha_of(bad, 0.0, 10.0)),
    "alpha_of.rho": ("rho", lambda bad: alpha_of(2.0, bad, 10.0)),
    "alpha_of.gamma": ("gamma", lambda bad: alpha_of(2.0, 0.0, bad)),
    "admissible_rho.beta": ("beta", lambda bad: admissible_rho(bad)),
    "contraction_rho_root.beta": ("beta", lambda bad: contraction_rho_root(bad)),
    "theorem1_margin.beta": ("beta", lambda bad: theorem1_margin(PLANT, P, KT, bad, 0.01)),
    "theorem1_margin.rho": ("rho", lambda bad: theorem1_margin(PLANT, P, KT, 2.0, bad)),
    "lemma1_check.beta": ("beta", lambda bad: lemma1_check(**{**LEMMA1, "beta": bad})),
    "lemma1_check.rho": ("rho", lambda bad: lemma1_check(**{**LEMMA1, "rho": bad})),
    "consistent_start.rho": ("rho", lambda bad: consistent_start(LOG, bad)),
    "corollary_bound_check.gamma": ("gamma", lambda bad: corollary_bound_check(
        LOG, PLANT, 0, bad, 2.0, 0.01)),
    "corollary_bound_check.beta": ("beta", lambda bad: corollary_bound_check(
        LOG, PLANT, 0, 20.0, bad, 0.01)),
    "corollary_bound_check.rho": ("rho", lambda bad: corollary_bound_check(
        LOG, PLANT, 0, 20.0, 2.0, bad)),
    "random_plant.spectral_radius": ("spectral_radius", lambda bad: random_plant(
        np.random.default_rng(0), 1, 1, bad)),
    "random_plant.input_scale": ("input_scale", lambda bad: random_plant(
        np.random.default_rng(0), 1, 1, 0.5, bad)),
    "sample_membership_plant.beta": ("beta", lambda bad: sample_membership_plant(
        np.random.default_rng(0), bad, 1, 1)),
    "sample_theorem1_instance.beta": ("beta", lambda bad: sample_theorem1_instance(
        np.random.default_rng(0), bad, 1, 1)),
    "sample_lemma1_instance.beta": ("beta", lambda bad: sample_lemma1_instance(
        np.random.default_rng(0), bad, 1, 1)),
    "theorem1_instance_for_plant.beta": ("beta", lambda bad: theorem1_instance_for_plant(
        np.random.default_rng(0), PLANT, P, bad, 0.01)),
    "theorem1_instance_for_plant.rho": ("rho", lambda bad: theorem1_instance_for_plant(
        np.random.default_rng(0), PLANT, P, 2.0, bad)),
    "lemma1_instance_for_plant.beta": ("beta", lambda bad: lemma1_instance_for_plant(
        np.random.default_rng(0), PLANT, P, Q, bad, 0.01)),
    "lemma1_instance_for_plant.rho": ("rho", lambda bad: lemma1_instance_for_plant(
        np.random.default_rng(0), PLANT, P, Q, 2.0, bad)),
}


@pytest.mark.parametrize("kind", BAD_REALS)
@pytest.mark.parametrize("probe", REAL_PROBES)
def test_malformed_real_is_a_domain_error_naming_the_argument(probe, kind):
    name, call = REAL_PROBES[probe]
    with pytest.raises(DomainError, match=f"^{name} = .* must be a finite number"):
        call(BAD_REALS[kind])


@pytest.mark.parametrize("call, name", [
    (lambda: Scenario(PLANT, ZERO, x0=[1.0], horizon=5, lam=2.0), "lam"),
    (lambda: Scenario(PLANT, ZERO, x0=[1.0], horizon=5, lam=0.0), "lam"),
    (lambda: solve_data_riccati(PLANT, tol="x"), "tol"),
    (lambda: solve_data_riccati(PLANT, tol=0.0), "tol"),
    (lambda: solve_dare(PLANT, tol=-1e-10), "tol"),
    (lambda: ExcitationSchedule.constant(1, -1.0), "amplitude"),
    (lambda: ExcitationSchedule.constant(1, 1e308), "amplitude"),
    (lambda: DisturbanceModel.filtered([[0.1]], [[0.0]], 1.0), "pole"),
    (lambda: check_membership(PLANT, 1.0), "beta"),
    (lambda: alpha_of(2.0, 0.0, 2.0), "gamma"),
    (lambda: alpha_of(2.0, -0.1, 10.0), "rho"),
    (lambda: random_plant(np.random.default_rng(0), 2, 1, -0.5), "spectral_radius"),
], ids=["scenario_lam_above_1", "scenario_lam_zero", "solve_data_riccati_string_tol",
        "solve_data_riccati_zero_tol", "solve_dare_negative_tol", "amplitude_negative",
        "amplitude_range_overflows", "pole_on_unit_circle", "beta_one", "gamma_not_above_beta",
        "rho_negative", "spectral_radius_negative"])
def test_real_out_of_range_is_a_domain_error_naming_the_argument(call, name):
    with pytest.raises(DomainError, match=f"^{name} = .* must be a finite number in "):
        call()


def test_scenario_checks_sigma0_when_built():
    with pytest.raises(ShapeMismatch, match="sigma0 must be positive definite"):
        Scenario(PLANT, ZERO, x0=[1.0], horizon=5, sigma0=np.diag([1.0, -1.0]))
    with pytest.raises(ShapeMismatch, match="sigma0"):
        Scenario(PLANT, ZERO, x0=[1.0], horizon=5, sigma0=np.eye(3))


@pytest.mark.parametrize("sigma, error, match", [
    (np.zeros((2, 2)), ShapeMismatch, "sigma must be positive definite"),
    (np.diag([1.0, -1.0]), ShapeMismatch, "sigma must be positive definite"),
    (np.array([[2.0, 1e308], [-1e308, 2.0]]), ShapeMismatch, "sigma is not symmetric"),
], ids=["zero", "indefinite", "difference_overflows"])
def test_correlation_state_sigma_is_finite_and_positive_definite(sigma, error, match):
    # Each of these broke data_riccati_residual: 0/0, a wrong residual, inf entries.
    with pytest.raises(error, match=match):
        CorrelationState(sigma=sigma, sigma_hat=[[1.0, 1.0]], lam=0.99, t=1)


# M - M' overflows for ANTI; M + M' overflows for HUGE, which is symmetric and
# valid; SKEW is 5% asymmetric with a spectral norm that overflows; ASYM is
# plainly asymmetric.
ANTI = np.array([[2.0, 1e308], [-1e308, 2.0]])
HUGE = 1e308 * np.array([[1.5, 0.2], [0.2, 1.0]])
SKEW = 0.6e308 * np.ones((3, 3)) + 0.2e308 * np.eye(3)
SKEW[1, 0] = 0.5e308
ASYM = np.array([[1.0, 0.5], [0.0, 1.0]])


@pytest.mark.parametrize("call, error, match", [
    (lambda: ValueMatrix(ANTI), ShapeMismatch, "P is not symmetric"),
    (lambda: QMatrix(ANTI, 1, 1), ShapeMismatch, "Q is not symmetric"),
    (lambda: ValueMatrix(SKEW), ShapeMismatch, "P is not symmetric"),
    (lambda: CorrelationState(sigma=SKEW, sigma_hat=[[1.0, 1.0, 1.0]], lam=0.99, t=1),
     ShapeMismatch, "sigma is not symmetric"),
    (lambda: initial_correlation(1, 1, sigma0=ASYM), ShapeMismatch, "sigma0 is not symmetric"),
    (lambda: Scenario(PLANT, ZERO, x0=[1.0], horizon=5, sigma0=ASYM), ShapeMismatch,
     "sigma0 is not symmetric"),
    (lambda: batch_correlations([], 0.99, ASYM, n=1), ShapeMismatch, "sigma0 is not symmetric"),
], ids=["value_matrix_difference_overflows", "qmatrix_difference_overflows",
        "value_matrix_five_percent_asymmetric", "correlation_state_five_percent_asymmetric",
        "initial_correlation_asymmetric_sigma0", "scenario_asymmetric_sigma0",
        "batch_correlations_asymmetric_sigma0"])
def test_one_symmetric_matrix_rule(call, error, match):
    # RuntimeWarnings are errors here, so the checker must not overflow numpy either.
    with pytest.raises(error, match=f"^{match}"):
        call()


@pytest.mark.parametrize("stored, given", [
    (lambda: ValueMatrix(HUGE).P, HUGE),
    (lambda: QMatrix(HUGE, 1, 1).Q, HUGE),
    (lambda: CorrelationState(sigma=HUGE, sigma_hat=[[1.0, 1.0]], lam=0.99, t=1).sigma, HUGE),
    (lambda: ValueMatrix(1.5e308 * np.eye(1)).P, 1.5e308 * np.eye(1)),
], ids=["value_matrix", "qmatrix", "correlation_state", "value_matrix_1x1"])
def test_symmetric_matrix_at_the_top_of_the_range_is_stored_as_given(stored, given):
    # M + M' overflows here; the check runs on M scaled by a power of two.
    assert np.array_equal(stored(), given)


def test_numpy_reals_are_reals():
    schedule = ExcitationSchedule.decaying(1, np.float32(0.5), np.float64(0.9), seed=3)
    assert (type(schedule.amplitude), type(schedule.decay_rate)) == (float, float)
    assert schedule.amplitude == 0.5
    state = initial_correlation(1, 1, lam=np.float64(0.5))
    assert type(state.lam) is float and state.lam == 0.5
    assert solve_dare(PLANT, tol=np.float32(1e-10)).P == pytest.approx(P.P, abs=1e-12)
    assert alpha_of(2, 0, 20) == alpha_of(2.0, 0.0, 20.0)


@pytest.mark.parametrize("history", [5, 0.5, None], ids=["int", "float", "none"])
@pytest.mark.parametrize("call", [
    lambda history: batch_correlations(history, 0.99, np.eye(2)),
    lambda history: disturbance_correlation(history, PLANT, 0.99, np.eye(2)),
], ids=["batch_correlations", "disturbance_correlation"])
def test_history_not_iterable_is_a_shape_mismatch(call, history):
    with pytest.raises(ShapeMismatch, match="^history must be an iterable"):
        call(history)


def test_history_may_be_any_iterable():
    history = [([1.0], [0.5], [0.7]), ([0.7], [-0.2], [0.1])]
    listed = batch_correlations(history, 0.9, np.eye(2))
    generated = batch_correlations((entry for entry in history), 0.9, np.eye(2))
    assert np.array_equal(listed.sigma, generated.sigma)
    assert np.array_equal(listed.sigma_hat, generated.sigma_hat) and generated.t == 2
    assert np.array_equal(disturbance_correlation(iter(history), PLANT, 0.9, np.eye(2)),
                          disturbance_correlation(history, PLANT, 0.9, np.eye(2)))
    # The rows of a 2-d array are entries, and a row of length 2 is not a triple.
    with pytest.raises(ShapeMismatch, match=r"history\[0\]"):
        batch_correlations(np.eye(2), 0.9, np.eye(2))
