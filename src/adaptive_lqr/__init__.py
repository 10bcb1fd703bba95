"""Certainty-equivalence adaptive LQ control with numerical robustness certificates.

The package solves the unit-cost discrete-time Riccati equation in both the
state cost form P and the joint state-input form Q, runs the estimate-and-
control loop driven by forgetting-factor correlations, simulates the closed
loop under disturbance generators, and evaluates the stability and gain-bound
certificates on concrete instances.
"""

from .errors import (
    AdaptiveLqError,
    ConfigError,
    DomainError,
    EstimateNotStabilizable,
    HypothesisViolated,
    IllConditioned,
    NonFiniteInput,
    NotConverged,
    NotStabilizable,
    ShapeMismatch,
    SingularQuu,
)
from .riccati import (
    Gain,
    MembershipCertificate,
    PlantModel,
    QMatrix,
    ValueMatrix,
    check_membership,
    dare_error_estimate,
    dare_residual,
    gain_from_q,
    q_from_p,
    riccati_step,
    solve_dare,
    solve_from_upper,
)
from .estimation import (
    CorrelationState,
    batch_correlations,
    data_riccati_residual,
    disturbance_correlation,
    estimate_model,
    initial_correlation,
    rho_of,
    solve_data_riccati,
    update_correlations,
)
from .controller import (
    ControllerState,
    ExcitationSchedule,
    StepDiagnostics,
    controller_observe,
    controller_step,
    excitation_sample,
    initial_controller,
)
from .simulation import (
    DisturbanceModel,
    Scenario,
    TrajectoryLog,
    disturbance_eval,
    logs_equal,
    simulate,
)
from .certificates import (
    CertificateReport,
    HypothesisCheck,
    Lemma1Instance,
    Theorem1Instance,
    admissible_rho,
    alpha_of,
    consistent_start,
    contraction_rho_root,
    corollary_bound_check,
    lemma1_check,
    lemma1_instance_for_plant,
    lyapunov_decay_check,
    random_plant,
    sample_lemma1_instance,
    sample_membership_plant,
    sample_theorem1_instance,
    theorem1_instance_for_plant,
    theorem1_margin,
)

__version__ = "0.1.0"
