"""Numerical certificates for the adaptive closed loop.

Each check packages the measured hypothesis margins and the conclusion
margin of one matrix or scalar inequality into a CertificateReport.  All
positive-semidefinite comparisons are evaluated as the minimum eigenvalue
of the re-symmetrized difference, with absolute slack riccati.PSD_SLACK; a
negative conclusion margin means the inequality is violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import DomainError, NotConverged, NotStabilizable, ShapeMismatch
from .estimation import _estimate, _estimate_plant, rho_of
from .riccati import (
    DEFAULT_TOL,
    PSD_SLACK,
    Gain,
    PlantModel,
    QMatrix,
    ValueMatrix,
    _check_above,
    _check_beta,
    _check_int,
    _check_matrix,
    _check_positive,
    _check_real,
    _check_rho,
    _check_symmetric,
    _converged,
    _membership,
    _min_eig,
    _solve_membership,
    _spectral_norm,
    _spectral_radius,
    _sym_norm,
    gain_from_q,
    q_from_p,
    solve_dare,
    sym,
)
from .simulation import TrajectoryLog

# Rejection sampling gives up after this many candidate plants.
MAX_SAMPLE_TRIES = 20000
# Stand-in for margins that cannot be evaluated (e.g. unsolvable fixed point);
# keeps every reported margin finite.
UNDEFINED_MARGIN = -1e300


def _finite(x: float) -> float:
    x = float(x)
    if np.isnan(x):
        return UNDEFINED_MARGIN
    return min(max(x, UNDEFINED_MARGIN), -UNDEFINED_MARGIN)


@dataclass(frozen=True)
class HypothesisCheck:
    """One measured hypothesis: margin plus whether it holds within slack."""

    margin: float
    holds: bool


@dataclass(frozen=True)
class CertificateReport:
    """Named inequality check with per-hypothesis margins and a conclusion margin."""

    name: str
    hypotheses: dict[str, HypothesisCheck]
    hypotheses_hold: bool
    conclusion_margin: float
    details: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "hypotheses": {k: {"margin": h.margin, "holds": h.holds}
                           for k, h in self.hypotheses.items()},
            "hypotheses_hold": self.hypotheses_hold,
            "margins": {"conclusion": self.conclusion_margin},
            "details": dict(self.details),
        }


def _report(name: str, hyps: dict[str, HypothesisCheck], margin: float,
            details: dict[str, float]) -> CertificateReport:
    """The report of one check: its hypotheses hold when each one does."""
    return CertificateReport(name=name, hypotheses=hyps,
                             hypotheses_hold=all(h.holds for h in hyps.values()),
                             conclusion_margin=_finite(margin), details=details)


def _hyp(margin: float, slack: float = PSD_SLACK) -> HypothesisCheck:
    margin = _finite(margin)
    return HypothesisCheck(margin=margin, holds=margin >= -slack)


def _check_p_and_gain(plant: PlantModel, P: ValueMatrix, K: Gain) -> None:
    n, m = plant.n, plant.m
    if P.P.shape != (n, n) or K.K.shape != (m, n):
        raise ShapeMismatch(f"P must be {n} x {n} and the gain {m} x {n}, "
                            f"got {P.P.shape} and {K.K.shape}")


@_lapack.quietly
def theorem1_margin(plant: PlantModel, P: ValueMatrix, kt: Gain, beta: float, rho: float,
                    sigma: np.ndarray | None = None,
                    sigma_hat: np.ndarray | None = None) -> CertificateReport:
    """Single-step robustness margin of the gain obtained from data.

    Conclusion margin: minimum eigenvalue of

        P / (1 - 2 beta^2 rho (rho+2)) - (I + Kt'Kt + (A + B Kt)' P (A + B Kt))

    with P the true plant's optimal cost matrix.  Hypotheses record the
    contraction condition 2 beta^2 rho (rho+2) < 1, membership of the true
    plant, and (when correlation data is supplied) that rho bounds the
    estimate error of the estimate SigmaHat Sigma^{-1}.  Membership is tested
    on the solve confirmed from P (one step at the fixed point); a P the step
    cannot confirm is replaced by a cold solve, so the verdict is
    check_membership's.  The conclusion is evaluated on the given P when
    the solve confirms it to DEFAULT_TOL, otherwise on the solved P; a
    conclusion matrix that overflows has margin UNDEFINED_MARGIN.
    A beta not above 1, a negative rho, or a beta or rho not finite or whose
    square overflows raises DomainError; a P or gain not shaped for the
    plant, correlation data not (n+m) x (n+m) and n x (n+m), a sigma not
    symmetric, or only one of sigma and sigma_hat, ShapeMismatch; a Sigma
    too ill-conditioned to estimate from, IllConditioned.
    """
    if (sigma is None) != (sigma_hat is None):
        raise ShapeMismatch("sigma and sigma_hat must be given together or not at all")
    rho = _check_rho(rho, "rho")
    beta = _check_beta(beta, "beta")
    _check_p_and_gain(plant, P, kt)
    c = 2.0 * beta**2 * rho * (rho + 2.0)
    # Strict hypothesis: the conclusion divides by 1 - c.
    hyps = {"contraction": HypothesisCheck(margin=_finite(1.0 - c), holds=1.0 - c > 1e-12)}
    solved, cert = _solve_membership(plant, beta, P.P)
    if solved is not None and not _converged(P.P, solved.P, DEFAULT_TOL):
        P = solved
    hyps["membership"] = _hyp(beta**2 - cert.max_eig_Q)
    details = {"beta": float(beta), "rho": float(rho), "contraction_value": _finite(c),
               "max_eig_Q": _finite(cert.max_eig_Q), "dare_residual": _finite(cert.residual)}
    if sigma is not None:
        d = plant.n + plant.m
        est = _estimate(_check_symmetric(sigma, "sigma", (d, d))[0],
                        _check_matrix(sigma_hat, "sigma_hat", (plant.n, d)))
        rho_data = rho_of(_estimate_plant(est), plant)
        hyps["data_consistency"] = _hyp(rho - rho_data)
        details["rho_data"] = rho_data
    if 1.0 - c <= 1e-12:
        margin = UNDEFINED_MARGIN
    else:
        closed = plant.A + plant.B.dot(kt.K)
        margin = _min_eig(P.P / (1.0 - c)
                          - (_lapack.eye(plant.n) + kt.K.T.dot(kt.K) + closed.T.dot(P.P).dot(closed)))
    return _report("theorem1", hyps, margin, details)


def alpha_of(beta: float, rho: float, gamma: float) -> float:
    """Performance coefficient

        alpha = beta^2 + (1 / (1 - beta^2/gamma^2)) (1 - beta^2 / (1 - 2 beta^2 rho (rho+2))).

    Requires beta > 0, rho >= 0, gamma > beta and 2 beta^2 rho (rho+2) < 1,
    and finite squares of beta, rho and gamma.
    """
    beta = _check_above(beta, "beta", 0.0)
    rho = _check_rho(rho, "rho")
    gamma = _check_above(gamma, "gamma", beta)
    c = _check_real(2.0 * beta**2 * rho * (rho + 2.0), "2 beta^2 rho (rho+2)", 0.0, 1.0, "[)")
    return float(beta**2 + (1.0 / (1.0 - beta**2 / gamma**2)) * (1.0 - beta**2 / (1.0 - c)))


def consistent_start(log: TrajectoryLog, rho: float) -> int | None:
    """Smallest t0 with rho_t <= rho for every logged t >= t0, None if none exists."""
    ok = log.rho <= _check_real(rho, "rho")
    if len(ok) == 0 or not ok[-1]:
        return None
    # Last index where the bound fails, +1; 0 when it never fails.
    bad = np.where(~ok)[0]
    return int(bad[-1] + 1) if len(bad) else 0


def corollary_bound_check(log: TrajectoryLog, plant: PlantModel, t0: int,
                          gamma: float, beta: float, rho: float) -> CertificateReport:
    """Accumulated-cost bound over a logged run.

    LHS = sum_{t=t0}^{T-1} (|x_t|^2 + |K_t x_t|^2),
    RHS = alpha^{-1} |x_{t0}|^2_P + (gamma^2/alpha) sum |B eps_t + w_t|^2,
    margin = RHS - LHS.  Hypotheses: gamma > beta, alpha > 0, membership of
    the true plant, and rho_t <= rho for all logged t in [t0, T).
    """
    if (log.n, log.m) != (plant.n, plant.m):
        raise ShapeMismatch(f"the log has n = {log.n}, m = {log.m}; "
                            f"the plant has n = {plant.n}, m = {plant.m}")
    T = len(log)
    if _check_int(t0, "t0", 0, DomainError) >= T:
        raise DomainError(f"t0 = {t0} must lie in [0, {T})")
    alpha = _check_positive(alpha_of(beta, rho, gamma), "alpha")
    P = solve_dare(plant)
    xs = log.x[t0:]
    kxs = np.einsum("tij,tj->ti", log.k[t0:], xs)
    lhs = float(np.sum(xs**2) + np.sum(kxs**2))
    drive = log.eps[t0:].dot(plant.B.T) + log.w[t0:]
    drive_energy = float(np.sum(drive**2))
    initial_energy = float(xs[0].dot(P.P).dot(xs[0]))
    rhs = initial_energy / alpha + gamma**2 / alpha * drive_energy
    max_rho = float(np.max(log.rho[t0:]))
    hyps = {
        "gamma_exceeds_beta": _hyp(gamma - beta, slack=0.0),
        "alpha_positive": _hyp(alpha, slack=0.0),
        "membership": _hyp(float(beta)**2 - _membership(plant, P, beta).max_eig_Q),
        "data_consistency": _hyp(rho - max_rho),
    }
    details = {"lhs": _finite(lhs), "rhs": _finite(rhs), "alpha": float(alpha),
               "t0": float(t0), "drive_energy": _finite(drive_energy),
               "initial_energy": _finite(initial_energy), "max_rho": _finite(max_rho),
               "beta": float(beta), "rho": float(rho), "gamma": float(gamma)}
    return _report("corollary", hyps, rhs - lhs, details)


@_lapack.quietly
def lemma1_check(sigma, sigma_hat, sigma_tilde, P, Q, beta: float, rho: float) -> CertificateReport:
    """Perturbed correlation bound.

    Hypotheses (measured, violations reported rather than raised):
      (SigmaHat - SigmaTilde)' P (SigmaHat - SigmaTilde) = Sigma (Q - I) Sigma,
      SigmaTilde' SigmaTilde <= rho^2 Sigma^2,
      I <= Q <= beta^2 I.
    Conclusion margin: min eig of
      Sigma Q Sigma + (beta^2 rho (rho+2) - 1) Sigma^2 - SigmaHat' P SigmaHat.
    A negative or non-finite rho raises DomainError: the second hypothesis
    holds for -rho as for rho, the conclusion does not.  So does a beta not
    above 1, and a beta or rho whose square overflows.  With SigmaHat n x d,
    the matrices must be finite and Sigma, Q d x d, SigmaTilde n x d and P n x n.
    A margin whose matrix overflows is UNDEFINED_MARGIN.
    """
    rho = _check_rho(rho, "rho")
    beta = _check_beta(beta, "beta")
    Sh = _check_matrix(sigma_hat, "sigma_hat")
    n, d = Sh.shape
    S = _check_matrix(sigma, "sigma", (d, d))
    St = _check_matrix(sigma_tilde, "sigma_tilde", (n, d))
    P = _check_matrix(P, "P", (n, n))
    Q = _check_matrix(Q, "Q", (d, d))
    eye = _lapack.eye(d)
    consistency_rhs = S.dot(Q - eye).dot(S)
    dev = (Sh - St).T.dot(P).dot(Sh - St) - consistency_rhs   # finite only if the rhs is
    hyps = {
        "consistency": _hyp(-_spectral_norm(dev) / max(1.0, _sym_norm(consistency_rhs))
                            if np.isfinite(dev).all() else UNDEFINED_MARGIN),
        "tilde_bound": _hyp(_min_eig((rho**2 * S).dot(S) - St.T.dot(St))),
        "q_lower": _hyp(_min_eig(Q - eye)),
        "q_upper": _hyp(_min_eig(beta**2 * eye - Q)),
    }
    margin = _min_eig(S.dot(Q).dot(S) + ((beta**2 * rho * (rho + 2.0) - 1.0) * S).dot(S)
                      - Sh.T.dot(P).dot(Sh))
    return _report("lemma1", hyps, margin, {"beta": float(beta), "rho": float(rho)})


@_lapack.quietly
def lyapunov_decay_check(plant: PlantModel, P: ValueMatrix, K: Gain) -> CertificateReport:
    """Per-step storage decay: min eig of P - (A+BK)'P(A+BK) - I - K'K.

    Zero (to 1e-9) at the optimal gain; negative for any gain that fails the
    strict decay.  A P or gain not shaped for the plant raises ShapeMismatch.
    A closed loop or decay matrix that overflows has margin UNDEFINED_MARGIN,
    and the closed loop radius inf when it overflows or eigvals fails.
    """
    _check_p_and_gain(plant, P, K)
    closed = plant.A + plant.B.dot(K.K)
    margin = _min_eig(P.P - closed.T.dot(P.P).dot(closed) - _lapack.eye(plant.n) - K.K.T.dot(K.K))
    return _report("lyapunov_decay", {}, margin, {"closed_loop_radius": _spectral_radius(closed)})


def admissible_rho(beta: float) -> float:
    """Supremum of rho keeping the certified cost inflation below 1 + beta^{-2}.

    Solves 2 beta^2 rho (rho+2) = 1 - 1/(1 + beta^{-2}) by the quadratic
    formula; any rho below the returned value satisfies the strict condition
    [1 - 2 beta^2 rho (rho+2)]^{-1} < 1 + beta^{-2}.
    """
    beta = _check_beta(beta, "beta")
    return float(np.sqrt(1.0 + 1.0 / (2.0 * beta**2 * (1.0 + beta**2))) - 1.0)


# ---------------------------------------------------------------------------
# Randomized instance generation (seeded, reproducible)

@_lapack.quietly
def random_plant(rng: np.random.Generator, n: int, m: int,
                 spectral_radius: float, input_scale: float = 1.0) -> PlantModel:
    """A with i.i.d. uniform [-1,1] entries rescaled to the target spectral radius
    (redrawn unless its own is finite and above 1e-9), B uniform [-1,1] times input_scale."""
    n, m = _check_int(n, "n"), _check_int(m, "m")
    spectral_radius = _check_real(spectral_radius, "spectral_radius", low=0.0)
    input_scale = _check_real(input_scale, "input_scale")
    while True:
        A = rng.uniform(-1.0, 1.0, (n, n))
        r = _spectral_radius(A)
        if 1e-9 < r < np.inf:
            break
    A *= spectral_radius / r
    B = input_scale * rng.uniform(-1.0, 1.0, (n, m))
    return PlantModel(A, B)


@_lapack.quietly
def sample_membership_plant(rng: np.random.Generator, beta: float, n: int,
                            m: int) -> tuple[PlantModel, ValueMatrix, QMatrix]:
    """Rejection-sample a plant with Q <= beta^2 I; NotConverged after MAX_SAMPLE_TRIES tries.

    P >= I makes Q = I + [A B]' P [A B] >= I + [A B]'[A B], so a candidate with
    1 + |[A B]|^2 > beta^2 is no member: it is rejected before its Riccati
    solve, after its draws, and counts as a try.  The samples and the
    generator's state are those of solving every candidate.
    """
    beta = _check_beta(beta, "beta")
    # The doubling iterate is >= I only to rounding, so the computed max
    # eigenvalue of Q may sit below 1 + |[A B]|^2 by rounding; the 1e-9 guard
    # keeps the screen from rejecting a candidate the eigenvalue test accepts.
    screen = beta**2 * (1.0 + 1e-9)
    for _ in range(MAX_SAMPLE_TRIES):
        plant = random_plant(rng, n, m,
                             spectral_radius=rng.uniform(0.02, 0.9),
                             input_scale=rng.uniform(0.05, 1.0))
        if 1.0 + _spectral_norm(plant.ab)**2 > screen:
            continue
        try:
            P = solve_dare(plant)
        except NotStabilizable:
            continue
        q = q_from_p(plant, P)
        if _lapack.eigvalsh_nan(q.Q).max() <= beta**2:
            return plant, P, q
    raise NotConverged(f"no plant found in the beta = {beta} membership set "
                       f"after {MAX_SAMPLE_TRIES} tries")


def contraction_rho_root(beta: float) -> float:
    """Positive root of 2 beta^2 rho (rho+2) = 1."""
    beta = _check_beta(beta, "beta")
    return float(np.sqrt(1.0 + 1.0 / (2.0 * beta**2)) - 1.0)


def random_pd_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d))
    return sym(G.dot(G.T) + rng.uniform(0.05, 1.0) * _lapack.eye(d))


def _perturbation(rng: np.random.Generator, n: int, d: int, rho: float) -> np.ndarray:
    if _check_rho(rho, "rho") == 0.0:
        return np.zeros((n, d))
    D = rng.standard_normal((n, d))
    norm = _spectral_norm(D)
    if not 0.0 < norm < np.inf:
        raise NotConverged("the eigenvalues for the perturbation's norm could not be computed")
    return rho * D / norm


@dataclass(frozen=True, eq=False)
class Theorem1Instance:
    """Plant in the membership set plus correlation data at estimate distance rho."""

    plant: PlantModel
    P: ValueMatrix
    sigma: np.ndarray
    sigma_hat: np.ndarray
    beta: float
    rho: float
    kt: Gain


@_lapack.quietly
def theorem1_instance_for_plant(rng: np.random.Generator, plant: PlantModel,
                                P: ValueMatrix, beta: float, rho: float) -> Theorem1Instance:
    """Correlation data at estimate distance exactly rho for a given plant.

    The estimate is [A B] + Delta with spectral norm rho; Kt is the gain the
    data-driven equation produces for that estimate.
    """
    n, m = plant.n, plant.m
    sigma = random_pd_matrix(rng, n + m)
    delta = _perturbation(rng, n, n + m, rho)
    sigma_hat = (plant.ab + delta).dot(sigma)
    est = PlantModel(plant.A + delta[:, :n], plant.B + delta[:, n:])
    kt = gain_from_q(q_from_p(est, solve_dare(est, tol=1e-12)))
    return Theorem1Instance(plant=plant, P=P, sigma=sigma, sigma_hat=sigma_hat,
                            beta=_check_beta(beta, "beta"), rho=rho, kt=kt)


def sample_theorem1_instance(rng: np.random.Generator, beta: float, n: int,
                             m: int) -> Theorem1Instance:
    """Random hypothesis-satisfying instance for theorem1_margin.

    rho is a fraction drawn uniform on [0, 0.9] of the contraction root of
    2 beta^2 rho (rho+2) = 1.
    """
    plant, P, _ = sample_membership_plant(rng, beta, n, m)
    rho = rng.uniform(0.0, 0.9) * contraction_rho_root(beta)
    return theorem1_instance_for_plant(rng, plant, P, beta, rho)


@dataclass(frozen=True, eq=False)
class Lemma1Instance:
    """Matrices satisfying the perturbed correlation bound hypotheses."""

    sigma: np.ndarray
    sigma_hat: np.ndarray
    sigma_tilde: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    beta: float
    rho: float


@_lapack.quietly
def lemma1_instance_for_plant(rng: np.random.Generator, plant: PlantModel,
                              P: ValueMatrix, q: QMatrix, beta: float,
                              rho: float) -> Lemma1Instance:
    """Hypothesis-satisfying matrices for lemma1_check built around a plant."""
    n, m = plant.n, plant.m
    sigma = random_pd_matrix(rng, n + m)
    sigma_tilde = _perturbation(rng, n, n + m, rho).dot(sigma)
    sigma_hat = plant.ab.dot(sigma) + sigma_tilde
    return Lemma1Instance(sigma=sigma, sigma_hat=sigma_hat, sigma_tilde=sigma_tilde,
                          P=P.P, Q=q.Q, beta=_check_beta(beta, "beta"), rho=rho)


def sample_lemma1_instance(rng: np.random.Generator, beta: float, n: int,
                           m: int) -> Lemma1Instance:
    """Random hypothesis-satisfying instance for lemma1_check (rho as in
    sample_theorem1_instance)."""
    plant, P, q = sample_membership_plant(rng, beta, n, m)
    rho = rng.uniform(0.0, 0.9) * contraction_rho_root(beta)
    return lemma1_instance_for_plant(rng, plant, P, q, beta, rho)
