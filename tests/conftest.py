"""Shared oracles and generators for the test suite.

The closed-form scalar solutions and scipy's Riccati solver serve as
independent oracles for the package's own fixed-point iteration.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st

from adaptive_lqr import (DisturbanceModel, ExcitationSchedule, PlantModel, Scenario,
                          admissible_rho, estimation, riccati, sample_membership_plant)


def scalar_p(a: float, b: float) -> float:
    """Closed-form scalar fixed point of p = 1 + min_k [k^2 + (a+bk)^2 p].

    b = 0 requires |a| < 1 and gives p = 1 / (1 - a^2); otherwise p is the
    positive root of b^2 p^2 - (a^2 + b^2 - 1) p - 1 = 0.
    """
    if b == 0.0:
        assert abs(a) < 1.0
        return 1.0 / (1.0 - a**2)
    coeffs = [b**2, -(a**2 + b**2 - 1.0), -1.0]
    roots = np.roots(coeffs)
    return float(max(roots.real))


def scalar_k(a: float, b: float, p: float) -> float:
    """Minimizing scalar gain k = -abp / (1 + b^2 p)."""
    return -a * b * p / (1.0 + b**2 * p)


def scipy_dare(plant: PlantModel):
    """Independent oracle: scipy's solver for the unit-cost problem."""
    P = scipy.linalg.solve_discrete_are(plant.A, plant.B, np.eye(plant.n), np.eye(plant.m))
    K = -np.linalg.solve(np.eye(plant.m) + plant.B.T @ P @ plant.B, plant.B.T @ P @ plant.A)
    return P, K


def random_stabilizable_plant(rng: np.random.Generator, n: int, m: int,
                              max_radius: float = 1.5) -> PlantModel:
    """Random plant accepted when the scipy oracle can solve it."""
    while True:
        A = rng.uniform(-1.0, 1.0, (n, n))
        r = np.max(np.abs(np.linalg.eigvals(A)))
        if r < 1e-9:
            continue
        A = A * (rng.uniform(0.05, max_radius) / r)
        B = rng.uniform(-1.0, 1.0, (n, m))
        plant = PlantModel(A, B)
        try:
            scipy.linalg.solve_discrete_are(A, B, np.eye(n), np.eye(m))
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            continue
        return plant


def criterion5_scenarios(seed, cases, excitation_seed=None):
    """Acceptance criterion 5's four variants per sampled membership plant, each
    with its beta (2 and 5 in turn), gamma = 20 beta and rho = 0.7 rho*(beta) as
    (scenario, rho) pairs.  Excitation seeds come from the plants' stream, or,
    given `excitation_seed`, from a stream of their own (the plants stay the same)."""
    rng = np.random.default_rng(seed)
    seeds = None if excitation_seed is None else np.random.default_rng(excitation_seed)
    out = []
    for case in range(cases):
        beta = [2.0, 5.0][case % 2]
        rho = 0.7 * admissible_rho(beta)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        plant, _, _ = sample_membership_plant(rng, beta, n, m)
        base = dict(amplitude=50.0, decay_rate=0.9)
        da = rng.standard_normal((n, n))
        db = rng.standard_normal((n, m))
        scale = 0.01 * rho / np.linalg.norm(np.hstack([da, db]), 2)
        variants = [
            (DisturbanceModel.zero(), base, np.ones(n)),
            (DisturbanceModel.zero(), dict(amplitude=200.0, decay_rate=0.85), 3.0 * np.ones(n)),
            (DisturbanceModel.external(0.1 * rho * rng.uniform(-1.0, 1.0, (250, n))), base,
             np.ones(n)),
            (DisturbanceModel.filtered(scale * da, scale * db, pole=0.4), base, np.ones(n)),
        ]
        for dist, exc_kw, x0 in variants:
            exc_seed = int(rng.integers(0, 2**32))
            if seeds is not None:
                exc_seed = int(seeds.integers(0, 2**32))
            exc = ExcitationSchedule.decaying(m, seed=exc_seed, **exc_kw)
            out.append((Scenario(plant=plant, disturbance=dist, x0=x0, horizon=250,
                                 excitation=exc, beta=beta, gamma=20.0 * beta), rho))
    return out


def random_history(rng: np.random.Generator, n: int, m: int, length: int):
    """Random (x, u, x_next) triples with O(1) entries."""
    return [
        (rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(n))
        for _ in range(length)
    ]


def matrices(rows, cols):
    """Hypothesis strategy: rows x cols float matrices with entries in [-1, 1]."""
    return st.lists(st.floats(-1.0, 1.0), min_size=rows * cols, max_size=rows * cols).map(
        lambda v: np.asarray(v).reshape(rows, cols))


def orthogonal(d):
    """Hypothesis strategy: d x d orthogonal matrices, the Q of the QR factorization
    of a matrix from `matrices` (orthogonal for any square matrix, zero included)."""
    return matrices(d, d).map(lambda M: np.linalg.qr(M)[0])


@pytest.fixture
def cold_solves(monkeypatch):
    """The plants of the cold solves (no p0) the package makes: the fall-backs
    of solve_dare(p0=...), and the controller's first solves and fall-backs,
    which its array kernel makes through estimation._solve_cold as pairs (A, B)."""
    calls = []
    solve, cold = riccati.solve_dare, estimation._solve_cold

    def counting(plant, *args, p0=None, **kwargs):
        if p0 is None:
            calls.append(plant)
        return solve(plant, *args, p0=p0, **kwargs)

    def counting_cold(A, B, tol):
        calls.append((A, B))
        return cold(A, B, tol)

    for module in (riccati, estimation):
        monkeypatch.setattr(module, "solve_dare", counting)
    monkeypatch.setattr(estimation, "_solve_cold", counting_cold)
    return calls


def count_calls(monkeypatch, module, names):
    """Patch each function in `names` on `module` to count its calls; returns the
    counts by name, live."""
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


# numpy.linalg's public wrappers of the package's LAPACK kernels; the package
# calls the kernels through adaptive_lqr._lapack only.
LINALG_WRAPPERS = ("solve", "eigvalsh", "eigvals", "cholesky")
