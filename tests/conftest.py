"""Shared oracles and generators for the test suite.

The closed-form scalar solutions and scipy's Riccati solver serve as
independent oracles for the package's own fixed-point iteration.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st

from adaptive_lqr import PlantModel, estimation, riccati


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
    of solve_dare(p0=...) and the controller's first solves."""
    calls = []
    solve = riccati.solve_dare

    def counting(plant, *args, p0=None, **kwargs):
        if p0 is None:
            calls.append(plant)
        return solve(plant, *args, p0=p0, **kwargs)

    for module in (riccati, estimation):
        monkeypatch.setattr(module, "solve_dare", counting)
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
