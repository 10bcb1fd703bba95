"""The product rule: a product of two single matrices, or of a matrix and a
vector, is written `x.dot(y)`.  `ndarray.dot` reaches the same BLAS call as the
`matmul` gufunc behind `x @ y` for about half its dispatch cost; `@` stays only in
the kernels that take stacks (..., r, c), where `.dot` would compute a tensor
product, not a batched one.

The two do not agree bit for bit on every layout (a vector times a non-contiguous
slice differs in the last bit on some shapes), so each converted kernel is compared
with its `@` twin, the kernel's own source with every `x.dot(y)` read as `x @ y`,
on both layouts the package feeds it: the views A and B of one estimate
[Ahat Bhat], and contiguous plants.  A scan keeps `@` out of every other function.
"""

import __future__
import ast
import dataclasses
import inspect
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adaptive_lqr import (AdaptiveLqError, DisturbanceModel, ExcitationSchedule, PlantModel,
                          Scenario, _lapack, gain_from_q, q_from_p, solve_dare)
from adaptive_lqr import certificates, controller, estimation, riccati, simulation

DIMS = [(n, m) for n in range(1, 10) for m in range(1, 6)]
LAYOUTS = ("estimate", "contiguous")
SOLVE_TOL = estimation.SOLVE_TOL
BETA, RHO, GAMMA = 2.0, 0.01, 40.0


class _DotAsMatmul(ast.NodeTransformer):
    """Every call x.dot(y) rewritten as x @ y; `count` says how many."""

    count = 0

    def visit_Call(self, node):
        self.generic_visit(node)
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "dot" and len(node.args) == 1 \
                and not node.keywords:
            self.count += 1
            return ast.copy_location(ast.BinOp(f.value, ast.MatMult(), node.args[0]), node)
        return node


@cache
def matmul_twin(fn):
    """fn compiled from its own source, decorators included, with every x.dot(y) read
    as x @ y, in a copy of its module's globals: it calls the package's other
    functions unchanged, so each twin isolates its own kernel's products."""
    rewrite = _DotAsMatmul()
    tree = ast.fix_missing_locations(rewrite.visit(ast.parse(inspect.getsource(fn))))
    assert rewrite.count, f"{fn.__name__} writes no product as .dot"
    namespace = dict(inspect.unwrap(fn).__globals__)
    exec(compile(tree, inspect.getsourcefile(fn), "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[fn.__name__]


def bits(v):
    """v as nested tuples of raw bytes: equal exactly when v's arrays and floats are
    equal bit for bit (so 0.0 and -0.0 differ and NaN matches NaN)."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, float):
        return float(v).hex()
    if isinstance(v, (tuple, list)):
        return tuple(bits(x) for x in v)
    if isinstance(v, dict):
        return tuple((k, bits(x)) for k, x in v.items())
    if dataclasses.is_dataclass(v):
        return type(v).__name__, bits(vars(v))
    return v


def outcome(fn, *args):
    """fn(*args) in the package's quiet() error state, or the type of the error it raised."""
    with _lapack.quiet():
        try:
            return fn(*args)
        except (AdaptiveLqError, np.linalg.LinAlgError) as exc:
            return type(exc)


def _case(n: int, m: int, layout: str) -> SimpleNamespace:
    """One seeded (n, m) instance: correlation data and their estimate [Ahat Bhat] of a
    plant of spectral radius 0.9, with A, B and ab as the adaptive step sees them
    (`estimate`: views of the transposed solve) or as a PlantModel's C-contiguous
    copies; the estimate's solved P, Q and gain; and a held P solved for a nearby
    pair, so that the warm solve refines it by Newton steps."""
    rng = np.random.default_rng((2929, n, m))
    d = n + m
    G = rng.standard_normal((d, d))
    sigma = riccati.sym(G @ G.T + d * np.eye(d))
    A = rng.uniform(-1.0, 1.0, (n, n))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    pair = np.hstack([A, rng.standard_normal((n, m))])
    sigma_hat = (pair + 0.01 * rng.standard_normal((n, d))) @ sigma
    ab = estimation._estimate(sigma, sigma_hat)
    assert ab.flags.f_contiguous
    plant = (estimation._estimate_plant(ab) if layout == "estimate"
             else PlantModel(ab[:, :n], ab[:, n:]))
    P = solve_dare(plant)
    q = q_from_p(plant, P)
    return SimpleNamespace(n=n, m=m, sigma=sigma, sigma_hat=sigma_hat, plant=plant,
                           A=plant.A, B=plant.B, ab=plant.ab, P=P, q=q, K=gain_from_q(q),
                           held=riccati._solve_cold(pair[:, :n], pair[:, n:], SOLVE_TOL),
                           x=rng.standard_normal(n), u=rng.standard_normal(m),
                           eps=rng.standard_normal(m))


def _simulated(c):
    return Scenario(plant=c.plant, x0=np.ones(c.n), horizon=40,
                    disturbance=DisturbanceModel.filtered(0.01 * c.A, 0.01 * c.B, pole=0.4),
                    excitation=ExcitationSchedule(c.m, 1.0, 0.95, seed=c.n * 10 + c.m))


def _seeded(c):
    """A fresh generator, the same for a kernel and its twin."""
    return np.random.default_rng((c.n, c.m))


def _lemma1_args(c):
    inst = certificates.lemma1_instance_for_plant(_seeded(c), c.plant, c.P, c.q, BETA, RHO)
    return inst.sigma, inst.sigma_hat, inst.sigma_tilde, inst.P, inst.Q


# Each kernel with the call that runs it on a case.
KERNELS = {
    "riccati_step": (riccati.riccati_step, lambda f, c: f((c.A, c.B), c.held)),
    "_q": (riccati._q, lambda f, c: f(c.ab, c.held)),
    "_solve_cold": (riccati._solve_cold, lambda f, c: f(c.A, c.B, SOLVE_TOL)),
    "_solve_held": (riccati._solve_held, lambda f, c: f((c.A, c.B), SOLVE_TOL, c.held)),
    "dare_error_estimate": (riccati.dare_error_estimate, lambda f, c: f(c.plant, c.held)),
    "solve_from_upper": (riccati.solve_from_upper, lambda f, c: f(c.plant, c.q, c.K)),
    "_step": (controller._step, lambda f, c: [
        f(c.sigma, c.sigma_hat, np.zeros((c.m, c.n)), P, c.x, c.eps) for P in (None, c.held)]),
    "_disturb": (simulation._disturb, lambda f, c: f(
        DisturbanceModel.filtered(c.A, c.B, pole=0.4), 3, c.x, c.u, c.x)),
    "simulate": (simulation.simulate, lambda f, c: f(_simulated(c))),
    "disturbance_correlation": (estimation.disturbance_correlation, lambda f, c: f(
        [(c.x, c.u, c.x), (c.x, c.eps, 0.5 * c.x)], c.plant, 0.9, c.sigma)),
    "theorem1_margin": (certificates.theorem1_margin, lambda f, c: f(
        c.plant, c.P, c.K, BETA, RHO, c.sigma, c.sigma_hat)),
    "lemma1_check": (certificates.lemma1_check, lambda f, c: f(*_lemma1_args(c), BETA, RHO)),
    "lyapunov_decay_check": (certificates.lyapunov_decay_check, lambda f, c: f(c.plant, c.P, c.K)),
    "corollary_bound_check": (certificates.corollary_bound_check, lambda f, c: f(
        simulation.simulate(_simulated(c)), c.plant, 0, GAMMA, BETA, RHO)),
    "random_pd_matrix": (certificates.random_pd_matrix, lambda f, c: f(_seeded(c), c.n + c.m)),
    "theorem1_instance_for_plant": (certificates.theorem1_instance_for_plant, lambda f, c: f(
        _seeded(c), c.plant, c.P, BETA, RHO)),
    "lemma1_instance_for_plant": (certificates.lemma1_instance_for_plant, lambda f, c: f(
        _seeded(c), c.plant, c.P, c.q, BETA, RHO)),
}


@pytest.fixture(scope="module")
def cases():
    return {layout: [_case(n, m, layout) for n, m in DIMS] for layout in LAYOUTS}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name", KERNELS)
def test_dot_keeps_the_bits_of_matmul(cases, name, layout):
    fn, call = KERNELS[name]
    twin = matmul_twin(fn)
    for c in cases[layout]:
        kept = bits(outcome(call, fn, c)) == bits(outcome(call, twin, c))
        assert kept, f"{name} at n = {c.n}, m = {c.m}, {layout}: .dot and @ differ"


def test_every_case_refines_its_held_p_by_newton(cases):
    # So the twins of riccati_step, _solve_held and _step run the Newton path, not
    # only the confirm: the held P fails the confirm, and the warm solve still passes.
    for c in cases["estimate"]:
        Pn = riccati.riccati_step((c.A, c.B), c.held)[0]
        assert not riccati._converged(c.held, Pn, riccati.CONFIRM_FRACTION * SOLVE_TOL)
        assert riccati._solve_held((c.A, c.B), SOLVE_TOL, c.held) is not None


def _matmul_sites(node, where="<module>"):
    """The name of the innermost function or class around each `@` or `@=` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
            yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
        yield from _matmul_sites(child, inner)


def test_matmul_only_in_the_stacked_kernels():
    # A site put back to @ keeps its bits, so only this scan sees it.
    src = Path(riccati.__file__).parent
    sites = sorted({f"{path.stem}.{where}" for path in src.rglob("*.py")
                    for where in _matmul_sites(ast.parse(path.read_text()))})
    assert sites == ["estimation._residual", "riccati._spectral_norm"]
