"""adaptive_lqr._lapack against the numpy.linalg functions it stands in for, and
the package's one error state."""

import inspect
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from adaptive_lqr import (
    AdaptiveLqError,
    CertificateReport,
    CorrelationState,
    DomainError,
    IllConditioned,
    MembershipCertificate,
    NotConverged,
    PlantModel,
    QMatrix,
    ShapeMismatch,
    ValueMatrix,
    _lapack,
    check_membership,
    dare_error_estimate,
    dare_residual,
    gain_from_q,
    lemma1_check,
    lemma1_instance_for_plant,
    lyapunov_decay_check,
    q_from_p,
    rho_of,
    solve_dare,
    solve_from_upper,
    theorem1_instance_for_plant,
    theorem1_margin,
)
from adaptive_lqr.certificates import UNDEFINED_MARGIN
from adaptive_lqr.riccati import _spectral_radius

DIMS = range(1, 10)


def same(ours, theirs):
    """Equal bits, shape and dtype (NaN equal to NaN)."""
    return (ours.dtype == theirs.dtype and ours.shape == theirs.shape
            and np.array_equal(ours, theirs, equal_nan=True))


def outcome(fn, *args):
    """fn(*args), or the LinAlgError it raised, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except np.linalg.LinAlgError as exc:
            return exc


@pytest.mark.parametrize("d", DIMS)
class TestBitForBit:
    def test_solve(self, d):
        rng = np.random.default_rng(100 + d)
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, 3))
        for lhs, rhs in ((a, b), (a, b[:, 0]), (a.T, b), (a, rng.standard_normal((3, d)).T),
                         (a.T, b[:, 1])):
            assert same(_lapack.solve_nan(lhs, rhs), np.linalg.solve(lhs, rhs))

    def test_eigvalsh(self, d):
        rng = np.random.default_rng(200 + d)
        G = rng.standard_normal((d, d))
        for a in (G + G.T, G @ G.T, G, G.T):   # a non-symmetric a: its lower triangle
            assert same(_lapack.eigvalsh_nan(a), np.linalg.eigvalsh(a))

    def test_cholesky(self, d):
        rng = np.random.default_rng(300 + d)
        G = rng.standard_normal((d, d))
        for a in (G @ G.T + 0.1 * np.eye(d), (G @ G.T).T + np.eye(d)):
            assert same(_lapack.cholesky_nan(a), np.linalg.cholesky(a))

    def test_eigvals(self, d):
        # numpy's wrapper casts all-real eigenvalues to float; the values are equal.
        rng = np.random.default_rng(500 + d)
        G = rng.standard_normal((d, d))
        for a in (G, G.T, G + G.T, np.triu(G)):
            ours, theirs = _lapack.eigvals_nan(a), np.linalg.eigvals(a)
            assert ours.dtype == np.complex128 and np.array_equal(ours, theirs)

    def test_strided_blocks_of_q(self, d):
        # QMatrix's blocks are views into Q with its row stride.
        rng = np.random.default_rng(400 + d)
        n = max(1, d // 2)
        G = rng.standard_normal((d + n, d + n))
        q = QMatrix(np.eye(d + n) + G @ G.T, n, d)
        assert not q.quu.flags.c_contiguous or d == 1
        assert same(_lapack.solve_nan(q.quu, q.qux), np.linalg.solve(q.quu, q.qux))
        assert same(_lapack.solve_nan(q.quu, q.qux[:, 0]), np.linalg.solve(q.quu, q.qux[:, 0]))
        assert same(_lapack.eigvalsh_nan(q.quu), np.linalg.eigvalsh(q.quu))
        assert same(_lapack.cholesky_nan(q.quu), np.linalg.cholesky(q.quu))


BAD = {
    "singular": [[1.0, 2.0], [2.0, 4.0]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
    "nan": [[np.nan, 0.0], [0.0, 1.0]],
    "nan_off_diagonal": [[1.0, np.nan], [np.nan, 1.0]],
    "inf": [[np.inf, 0.0], [0.0, 1.0]],
    "not_pd": [[1.0, 2.0], [2.0, 1.0]],
}


@pytest.mark.parametrize("kernel", ["solve", "eigvalsh", "cholesky"])
@pytest.mark.parametrize("case", sorted(BAD))
def test_nan_kernels_give_the_bits_or_nan_in_quiet(kernel, case):
    # The _nan form of a kernel gives numpy.linalg's bits, and NaN exactly where
    # numpy.linalg raises; inside quiet() it warns of nothing.
    a = np.array(BAD[case])
    args = (a, np.ones(2)) if kernel == "solve" else (a,)
    raising = outcome(getattr(np.linalg, kernel), *args)
    with warnings.catch_warnings(), _lapack.quiet():
        warnings.simplefilter("error")
        ours = getattr(_lapack, kernel + "_nan")(*args)
    if isinstance(raising, np.linalg.LinAlgError):
        assert np.isnan(ours).all()
    else:
        assert same(ours, raising)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("pivot", ["first", "last"])
def test_cholesky_of_a_finite_matrix_not_positive_definite_is_all_nan(d, pivot):
    # riccati._solve_held reads a failed factor from L[0, 0] alone, so a failure
    # at any pivot must fill the whole output with NaN.  a = L L' with its
    # pivot k lowered by L_kk^2 + 1: the leading k x k block stays positive
    # definite and the k-th pivot is about -1.
    rng = np.random.default_rng(700 + d)
    L = np.tril(rng.standard_normal((d, d)), -1) + np.diag(rng.uniform(0.5, 2.0, d))
    a = L @ L.T
    k = 0 if pivot == "first" else d - 1
    a[k, k] -= L[k, k] ** 2 + 1.0
    assert np.isfinite(a).all() and np.isfinite(np.linalg.cholesky(a[:k, :k])).all()
    assert isinstance(outcome(np.linalg.cholesky, a), np.linalg.LinAlgError)
    with warnings.catch_warnings(), _lapack.quiet():
        warnings.simplefilter("error")
        assert np.isnan(_lapack.cholesky_nan(a)).all()


def test_quietly_runs_in_quiet_and_restores_the_error_state():
    # A quietly function called inside quiet() runs in it; outside, it enters
    # quiet() itself, where numpy ignores every floating-point error.
    states = []
    inner = _lapack.quietly(lambda: states.append(np.geterr()))
    outer = _lapack.quietly(lambda: [inner(), inner()])
    before = np.geterr()
    outer()
    assert states == [dict.fromkeys(before, "ignore")] * 2 and np.geterr() == before
    with _lapack.quiet():
        with pytest.raises(ZeroDivisionError):
            _lapack.quietly(lambda: 1 / 0)()
    assert np.geterr() == before and not _lapack._QUIET.get()


def test_spectral_radius_keeps_the_bits_of_numpys_eigvals():
    # |x + 0j| = |x|, so max |eigenvalue| does not see the wrapper's cast to float.
    rng = np.random.default_rng(600)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(-3, 4)
        assert _spectral_radius(a) == float(np.max(np.abs(np.linalg.eigvals(a))))


@pytest.mark.parametrize("case", ["nan", "nan_off_diagonal", "inf"])
def test_spectral_radius_of_a_non_finite_matrix_is_inf(case):
    # np.linalg.eigvals raises on these; the radius of an overflowed matrix is inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _spectral_radius(np.array(BAD[case])) == np.inf


@pytest.mark.parametrize("n", [1, 3, 36])
def test_eye_is_a_shared_read_only_identity(n):
    eye = _lapack.eye(n)
    assert same(eye, np.eye(n)) and _lapack.eye(n) is eye
    assert not eye.flags.writeable
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0


def _strided_view():
    # Every entry the view skips is NaN, which its verdict must not see.
    base = np.full((2, 5, 4), np.nan)
    base[:, ::2, 1:] = np.arange(18.0).reshape(2, 3, 3)
    return base[:, ::2, 1:]


FINITE_CASES = {
    "empty_vector": lambda: np.zeros(0),
    "empty_matrix": lambda: np.zeros((0, 3)),
    "empty_stack": lambda: np.zeros((2, 0, 3)),
    "vector": lambda: np.linspace(-1.0, 1.0, 5),
    "matrix": lambda: np.arange(12.0).reshape(3, 4),
    "stack": lambda: np.arange(24.0).reshape(2, 3, 4),
    "transposed": lambda: np.arange(12.0).reshape(3, 4).T,
    "strided": _strided_view,
    "huge": lambda: np.array([[1e308, -1e308], [np.finfo(float).max, 1.0]]),
    "subnormal": lambda: np.array([[5e-324, -5e-324], [1e-310, 0.0]]),
}


@pytest.mark.parametrize("case", sorted(FINITE_CASES))
def test_finite_is_isfinite_all_without_a_warning(case):
    # finite(a) is np.isfinite(a).all(), for views too, and warns of nothing
    # outside quiet(), where _check_matrix and _check_vector call it; one NaN,
    # +inf or -inf at any position makes it False.
    make = FINITE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = make()
        verdict = _lapack.finite(a)
        assert verdict == bool(np.isfinite(a).all()) and verdict
        for bad in (np.nan, np.inf, -np.inf):
            for index in np.ndindex(a.shape):
                a = make()
                a[index] = bad
                verdict = _lapack.finite(a)
                assert verdict == bool(np.isfinite(a).all()) and not verdict


def test_only_lapack_finite_calls_isfinite():
    # One finiteness test: np.isfinite is called in _lapack.finite and nowhere
    # else in the package.
    src = Path(_lapack.__file__).parent
    calls = {f.name: f.read_text().count("isfinite(") for f in src.rglob("*.py")}
    inside = inspect.getsource(_lapack.finite).count("isfinite(")
    assert inside and {name: n for name, n in calls.items() if n} == {"_lapack.py": inside}


def test_only_lapack_touches_numpys_error_state_or_its_gufuncs():
    # One policy: quiet() is the only error state the package enters, and
    # _lapack the only module that calls numpy.linalg's gufuncs or binds
    # another private numpy name.
    src = Path(_lapack.__file__).parent
    pattern = re.compile(r"errstate|_umath_linalg|numpy\._core")
    users = sorted(f.name for f in src.rglob("*.py") if pattern.search(f.read_text()))
    assert users == ["_lapack.py"]
    assert (src / "_lapack.py").read_text().count("np.errstate(") == 1
    assert "np.errstate(" in inspect.getsource(_lapack.quiet)
    assert not hasattr(_lapack, "_raising")
    for raising in ("solve", "eigvalsh", "eigvals", "cholesky"):
        assert not hasattr(_lapack, raising)


BETA = 2.5


def _probes() -> dict:
    """Public entry points that reach eigvalsh or eigvals, on inputs for which
    each one succeeds: a plant of the BETA membership set, its solve, Q and optimal gain,
    and instances built from them."""
    plant = PlantModel([[0.9, 0.2], [0.0, 0.7]], [[1.0], [0.3]])
    P = solve_dare(plant)
    q = q_from_p(plant, P)
    K = gain_from_q(q)
    lemma = lemma1_instance_for_plant(np.random.default_rng(7), plant, P, q, BETA, 0.01)
    data = theorem1_instance_for_plant(np.random.default_rng(8), plant, P, BETA, 0.01)
    near = PlantModel(plant.A + 0.01, plant.B)
    return {
        "ValueMatrix": lambda: ValueMatrix(P.P),
        "ValueMatrix_not_exactly_symmetric": lambda: ValueMatrix(P.P + [[0.0, 1e-14], [0.0, 0.0]]),
        "QMatrix": lambda: QMatrix(q.Q, 2, 1),
        "CorrelationState": lambda: CorrelationState(lemma.sigma, lemma.sigma_hat, 0.99, 0),
        "check_membership": lambda: check_membership(plant, BETA),
        "dare_residual": lambda: dare_residual(plant, P),
        "dare_error_estimate": lambda: dare_error_estimate(plant, P),
        "theorem1_margin": lambda: theorem1_margin(plant, P, K, BETA, 0.01),
        "theorem1_margin_with_data": lambda: theorem1_margin(
            plant, P, data.kt, BETA, 0.01, sigma=data.sigma, sigma_hat=data.sigma_hat),
        "lemma1_check": lambda: lemma1_check(lemma.sigma, lemma.sigma_hat, lemma.sigma_tilde,
                                             lemma.P, lemma.Q, BETA, 0.01),
        "lyapunov_decay_check": lambda: lyapunov_decay_check(plant, P, K),
        "solve_from_upper": lambda: solve_from_upper(plant, q, K),
        "rho_of": lambda: rho_of(near, plant),
        "lemma1_instance_for_plant": lambda: lemma1_instance_for_plant(
            np.random.default_rng(7), plant, P, q, BETA, 0.01),
        "theorem1_instance_for_plant": lambda: theorem1_instance_for_plant(
            np.random.default_rng(8), plant, P, BETA, 0.01),
    }


# The probes whose failure under a failed eigvalsh names its cause, with the
# type of that failure: the error raised, or a certificate whose reason says it.
NAMES_A_FAILED_EIGVALSH = {
    "ValueMatrix": DomainError,
    "ValueMatrix_not_exactly_symmetric": ShapeMismatch,
    "QMatrix": DomainError,
    "CorrelationState": ShapeMismatch,
    "check_membership": MembershipCertificate,
    "theorem1_margin_with_data": IllConditioned,
    "lemma1_instance_for_plant": NotConverged,
    "theorem1_instance_for_plant": NotConverged,
}


def _result(call):
    """call(), or the AdaptiveLqError it raised, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except AdaptiveLqError as exc:
            return exc


def _failed(result) -> bool:
    """Whether a probe's result fails closed: a typed error, a non-member, a report
    that does not hold (a hypothesis fails, or its conclusion or a detail is
    undefined) or a diagnostic that is not finite."""
    if isinstance(result, AdaptiveLqError):
        return True
    if isinstance(result, MembershipCertificate):
        return not result.member
    if isinstance(result, CertificateReport):
        return (not result.hypotheses_hold or result.conclusion_margin == UNDEFINED_MARGIN
                or not np.isfinite(list(result.details.values())).all())
    if isinstance(result, float):
        return not np.isfinite(result)
    return False


FAIL_CLOSED = ([("eigvalsh_nan", probe) for probe in _probes()]
               + [("eigvals_nan", "lyapunov_decay_check"), ("eigvals_nan", "dare_error_estimate")])


@pytest.mark.parametrize("kernel, probe", FAIL_CLOSED, ids=[f"{k}-{p}" for k, p in FAIL_CLOSED])
def test_a_failed_kernel_fails_closed_without_a_warning(monkeypatch, kernel, probe):
    # Every call of the kernel fails as LAPACK fails: NaN, with numpy's invalid
    # flag raised.  The entry point runs in quiet(), so nothing warns, and reads
    # the NaN as a failure: no LinAlgError, and no report that holds.  The
    # probes of NAMES_A_FAILED_EIGVALSH also say that eigvalsh failed.
    call = _probes()[probe]
    assert not _failed(_result(call))
    calls = []

    def fail(a):
        calls.append(a.shape)
        return np.full(a.shape[:-1], np.inf, complex if kernel == "eigvals_nan" else float) * 0.0

    monkeypatch.setattr(_lapack, kernel, fail)
    result = _result(call)
    assert calls and _failed(result), result
    if kernel == "eigvalsh_nan" and probe in NAMES_A_FAILED_EIGVALSH:
        assert type(result) is NAMES_A_FAILED_EIGVALSH[probe]
        text = result.reason if isinstance(result, MembershipCertificate) else str(result)
        assert "could not be computed" in text, text
