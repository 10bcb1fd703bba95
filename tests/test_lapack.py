"""adaptive_lqr._lapack against the numpy.linalg functions it stands in for."""

import warnings

import numpy as np
import pytest

from adaptive_lqr import QMatrix, _lapack
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
            assert same(_lapack.solve(lhs, rhs), np.linalg.solve(lhs, rhs))

    def test_eigvalsh(self, d):
        rng = np.random.default_rng(200 + d)
        G = rng.standard_normal((d, d))
        for a in (G + G.T, G @ G.T, G, G.T):   # a non-symmetric a: its lower triangle
            assert same(_lapack.eigvalsh(a), np.linalg.eigvalsh(a))

    def test_cholesky(self, d):
        rng = np.random.default_rng(300 + d)
        G = rng.standard_normal((d, d))
        for a in (G @ G.T + 0.1 * np.eye(d), (G @ G.T).T + np.eye(d)):
            assert same(_lapack.cholesky(a), np.linalg.cholesky(a))

    def test_eigvals(self, d):
        # numpy's wrapper casts all-real eigenvalues to float; the values are equal.
        rng = np.random.default_rng(500 + d)
        G = rng.standard_normal((d, d))
        for a in (G, G.T, G + G.T, np.triu(G)):
            ours, theirs = _lapack.eigvals(a), np.linalg.eigvals(a)
            assert ours.dtype == np.complex128 and np.array_equal(ours, theirs)

    def test_strided_blocks_of_q(self, d):
        # QMatrix's blocks are views into Q with its row stride.
        rng = np.random.default_rng(400 + d)
        n = max(1, d // 2)
        G = rng.standard_normal((d + n, d + n))
        q = QMatrix(np.eye(d + n) + G @ G.T, n, d)
        assert not q.quu.flags.c_contiguous or d == 1
        assert same(_lapack.solve(q.quu, q.qux), np.linalg.solve(q.quu, q.qux))
        assert same(_lapack.solve(q.quu, q.qux[:, 0]), np.linalg.solve(q.quu, q.qux[:, 0]))
        assert same(_lapack.eigvalsh(q.quu), np.linalg.eigvalsh(q.quu))
        assert same(_lapack.cholesky(q.quu), np.linalg.cholesky(q.quu))


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
def test_failures_match_numpy_without_warnings(kernel, case):
    a = np.array(BAD[case])
    args = (a, np.ones(2)) if kernel == "solve" else (a,)
    ours = outcome(getattr(_lapack, kernel), *args)
    theirs = outcome(getattr(np.linalg, kernel), *args)
    if isinstance(theirs, np.linalg.LinAlgError):
        assert type(ours) is type(theirs) and str(ours) == str(theirs)
    else:
        assert same(ours, theirs)


@pytest.mark.parametrize("kernel", ["solve", "eigvalsh", "cholesky"])
@pytest.mark.parametrize("case", sorted(BAD))
def test_nan_kernels_give_the_bits_or_nan_in_quiet(kernel, case):
    # The _nan form of a kernel gives the raising form's bits, and NaN where it
    # raises; inside quiet() it warns of nothing.
    a = np.array(BAD[case])
    args = (a, np.ones(2)) if kernel == "solve" else (a,)
    raising = outcome(getattr(_lapack, kernel), *args)
    with warnings.catch_warnings(), _lapack.quiet():
        warnings.simplefilter("error")
        ours = getattr(_lapack, kernel + "_nan")(*args)
    if isinstance(raising, np.linalg.LinAlgError):
        assert np.isnan(ours).all()
    else:
        assert same(ours, raising)


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


def test_singular_and_not_pd_raise_numpys_error():
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _lapack.solve(np.array(BAD["singular"]), np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        _lapack.cholesky(np.array(BAD["not_pd"]))


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
