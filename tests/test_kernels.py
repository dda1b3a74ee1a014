import numpy as np
import pytest
from hypothesis import given, strategies as st

from polymerlab.kernels import KERNEL_KINDS, KernelSpec, _as_points, gamma_eval, gamma_matrix

finite_reals = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_petermann_values():
    assert gamma_eval(KernelSpec(lam=0.5, normalize_unit_variance=False), 0.0) == pytest.approx(1.0)
    assert gamma_eval(KernelSpec(lam=1.0, normalize_unit_variance=False), np.log(4)) == pytest.approx(0.125)
    assert gamma_eval(KernelSpec(lam=1.0, normalize_unit_variance=True), 0.0) == pytest.approx(1.0)


def test_unit_variance_normalization():
    for kind in ("exponential-petermann", "squared-exponential", "product-exponential"):
        spec = KernelSpec(kind=kind, lam=0.7, normalize_unit_variance=True)
        assert gamma_eval(spec, 0.0) == pytest.approx(1.0)
        assert spec.sigma2(1) == pytest.approx(1.0)


@given(x=finite_reals, lam=st.floats(min_value=0.05, max_value=5))
def test_symmetry_and_peak(x, lam):
    for kind in ("exponential-petermann", "squared-exponential", "product-exponential"):
        spec = KernelSpec(kind=kind, lam=lam, normalize_unit_variance=False)
        fwd, bwd = gamma_eval(spec, x), gamma_eval(spec, -x)
        assert fwd == pytest.approx(bwd, rel=1e-12)
        assert abs(fwd) <= gamma_eval(spec, 0.0) + 1e-15


def test_monotone_decay_to_zero():
    xs = np.linspace(0, 40, 200)[:, None]
    for kind in ("exponential-petermann", "squared-exponential", "product-exponential"):
        vals = gamma_eval(KernelSpec(kind=kind), xs)
        assert np.all(np.diff(vals) <= 1e-15)
        assert vals[-1] < 1e-10


def test_product_kernel_factorizes():
    spec = KernelSpec(kind="product-exponential", lam=1.3, normalize_unit_variance=False)
    x = np.array([0.4, -1.1, 2.0])
    expected = np.prod([gamma_eval(spec, np.array([xi])) for xi in x])
    assert gamma_eval(spec, x) == pytest.approx(expected)
    assert spec.sigma2(3) == pytest.approx((1 / 2.6) ** 3)


def test_max_norm_for_petermann_lags():
    spec = KernelSpec(lam=1.0)
    assert gamma_eval(spec, np.array([1.0, -3.0])) == pytest.approx(np.exp(-3.0))


def test_gamma_matrix_matches_eval():
    spec = KernelSpec(lam=0.8)
    pts = np.array([[0.0], [0.3], [-1.2]])
    mat = gamma_matrix(spec, pts)
    for a in range(3):
        for b in range(3):
            assert mat[a, b] == pytest.approx(gamma_eval(spec, pts[a] - pts[b]))


def broadcast_gamma_matrix(kernel, points_a, points_b=None):
    """Reference: gamma_matrix written over one (m_a, m_b, d) lag array.

    Equal bytes rest on NumPy reducing max and multiply over the last axis
    in index order and running the same exp kernel on both forms; this was
    checked with NumPy 2.4.6.
    """
    pa = _as_points(points_a)
    pb = pa if points_b is None else _as_points(points_b)
    diff = pa[:, None, :] - pb[None, :, :]
    if kernel.kind == "exponential-petermann":
        return kernel.amplitude * np.exp(-kernel.lam * np.abs(diff).max(axis=2))
    if kernel.kind == "squared-exponential":
        return kernel.amplitude * np.exp(-0.5 * kernel.lam**2 * np.sum(diff**2, axis=2))
    return np.prod(kernel.amplitude * np.exp(-kernel.lam * np.abs(diff)), axis=2)


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_or_close(got, want, spec, d):
    """Equal bytes, except squared-exponential at d >= 8, within 1e-12 relative.

    gamma_matrix adds the squared lags in coordinate order; from 8 terms on,
    NumPy's pairwise sum over the broadcast form's last axis adds them in
    another order.
    """
    if spec.kind == "squared-exponential" and d >= 8:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    else:
        assert_same_bytes(got, want)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("two_sets", [False, True])
def test_gamma_matrix_bytes_match_broadcast_form(kind, normalize, d, two_sets):
    rng = np.random.default_rng(d)
    a = rng.normal(scale=2.0, size=(40, d))
    a[0], a[1], a[3], a[4, 0] = 0.0, -0.0, a[2], -0.0
    b = np.concatenate([rng.normal(scale=2.0, size=(25, d)), a[:4]])
    spec = KernelSpec(kind=kind, lam=0.7, normalize_unit_variance=normalize)
    args = (a, b) if two_sets else (a,)
    got = gamma_matrix(spec, *args)
    assert_same_bytes(got, broadcast_gamma_matrix(spec, *args))
    assert got.flags.writeable and got.flags.c_contiguous


@pytest.mark.parametrize("d", [1, 2, 4, 5, 6, 7, 8, 9, 16, 31, 64])
def test_squared_exponential_coordinate_fold_matches_broadcast_form(d):
    rng = np.random.default_rng(100 + d)
    a = rng.normal(size=(30, d))
    b = rng.normal(size=(20, d))
    for lam in (0.1, 0.5, 0.7, 1.0, 2.0):
        for normalize in (True, False):
            spec = KernelSpec(kind="squared-exponential", lam=lam, normalize_unit_variance=normalize)
            for args in ((a,), (a, b)):
                want = broadcast_gamma_matrix(spec, *args)
                assert np.all(want > np.finfo(float).tiny)      # no subnormal values
                assert_same_or_close(gamma_matrix(spec, *args), want, spec, d)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_gamma_matrix_bare_vector_bytes_match_broadcast_form(kind):
    # a bare vector is one point in as many dimensions as it has entries
    x = np.array([0.0, -0.0, 0.5])
    y = np.array([-0.0, 0.5, 3.0])
    spec = KernelSpec(kind=kind, lam=1.1)
    for args in ((x,), (x, y)):
        got = gamma_matrix(spec, *args)
        assert got.shape == (1, 1)
        assert_same_bytes(got, broadcast_gamma_matrix(spec, *args))


def test_gamma_matrix_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        gamma_matrix(KernelSpec(), np.zeros((3, 2)), np.zeros((4, 3)))
    for kind in KERNEL_KINDS:
        with pytest.raises(ValueError, match="dimension"):
            gamma_matrix(KernelSpec(kind=kind), [])


def test_validation_errors():
    with pytest.raises(ValueError):
        KernelSpec(kind="matern")
    with pytest.raises(ValueError):
        KernelSpec(lam=0.0)
    with pytest.raises(ValueError):
        gamma_eval(KernelSpec(), np.array([np.inf]))
    with pytest.raises(ValueError):
        gamma_eval(KernelSpec(), np.nan)


def formula_gamma_eval(kernel, x):
    """Reference: gamma at a lag written out per kernel kind, as gamma_eval once was."""
    pts = _as_points(x)
    if kernel.kind == "exponential-petermann":
        out = kernel.amplitude * np.exp(-kernel.lam * np.abs(pts).max(axis=1))
    elif kernel.kind == "squared-exponential":
        out = kernel.amplitude * np.exp(-0.5 * kernel.lam**2 * np.sum(pts**2, axis=1))
    else:
        out = np.prod(kernel.amplitude * np.exp(-kernel.lam * np.abs(pts)), axis=1)
    return float(out[0]) if np.ndim(x) <= 1 else out


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
def test_gamma_eval_bytes_match_per_kind_formulas(kind, d):
    lags = np.random.default_rng(d).normal(scale=3.0, size=(50, d))
    lags[0], lags[1], lags[2, 0] = 0.0, -0.0, -0.0
    for lam in (0.1, 1 / 3, 0.5, 1.0, 2.0):
        for normalize in (True, False):
            spec = KernelSpec(kind=kind, lam=lam, normalize_unit_variance=normalize)
            grid_lags = (0.1 / lam * np.arange(64))[:, None]    # the grid spectrum's lag sequence
            for batch in (lags, grid_lags) if d == 1 else (lags,):
                assert_same_or_close(gamma_eval(spec, batch), formula_gamma_eval(spec, batch), spec, d)
            for lag in (*lags[:4], 0.0, -0.0, 1.7):
                got, want = gamma_eval(spec, lag), formula_gamma_eval(spec, lag)
                assert type(got) is float
                assert_same_or_close(np.float64(got), np.float64(want), spec, np.size(lag))
