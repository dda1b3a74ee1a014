import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from polymerlab import quadrature
from polymerlab.environment import _JITTER, CovarianceConditioningError, tagged_stream
from polymerlab.kernels import KernelSpec, gamma_matrix
from polymerlab.quadrature import (_batches, _chol, _logsumexp, gauss_hermite_expect,
                                   gauss_hermite_mean, monte_carlo_mean)
from polymerlab.verify import check_expo_ineq, check_log_moment_bounds, random_expo_cases


def test_exponential_moment_closed_form():
    cov = np.array([[1.0]])
    val = gauss_hermite_expect(cov, lambda g: 0.7 * g[:, 0])
    assert val == pytest.approx(math.exp(0.7**2 / 2), rel=1e-9)


def test_correlated_exponential_moment():
    # E exp(a.g) = exp(a' C a / 2)
    cov = gamma_matrix(KernelSpec(), np.array([[0.0], [0.4], [1.1]]))
    a = np.array([0.5, -0.3, 0.8])
    val = gauss_hermite_expect(cov, lambda g: g @ a, n_nodes=40)
    assert val == pytest.approx(math.exp(0.5 * a @ cov @ a), rel=1e-9)


def test_node_doubling_stability():
    cov = gamma_matrix(KernelSpec(), np.array([[0.0], [0.7], [1.5]]))
    a = np.array([0.6, 0.2, -0.4])

    def logf(g):
        return g @ a

    v40 = gauss_hermite_expect(cov, logf, n_nodes=40)
    v80 = gauss_hermite_expect(cov, logf, n_nodes=80)
    assert abs(v80 - v40) / abs(v40) < 1e-8

    def mean_f(g):
        return np.log1p(np.exp(g[:, 0] - 1.0)) - 0.3 * g[:, 1]

    m40 = gauss_hermite_mean(cov, mean_f, n_nodes=40)
    m80 = gauss_hermite_mean(cov, mean_f, n_nodes=80)
    assert abs(m80 - m40) / max(abs(m40), 1e-12) < 1e-8


def test_monte_carlo_agrees_with_quadrature():
    cov = gamma_matrix(KernelSpec(), np.array([[0.0], [0.9]]))
    a = np.array([0.4, 0.4])
    quad = gauss_hermite_expect(cov, lambda g: g @ a)
    mc, se = monte_carlo_mean(cov, lambda g: np.exp(g @ a), 300_000, tagged_stream(1, 3, 5))
    assert abs(mc - quad) < 4 * se

    mean_quad = gauss_hermite_mean(cov, lambda g: np.tanh(g[:, 0] + 0.2 * g[:, 1]))
    mean_mc, mean_se = monte_carlo_mean(cov, lambda g: np.tanh(g[:, 0] + 0.2 * g[:, 1]),
                                        300_000, tagged_stream(1, 3, 6))
    assert abs(mean_mc - mean_quad) < 4 * mean_se


@pytest.mark.parametrize("m", [1, 2, 5, 40])
def test_chol_is_the_jittered_factor_and_leaves_its_argument(m):
    rng = tagged_stream(3, 9, m)
    points = np.sort(rng.uniform(-3.0, 3.0, m))[:, None]
    for kernel in (KernelSpec(), KernelSpec(lam=0.4, normalize_unit_variance=False)):
        cov = gamma_matrix(kernel, points)
        before = cov.copy()
        want = np.linalg.cholesky(cov + _JITTER * np.max(np.diag(cov)) * np.eye(len(cov)))
        assert _chol(cov).tobytes() == want.tobytes()
        assert cov.tobytes() == before.tobytes()


def test_grid_size_guard_and_conditioning_error():
    cov = np.eye(8)
    with pytest.raises(ValueError, match="tensor grid"):
        gauss_hermite_expect(cov, lambda g: g[:, 0], n_nodes=40)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])    # not positive definite
    with pytest.raises(CovarianceConditioningError):
        gauss_hermite_expect(bad, lambda g: g[:, 0])


# -- batched tensor grid against the one-shot grid -----------------------------------


def _one_shot_grid(m, n_nodes):
    """The whole tensor grid at once: nodes (n^m, m) and log weights (n^m,)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    log_w1 = np.log(weights) - 0.5 * np.log(2.0 * np.pi)
    idx = np.indices((n_nodes,) * m).reshape(m, -1)
    return nodes[idx].T.copy(), log_w1[idx].sum(axis=0)


def _one_shot_expect(cov, log_integrand, n_nodes):
    chol = _chol(cov)
    z, log_w = _one_shot_grid(len(chol), n_nodes)
    return float(np.exp(logsumexp(log_w + log_integrand(z @ chol.T))))


def _one_shot_mean(cov, integrand, n_nodes):
    chol = _chol(cov)
    z, log_w = _one_shot_grid(len(chol), n_nodes)
    return float(np.exp(log_w) @ integrand(z @ chol.T))


def _lemma_integrands(m):
    """A matmul integrand and lemma21/lemma22-style log-sum-exp integrands on m atoms."""
    rng = tagged_stream(5, 9, m)
    a = rng.uniform(-1.0, 1.0, m)
    log_mu = np.log(rng.dirichlet(np.ones(m)))
    atom_idx = np.arange(m)
    beta, q = 0.6, 1.3

    def lemma21(g):
        return beta * (g @ a) - q * logsumexp(log_mu + beta * g[:, atom_idx], axis=1)

    def lemma22(g):
        return logsumexp(log_mu + beta * g[:, atom_idx] - 0.5 * beta**2, axis=1)

    return [lambda g: g @ a, lemma21, lemma22]


# (m, n_nodes, chunk): grids smaller than, equal to, a multiple of and not a
# multiple of a batch of ``chunk`` nodes, steered through GH_BATCH_ENTRIES;
# (4, 4, 2) runs in batches of exactly 2 nodes.  chunk None keeps the real
# batch, which 40^3 and 22^4 exceed.
_BATCH_CASES = [(1, 40, None), (2, 40, None), (3, 40, None), (4, 22, None),
                (1, 64, 64), (2, 8, 64), (3, 4, 64), (4, 3, 81),
                (4, 4, 64), (2, 9, 10), (3, 7, 50), (4, 5, 7), (1, 30, 1),
                (4, 4, 2), (4, 7, 1000)]


@pytest.mark.parametrize("m, n_nodes, chunk", _BATCH_CASES)
def test_batched_quadrature_bytes_match_one_shot_grid(monkeypatch, m, n_nodes, chunk):
    if chunk is not None:
        monkeypatch.setattr(quadrature, "GH_BATCH_ENTRIES", chunk * m)
    limit = quadrature.GH_BATCH_ENTRIES // m
    sizes = [rows.stop - rows.start for rows, _, _ in quadrature._tensor_batches(m, n_nodes)]
    assert sum(sizes) == n_nodes**m and min(2, limit) <= min(sizes) and max(sizes) <= limit
    assert (len(sizes) > 1) == (n_nodes**m > limit)
    if chunk is None:
        assert (len(sizes) > 1) == (m >= 3)
    cov = gamma_matrix(KernelSpec(kind="exponential-petermann", lam=1.3),
                       np.linspace(-1.0, 1.5, m)[:, None])
    for fn in _lemma_integrands(m):
        got = gauss_hermite_expect(cov, fn, n_nodes=n_nodes)
        assert np.float64(got).tobytes() == np.float64(_one_shot_expect(cov, fn, n_nodes)).tobytes()
        got = gauss_hermite_mean(cov, fn, n_nodes=n_nodes)
        assert np.float64(got).tobytes() == np.float64(_one_shot_mean(cov, fn, n_nodes)).tobytes()


def test_quadrature_batch_limit_is_at_least_three_on_every_allowed_grid():
    """A limit of 3 or more keeps every batch of a grid of 2 or more nodes at 2 or more rows.

    Two nodes per axis allow the most atoms under MAX_GRID_POINTS.
    """
    m_max = max(m for m in range(1, 64) if 2**m <= quadrature.MAX_GRID_POINTS)
    assert quadrature.GH_BATCH_ENTRIES // m_max >= 3
    assert all(r.stop - r.start >= 2 for total in range(2, 100) for r in _batches(total, 3))


def test_four_atom_oracles_stay_below_256_mib():
    """The 40^4-node grid is evaluated in batches; the one-shot grid peaked at 754 MiB."""
    case = next(c for c in random_expo_cases(20240817) if len(c.mu_atoms) == 4)
    peaks = []
    for check in (lambda: check_expo_ineq(case),
                  lambda: check_log_moment_bounds(case.mu_atoms, case.mu_weights, case.beta,
                                                  case.kernel)):
        tracemalloc.start()
        try:
            assert check().passed
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) < 256, peaks


@pytest.mark.parametrize("oracle", ["expo_ineq", "log_moment_bounds"])
def test_four_atom_oracle_peaks_below_48_mib(oracle):
    """Node batches of GH_BATCH_ENTRIES coordinates leave the n^m reduction arrays as the peak.

    In a fresh process the two checks peak at 43.6 and 41.7 MiB; with the
    earlier 200,000-node batches they peaked at 62.5 and 78.9 MiB.
    """
    case = next(c for c in random_expo_cases(20240817) if len(c.mu_atoms) == 4)
    tracemalloc.start()
    try:
        if oracle == "expo_ineq":
            assert check_expo_ineq(case).passed
        else:
            assert check_log_moment_bounds(case.mu_atoms, case.mu_weights, case.beta,
                                           case.kernel).passed
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 48, peak


# -- the lean log-sum-exp against scipy.special.logsumexp ----------------------


def _assert_lean_logsumexp_is_scipy(a, axis=None):
    """Same type, shape and bytes as scipy's, with no warning raised by the lean one."""
    want = logsumexp(a, axis=axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(a, axis=axis)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a, got, want)


LSE_SIZES = [*range(1, 65), 127, 128, 129, 255, 256, 257, 1000, 1023, 1024, 1025,
             4095, 4096, 4097, 5000]


@pytest.mark.parametrize("n", LSE_SIZES)
def test_lean_logsumexp_matches_scipy_on_vectors(n):
    rng = np.random.default_rng(20240817 + n)
    for scale in (1e-3, 1.0, 30.0, 700.0):
        a = rng.normal(scale=scale, size=n)
        _assert_lean_logsumexp_is_scipy(a)
        tied = a.copy()
        tied[rng.integers(0, n, 3)] = a.max()           # ties at the maximum
        _assert_lean_logsumexp_is_scipy(tied)
        _assert_lean_logsumexp_is_scipy(np.round(a))     # many ties
        for special in (np.inf, -np.inf, np.nan):
            hit = a.copy()
            hit[rng.integers(0, n)] = special
            _assert_lean_logsumexp_is_scipy(hit)
    for fill in (-np.inf, np.inf, np.nan, 3.0, -800.0):
        _assert_lean_logsumexp_is_scipy(np.full(n, fill))


@pytest.mark.parametrize("cols", [1, 2, 3, 4, 5])
def test_lean_logsumexp_matches_scipy_along_rows(cols):
    rng = np.random.default_rng(cols)
    for rows in (1, 2, 7, 1000, 5000):
        a = rng.normal(scale=5.0, size=(rows, cols))
        a[rng.random(a.shape) < 0.05] = -np.inf
        a[rng.random(a.shape) < 0.01] = np.inf
        a[0, 0] = np.nan
        a[-1] = -np.inf                                  # a whole row at -inf
        _assert_lean_logsumexp_is_scipy(a, axis=1)


@pytest.mark.parametrize("x", [2.5, -np.inf, np.inf, np.nan, np.float64(-3.0), np.array(1.25), [0.5]])
def test_lean_logsumexp_matches_scipy_on_scalars(x):
    _assert_lean_logsumexp_is_scipy(x)


_FINITE_OR_SPECIAL = st.one_of(st.floats(min_value=-1e300, max_value=1e300),
                               st.sampled_from([np.inf, -np.inf, np.nan]))


@settings(max_examples=200, deadline=None)
@given(a=arrays(np.float64, st.integers(1, 300), elements=_FINITE_OR_SPECIAL))
def test_lean_logsumexp_matches_scipy_on_any_vector(a):
    _assert_lean_logsumexp_is_scipy(a)


@settings(max_examples=200, deadline=None)
@given(a=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 5)),
                elements=_FINITE_OR_SPECIAL))
def test_lean_logsumexp_matches_scipy_on_any_rows(a):
    _assert_lean_logsumexp_is_scipy(a, axis=1)
