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


@pytest.mark.parametrize("seed", [20240817, 1, 3])
def test_default_node_count_matches_forty_nodes_on_the_moment_cases(seed):
    """GH_NODES nodes per axis agree with 40 to 1e-12 on the suites' 3- and 4-atom measures.

    Over seeds 0 to 59 the worst relative gap to 40 nodes was 2.8e-12 at
    16 nodes, 3.0e-14 at 20 and 7.0e-15 at 24.
    """
    cases = [c for c in random_expo_cases(seed) if len(c.mu_atoms) >= 3]
    assert cases
    for case in cases:
        for check in (lambda **kw: check_expo_ineq(case, **kw),
                      lambda **kw: check_log_moment_bounds(case.mu_atoms, case.mu_weights,
                                                           case.beta, case.kernel, **kw)):
            default, forty = check().estimate, check(n_nodes=40).estimate
            assert math.isclose(default, forty, rel_tol=1e-12), (case, default, forty)


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


def _two_level_expect(cov, log_integrand, n_nodes):
    """The documented rule on the one-shot grid: a _logsumexp per batch, then over the batches."""
    chol = _chol(cov)
    z, log_w = _one_shot_grid(len(chol), n_nodes)
    rows = _batches(len(log_w), quadrature.GH_BATCH_ENTRIES // len(chol))
    return float(np.exp(_logsumexp([_logsumexp(log_w[r] + log_integrand(z[r] @ chol.T))
                                    for r in rows])))


def _two_level_mean(cov, integrand, n_nodes):
    """The documented rule on the one-shot grid: a NumPy sum per batch, then math.fsum."""
    chol = _chol(cov)
    z, log_w = _one_shot_grid(len(chol), n_nodes)
    rows = _batches(len(log_w), quadrature.GH_BATCH_ENTRIES // len(chol))
    return math.fsum(float(np.sum(np.exp(log_w[r]) * integrand(z[r] @ chol.T))) for r in rows)


def _same_bytes(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("m, n_nodes, chunk", _BATCH_CASES)
def test_batched_quadrature_bytes_match_two_level_reference(monkeypatch, m, n_nodes, chunk):
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
        assert _same_bytes(got, _two_level_expect(cov, fn, n_nodes))
        assert math.isclose(got, _one_shot_expect(cov, fn, n_nodes), rel_tol=1e-13)
        got = gauss_hermite_mean(cov, fn, n_nodes=n_nodes)
        assert _same_bytes(got, _two_level_mean(cov, fn, n_nodes))
        assert math.isclose(got, _one_shot_mean(cov, fn, n_nodes), rel_tol=1e-13, abs_tol=1e-13)


def _special_integrands(n_nodes):
    """Log integrands that put -inf, +inf or NaN on chosen nodes, and the first-batch mask.

    On an identity covariance with batches of one first-axis node, the first
    batch is exactly the nodes whose first coordinate is the smallest node.
    """
    nodes = np.polynomial.hermite_e.hermegauss(n_nodes)[0]
    low, high = 0.5 * (nodes[0] + nodes[1]), 0.5 * (nodes[-2] + nodes[-1])

    def first_batch(g):
        return g[:, 0] < low

    def last_node(g):
        return (g[:, 0] > high) & (g[:, 1] > high)

    def put(mask_of, value, base):
        return lambda g: np.where(mask_of(g), value, base(g))

    def linear(g):
        return 0.3 * g[:, 0] - 0.2 * g[:, 1]

    return {
        "all -inf batch": put(first_batch, -np.inf, linear),
        "all -inf grid": lambda g: np.full(len(g), -np.inf),
        "+inf node": put(last_node, np.inf, linear),
        "+inf node, -inf batch": put(last_node, np.inf, put(first_batch, -np.inf, linear)),
        "NaN node": put(last_node, np.nan, linear),
        "NaN node, -inf batch": put(last_node, np.nan, put(first_batch, -np.inf, linear)),
    }, first_batch


@pytest.mark.parametrize("case", ["all -inf batch", "all -inf grid", "+inf node",
                                  "+inf node, -inf batch", "NaN node", "NaN node, -inf batch"])
def test_two_level_logsumexp_meets_special_values_as_the_one_shot_reduction(monkeypatch, case):
    n_nodes = 8
    monkeypatch.setattr(quadrature, "GH_BATCH_ENTRIES", n_nodes * 2)
    integrands, first_batch = _special_integrands(n_nodes)
    cov = np.eye(2)
    z, _ = _one_shot_grid(2, n_nodes)
    assert first_batch(z @ _chol(cov).T).sum() == n_nodes          # one whole batch
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _one_shot_expect(cov, integrands[case], n_nodes)
        reference = _two_level_expect(cov, integrands[case], n_nodes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gauss_hermite_expect(cov, integrands[case], n_nodes=n_nodes)
    assert _same_bytes(got, reference)
    if math.isfinite(want):
        assert math.isclose(got, want, rel_tol=1e-13)
    else:
        np.testing.assert_equal(got, want)


def test_two_level_mean_of_plus_and_minus_infinity_is_nan_as_one_dot_product(monkeypatch):
    n_nodes = 8
    monkeypatch.setattr(quadrature, "GH_BATCH_ENTRIES", n_nodes * 2)
    _, first_batch = _special_integrands(n_nodes)

    def signed_infinities(g):
        return np.where(first_batch(g), -np.inf, np.where(g[:, 0] > 0, np.inf, 0.0))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert math.isnan(_one_shot_mean(np.eye(2), signed_infinities, n_nodes))
    assert math.isnan(gauss_hermite_mean(np.eye(2), signed_infinities, n_nodes=n_nodes))
    assert gauss_hermite_mean(np.eye(2), lambda g: np.where(first_batch(g), np.inf, 0.0),
                              n_nodes=n_nodes) == np.inf


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
    for check in (lambda: check_expo_ineq(case, n_nodes=40),
                  lambda: check_log_moment_bounds(case.mu_atoms, case.mu_weights, case.beta,
                                                  case.kernel, n_nodes=40)):
        tracemalloc.start()
        try:
            assert check().passed
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) < 256, peaks


@pytest.mark.parametrize("oracle", ["expo_ineq", "log_moment_bounds"])
def test_four_atom_oracle_peaks_below_8_mib(oracle):
    """Each node batch is reduced at once, so no array grows with the 40^4-node grid.

    In a fresh process the two checks peak at 4.4 MiB (2.8 MiB on a second
    call); holding the n^m reduction arrays they peaked at 43.6 and 43.4 MiB.
    """
    case = next(c for c in random_expo_cases(20240817) if len(c.mu_atoms) == 4)
    tracemalloc.start()
    try:
        if oracle == "expo_ineq":
            assert check_expo_ineq(case, n_nodes=40).passed
        else:
            assert check_log_moment_bounds(case.mu_atoms, case.mu_weights, case.beta,
                                           case.kernel, n_nodes=40).passed
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 8, peak


@pytest.mark.parametrize("oracle", ["expo_ineq", "log_moment_bounds"])
def test_four_atom_monte_carlo_peaks_below_8_mib(oracle):
    """200,000 draws at m = 4 build no (chunk, m) array.

    In a fresh process the two checks peak at 4.8 and 4.7 MiB; with
    whole-chunk temporaries they peaked at 29.3 and 27.8 MiB.
    """
    case = next(c for c in random_expo_cases(20240817) if len(c.mu_atoms) == 4)
    tracemalloc.start()
    try:
        if oracle == "expo_ineq":
            report = check_expo_ineq(case, method="mc", n_draws=200_000)
        else:
            report = check_log_moment_bounds(case.mu_atoms, case.mu_weights, case.beta,
                                             case.kernel, method="mc", n_draws=200_000)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert math.isfinite(report.estimate) and report.stderr > 0
    assert peak < 8, peak


# -- Monte Carlo batches against one fresh draw per batch --------------------


def _one_draw_per_batch(cov, integrand, n_draws, rng):
    """Each batch's normals drawn into a fresh array, transformed and integrated at once."""
    chol = _chol(cov)
    total = 0.0
    total_sq = 0.0
    for rows in _batches(n_draws, max(3, quadrature.GH_BATCH_ENTRIES // len(chol))):
        vals = integrand(rng.standard_normal((rows.stop - rows.start, len(chol))) @ chol.T)
        total += vals.sum()
        total_sq += float(np.sum(np.square(vals)))
    mean = total / n_draws
    var = max(total_sq / n_draws - mean**2, 0.0) * n_draws / (n_draws - 1)
    return float(mean), float(np.sqrt(var / n_draws))


def _one_shot_mc(cov, integrand, n_draws, rng):
    """Every draw at once: the same rows of the stream, summed in one other order."""
    vals = integrand(rng.standard_normal((n_draws, len(cov))) @ _chol(cov).T)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_draws))


def _mc_integrands(m):
    """exp-linear, tanh and lemma21-style (exp of a linear term minus a log-sum-exp) integrands."""
    rng = tagged_stream(5, 11, m)
    a = rng.uniform(-1.0, 1.0, m)
    log_mu = np.log(rng.dirichlet(np.ones(m)))
    beta, q = 0.6, 1.3
    return [lambda g: np.exp(g @ a),
            lambda g: np.tanh(g[:, 0] + 0.2 * g[:, -1]),
            lambda g: np.exp(beta * (g @ a) - q * logsumexp(log_mu + beta * g, axis=1))]


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n_draws", [2, 3, 12_499, 12_500, 12_501, 200_000, 200_001, 412_503])
def test_monte_carlo_batches_match_one_draw_per_batch(m, n_draws):
    cov = gamma_matrix(KernelSpec(kind="exponential-petermann", lam=1.3),
                       np.linspace(-1.0, 1.5, m)[:, None])
    limit = max(3, quadrature.GH_BATCH_ENTRIES // m)
    sizes = [rows.stop - rows.start for rows in _batches(n_draws, limit)]
    assert sum(sizes) == n_draws and min(sizes) >= 2 and max(sizes) <= limit
    for i, fn in enumerate(_mc_integrands(m)):
        got = monte_carlo_mean(cov, fn, n_draws, tagged_stream(7, m, i))
        want = _one_draw_per_batch(cov, fn, n_draws, tagged_stream(7, m, i))
        assert np.array(got).tobytes() == np.array(want).tobytes(), (i, got, want)
        mean, se = _one_shot_mc(cov, fn, n_draws, tagged_stream(7, m, i))
        assert math.isclose(got[0], mean, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(got[1], se, rel_tol=1e-6)


@pytest.mark.parametrize("n_draws", [0, 1, -5])
def test_monte_carlo_needs_two_draws(n_draws):
    with pytest.raises(ValueError, match=r"n_draws >= 2"):
        monte_carlo_mean(np.eye(2), lambda g: g[:, 0], n_draws, tagged_stream(1, 2, 3))


# -- the lean log-sum-exp against scipy.special.logsumexp ----------------------

_EPS = np.finfo(float).eps


def _assert_lean_logsumexp_is_scipy(a, axis=None):
    """Same type and shape as scipy's, values within 4 eps max(1, |result|), special values
    exactly, and no warning raised by the lean one."""
    want = logsumexp(a, axis=axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(a, axis=axis)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    assert got[~finite].tobytes() == want[~finite].tobytes(), (a, got, want)
    assert np.all(np.abs(got[finite] - want[finite])
                  <= 4 * _EPS * np.maximum(1.0, np.abs(want[finite]))), (a, got, want)


@pytest.mark.parametrize("a, want", [([1.0, np.inf, 2.0], np.inf), ([-np.inf] * 3, -np.inf),
                                     ([0.5, np.nan, 1.0], np.nan), ([np.inf, -np.inf], np.inf),
                                     ([800.0, np.inf], np.inf), ([-np.inf, np.inf, -np.inf], np.inf)])
def test_lean_logsumexp_special_values(a, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(a)
        rows = _logsumexp(np.array([a, a]), axis=1)
    np.testing.assert_equal(got, want)
    np.testing.assert_equal(rows, [want, want])
    _assert_lean_logsumexp_is_scipy(a)


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
