import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymerlab.cli import SPREADS_CSV_HEADER, _write_csv
from polymerlab.environment import EnvironmentHandle, GridDomainError, suggested_halfwidth
from polymerlab.gibbs import (GibbsEstimate, GibbsParams, ReplicaError, WeightDegeneracyWarning,
                              gibbs_expect, hamiltonian, log_partition, quenched_average,
                              replica_over_n)
from polymerlab.kernels import KernelSpec
from polymerlab.quadrature import _logsumexp
from polymerlab.walk import PathEnsemble, TiltSpec, sample_paths, tilt_path

UNIT = KernelSpec()


class ZeroEnv:
    """Test double: a field that is identically zero."""

    def sample_slice_at(self, k, positions):
        return np.zeros(len(np.atleast_1d(np.asarray(positions))))


class ShiftedEnv:
    """Test double wrapping a real environment, adding a constant."""

    def __init__(self, inner, c):
        self.inner = inner
        self.c = c

    def sample_slice_at(self, k, positions):
        return self.inner.sample_slice_at(k, positions) + self.c


def test_hamiltonian_single_step_matches_field():
    env = EnvironmentHandle(4, UNIT, backend="grid", h=0.1, L=10.0)
    paths = sample_paths(4, 50, 1, 1)
    h = hamiltonian(env, paths)
    direct = env.sample_slice_at(1, paths.positions[:, 0, :])
    assert np.array_equal(h, direct)


def test_hamiltonian_zero_environment():
    paths = sample_paths(4, 10, 6, 1)
    assert np.all(hamiltonian(ZeroEnv(), paths) == 0.0)


def test_hamiltonian_two_steps_grid_lookup_oracle():
    env = EnvironmentHandle(12, UNIT, backend="grid", h=0.1, L=15.0)
    paths = sample_paths(12, 40, 2, 1)
    h = hamiltonian(env, paths)
    s1, s2 = env.build_grid_slice(1), env.build_grid_slice(2)
    expected = s1[env.snap(paths.positions[:, 0, :])] + s2[env.snap(paths.positions[:, 1, :])]
    assert np.allclose(h, expected)


def _edge_ensemble(L: float) -> PathEnsemble:
    """Walks that touch both ends of the grid's tolerance, +-(L + 1e-9 * max(1, L))."""
    bound = L + 1e-9 * max(1.0, L)
    positions = np.clip(sample_paths(3, 60, 7, 1).positions, -L, L)
    positions[::3, 2, 0] = bound
    positions[1::3, 5, 0] = -bound
    return PathEnsemble(positions)


def _free_and_tilted(n: int) -> PathEnsemble:
    paths = sample_paths(21, 80, n, 1)
    tilted = tilt_path(paths, TiltSpec(np.array([2.0])))
    return PathEnsemble(np.concatenate([paths.positions, tilted.positions]))


@pytest.mark.parametrize("paths, L", [
    (sample_paths(1, 50, 1, 1), suggested_halfwidth(1)),
    (sample_paths(2, 300, 25, 1), suggested_halfwidth(25)),
    (PathEnsemble(np.zeros((30, 6, 1))), 0.0),
    (_edge_ensemble(3.0), 3.0),
    (_edge_ensemble(0.5), 0.5),
    (_free_and_tilted(9), suggested_halfwidth(9, drift=2.0)),
], ids=["n1", "n25", "L0", "edge-L3", "edge-L0.5", "free+tilted"])
def test_grid_hamiltonian_is_the_step_order_sum_of_slice_queries(paths, L):
    env = EnvironmentHandle(17, UNIT, backend="grid", h=0.1, L=L)
    built = []
    synthesize = env.synthesize

    def counted(z):
        built.append(z)
        return synthesize(z)

    env.synthesize = counted
    h = hamiltonian(env, paths)

    fresh = EnvironmentHandle(17, UNIT, backend="grid", h=0.1, L=L)
    want = np.zeros(paths.M)
    for k in range(1, paths.n + 1):
        want += fresh.sample_slice_at(k, paths.positions[:, k - 1, :])
    assert h.tobytes() == want.tobytes()
    assert sorted(env._slices) == list(range(1, paths.n + 1))
    assert len(built) == paths.n


def test_grid_hamiltonian_domain_error_names_the_first_leaving_step_and_builds_nothing():
    paths = sample_paths(20240817, 50, 16, 1)
    step_worst = np.abs(paths.positions[:, :, 0]).max(axis=0)
    first = int(np.argmax(step_worst > 3.0 + 3e-9))
    # the first step to leave is not the one with the worst position overall
    assert step_worst[first] < step_worst.max()
    reference = EnvironmentHandle(5, UNIT, backend="grid", L=3.0)
    with pytest.raises(GridDomainError) as per_step:
        for k in range(1, paths.n + 1):
            reference.sample_slice_at(k, paths.positions[:, k - 1, :])
    env = EnvironmentHandle(5, UNIT, backend="grid", L=3.0)
    with pytest.raises(GridDomainError) as joint:
        hamiltonian(env, paths)
    assert str(joint.value) == str(per_step.value)
    assert f"{step_worst[first]:g}" in str(joint.value)
    assert env._slices == {}


def test_exact_hamiltonian_couples_a_doubled_ensemble():
    paths = sample_paths(5, 30, 3, 2)
    doubled = PathEnsemble(np.concatenate([paths.positions, paths.positions]))
    h = hamiltonian(EnvironmentHandle(5, KernelSpec(kind="product-exponential"), d=2,
                                      backend="exact"), doubled)
    assert np.array_equal(h[:30], h[30:])


def test_grid_hamiltonian_halves_match_separate_queries():
    a, b = sample_paths(6, 40, 4, 1), sample_paths(7, 40, 4, 1)
    joint = hamiltonian(EnvironmentHandle(6, UNIT, backend="grid", h=0.1, L=15.0),
                        PathEnsemble(np.concatenate([a.positions, b.positions])))
    env = EnvironmentHandle(6, UNIT, backend="grid", h=0.1, L=15.0)
    assert np.array_equal(joint[:40], hamiltonian(env, a))
    assert np.array_equal(joint[40:], hamiltonian(env, b))


def test_replica_over_n_checks_the_grid_domain_only_at_positive_beta():
    def h_of(paths, hv, n):
        return hv

    assert np.array_equal(replica_over_n(8, [9], GibbsParams(beta=0.0, M=20), h_of, UNIT, L=0.5),
                          np.zeros(20))
    with pytest.raises(GridDomainError):
        replica_over_n(8, [9], GibbsParams(beta=0.5, M=20), h_of, UNIT, L=0.5)


def test_log_partition_closed_forms():
    paths = sample_paths(1, 2, 1, 1)
    zero_beta = log_partition(0.0, hamiltonian(ZeroEnv(), paths))
    assert zero_beta.value == 0.0 and zero_beta.stderr == 0.0 and zero_beta.ess == 2.0

    single = log_partition(2.0, np.array([0.3]))
    assert single.value == pytest.approx(0.6)
    assert single.stderr == 0.0

    pair = log_partition(1.0, np.array([0.0, math.log(2.0)]))
    assert pair.value == pytest.approx(math.log(1.5), abs=1e-12)


@pytest.mark.parametrize("M", [1000, 9170])
def test_log_partition_keeps_the_concentration_bytes(M):
    # verify concentration writes this value; np.log(9170) is one ulp below math.log(9170)
    h = np.random.default_rng(M).standard_normal(M)
    assert log_partition(0.5, h).value == float(_logsumexp(0.5 * h) - math.log(M))


@pytest.mark.parametrize("M", [123457, 1_000_000])
def test_uniform_weights_of_a_large_ensemble_have_ess_m(M):
    # 1 / sum(w_bar^2) can round above M here; ESS is at most M by definition
    h = np.zeros(M)
    log_z = log_partition(0.0, h)
    assert log_z.ess <= M and log_z.ess == pytest.approx(M)
    assert log_z.value == pytest.approx(0.0, abs=1e-12)
    f_vals = (np.arange(M) % 2).astype(float)
    est = gibbs_expect(0.0, h, f_vals)
    assert est.ess <= M and est.ess == pytest.approx(M)
    assert est.value == pytest.approx(f_vals.mean(), abs=1e-12)


def test_gibbs_expect_self_normalization_and_beta_zero():
    env = EnvironmentHandle(3, UNIT, backend="grid", h=0.1, L=10.0)
    paths = sample_paths(3, 500, 4, 1)
    ones = gibbs_expect(0.7, hamiltonian(env, paths), np.ones(500))
    assert ones.value == 1.0 and ones.stderr <= 1e-12

    f_vals = (paths.endpoints[:, 0] > 0.3).astype(float)
    flat = gibbs_expect(0.0, hamiltonian(ZeroEnv(), paths), f_vals)
    assert flat.value == pytest.approx(f_vals.mean())
    assert 1.0 <= flat.ess <= 500.0


def test_gibbs_expect_of_ones_is_exactly_one_at_every_seed():
    paths = sample_paths(3, 500, 4, 1)
    for seed in range(40):
        h = hamiltonian(EnvironmentHandle(seed, UNIT, backend="grid", h=0.1, L=10.0), paths)
        ones = gibbs_expect(0.7, h, np.ones(500))
        assert ones.value == 1.0 and ones.stderr == 0.0, seed


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 5000), spread=st.floats(0.0, 700.0), levels=st.integers(0, 4),
       ones=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_gibbs_expect_of_an_indicator_lies_in_the_unit_interval(m, spread, levels, ones, seed):
    # each numerator term is 0 or the denominator's term and both sums run on
    # one pairwise tree; rounding is monotone, so the ratio needs no clip
    rng = np.random.default_rng(seed)
    log_w = rng.uniform(-spread, spread, m)
    if levels:                      # ties: every weight on one of a few levels
        log_w = rng.choice(log_w[:levels], m)
    f_vals = (rng.random(m) < ones).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeightDegeneracyWarning)
        est = gibbs_expect(1.0, log_w, f_vals)
    assert 0.0 <= est.value <= 1.0


def test_gibbs_expect_indicator_quadrature_oracle():
    # n=1 on a coarse 19-node grid (h=1, L=9) that covers every path; the
    # oracle integrates the exact N(0,1) density against the snapped field
    # weights on a fine abscissa over [-L, L] (the mass beyond is ~2e-19)
    L = suggested_halfwidth(1)
    env = EnvironmentHandle(90, UNIT, backend="grid", h=1.0, L=L)
    beta = 0.7
    paths = sample_paths(90, 40_000, 1, 1)
    est = gibbs_expect(beta, hamiltonian(env, paths), (paths.positions[:, 0, 0] > 0).astype(float))

    xs = np.linspace(-L, L, 360_001)
    field = env.build_grid_slice(1)[env.snap(xs[:, None])]
    dens = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi) * np.exp(beta * field)
    oracle = float(dens[xs > 0].sum() / dens.sum())
    assert abs(est.value - oracle) <= 4 * max(est.stderr, 1e-4)


def test_gibbs_expect_raises_when_paths_leave_the_grid():
    # the same ensemble on a grid with L=1 reaches |x| ~ 5.2: Gibbs
    # functionals must refuse it rather than clamp to the boundary node
    env = EnvironmentHandle(90, UNIT, backend="grid", h=1.0, L=1.0)
    paths = sample_paths(90, 40_000, 1, 1)
    with pytest.raises(GridDomainError, match="enlarge L"):
        gibbs_expect(0.7, hamiltonian(env, paths), (paths.positions[:, 0, 0] > 0).astype(float))


def test_gibbs_expect_monotone_for_nested_events():
    env = EnvironmentHandle(14, UNIT, backend="grid", h=0.1, L=12.0)
    paths = sample_paths(14, 2000, 5, 1)
    h = hamiltonian(env, paths)
    inner = (np.abs(paths.endpoints[:, 0]) <= 1.0).astype(float)
    outer = (np.abs(paths.endpoints[:, 0]) <= 2.0).astype(float)
    a = gibbs_expect(0.5, h, inner)
    b = gibbs_expect(0.5, h, outer)
    assert a.value <= b.value
    assert 0.0 <= a.value <= 1.0


def test_log_partition_constant_shift_invariance():
    env = EnvironmentHandle(33, UNIT, backend="grid", h=0.1, L=12.0)
    paths = sample_paths(33, 800, 5, 1)
    beta, c = 0.6, 1.7
    base = log_partition(beta, hamiltonian(env, paths))
    shifted = log_partition(beta, hamiltonian(ShiftedEnv(env, c), paths))
    assert shifted.value == pytest.approx(base.value + beta * c * 5, abs=1e-9)


def test_weight_degeneracy_warning():
    h = np.zeros(50)
    h[0] = 60.0
    with pytest.warns(WeightDegeneracyWarning):
        est = log_partition(1.0, h)
    assert est.ess == pytest.approx(1.0, abs=1e-6)


def test_quenched_average_trivial_cases():
    const = quenched_average(range(5), lambda seed: 3.25)
    assert const.mean == 3.25 and const.stderr == 0.0 and const.R == 5

    def log_one(seed):
        paths = sample_paths(seed, 64, 3, 1)
        return math.log(gibbs_expect(0.0, hamiltonian(ZeroEnv(), paths), np.ones(64)).value)

    flat = quenched_average(range(4), log_one)
    assert flat.mean == 0.0 and flat.stderr == 0.0


def test_quenched_average_failure_names_replica():
    def boom(seed):
        if seed == 7:
            raise RuntimeError("broken")
        return 0.0

    with pytest.raises(ReplicaError, match="replica 2"):
        quenched_average([5, 6, 7], boom)
    with pytest.raises(ValueError):
        quenched_average([1], lambda s: 0.0)


def test_annealed_upper_bound_on_quenched_log_partition():
    # Jensen: E log Z_n <= n beta^2 sigma^2 / 2
    beta, n = 0.5, 20

    def log_z(seed):
        env = EnvironmentHandle(seed, UNIT, backend="grid", h=0.1, L=40.0)
        paths = sample_paths(seed, 400, n, 1)
        return log_partition(beta, hamiltonian(env, paths)).value

    qa = quenched_average(range(1000, 1200), log_z)
    assert qa.mean <= 0.5 * beta**2 * n + 4 * qa.stderr


def test_annealed_identity_small_horizon():
    # mean over (environment, path) of e^{beta H - n beta^2 sigma^2/2} is 1
    beta, n, m = 0.5, 4, 400

    def annealed_mean(seed):
        env = EnvironmentHandle(seed, UNIT, backend="grid", h=0.1, L=20.0)
        paths = sample_paths(seed, m, n, 1)
        h = hamiltonian(env, paths)
        return float(np.mean(np.exp(beta * h - 0.5 * n * beta**2)))

    qa = quenched_average(range(3000, 3150), annealed_mean)
    assert abs(qa.mean - 1.0) <= 4 * qa.stderr


def test_estimate_schema_row(tmp_path):
    est = GibbsEstimate(value=1.25, stderr=0.01, M=1000, ess=900.0)
    path = tmp_path / "spreads.csv"
    _write_csv(path, SPREADS_CSV_HEADER, [("logZ", 16, 0.5, est.value, est.M, 50, 42)])
    header, row = (line.split(",") for line in path.read_text().splitlines())
    assert header == ["quantity", "n", "beta", "value", "M", "R", "seed"]
    assert row == ["logZ", "16", "0.5", repr(1.25), "1000", "50", "42"]


def test_gibbs_estimate_invariants():
    with pytest.raises(ValueError):
        GibbsEstimate(value=0.0, stderr=-1.0, M=10, ess=5.0)
    with pytest.raises(ValueError):
        GibbsEstimate(value=0.0, stderr=0.0, M=10, ess=11.0)
    with pytest.raises(ValueError):
        GibbsParams(beta=-0.1, M=10)


@pytest.mark.parametrize("call, match", [
    (lambda: gibbs_expect(0.5, np.zeros(4), np.ones(3)), "shape"),
    (lambda: gibbs_expect(0.5, np.zeros(4), np.ones((4, 1))), "shape"),
    (lambda: GibbsParams(beta=0.5, M=0), "M must"),
    (lambda: GibbsParams(beta=float("nan"), M=10), "beta"),
])
def test_estimator_inputs_are_checked(call, match):
    with pytest.raises(ValueError, match=match):
        call()
