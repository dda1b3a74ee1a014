import numpy as np
import pytest
from scipy.stats import norm

from polymerlab.environment import EnvironmentHandle
from polymerlab.exponent import fluctuation_fit, xi_scan
from polymerlab.gibbs import GibbsParams, ReplicaError, gibbs_expect, hamiltonian
from polymerlab.kernels import KernelSpec
from polymerlab.walk import running_max_norm, sample_paths

UNIT = KernelSpec()


def test_xi_scan_free_measure_matches_normal_cdf():
    rows = xi_scan([0.75], [16], GibbsParams(beta=0.0, M=5000), range(30))
    row = rows[0]
    oracle = 2 * norm.cdf(16 ** 0.25) - 1
    assert oracle == pytest.approx(0.9545, abs=1e-4)
    assert abs(row.mass_mean - oracle) < 4 * max(row.mass_stderr, 1e-3)


def test_xi_scan_masses_monotone_in_alpha_and_near_one_for_wide_balls():
    rows = xi_scan([0.6, 0.75, 1.6], [16], GibbsParams(beta=0.4, M=800),
                   range(100, 110))
    masses = [r.mass_mean for r in rows]
    assert masses == sorted(masses)
    assert masses[-1] >= 0.999            # n^{alpha - 1/2} >= 6 regime
    assert all(0.0 <= m <= 1.0 for m in masses)


def test_xi_scan_running_max_below_endpoint():
    params = GibbsParams(beta=0.3, M=600)
    end = xi_scan([0.75], [16], params, range(8), event="endpoint")
    run = xi_scan([0.75], [16], params, range(8), event="running_max")
    assert run[0].mass_mean <= end[0].mass_mean + 1e-12


def test_xi_scan_validation():
    params = GibbsParams(beta=0.0, M=10)
    with pytest.raises(ValueError):
        xi_scan([0.8], [4], params, range(2), event="bogus")
    with pytest.raises(ValueError):
        xi_scan([], [4], params, range(2))
    with pytest.raises(ValueError):
        xi_scan([0.8], [4], params, range(2), d=2, backend="grid")


def test_union_bound_consistency_on_paired_ensemble():
    # <1_{max >= r}> <= sum_k sum_j <1_{S_k in ball j}> on the same weights
    n, alpha, beta = 9, 0.75, 0.5
    r = float(n) ** alpha
    env = EnvironmentHandle(77, UNIT, backend="grid", h=0.1, L=40.0)
    paths = sample_paths(77, 1500, n, 1)
    h = hamiltonian(env, paths)
    lhs = gibbs_expect(beta, h, (running_max_norm(paths) >= r).astype(float)).value
    rhs = 0.0
    for k in range(1, n + 1):
        outside = (np.abs(paths.positions[:, k - 1, :]).max(axis=1) >= r).astype(float)
        rhs += gibbs_expect(beta, h, outside).value
    assert lhs <= rhs + 1e-12


def test_fluctuation_fit_free_measure_is_diffusive():
    fit = fluctuation_fit([8, 16, 32, 64], GibbsParams(beta=0.0, M=1500),
                          range(800, 810), n_boot=100)
    assert 0.4 <= fit.xi_hat <= 0.6
    assert fit.ci_low <= fit.xi_hat <= fit.ci_high
    assert fit.reference_band == (0.6, 0.75)
    assert len(fit.spreads_median) == 4


def test_fluctuation_fit_needs_four_distinct_n():
    params = GibbsParams(beta=0.0, M=100)
    with pytest.raises(ValueError):
        fluctuation_fit([16, 16, 16, 16], params, range(4))
    with pytest.raises(ValueError):
        fluctuation_fit([8, 16], params, range(4))


def test_scan_and_fit_name_the_failed_replica():
    # L = 1 is far too narrow a grid for n = 9 walks
    params = GibbsParams(beta=0.5, M=50)
    with pytest.raises(ReplicaError, match=r"replica 0 \(seed 0\)"):
        xi_scan([0.8], [9], params, range(2), L=1.0)
    with pytest.raises(ReplicaError, match=r"replica 0 \(seed 0\)"):
        fluctuation_fit([4, 9, 16, 25], params, range(2), L=1.0)


def test_fluctuation_fit_rejects_the_grid_above_one_dimension():
    # at beta = 0 no field is built, so only this check stops a d = 2 grid run
    with pytest.raises(ValueError, match="exact backend"):
        fluctuation_fit([2, 3, 4, 5], GibbsParams(beta=0.0, M=10), range(2), d=2, backend="grid")
