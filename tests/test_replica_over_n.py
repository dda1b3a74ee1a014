"""``gibbs.replica_over_n`` and the estimators built on it against per-n reference loops.

Each reference below keeps the loop its estimator used before the shared
per-replica routine existed: one replica (paths, field, H) built by hand per
(seed, n), and for xi-scan and concentration one ``quenched_average`` per n.
The estimators must return exactly equal results.
"""

import math

import numpy as np
import pytest

from polymerlab.environment import EnvironmentHandle, suggested_halfwidth
from polymerlab.exponent import FluctuationFit, ScanRow, fluctuation_fit, xi_scan
from polymerlab.gibbs import GibbsParams, gibbs_expect, hamiltonian, quenched_average, replica_over_n
from polymerlab.kernels import KernelSpec
from polymerlab.quadrature import _logsumexp
from polymerlab.verify import (concentration_bound, concentration_test, girsanov_identity_test,
                               make_report)
from polymerlab import gibbs
from polymerlab.walk import PathEnsemble, TiltSpec, running_max_norm, sample_paths, tilt_path

PRODUCT = KernelSpec(kind="product-exponential", lam=1.2)


def field_hamiltonian(seed, paths, kernel, d=1, backend="grid", h=None, L=None):
    """H of ``paths`` on the field realization ``seed``, all paths queried together."""
    return hamiltonian(EnvironmentHandle(seed, kernel, d=d, backend=backend, h=h, L=L), paths)


def reference_cell_masses(seed, n, alphas, params, event, kernel, d, backend, h, L):
    paths = sample_paths(seed, params.M, n, d)
    hv = field_hamiltonian(seed, paths, kernel, d=d, backend=backend, h=h, L=L)
    if event == "endpoint":
        extent = np.abs(paths.endpoints).max(axis=1)
    else:
        extent = running_max_norm(paths)
    out = np.empty(len(alphas))
    for a_idx, alpha in enumerate(alphas):
        est = gibbs_expect(params.beta, hv, (extent <= float(n) ** alpha).astype(float))
        out[a_idx] = est.value
    return out


def reference_xi_scan(alphas, n_grid, params, env_seeds, event="endpoint", kernel=KernelSpec(),
                      d=1, backend="grid", h=None, L=None, threads=1):
    alphas = sorted(float(a) for a in alphas)
    seeds = list(env_seeds)
    rows = []
    for n in n_grid:
        L_eff = L if L is not None else suggested_halfwidth(n)
        qa = quenched_average(seeds, lambda s: reference_cell_masses(
            s, n, alphas, params, event, kernel, d, backend, h, L_eff), threads=threads)
        rows += [ScanRow(n=int(n), alpha=alpha, event=event, mass_mean=float(mean),
                         mass_stderr=float(stderr), R=qa.R, M=params.M)
                 for alpha, mean, stderr in zip(alphas, qa.mean, qa.stderr)]
    return rows


def reference_fluctuation_fit(n_grid, params, env_seeds, kernel=KernelSpec(), d=1, backend="grid",
                              h=None, L=None, n_boot=500, boot_seed=0, threads=1):
    n_values = sorted(int(n) for n in n_grid)
    seeds = list(env_seeds)

    def one(seed):
        out = np.empty(len(n_values))
        for n_idx, n in enumerate(n_values):
            L_eff = L if L is not None else suggested_halfwidth(n)
            paths = sample_paths(seed, params.M, n, d)
            hv = field_hamiltonian(seed, paths, kernel, d=d, backend=backend, h=h, L=L_eff)
            out[n_idx] = gibbs_expect(params.beta, hv, running_max_norm(paths)).value
        return out

    values = quenched_average(seeds, one, threads=threads).values
    medians = np.median(values, axis=0)
    means = values.mean(axis=0)

    def slope_of(spreads):
        keep = spreads > 0
        return float(np.polyfit(np.log(np.asarray(n_values, dtype=float)[keep]),
                                np.log(spreads[keep]), 1)[0])

    rng = np.random.default_rng(boot_seed)
    boot = np.empty(n_boot)
    for b in range(n_boot):
        take = rng.integers(0, len(seeds), len(seeds))
        boot[b] = slope_of(np.median(values[take], axis=0))
    ci_low, ci_high = np.percentile(boot, [2.5, 97.5])
    return FluctuationFit(
        xi_hat=slope_of(medians), ci_low=float(ci_low), ci_high=float(ci_high),
        n_grid=tuple(n_values), beta=params.beta, lam=kernel.lam, d=d,
        spreads_median=tuple(float(v) for v in medians),
        spreads_mean=tuple(float(v) for v in means),
        reference_band=(0.6, 0.75) if d == 1 else None)


def reference_concentration_scan(nu, n_grid, params, env_seeds, kernel=KernelSpec(), h=None,
                                 L=None, threads=1):
    seeds = list(env_seeds)
    reports = []
    for n in n_grid:
        L_eff = L if L is not None else suggested_halfwidth(n)

        def one(seed, n=n, L_eff=L_eff):
            paths = sample_paths(seed, params.M, n, 1)
            hv = field_hamiltonian(seed, paths, kernel, h=h, L=L_eff)
            return float(_logsumexp(params.beta * hv) - math.log(params.M))

        qa = quenched_average(seeds, one, threads=threads)
        freq = float(np.mean(np.abs(qa.values - qa.mean) >= float(n) ** nu))
        freq_se = float(np.sqrt(max(freq * (1 - freq), 1.0 / len(seeds)) / len(seeds)))
        reports.append(make_report(f"concentration_tail(n={n},nu={nu:g})", freq, freq_se,
                                   upper=concentration_bound(n, nu)))
    return reports


def reference_girsanov_identity_test(n, lam, params, env_seeds, kernel=KernelSpec(), h=None,
                                     L=None, threads=1):
    beta = params.beta
    L_eff = L if L is not None else suggested_halfwidth(n, drift=n * abs(lam))

    def one(seed):
        paths = sample_paths(seed, params.M, n, 1)
        log_m = lam * paths.endpoints[:, 0] - 0.5 * n * lam**2
        hv = field_hamiltonian(seed, paths, kernel, h=h, L=L_eff)
        return float(_logsumexp(beta * hv + log_m) - _logsumexp(beta * hv))

    qa = quenched_average(env_seeds, one, threads=threads)
    return make_report(f"girsanov_identity(n={n},beta={beta:g},lambda={lam:g})",
                       qa.mean, qa.stderr, lower=0.0, upper=0.0)


def test_replica_over_n_joins_reducer_values_in_n_order():
    params = GibbsParams(beta=0.5, M=30)
    seen = []

    def reduce(paths, hv, n):
        seen.append((n, paths.positions.shape, hv.shape))
        return [float(n), float(hv.sum())] if n == 4 else float(n)

    out = replica_over_n(3, [4, 9], params, reduce, KernelSpec())
    assert seen == [(4, (30, 4, 1), (30,)), (9, (30, 9, 1), (30,))]
    paths = sample_paths(3, 30, 4, 1)
    hv = field_hamiltonian(3, paths, KernelSpec(), L=suggested_halfwidth(4))
    assert out.tolist() == [4.0, float(hv.sum()), 9.0]


@pytest.mark.parametrize("event", ["endpoint", "running_max"])
@pytest.mark.parametrize("threads", [1, 2])
def test_xi_scan_matches_per_n_loop_on_the_grid(event, threads):
    params = GibbsParams(beta=0.7, M=60)
    args = ([0.8, 0.6, 0.7], [4, 9, 16], params, range(10, 15))
    kw = dict(event=event, kernel=KernelSpec(lam=0.8), threads=threads)
    assert xi_scan(*args, **kw) == reference_xi_scan(*args, **kw)


def test_xi_scan_matches_per_n_loop_in_d2_on_the_exact_backend():
    params = GibbsParams(beta=0.5, M=25)
    args = ([0.6, 0.9], [2, 4], params, range(3))
    kw = dict(event="running_max", kernel=PRODUCT, d=2, backend="exact")
    assert xi_scan(*args, **kw) == reference_xi_scan(*args, **kw)


@pytest.mark.parametrize("d, backend, kernel", [(1, "grid", KernelSpec(lam=1.3)),
                                                (2, "exact", PRODUCT)])
def test_fluctuation_fit_matches_per_n_loop(d, backend, kernel):
    params = GibbsParams(beta=0.6, M=25)
    args = ([5, 2, 3, 4], params, range(20, 24))
    kw = dict(kernel=kernel, d=d, backend=backend, n_boot=50, boot_seed=3)
    assert fluctuation_fit(*args, **kw) == reference_fluctuation_fit(*args, **kw)


def test_concentration_test_matches_per_n_loop():
    params = GibbsParams(beta=0.8, M=40)
    args = (0.75, [2, 3, 5], params, range(300, 500))
    kw = dict(kernel=KernelSpec(lam=1.5), threads=2)
    assert concentration_test(*args, **kw) == reference_concentration_scan(*args, **kw)


@pytest.mark.parametrize("L", [None, 12.0])
def test_girsanov_identity_matches_per_seed_reference(L):
    params = GibbsParams(beta=0.5, M=80)
    seeds = range(40, 46)
    kw = dict(kernel=KernelSpec(lam=0.9), L=L)
    assert girsanov_identity_test(6, [0.2], params, seeds, **kw) == [
        reference_girsanov_identity_test(6, 0.2, params, seeds, **kw)]


@pytest.mark.parametrize("L", [None, 12.0])
def test_girsanov_lambdas_share_one_replica(L):
    # without an explicit L both lambdas run on the grid of the larger drift
    h, n, params, seeds = 0.1, 6, GibbsParams(beta=0.5, M=80), range(40, 46)
    L_shared = L if L is not None else suggested_halfwidth(n, drift=n * 2 * h)
    got = girsanov_identity_test(n, [h, 2 * h], params, seeds, h=h, L=L, threads=2)
    assert got == [reference_girsanov_identity_test(n, lam, params, seeds, h=h, L=L_shared)
                   for lam in (h, 2 * h)]


def reference_tilted_replica(seed, n, params, tilts, kernel, d, backend, L):
    """The free paths and one tilted copy per tilt, queried as one ensemble."""
    paths = sample_paths(seed, params.M, n, d)
    every = PathEnsemble(np.concatenate([paths.positions, *(tilt_path(paths, t).positions
                                                            for t in tilts)]))
    return every, field_hamiltonian(seed, every, kernel, d=d, backend=backend, L=L)


@pytest.mark.parametrize("d, backend, kernel", [(1, "grid", KernelSpec(lam=0.9)), (2, "exact", PRODUCT)])
def test_tilted_replica_equals_the_per_tilt_reference(d, backend, kernel):
    params = GibbsParams(beta=0.6, M=20)

    def tilts(n):
        return [TiltSpec(np.full(d, 0.5 * n)), TiltSpec(np.full(d, -float(n) ** 0.75))]

    seen = {}

    def reduce(paths, hv, n):
        seen[n] = (paths.positions.tobytes(), hv.tobytes())
        return float(n)

    assert replica_over_n(5, [2, 4], params, reduce, kernel, d=d, backend=backend,
                          tilts=tilts).tolist() == [2.0, 4.0]
    for n in (2, 4):
        # the default grid covers the largest drift
        L = suggested_halfwidth(n, drift=max(float(np.abs(t.lambda_tilde).max()) for t in tilts(n)))
        every, hv = reference_tilted_replica(5, n, params, tilts(n), kernel, d, backend, L)
        assert every.M == hv.size == 3 * params.M
        assert seen[n] == (every.positions.tobytes(), hv.tobytes())


def test_tilted_replica_builds_no_field_at_beta_zero(monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("a field was built at beta = 0")

    monkeypatch.setattr(gibbs, "EnvironmentHandle", no_field)
    params = GibbsParams(beta=0.0, M=15)
    out = replica_over_n(2, [3, 5], params, lambda paths, hv, n: [paths.M, float(np.abs(hv).sum())],
                         KernelSpec(), tilts=lambda n: [TiltSpec(np.array([1.0]))] * 2)
    assert out.tolist() == [45.0, 0.0, 45.0, 0.0]
