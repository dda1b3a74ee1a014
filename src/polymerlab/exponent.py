"""Transverse-spread diagnostics: alpha scans and the spread-slope fit.

The finite-n surrogates for the volume exponent come in two forms and the
module deliberately blesses neither: an alpha scan of containment masses
<1_{|S_n| <= n^alpha}> / <1_{max_k |S_k| <= n^alpha}> straight off the
exponent's definition, and a log-log regression of the quenched median
running-max spread against n, whose slope is the reported estimate.  For
d=1 the fit is annotated with the proved asymptotic band [3/5, 3/4]; no
pass/fail is attached since the asymptotics are out of reach at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gibbs import GibbsParams, gibbs_expect, quenched_average, replica_over_n
from .gibbs import hamiltonian  # noqa: F401  unused; perfbench asserts its tracer rebinds this name
from .kernels import KernelSpec
from .parallel import parallel_map  # noqa: F401  unused; perfbench asserts its tracer rebinds this name
from .walk import running_max_norm
from .walk import sample_paths  # noqa: F401  unused; perfbench asserts its tracer rebinds this name


@dataclass(frozen=True)
class ScanRow:
    n: int
    alpha: float
    event: str
    mass_mean: float
    mass_stderr: float
    R: int
    M: int


def xi_scan(alphas, n_grid, params: GibbsParams, env_seeds, event: str = "endpoint",
            kernel: KernelSpec = KernelSpec(), d: int = 1, backend: str = "grid",
            h: float | None = None, L: float | None = None,
            threads: int = 1) -> list[ScanRow]:
    """Quenched containment masses per (n, alpha) on paired ensembles.

    Within one (n, environment) cell every alpha reuses the same weights,
    so masses are nondecreasing in alpha by construction.
    """
    if event not in ("endpoint", "running_max"):
        raise ValueError(f"unknown event {event!r}")
    alphas = sorted(float(a) for a in alphas)
    n_values = list(n_grid)
    if not alphas or not n_values:
        raise ValueError("alphas and n_grid must be nonempty")
    if d > 1 and backend == "grid":
        raise ValueError("d > 1 requires the exact backend")

    def masses(paths, hv, n) -> list[float]:
        extent = np.abs(paths.endpoints).max(axis=1) if event == "endpoint" else running_max_norm(paths)
        return [gibbs_expect(params.beta, hv, (extent <= float(n) ** alpha).astype(float)).value
                for alpha in alphas]

    qa = quenched_average(env_seeds, lambda s: replica_over_n(
        s, n_values, params, masses, kernel, d=d, backend=backend, h=h, L=L), threads=threads)
    cells = zip([(n, alpha) for n in n_values for alpha in alphas], qa.mean, qa.stderr)
    return [ScanRow(n=int(n), alpha=alpha, event=event, mass_mean=float(mean),
                    mass_stderr=float(stderr), R=qa.R, M=params.M) for (n, alpha), mean, stderr in cells]


@dataclass(frozen=True)
class FluctuationFit:
    xi_hat: float
    ci_low: float
    ci_high: float
    n_grid: tuple
    beta: float
    lam: float
    d: int
    spreads_median: tuple
    spreads_mean: tuple
    reference_band: tuple | None    # proved asymptotic band for d=1, informational


def fluctuation_fit(n_grid, params: GibbsParams, env_seeds,
                    kernel: KernelSpec = KernelSpec(), d: int = 1, backend: str = "grid",
                    h: float | None = None, L: float | None = None,
                    n_boot: int = 500, boot_seed: int = 0,
                    threads: int = 1) -> FluctuationFit:
    """Slope of log(quenched median spread) against log n, with bootstrap CI.

    The spread per (environment, n) is the Gibbs expectation of the
    running max-norm; medians across environments resist weight-degenerate
    replicas.  The bootstrap resamples environments and reports a
    percentile interval on the slope.  A replica shares only its seed
    across n: with ``L`` None the grid half-width ``suggested_halfwidth(n)``,
    and with it the field, changes with n, and of the paths only path 0 at
    one n is a prefix of path 0 at a larger n.
    """
    n_values = sorted(int(n) for n in n_grid)
    if len(set(n_values)) < 4:
        raise ValueError("fluctuation fit needs at least 4 distinct n values")
    if d > 1 and backend == "grid":
        raise ValueError("d > 1 requires the exact backend")

    def spread(paths, hv, n) -> float:
        return gibbs_expect(params.beta, hv, running_max_norm(paths)).value

    values = quenched_average(env_seeds, lambda s: replica_over_n(
        s, n_values, params, spread, kernel, d=d, backend=backend, h=h, L=L),
        threads=threads).values                                         # (R, len(n))
    medians = np.median(values, axis=0)
    means = values.mean(axis=0)

    def slope_of(spreads: np.ndarray) -> float:
        keep = spreads > 0
        if keep.sum() < 2:
            raise ValueError("fewer than 2 positive spreads; fit is degenerate")
        return float(np.polyfit(np.log(np.asarray(n_values, dtype=float)[keep]),
                                np.log(spreads[keep]), 1)[0])

    xi_hat = slope_of(medians)
    rng = np.random.default_rng(boot_seed)
    boot = np.empty(n_boot)
    for b in range(n_boot):
        take = rng.integers(0, len(values), len(values))
        boot[b] = slope_of(np.median(values[take], axis=0))
    ci_low, ci_high = np.percentile(boot, [2.5, 97.5])
    return FluctuationFit(
        xi_hat=xi_hat, ci_low=float(ci_low), ci_high=float(ci_high),
        n_grid=tuple(n_values), beta=params.beta, lam=kernel.lam, d=d,
        spreads_median=tuple(float(v) for v in medians),
        spreads_mean=tuple(float(v) for v in means),
        reference_band=(0.6, 0.75) if d == 1 else None)
