"""Quenched Gibbs functionals by self-normalized importance sampling.

For a fixed environment the polymer measure reweights the free path law
by exp(beta * H) with H the accumulated field along the path.  With the
free law as proposal, any path functional f is estimated by

    sum_m f_m exp(beta H_m) / sum_m exp(beta H_m),

computed in log space.  Standard errors use the normalized-weight delta
method; the effective sample size 1 / sum(normalized weights^2) is
reported and a degeneracy warning is emitted when it falls below 1% of
the ensemble size or below 2.  :func:`log_partition` is the importance-
sampling estimate of log Z_n that ``verify.concentration_test`` uses.
:func:`quenched_average` takes every environment average: a replica mean
with a cross-replica standard error.

The estimators take H, never an environment; :func:`hamiltonian` is the one
map from a field and paths to H.  :func:`replica_over_n` builds every
quenched estimator's replica (paths, field, H), tilted copies of the paths
included, and is the only place a replica's paths meet its field.  Every
weighted sum here is ``np.sum`` of an elementwise product, never a BLAS
dot, whose split of long sums depends on the BLAS thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .environment import EnvironmentHandle, suggested_halfwidth
from .kernels import KernelSpec
from .parallel import parallel_map
from .quadrature import _logsumexp
from .walk import PathEnsemble, sample_paths, tilt_path

ESS_WARN_FRACTION = 0.01


class WeightDegeneracyWarning(RuntimeWarning):
    """Importance weights have collapsed onto a few paths."""


class ReplicaError(RuntimeError):
    """An environment replica failed while averaging."""


@dataclass(frozen=True)
class GibbsParams:
    """Inverse temperature and paths per replica; n and the replicas are the caller's."""

    beta: float
    M: int

    def __post_init__(self):
        if self.beta < 0 or not np.isfinite(self.beta):
            raise ValueError("beta must be a finite real >= 0")
        if self.M < 1:
            raise ValueError("M must be >= 1")


@dataclass(frozen=True)
class GibbsEstimate:
    value: float
    stderr: float
    M: int
    ess: float

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")
        if not (1.0 - 1e-9 <= self.ess <= self.M + 1e-9):
            raise ValueError(f"ess must lie in [1, M], got {self.ess}")


def hamiltonian(env: EnvironmentHandle, paths: PathEnsemble) -> np.ndarray:
    """H_m = sum_k g(k, S_k^m), summed in step order.

    A grid handle makes one domain check and one node map for the whole
    ensemble (``snap_paths``), then adds each slice at its nodes; each
    slice is still built once.  Every S_k^m must lie in [-L, L] up to
    1e-9 * max(1, L); one path outside raises ``GridDomainError`` for the
    whole ensemble before any slice is built, with no clamping.
    ``suggested_halfwidth`` gives a covering L.  Any other environment,
    such as an exact handle, which draws a slice at its first query, is
    queried once per step with ``sample_slice_at``.
    """
    out = np.zeros(paths.M)
    if isinstance(env, EnvironmentHandle) and env.backend == "grid":
        nodes = env.snap_paths(paths.positions)
        for k in range(1, paths.n + 1):
            out += env.build_grid_slice(k)[nodes[k - 1]]
        return out
    for k in range(1, paths.n + 1):
        out += env.sample_slice_at(k, paths.positions[:, k - 1, :])
    return out


def replica_over_n(seed: int, n_values, params: GibbsParams, reduce, kernel: KernelSpec,
                   d: int = 1, backend: str = "grid", h: float | None = None,
                   L: float | None = None, tilts=lambda n: ()) -> np.ndarray:
    """``reduce(paths, H, n)``, a float or a vector, per n of one replica, joined in n order.

    ``params.M`` free paths come from ``seed``.  With T ``TiltSpec``s in
    ``tilts(n)``, ``paths`` holds 1 + T blocks of M rows, the free paths and
    one ``tilt_path`` copy per tilt.  Per n, the field realization ``seed``
    gets one ``EnvironmentHandle``, and :func:`hamiltonian` queries all
    1 + T blocks together per slice, so they share one field on either
    backend.  At beta = 0, H is zeros and no field is built.  The grid's
    half-width is ``L``, or ``suggested_halfwidth(n, drift)`` for the
    tilts' largest |lambda_tilde|.
    """
    parts = []
    for n in n_values:
        paths = sample_paths(seed, params.M, n, d)
        specs = tilts(n)
        if specs:
            paths = PathEnsemble(np.concatenate(
                [paths.positions, *(tilt_path(paths, tilt).positions for tilt in specs)]))
        if params.beta == 0:
            hv = np.zeros(paths.M)
        else:
            drift = max((float(np.abs(tilt.lambda_tilde).max()) for tilt in specs), default=0.0)
            hv = hamiltonian(EnvironmentHandle(
                seed, kernel, d=d, backend=backend, h=h,
                L=L if L is not None else suggested_halfwidth(n, drift=drift)), paths)
        parts.append(reduce(paths, hv, n))
    return np.hstack(parts)


def _normalized_log_weights(log_w: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Normalized weights, their ESS and log(sum(exp(log_w)))."""
    log_total = _logsumexp(log_w)
    if not np.isfinite(log_total):
        raise ValueError("all importance weights vanished")
    w_bar = np.exp(log_w - log_total)
    ess = min(1.0 / float(np.sum(w_bar * w_bar)), float(log_w.size))   # at most M; rounding can exceed it
    # the floor of 2 catches total collapse in small ensembles; min() keeps M=1 silent
    threshold = max(ESS_WARN_FRACTION * log_w.size, min(2.0, log_w.size))
    if ess < threshold:
        warnings.warn(
            f"effective sample size {ess:.1f} below {threshold:g} for M={log_w.size}",
            WeightDegeneracyWarning, stacklevel=3)
    return w_bar, ess, log_total


def log_partition(beta: float, h: np.ndarray) -> GibbsEstimate:
    """Estimate of log Z_n = log E[exp(beta H)] from the paths' Hamiltonians ``h``."""
    log_w = beta * h
    m = log_w.size
    _, ess, log_total = _normalized_log_weights(log_w)
    value = float(log_total - math.log(m))     # np.log(m) differs in the last bit at some m
    if m == 1:
        return GibbsEstimate(value=value, stderr=0.0, M=m, ess=ess)
    # delta method on u = w / max(w): Var(log mean w) ~ Var(u) / (M mean(u)^2)
    u = np.exp(log_w - log_w.max())
    stderr = float(np.sqrt(u.var(ddof=1) / m) / u.mean())
    return GibbsEstimate(value=value, stderr=stderr, M=m, ess=ess)


def gibbs_expect(beta: float, h: np.ndarray, f) -> GibbsEstimate:
    """Self-normalized estimate of the Gibbs expectation of a path functional.

    ``f`` holds the functional's value on each path, shaped like the
    Hamiltonians ``h``.  The weighted sum is divided by the weights' own
    sum, taken in the same pairwise order, so the all-ones functional gives
    exactly 1.
    """
    f_vals = np.asarray(f, dtype=float)
    if f_vals.shape != h.shape:
        raise ValueError(f"functional has shape {f_vals.shape}, expected {h.shape}")
    w_bar, ess, _ = _normalized_log_weights(beta * h)
    value = float(np.sum(w_bar * f_vals)) / float(np.sum(w_bar))
    resid = f_vals - value
    stderr = float(np.sqrt(np.sum((w_bar * resid) ** 2)))
    return GibbsEstimate(value=value, stderr=stderr, M=f_vals.size, ess=ess)


@dataclass(frozen=True)
class QuenchedAverage:
    """Environment average of a per-realization quantity, scalar or vector."""

    mean: float | np.ndarray
    stderr: float | np.ndarray
    values: np.ndarray          # one row per environment replica: (R,) or (R, k)

    @property
    def R(self) -> int:
        return len(self.values)


def quenched_average(env_seeds, estimator, threads: int = 1) -> QuenchedAverage:
    """Average ``estimator(seed)`` over environment replicas: the package's one fan-out over them.

    ``estimator`` maps an environment seed to a float or to a fixed-length
    vector of floats; for a vector, ``mean`` and ``stderr`` are per entry.
    Replicas may run on a thread pool; results reduce in replica order,
    and any replica failure aborts as ``ReplicaError`` naming its index and seed,
    but ``MemoryError`` propagates unwrapped, as a configuration too large for memory.
    """
    seeds = list(env_seeds)
    if len(seeds) < 2:
        raise ValueError("need at least R=2 environment replicas")

    def guarded(item):
        r, seed = item
        try:
            return np.asarray(estimator(seed), dtype=float)
        except MemoryError:
            raise
        except Exception as exc:
            raise ReplicaError(f"environment replica {r} (seed {seed}) failed: {exc}") from exc

    values = np.array(parallel_map(guarded, list(enumerate(seeds)), threads))
    # one 1-D column at a time: mean(axis=0) sums in a different order
    cols = values.reshape(len(seeds), -1).T
    mean = np.array([col.mean() for col in cols])
    stderr = np.array([col.std(ddof=1) for col in cols]) / np.sqrt(len(seeds))
    if values.ndim == 1:
        return QuenchedAverage(mean=float(mean[0]), stderr=float(stderr[0]), values=values)
    return QuenchedAverage(mean=mean, stderr=stderr, values=values)
