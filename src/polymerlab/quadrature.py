"""Deterministic oracles for expectations over small joint-Gaussian vectors.

Tensorized probabilists' Gauss-Hermite quadrature over g ~ N(0, C) for a
handful of field points, used to certify the exponential-moment and
log-moment inequalities independently of any sampler.  The one plain Monte
Carlo entry, :func:`monte_carlo_mean` (its integrand is exp(log_integrand)
for an exponential moment), gives the cross-check at 4-sigma.

The quadrature walks the n^m tensor grid in C-order batches of about
``GH_BATCH_ENTRIES`` node coordinates: at most ``GH_BATCH_ENTRIES // m``
nodes, 12,500 at m = 4, so that the node indices, the (k, m) nodes,
``z @ chol.T`` and the integrand's (k, m) temporaries each stay near
400 KB.  Every batch has at least 2 nodes (on grids of 2 or more): NumPy
sends a one-row product to another BLAS routine, which can round
differently.  The Monte Carlo oracle draws ``MC_CHUNK`` normals per
chunk, and its per-chunk sums fix its output bytes.

What still scales with the grid is the n^m reduction array: the per-node
log terms of :func:`gauss_hermite_expect`, or the weights and integrand
values of :func:`gauss_hermite_mean`, 19.5 MiB each at 40^4 nodes.  They
are reduced once, with the same :func:`_logsumexp` or dot product as a
one-shot grid, so the result does not depend on the batch size.
:func:`_logsumexp` adds one shifted copy, exponentiated in place, and a
boolean mask: a tracemalloc peak of 22 MiB over a 40^4 input, where
``scipy.special.logsumexp`` peaks at 100 MiB.
"""

from __future__ import annotations

import numpy as np

from .environment import _jittered_cholesky

MAX_GRID_POINTS = 40_000_000
MC_CHUNK = 200_000              # Monte Carlo draws (or increment-probe normals or product entries) per batch
GH_BATCH_ENTRIES = 50_000       # node coordinates (k nodes x m) per quadrature batch


def _chol(cov: np.ndarray) -> np.ndarray:
    """Jittered Cholesky factor of a copy of ``cov``, the jitter scaled by its largest variance."""
    cov = np.array(cov, dtype=float)
    return _jittered_cholesky(cov, np.max(np.diag(cov)), "quadrature covariance")


def _logsumexp(a, axis: int | None = None):
    """log(sum(exp(a))) over all of ``a`` or along ``axis``, bit for bit ``scipy.special.logsumexp``.

    For real, non-empty input without weights this repeats scipy 1.17's
    operations in its order and under its error states: the maximum comes
    out of the sum and its ties are counted as m, the rest is summed as
    exp(a - max) and divided by m, and the result is log1p(s) + log(m) + max;
    where that is not finite, log(sum(exp(a))) stands instead.  Returns a
    NumPy scalar for ``axis=None`` and an array otherwise, like scipy, but
    needs no scipy import and no second full exp/sum/log pass.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = a.max(axis=axes, keepdims=True)
        top = a == a_max
        m = top.sum(axis=axes, keepdims=True, dtype=float)
        shifted = a - a_max
        shifted[top] = -np.inf
        s = np.exp(shifted, out=shifted).sum(axis=axes, keepdims=True)
        np.divide(s, m, out=s, where=s != 0)
        out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axes, keepdims=True)))
    out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


def _grid_size(m: int, n_nodes: int) -> int:
    if n_nodes**m > MAX_GRID_POINTS:
        raise ValueError(
            f"tensor grid {n_nodes}^{m} exceeds {MAX_GRID_POINTS} points; "
            "reduce the support size or the node count")
    return n_nodes**m


def _batches(total: int, limit: int) -> list[slice]:
    """Consecutive near-equal ranges covering [0, total), each at most ``limit`` long.

    Equal sizes leave no one-row tail batch: NumPy sends a one-row product
    to another BLAS routine (dot instead of gemv, gemv instead of gemm),
    which can round differently from the one every other batch and a
    one-shot product use.  With ``limit`` >= 3 and ``total`` >= 2 no range
    is shorter than 2.
    """
    count = max(1, -(-total // limit))
    return [slice(total * b // count, total * (b + 1) // count) for b in range(count)]


def _tensor_batches(m: int, n_nodes: int):
    """(flat-index slice, standard-normal nodes (k, m), log weights (k,)) per batch.

    Consecutive C-order ranges of the n^m tensor grid, k <= ``GH_BATCH_ENTRIES`` // m.
    That limit is at least 3 on every grid ``MAX_GRID_POINTS`` allows, so
    k >= 2 wherever n^m >= 2.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    log_w1 = np.log(weights) - 0.5 * np.log(2.0 * np.pi)
    for rows in _batches(n_nodes**m, GH_BATCH_ENTRIES // m):
        idx = np.array(np.unravel_index(np.arange(rows.start, rows.stop), (n_nodes,) * m))
        yield rows, nodes[idx].T.copy(), log_w1[idx].sum(axis=0)


def gauss_hermite_expect(cov: np.ndarray, log_integrand, n_nodes: int = 40) -> float:
    """E[exp(log_integrand(g))] for g ~ N(0, cov) by tensor quadrature.

    ``log_integrand`` maps an (n_points, m) array of field values to the
    (n_points,) log of the integrand; doing everything in logs keeps
    exponential integrands finite.  It is called once per batch of at
    most ``GH_BATCH_ENTRIES // m`` nodes.
    """
    chol = _chol(cov)
    terms = np.empty(_grid_size(len(chol), n_nodes))
    for rows, z, log_w in _tensor_batches(len(chol), n_nodes):
        terms[rows] = log_w + log_integrand(z @ chol.T)
    return float(np.exp(_logsumexp(terms)))


def gauss_hermite_mean(cov: np.ndarray, integrand, n_nodes: int = 40) -> float:
    """E[integrand(g)] for g ~ N(0, cov); for integrands of either sign.

    ``integrand`` is called once per batch of at most ``GH_BATCH_ENTRIES // m`` nodes.
    """
    chol = _chol(cov)
    size = _grid_size(len(chol), n_nodes)
    weights, values = np.empty(size), np.empty(size)
    for rows, z, log_w in _tensor_batches(len(chol), n_nodes):
        weights[rows] = np.exp(log_w)
        values[rows] = integrand(z @ chol.T)
    return float(weights @ values)


def monte_carlo_mean(cov: np.ndarray, integrand, n_draws: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo E[integrand(g)] for g ~ N(0, cov), with its standard error."""
    chol = _chol(cov)
    m = len(chol)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_draws:
        take = min(MC_CHUNK, n_draws - done)
        vals = integrand(rng.standard_normal((take, m)) @ chol.T)
        total += vals.sum()
        total_sq += float(vals @ vals)
        done += take
    mean = total / n_draws
    var = max(total_sq / n_draws - mean**2, 0.0) * n_draws / max(n_draws - 1, 1)
    return float(mean), float(np.sqrt(var / n_draws))
