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
differently.  Each batch is reduced as soon as it is computed and only
its one result is kept, so no array grows with the grid: the four-atom
checks at 40^4 nodes peak below 5 MiB of traced memory.

Every reduction has a fixed order and uses no BLAS ``dot``, whose
summation order depends on the BLAS thread count: a :func:`_logsumexp` per
batch and one over the batches' results, or a NumPy sum per batch and
``math.fsum`` over the batches.  So ``GH_BATCH_ENTRIES`` fixes the
quadrature's output bytes, as ``MC_CHUNK`` fixes the Monte Carlo oracle's.
That oracle sums the values of ``MC_CHUNK`` draws at a time, but draws
and evaluates them in sub-batches of quadrature-batch size.
"""

from __future__ import annotations

import math

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
    most ``GH_BATCH_ENTRIES // m`` nodes, whose log terms one
    :func:`_logsumexp` reduces at once; the result is the exp of the
    :func:`_logsumexp` of the per-batch values.  So ``GH_BATCH_ENTRIES``
    fixes the result's bytes, as ``MC_CHUNK`` fixes the Monte Carlo
    oracle's; a one-shot reduction of the grid agrees to rounding.
    """
    chol = _chol(cov)
    _grid_size(len(chol), n_nodes)
    parts = [_logsumexp(log_w + log_integrand(z @ chol.T))
             for _, z, log_w in _tensor_batches(len(chol), n_nodes)]
    return float(np.exp(_logsumexp(parts)))


def gauss_hermite_mean(cov: np.ndarray, integrand, n_nodes: int = 40) -> float:
    """E[integrand(g)] for g ~ N(0, cov); for integrands of either sign.

    ``integrand`` is called once per batch of at most ``GH_BATCH_ENTRIES // m``
    nodes.  Each batch contributes ``np.sum(weights * values)``, and
    ``math.fsum`` adds the per-batch sums.  So ``GH_BATCH_ENTRIES`` fixes
    the result's bytes, as ``MC_CHUNK`` fixes the Monte Carlo oracle's.
    Partials of +inf and -inf give NaN, as one dot product over the grid
    would.
    """
    chol = _chol(cov)
    _grid_size(len(chol), n_nodes)
    parts = [float(np.sum(np.exp(log_w) * integrand(z @ chol.T)))
             for _, z, log_w in _tensor_batches(len(chol), n_nodes)]
    try:
        return math.fsum(parts)
    except ValueError:              # math.fsum refuses inf + -inf
        return math.nan


def monte_carlo_mean(cov: np.ndarray, integrand, n_draws: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo E[integrand(g)] for g ~ N(0, cov), with its standard error.

    The values of each chunk of ``MC_CHUNK`` draws are summed at once, so
    ``MC_CHUNK`` fixes the output bytes, as ``GH_BATCH_ENTRIES`` fixes the
    quadrature's.  Within a chunk the normals are drawn, transformed and
    integrated in sub-batches of at most ``GH_BATCH_ENTRIES // m`` rows (at
    least 3) into one chunk-long buffer of values.  The stream, the rows
    and the values are those of one draw per chunk, but no (chunk, m)
    array is built.
    """
    if n_draws < 2:
        raise ValueError(f"need n_draws >= 2 (for a standard error), got {n_draws}")
    chol = _chol(cov)
    m = len(chol)
    limit = max(3, GH_BATCH_ENTRIES // m)
    vals = np.empty(min(MC_CHUNK, n_draws))
    z = np.empty((limit, m))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_draws:
        take = min(MC_CHUNK, n_draws - done)
        for rows in _batches(take, limit):
            zb = z[:rows.stop - rows.start]
            rng.standard_normal(out=zb)
            vals[rows] = integrand(zb @ chol.T)
        total += vals[:take].sum()
        total_sq += float(np.sum(np.square(vals[:take])))
        done += take
    mean = total / n_draws
    var = max(total_sq / n_draws - mean**2, 0.0) * n_draws / (n_draws - 1)
    return float(mean), float(np.sqrt(var / n_draws))
