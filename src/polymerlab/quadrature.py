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

``GH_NODES``, the default of 24 nodes per axis, is as accurate as 40 on
the moment suites' measures at under a seventh of the four-atom nodes
(24^4 against 40^4).  Over the 600 cases that
``verify.random_expo_cases`` draws for seeds 0 to 59, both oracles at 24
nodes matched 40 nodes to 7.0e-15 relative at worst (3.0e-14 at 20 nodes,
2.8e-12 at 16), far inside the 2.5e-9 that ``verify`` credits the oracle
with.

Every reduction has a fixed order and uses no BLAS ``dot``, whose
summation order depends on the BLAS thread count: a :func:`_logsumexp` per
batch and one over the batches' results, a NumPy sum per batch and
``math.fsum`` over the batches, or, for Monte Carlo, a NumPy sum per batch
added to a running total.  So one batch rule, ``GH_BATCH_ENTRIES``, fixes
the output bytes of both oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import _jittered_cholesky

MAX_GRID_POINTS = 40_000_000
GH_BATCH_ENTRIES = 50_000       # node coordinates (k nodes x m) per quadrature batch
GH_NODES = 24                   # default nodes per axis; see the module docstring


def _chol(cov: np.ndarray) -> np.ndarray:
    """Jittered Cholesky factor of a copy of ``cov``, the jitter scaled by its largest variance."""
    cov = np.array(cov, dtype=float)
    return _jittered_cholesky(cov, np.max(np.diag(cov)), "quadrature covariance")


def _logsumexp(a, axis: int | None = None):
    """log(sum(exp(a))) over all of ``a`` or along ``axis``, with the maximum taken out first.

    A non-finite maximum is taken out as 0, so +inf anywhere gives +inf, all
    -inf gives -inf and NaN gives NaN, with no warning.  Returns a NumPy
    scalar for ``axis=None`` and an array otherwise.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a_max = a.max(axis=axis, keepdims=True)
    a_max[~np.isfinite(a_max)] = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shifted = a - a_max
        out = np.log(np.exp(shifted, out=shifted).sum(axis=axis, keepdims=True)) + a_max
    out = out.squeeze(axis=axis)
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


def gauss_hermite_expect(cov: np.ndarray, log_integrand, n_nodes: int = GH_NODES) -> float:
    """E[exp(log_integrand(g))] for g ~ N(0, cov) by tensor quadrature.

    ``log_integrand`` maps an (n_points, m) array of field values to the
    (n_points,) log of the integrand; doing everything in logs keeps
    exponential integrands finite.  It is called once per batch of at
    most ``GH_BATCH_ENTRIES // m`` nodes, whose log terms one
    :func:`_logsumexp` reduces at once; the result is the exp of the
    :func:`_logsumexp` of the per-batch values.  So ``GH_BATCH_ENTRIES``
    fixes the result's bytes; a one-shot reduction of the grid agrees to
    rounding.
    """
    chol = _chol(cov)
    _grid_size(len(chol), n_nodes)
    parts = [_logsumexp(log_w + log_integrand(z @ chol.T))
             for _, z, log_w in _tensor_batches(len(chol), n_nodes)]
    return float(np.exp(_logsumexp(parts)))


def gauss_hermite_mean(cov: np.ndarray, integrand, n_nodes: int = GH_NODES) -> float:
    """E[integrand(g)] for g ~ N(0, cov); for integrands of either sign.

    ``integrand`` is called once per batch of at most ``GH_BATCH_ENTRIES // m``
    nodes.  Each batch contributes ``np.sum(weights * values)``, and
    ``math.fsum`` adds the per-batch sums.  So ``GH_BATCH_ENTRIES`` fixes
    the result's bytes.  Partials of +inf and -inf give NaN, as one dot
    product over the grid would.
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

    The normals are drawn, transformed and integrated in batches of at most
    ``GH_BATCH_ENTRIES // m`` rows (at least 3), and each batch's values go
    straight into a running sum and sum of squares.  So ``GH_BATCH_ENTRIES``
    fixes the output bytes, as it fixes the quadrature's, and no
    (n_draws, m) array is built.
    """
    if n_draws < 2:
        raise ValueError(f"need n_draws >= 2 (for a standard error), got {n_draws}")
    chol = _chol(cov)
    m = len(chol)
    limit = max(3, GH_BATCH_ENTRIES // m)
    z = np.empty((min(limit, n_draws), m))
    total = 0.0
    total_sq = 0.0
    for rows in _batches(n_draws, limit):
        zb = z[:rows.stop - rows.start]
        rng.standard_normal(out=zb)
        vals = integrand(zb @ chol.T)
        total += vals.sum()
        total_sq += float(np.sum(np.square(vals)))
    mean = total / n_draws
    var = max(total_sq / n_draws - mean**2, 0.0) * n_draws / (n_draws - 1)
    return float(mean), float(np.sqrt(var / n_draws))
