"""Deterministic oracles for expectations over small joint-Gaussian vectors.

Tensorized probabilists' Gauss-Hermite quadrature over g ~ N(0, C) for a
handful of field points, used to certify the exponential-moment and
log-moment inequalities independently of any sampler.  A plain
Monte Carlo companion with the same calling convention provides the
cross-check at 4-sigma.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .environment import _JITTER, CovarianceConditioningError

MAX_GRID_POINTS = 40_000_000
MC_CHUNK = 200_000              # Monte Carlo draws generated per batch


def _chol(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    jittered = cov + _JITTER * np.max(np.diag(cov)) * np.eye(len(cov))
    try:
        return np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError as exc:
        raise CovarianceConditioningError(
            "quadrature covariance is numerically non-positive-definite") from exc


def _tensor_grid(m: int, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal tensor nodes (n^m, m) and their log weights (n^m,)."""
    if n_nodes**m > MAX_GRID_POINTS:
        raise ValueError(
            f"tensor grid {n_nodes}^{m} exceeds {MAX_GRID_POINTS} points; "
            "reduce the support size or the node count")
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    log_w1 = np.log(weights) - 0.5 * np.log(2.0 * np.pi)
    idx = np.indices((n_nodes,) * m).reshape(m, -1)
    return nodes[idx].T.copy(), log_w1[idx].sum(axis=0)


def gauss_hermite_expect(cov: np.ndarray, log_integrand, n_nodes: int = 40) -> float:
    """E[exp(log_integrand(g))] for g ~ N(0, cov) by tensor quadrature.

    ``log_integrand`` maps an (n_points, m) array of field values to the
    (n_points,) log of the integrand; doing everything in logs keeps
    exponential integrands finite.
    """
    chol = _chol(cov)
    z, log_w = _tensor_grid(len(chol), n_nodes)
    return float(np.exp(logsumexp(log_w + log_integrand(z @ chol.T))))


def gauss_hermite_mean(cov: np.ndarray, integrand, n_nodes: int = 40) -> float:
    """E[integrand(g)] for g ~ N(0, cov); for integrands of either sign."""
    chol = _chol(cov)
    z, log_w = _tensor_grid(len(chol), n_nodes)
    return float(np.exp(log_w) @ integrand(z @ chol.T))


def _mc_mean(cov: np.ndarray, fn, n_draws: int, rng: np.random.Generator) -> tuple[float, float]:
    chol = _chol(cov)
    m = len(chol)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_draws:
        take = min(MC_CHUNK, n_draws - done)
        vals = fn(rng.standard_normal((take, m)) @ chol.T)
        total += vals.sum()
        total_sq += float(vals @ vals)
        done += take
    mean = total / n_draws
    var = max(total_sq / n_draws - mean**2, 0.0) * n_draws / max(n_draws - 1, 1)
    return float(mean), float(np.sqrt(var / n_draws))


def monte_carlo_expect(cov: np.ndarray, log_integrand, n_draws: int,
                       rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo E[exp(log_integrand(g))] with its standard error."""
    return _mc_mean(cov, lambda g: np.exp(log_integrand(g)), n_draws, rng)


def monte_carlo_mean(cov: np.ndarray, integrand, n_draws: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo E[integrand(g)] with its standard error."""
    return _mc_mean(cov, integrand, n_draws, rng)
