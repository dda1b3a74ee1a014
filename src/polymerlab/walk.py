"""Gaussian-increment path ensembles and the drift tilts used on them.

Paths live in R^d, start at the origin (S_0 = 0, not stored) and take
i.i.d. standard Gaussian increments per coordinate.  Tilting adds the
deterministic ramp drift ``lambda_tilde * p/n``, which reaches
``lambda_tilde`` at the last step; the matching log density ratio
against the base path law is available for exact reweighting, which is
how rare-event functionals are estimated.

Reproducibility: replicas are grouped in fixed blocks of
``REPLICA_BLOCK`` = 256; block b draws from the Philox stream keyed by
(seed, walk-domain, b) and fills its paths in replica-major order with
numpy's ziggurat normals.  Path m is therefore a pure function of
(seed, n, d, m) -- independent of the total ensemble size and of how
blocks are scheduled across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .environment import _DOMAIN_WALK, tagged_stream

REPLICA_BLOCK = 256


@dataclass(frozen=True)
class PathEnsemble:
    """M independent walks of length n in dimension d; positions S_1..S_n."""

    positions: np.ndarray       # (M, n, d)

    def __post_init__(self):
        if self.positions.ndim != 3:
            raise ValueError("positions must have shape (M, n, d)")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")

    @property
    def M(self) -> int:
        return self.positions.shape[0]

    @property
    def n(self) -> int:
        return self.positions.shape[1]

    @property
    def endpoints(self) -> np.ndarray:
        return self.positions[:, -1, :]


def sample_paths(seed: int, M: int, n: int, d: int = 1) -> PathEnsemble:
    """Sample M walks of length n; deterministic in (seed, replica index)."""
    if M < 1 or n < 1 or d < 1:
        raise ValueError("M, n and d must all be >= 1")
    increments = np.empty((M, n, d))
    for start in range(0, M, REPLICA_BLOCK):
        stop = min(start + REPLICA_BLOCK, M)
        rng = tagged_stream(seed, _DOMAIN_WALK, start // REPLICA_BLOCK)
        increments[start:stop] = rng.standard_normal((stop - start, n, d))
    return PathEnsemble(positions=increments.cumsum(axis=1))


@dataclass(frozen=True)
class TiltSpec:
    """Ramp drift: total displacement lambda_tilde reached linearly by the last step.

    A non-finite drift is rejected here, before any path is built.
    """

    lambda_tilde: np.ndarray    # (d,) total drift

    def __post_init__(self):
        object.__setattr__(self, "lambda_tilde", np.atleast_1d(np.asarray(self.lambda_tilde, dtype=float)))
        if not np.all(np.isfinite(self.lambda_tilde)):
            raise ValueError("lambda_tilde must be finite")


def tilt_path(ensemble: PathEnsemble, tilt: TiltSpec) -> PathEnsemble:
    """Shifted ensemble S_p + lambda_tilde * p/n; input unchanged."""
    n = ensemble.n
    shift = (np.arange(1, n + 1) / n)[None, :, None] * tilt.lambda_tilde[None, None, :]
    return replace(ensemble, positions=ensemble.positions + shift)


def tilt_log_weight(tilted: PathEnsemble, tilt: TiltSpec) -> np.ndarray:
    """log dP/dQ at tilted paths: -lam . S_n + n |lam|^2 / 2, lam = lambda_tilde / n.

    Multiplying a functional of the tilted paths by exp(this) recovers an
    unbiased estimate of its expectation under the base path law.
    """
    n = tilted.n
    lam = tilt.lambda_tilde / n
    return -tilted.endpoints @ lam + 0.5 * n * float(lam @ lam)


def running_max_norm(paths: PathEnsemble) -> np.ndarray:
    """max over steps of the coordinate max-norm |S_k|, per path."""
    return np.abs(paths.positions).max(axis=(1, 2))
