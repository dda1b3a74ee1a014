"""Spatial covariance kernels for the per-slice Gaussian field.

All kernels are centred, stationary, bounded and integrable, and decay
monotonically to zero.  Three kinds are supported:

``exponential-petermann``
    ``gamma(x) = a * exp(-lam * |x|_inf)`` with amplitude ``a = 1/(2*lam)``
    (or 1 when unit-variance normalization is on).  Positive definite in
    one dimension, where it is normally used.
``squared-exponential``
    ``gamma(x) = a * exp(-lam**2 * |x|_2**2 / 2)``.  Positive definite in
    every dimension.
``product-exponential``
    ``gamma(x) = prod_i a1 * exp(-lam * |x_i|)``, the tensor product of
    one-dimensional exponential kernels.  Positive definite in every
    dimension and the recommended choice for d > 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KERNEL_KINDS = ("exponential-petermann", "squared-exponential", "product-exponential")


@dataclass(frozen=True)
class KernelSpec:
    """Covariance kernel description: kind, inverse length scale, scaling."""

    kind: str = "exponential-petermann"
    lam: float = 1.0
    normalize_unit_variance: bool = True

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ValueError(f"kernel lambda must be a positive finite real, got {self.lam}")

    @property
    def amplitude(self) -> float:
        """Scale of each one-dimensional factor (1 when normalized)."""
        return 1.0 if self.normalize_unit_variance else 1.0 / (2.0 * self.lam)

    def sigma2(self, d: int = 1) -> float:
        """Field variance gamma(0) in dimension ``d``."""
        if self.kind == "product-exponential":
            return self.amplitude**d
        return self.amplitude


def _as_points(x, d: int | None = None) -> np.ndarray:
    """Coerce scalars / vectors / point lists to an (m, d) float array."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim == 1:
        # A bare vector is a single d-dimensional point, unless the caller
        # declared d=1, in which case it is m one-dimensional points.
        arr = arr[:, None] if d == 1 else arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"positions must be at most 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("positions must be finite")
    return arr


def gamma_eval(kernel: KernelSpec, x):
    """Evaluate gamma at one lag (d-vector) or a batch of lags ((m, d) array).

    Returns a float for a single lag and an (m,) array for a batch: the
    column of :func:`gamma_matrix` against the origin.
    """
    pts = _as_points(x)
    out = gamma_matrix(kernel, pts, np.zeros((1, pts.shape[1])))[:, 0]
    return float(out[0]) if np.ndim(x) <= 1 else out


def _exp_decay(x: np.ndarray, rate: float, amplitude: float) -> np.ndarray:
    """``amplitude * exp(-rate * x)``, computed in place in ``x``."""
    x *= -rate
    np.exp(x, out=x)
    x *= amplitude
    return x


def _fold_coordinates(pa: np.ndarray, pb: np.ndarray, term, fold) -> np.ndarray:
    """Fold ``term(|a_i - b_i|)`` over the coordinates i in order, in place.

    Each term is one (m_a, m_b) matrix, so no (m_a, m_b, d) temporary is
    built; ``fold`` is a binary ufunc that accumulates into the first term.
    """
    out = None
    for i in range(pa.shape[1]):
        lag = pa[:, i, None] - pb[None, :, i]
        lag = term(np.abs(lag, out=lag))
        out = lag if out is None else fold(out, lag, out=out)
    return out


def gamma_matrix(kernel: KernelSpec, points_a, points_b=None) -> np.ndarray:
    """Covariance matrix [gamma(a_i - b_j)] for two point sets within one slice.

    Builds one (m_a, m_b) lag matrix per coordinate and folds them in
    coordinate order with the kernel's reduction: the max of the lags, the
    sum of the squared lags, or the product of one-dimensional factors.  The
    result is a fresh, writable, C-contiguous array that callers may modify
    in place.
    """
    pa = _as_points(points_a)
    pb = pa if points_b is None else _as_points(points_b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"point sets differ in dimension: {pa.shape[1]} and {pb.shape[1]}")
    if pa.shape[1] < 1:
        raise ValueError("points must have dimension at least 1, got 0")
    if kernel.kind == "exponential-petermann":
        max_lag = _fold_coordinates(pa, pb, lambda lag: lag, np.maximum)
        return _exp_decay(max_lag, kernel.lam, kernel.amplitude)
    if kernel.kind == "squared-exponential":
        sq_lag = _fold_coordinates(pa, pb, lambda lag: np.square(lag, out=lag), np.add)
        return _exp_decay(sq_lag, 0.5 * kernel.lam**2, kernel.amplitude)
    return _fold_coordinates(pa, pb, lambda lag: _exp_decay(lag, kernel.lam, kernel.amplitude),
                             np.multiply)
