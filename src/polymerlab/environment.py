"""Seeded realizations of the slicewise-independent stationary Gaussian field.

The field attaches one centred stationary Gaussian process to every time
slice k >= 1, independent across slices, with in-slice covariance given by
a :class:`~polymerlab.kernels.KernelSpec`.  A handle is a *fixed
realization*: re-querying the same (slice, position) returns the same
value, and everything is a deterministic function of the seed.

Two backends:

``exact``
    Any dimension.  A slice is drawn jointly at its first query: the
    distinct query points (-0.0 and 0.0 are one point), one Cholesky factor
    of their covariance plus a tiny diagonal jitter, and the slice's
    stream.  Only the lower triangle of the covariance is built, in row
    blocks of ``_COV_BLOCK`` points, since the factor reads no other
    entry.  Drawing a slice of m points holds three m × m float arrays at
    once: that covariance, ``np.linalg.cholesky``'s work copy of it and the
    factor; all three are freed when the slice is drawn, and the CLI's heap
    policy keeps their memory for the next slice instead of faulting it in
    again.  Only the points and values are kept; a later query may ask
    only for points already drawn, and any other point raises
    ``ValueError``.  Exact in law for arbitrary positions; the cost is cubic
    in the number of distinct points, so it suits small query sets.
``grid``
    d = 1 only.  Synthesizes each slice on the uniform grid
    {-L, -L+h, ..., L} by circulant embedding of the covariance sequence
    (FFT), then snaps queries to the nearest node.  Every query, a single
    point or a whole path ensemble, must lie in [-L, L] up to a tolerance
    of 1e-9 * max(1, L); anything outside raises :class:`GridDomainError`
    rather than being clamped to the boundary node, and
    :func:`suggested_halfwidth` gives an L that covers n-step paths.
    :meth:`EnvironmentHandle.snap_paths` checks and snaps every step of a
    path ensemble in one call.
    Cheap for large ensembles.  :meth:`EnvironmentHandle.synthesize` is
    the one routine that turns standard normals into grid fields; slices
    and any extra redraws of the same field law go through it.  It takes
    n_circ real normals per field, the size of the circulant embedding,
    and makes them the Hermitian half of a random spectrum: modes 0 and
    n_circ/2 are real, each other mode is (a + ib)/sqrt(2).  One inverse
    real FFT then gives a field with exactly the embedded covariance
    (Dietrich-Newsam 1997; Wood-Chan 1994), so no draw is thrown away.  The
    spectrum is computed once per (kernel, h, n_nodes), also when threads
    start a law together, and shared read-only.

Randomness comes from counter-based Philox streams keyed by
(seed, domain-tag, index), so slice k's stream never depends on query
history of other slices or on thread scheduling.  Every module takes its
domain tag from the one ``_DOMAIN_*`` table here, and the exact backend and
the quadrature oracles share one jittered factor, ``_jittered_cholesky``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, _as_points, gamma_eval, gamma_matrix

BACKENDS = ("exact", "grid")

# Philox domain tags keep the streams of different purposes disjoint under one
# seed.  Every module takes its tag from this table, so no two tags alias.
_DOMAIN_SLICE = 1           # field slice k of a handle
_DOMAIN_WALK = 2            # walk block of walk.REPLICA_BLOCK paths
_DOMAIN_ORACLE = 3          # verify's Monte Carlo oracle and random moment cases
_DOMAIN_PROBE_OUTER = 4     # increment probe: outer draws of slice k
_DOMAIN_PROBE_INNER = 5     # increment probe: inner draws of slice k

_JITTER = 1e-10
_CLIP_TOLERANCE = 1e-6
# Rows of the exact backend's covariance built per gamma_matrix call.  The
# block's temporaries stay small: 128 rows raised the peak RSS of a d = 2
# verify ball (600 points a slice) by 0.6 MiB, 64 rows left it unchanged.
_COV_BLOCK = 64
_SPECTRUM_LOCK = threading.Lock()     # so threads starting one law together compute it once


def grid_spacing(kernel: KernelSpec, h: float | None = None) -> float:
    """Grid spacing ``h``, or one tenth of the kernel length scale when it is None."""
    return float(h) if h is not None else 0.1 / kernel.lam


def suggested_halfwidth(n: int, drift: float = 0.0) -> float:
    """Grid half-width covering 8-sigma path excursions plus a drift, and one more unit."""
    return float(math.ceil(8.0 * math.sqrt(n) + abs(drift) + 1.0))


class GridDomainError(ValueError):
    """A query position fell outside the grid domain [-L, L]."""


class CovarianceConditioningError(RuntimeError):
    """The query covariance matrix was numerically non-positive-definite."""


class SpectralClippingError(RuntimeError):
    """Circulant embedding needed to clip more spectral mass than allowed."""


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Seed source that hands Philox its key as is.

    ``Philox(key=...)`` would first build a ``SeedSequence`` from fresh OS
    entropy and then discard it; Philox asks a seed source for exactly two
    64-bit words and makes them its key, so this gives the same key, a zero
    counter and an empty buffer without touching the entropy pool.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def tagged_stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent Philox stream for (seed, domain, index).

    The second key word packs ``domain`` into its top 16 bits and ``index``
    into its low 48, so both must fit their fields: ``0 <= domain < 2**16``
    and ``0 <= index < 2**48``, else ``ValueError`` (an overflowing index
    would alias another stream).  The stream is ``Philox(key=...)``'s,
    state for state; the key reaches Philox through :class:`_PhiloxKey`.
    """
    if not (0 <= domain < 1 << 16 and 0 <= index < 1 << 48):
        raise ValueError(f"stream tag out of range: domain={domain} (need [0, 2**16)), "
                         f"index={index} (need [0, 2**48))")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (domain << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def _jittered_cholesky(cov: np.ndarray, scale: float, what: str) -> np.ndarray:
    """Cholesky factor of ``cov`` after adding ``_JITTER * scale`` to its diagonal in place."""
    cov.flat[::len(cov) + 1] += _JITTER * scale
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise CovarianceConditioningError(
            f"{what} is numerically non-positive-definite even after jitter") from exc


@dataclass(frozen=True)
class _ExactSlice:
    points: np.ndarray          # (m, d) distinct drawn positions, with no -0.0
    values: np.ndarray          # (m,) field values at them


@functools.lru_cache(maxsize=64)
def _grid_spectrum(kernel: KernelSpec, h: float, n_nodes: int) -> tuple[np.ndarray, float]:
    """Read-only scale of each of ``synthesize``'s n_circ normals, and the clipped fraction.

    The scale is sqrt(lambda_j * n_circ) for the real modes j = 0 and
    n_circ/2, and sqrt(lambda_j * n_circ / 2) for each part of every other
    mode; the circulant eigenvalues lambda_j are clipped at zero.  A clipped
    fraction above ``_CLIP_TOLERANCE`` raises :class:`SpectralClippingError`
    on every call, since the cache stores no exception.
    """
    cov_seq = np.atleast_1d(gamma_eval(kernel, (h * np.arange(n_nodes))[:, None]))
    circ = cov_seq if n_nodes == 1 else np.concatenate([cov_seq, cov_seq[-2:0:-1]])
    eig = np.fft.fft(circ).real
    clipped = -eig[eig < 0].sum()
    total = np.abs(eig).sum()
    frac = float(clipped / total) if total > 0 else 0.0
    if frac > _CLIP_TOLERANCE:
        raise SpectralClippingError(
            f"circulant embedding clipped {frac:.3e} of spectral mass (> {_CLIP_TOLERANCE}); "
            "enlarge L or shrink the kernel length scale")
    m = len(circ)
    power = np.clip(eig[:m // 2 + 1], 0.0, None) * m
    power[1:(m + 1) // 2] /= 2
    scale = np.sqrt(np.repeat(power, 2)[1:m + 1])
    scale.flags.writeable = False
    return scale, frac


def _lower_covariance(kernel: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """[gamma(p_a - p_b)] on and below the diagonal; above it only the corner block is filled.

    Rows are built ``_COV_BLOCK`` at a time against the points up to the
    block's last, so each entry comes from the same elementwise operations
    as in ``gamma_matrix(kernel, pts)``.
    """
    m = len(pts)
    cov = np.zeros((m, m))
    r1 = min(m, _COV_BLOCK)
    cov[:r1, :r1] = gamma_matrix(kernel, pts[:r1])
    for r0 in range(r1, m, _COV_BLOCK):
        r1 = min(m, r0 + _COV_BLOCK)
        cov[r0:r1, :r1] = gamma_matrix(kernel, pts[r0:r1], pts[:r1])
    return cov


def _first_rows(pts: np.ndarray) -> np.ndarray:
    """Index of the first row equal to each row of ``pts``."""
    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]     # NumPy 2.0.0 returns the inverse as a column


class EnvironmentHandle:
    """One seeded realization of the random field g(k, x).

    Parameters
    ----------
    seed : int
        64-bit seed; the handle is a pure function of it.
    kernel : KernelSpec
        In-slice covariance.
    d : int
        Spatial dimension.
    backend : {"exact", "grid"}
    h, L : float
        Grid spacing and half-width (grid backend only).  ``h`` defaults
        to one tenth of the kernel length scale.

    A grid handle keeps only its slices; handles of one (kernel, h, n_nodes)
    share one read-only spectrum.  The grid backend is safe for concurrent
    reads once a slice is built; slice construction is locked and happens
    exactly once per (seed, k).
    The exact backend draws a slice at its first query without a lock, so
    use one handle per thread of control.
    """

    def __init__(self, seed: int, kernel: KernelSpec, d: int = 1,
                 backend: str = "exact", h: float | None = None, L: float | None = None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if d < 1:
            raise ValueError("dimension d must be >= 1")
        if d > 1 and kernel.kind == "exponential-petermann":
            raise ValueError("the max-norm exponential kernel is not certified positive-definite "
                             "for d > 1; use product-exponential (or squared-exponential)")
        self.seed = int(seed)
        self.kernel = kernel
        self.d = int(d)
        self.backend = backend
        self.sigma2 = kernel.sigma2(d)
        self._lock = threading.Lock()
        self._slices: dict[int, object] = {}
        if backend == "grid":
            if d != 1:
                raise ValueError("grid backend supports d=1 only; use the exact backend for d>1")
            self.h = grid_spacing(kernel, h)
            if L is None:
                raise ValueError("grid backend requires a half-width L")
            self.L = float(L)
            if self.h <= 0 or self.L < 0:
                raise ValueError("grid spacing h must be > 0 and half-width L >= 0")
            self.n_nodes = int(round(2 * self.L / self.h)) + 1
            self.n_circ = 1 if self.n_nodes == 1 else 2 * self.n_nodes - 2
        else:
            self.h = None
            self.L = None

    # -- grid backend ----------------------------------------------------

    def synthesize(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Grid fields from real standard normals ``z`` of shape (..., n_circ).

        Per field, normal 0 is the real mode 0, normals 2j - 1 and 2j are the
        real and imaginary parts of mode j for 0 < j < n_circ/2, and the last
        normal is the real mode n_circ/2.  The result is the inverse real
        FFT of that scaled half-spectrum, cut to the grid's n_nodes, and a
        view of ``out``, a float array of ``z``'s shape, when one is given.
        Complex or wrongly shaped normals raise ``ValueError``; ``z`` is
        not modified.
        """
        self._grid_only("synthesize")
        z = np.asarray(z)
        if np.iscomplexobj(z) or z.ndim == 0 or z.shape[-1] != self.n_circ:
            raise ValueError(f"synthesize takes real standard normals of shape "
                             f"(..., {self.n_circ}), got {z.dtype} of shape {z.shape}")
        m = self.n_circ
        with _SPECTRUM_LOCK:
            scale, _ = _grid_spectrum(self.kernel, self.h, self.n_nodes)
        half = np.zeros((*z.shape[:-1], m // 2 + 1), dtype=complex)
        parts = half.view(float)    # Re 0, Im 0, Re 1, ...: Im 0 and Im n_circ/2 stay 0
        np.multiply(z[..., :1], scale[:1], out=parts[..., :1])
        np.multiply(z[..., 1:], scale[1:], out=parts[..., 2:m + 1])
        # irfft's ``out`` needs numpy >= 2.0, the declared floor
        return np.fft.irfft(half, n=m, axis=-1, out=out)[..., :self.n_nodes]

    def build_grid_slice(self, k: int) -> np.ndarray:
        """Synthesize (or fetch) the field on the grid for slice k."""
        self._grid_only("build_grid_slice")
        self._check_slice(k)
        got = self._slices.get(k)
        if got is not None:
            return got
        with self._lock:
            got = self._slices.get(k)
            if got is not None:
                return got
            z = tagged_stream(self.seed, _DOMAIN_SLICE, k).standard_normal(self.n_circ)
            # a copy: synthesize's view would keep the whole n_circ inverse
            # FFT buffer alive behind the cached values
            values = self.synthesize(z).copy()
            values.flags.writeable = False
            self._slices[k] = values
            return values

    def snap(self, positions) -> np.ndarray:
        """Indices of the grid nodes nearest to the given positions (d=1).

        Every position must lie in [-L, L] up to 1e-9 * max(1, L);
        otherwise :class:`GridDomainError` is raised, never a clamp to the
        boundary node.  :func:`suggested_halfwidth` gives a covering L.
        """
        self._grid_only("snap")
        return self._nodes(_as_points(positions, d=1)[:, 0])

    def snap_paths(self, positions) -> np.ndarray:
        """:meth:`snap` of every step of an (M, n, 1) path ensemble, as an (n, M) array.

        Row k - 1 holds the nodes of the positions S_k.  One domain check
        covers the whole ensemble; :class:`GridDomainError` names the worst
        position of the first step that leaves [-L, L], as :meth:`snap` of
        each step in turn would.
        """
        self._grid_only("snap_paths")
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 3 or positions.shape[2] != 1:
            raise ValueError(f"positions must have shape (M, n, 1), got {positions.shape}")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        return self._nodes(np.ascontiguousarray(positions[:, :, 0].T))

    def _nodes(self, pts: np.ndarray) -> np.ndarray:
        """:meth:`snap` of already validated, finite 1-d positions, or of (n, M) steps."""
        bound = self.L + 1e-9 * max(1.0, self.L)
        if pts.size and (pts.max() > bound or pts.min() < -bound):
            steps = np.atleast_2d(pts)
            step = steps[np.argmax((np.abs(steps) > bound).any(axis=1))]
            worst = step[np.argmax(np.abs(step))]
            raise GridDomainError(
                f"position {worst:g} outside grid domain [-{self.L:g}, {self.L:g}]; enlarge L")
        idx = np.rint((pts + self.L) / self.h).astype(np.intp)
        np.maximum(idx, 0, out=idx)
        return np.minimum(idx, self.n_nodes - 1, out=idx)

    # -- exact backend ---------------------------------------------------

    def _exact_sample(self, k: int, pts: np.ndarray) -> np.ndarray:
        pts = pts + 0.0     # -0.0 + 0.0 is 0.0: one point
        drawn = self._slices.get(k)
        if drawn is not None:
            m = len(drawn.points)
            rows = _first_rows(np.concatenate([drawn.points, pts]))[m:]
            missing = np.flatnonzero(rows >= m)
            if missing.size:
                raise ValueError(f"slice {k}: position {pts[missing[0]].tolist()} was not drawn at "
                                 "the slice's first query; the exact backend draws a slice once")
            return drawn.values[rows]
        if not len(pts):
            return np.empty(0)
        first = _first_rows(pts)
        keep = np.flatnonzero(first == np.arange(len(pts)))    # first appearances, in order
        new = pts[keep]
        # only the lower triangle is built, the one cholesky reads; the
        # fresh array may be jittered in place
        chol = _jittered_cholesky(_lower_covariance(self.kernel, new), self.sigma2,
                                  f"slice {k}: covariance of {len(new)} query points")
        values = chol @ tagged_stream(self.seed, _DOMAIN_SLICE, k).standard_normal(len(new))
        self._slices[k] = _ExactSlice(points=new, values=values)
        return values[np.searchsorted(keep, first)]

    # -- common ----------------------------------------------------------

    def _grid_only(self, method: str) -> None:
        if self.backend != "grid":
            raise ValueError(f"{method} requires the grid backend")

    def _check_slice(self, k: int) -> None:
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"slice index must be an integer >= 1, got {k!r}")

    def sample_slice_at(self, k: int, positions) -> np.ndarray:
        """Field values of slice k at the given positions.

        The result is a draw from the centred Gaussian vector with
        covariance [gamma(x_a - x_b)]; repeated positions return one value.
        On the exact backend the first query of a slice draws it, and a
        later query may ask only for positions already drawn, else
        ``ValueError`` names the slice.
        On the grid backend every position, whether one point or a whole
        ensemble, must lie in [-L, L] (see :meth:`snap`), else
        :class:`GridDomainError` is raised.
        """
        self._check_slice(k)
        pts = _as_points(positions, d=self.d)
        if pts.shape[1] != self.d:
            raise ValueError(f"positions have dimension {pts.shape[1]}, handle has d={self.d}")
        if self.backend == "grid":
            return self.build_grid_slice(k)[self._nodes(pts[:, 0])]
        return self._exact_sample(k, pts)


@dataclass(frozen=True)
class SelfTestRow:
    position_a: tuple      # (slice, coordinate...) of the first point
    position_b: tuple
    target_cov: float
    empirical_cov: float
    z: float
    stderr: float


def covariance_selftest(env: EnvironmentHandle, positions, n_seeds: int = 10_000) -> list[SelfTestRow]:
    """Empirical covariance over fresh seeds versus kernel targets.

    ``positions`` is a list of (slice k, position x) points; every
    unordered pair (including each point with itself) yields one row with
    a z-score based on the Gaussian standard error of a sample covariance.
    Replicate handles use seeds ``env.seed + i``.
    """
    if n_seeds < 100:
        raise ValueError("n_seeds must be >= 100 for a meaningful self-test")
    points = [(int(k), _as_points(x, d=env.d)[0]) for k, x in positions]
    by_slice: dict[int, list[int]] = {}
    for i, (k, _) in enumerate(points):
        by_slice.setdefault(k, []).append(i)

    values = np.empty((n_seeds, len(points)))
    for s in range(n_seeds):
        handle = EnvironmentHandle(env.seed + s, env.kernel, d=env.d, backend=env.backend,
                                   h=env.h, L=env.L)
        for k, idx in by_slice.items():
            values[s, idx] = handle.sample_slice_at(k, np.asarray([points[i][1] for i in idx]))

    # For the grid backend the achievable targets are those of the snapped
    # coordinates.
    if env.backend == "grid":
        coords = [np.asarray([float(-env.L + env.h * env.snap(p)[0])]) for _, p in points]
    else:
        coords = [p for _, p in points]

    centered = values - values.mean(axis=0)
    var = (centered**2).sum(axis=0) / (n_seeds - 1)
    rows = []
    for a in range(len(points)):
        for b in range(a, len(points)):
            emp = float((centered[:, a] * centered[:, b]).sum() / (n_seeds - 1))
            ka, kb = points[a][0], points[b][0]
            target = gamma_eval(env.kernel, coords[a] - coords[b]) if ka == kb else 0.0
            se = float(np.sqrt((var[a] * var[b] + emp**2) / (n_seeds - 1)))
            rows.append(SelfTestRow(
                position_a=(ka, *(float(c) for c in coords[a])),
                position_b=(kb, *(float(c) for c in coords[b])),
                target_cov=float(target), empirical_cov=emp,
                z=(emp - float(target)) / se, stderr=se))
    return rows
