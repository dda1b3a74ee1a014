"""Numerical verification of the model's inequalities and identities.

Every check produces a :class:`BoundCheckReport`: an estimate with a
standard error, the proved lower/upper bound, and a pass flag that only
trips on a violation beyond four standard errors (a one-sided bound can
never be "too satisfied").  Oracles are independent of the estimators
they certify: exponential/log-moment expectations use tensorized
Gauss-Hermite quadrature or plain Monte Carlo over the exact joint
Gaussian, while the polymer functionals use tilted-proposal importance
sampling with exact reweighting; the concentration test holds the
frequency of deviations of log Z_n beyond n^nu against its tail bound, one
report per n.  Each polymer suite makes one ``quenched_average``, whose
replica, built by ``gibbs.replica_over_n``, covers every n of the suite.
The tilts of one suite and one n (the alphas of mean control, the j's of
the ball, the lambdas of the Girsanov identity) share one field and one
path set per (replica, n), on either backend; a grid is wide enough for
the largest drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import (_DOMAIN_ORACLE, _DOMAIN_PROBE_INNER, _DOMAIN_PROBE_OUTER,
                          EnvironmentHandle, suggested_halfwidth, tagged_stream)
from .gibbs import GibbsParams, log_partition, quenched_average, replica_over_n
from .kernels import KernelSpec, gamma_matrix
from .parallel import parallel_map  # noqa: F401  unused; perfbench asserts its tracer rebinds this name
from .quadrature import (GH_NODES, _batches, _logsumexp, gauss_hermite_expect,
                         gauss_hermite_mean, monte_carlo_mean)
from .walk import PathEnsemble, TiltSpec, sample_paths, tilt_log_weight

MC_CHUNK = 200_000                  # increment-probe normals (or product entries) per batch
MEAN_CONTROL_MIN_ALPHA = 0.5        # suite hypotheses, also checked before any suite runs:
CONCENTRATION_MIN_R = 200           # mean control needs alpha > 1/2, concentration R >= 200

# Resolution attributed to the quadrature oracle (its node-doubling
# self-consistency is held to 1e-8 relative, i.e. four of these).  At the
# default GH_NODES = 24 both moment checks matched 40 nodes to 7.0e-15
# relative at worst, over the 600 cases of seeds 0 to 59.
_QUAD_RTOL = 2.5e-9


def _inf_on_overflow(compute) -> float:
    """``compute()``, or +inf where a float operation in it overflows."""
    try:
        return compute()
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundConstants:
    """Explicit constants attached to the log-moment and increment bounds."""

    beta: float
    sigma2: float = 1.0

    def __post_init__(self):
        if self.beta < 0 or self.sigma2 <= 0:
            raise ValueError("need beta >= 0 and sigma2 > 0")

    @property
    def c1(self) -> float:
        return _inf_on_overflow(lambda: (math.exp(8.0 * self.beta**2 * self.sigma2) - 1.0)
                                / (16.0 * self.sigma2))

    @property
    def c2(self) -> float:
        """1/(2 sigma2) in the limit where beta**2 overflows."""
        beta2_sigma2 = _inf_on_overflow(lambda: self.beta**2 * self.sigma2)
        return (1.0 - math.exp(-beta2_sigma2)) / (2.0 * self.sigma2)

    @property
    def c(self) -> float:
        return self.c1 * self.sigma2

    @property
    def K(self) -> float:
        """+inf where it overflows (beta above about 1.08 at sigma2 = 1): the bound is then vacuous."""
        return _inf_on_overflow(lambda: math.exp(self.c) + math.exp(self.beta**2))


@dataclass(frozen=True)
class BoundCheckReport:
    name: str
    estimate: float
    stderr: float
    lower_bound: float
    upper_bound: float
    margin_sigmas: float
    passed: bool
    notes: str = ""


def make_report(name: str, estimate: float, stderr: float,
                lower: float = -math.inf, upper: float = math.inf,
                notes: str = "") -> BoundCheckReport:
    """Assemble a report; pass means estimate in [lower-4se, upper+4se]."""
    gaps = []
    if lower > -math.inf:
        gaps.append(estimate - lower)
    if upper < math.inf:
        gaps.append(upper - estimate)
    gap = min(gaps) if gaps else math.inf
    if stderr > 0:
        margin = gap / stderr
    else:
        margin = math.inf if gap > 0 else (0.0 if gap == 0 else -math.inf)
    return BoundCheckReport(name=name, estimate=float(estimate), stderr=float(stderr),
                            lower_bound=float(lower), upper_bound=float(upper),
                            margin_sigmas=float(margin), passed=bool(margin >= -4.0),
                            notes=notes)


# -- exponential / log-moment inequalities -----------------------------------


@dataclass(frozen=True)
class ExpoIneqCase:
    """One finite instance of the exponential-moment inequality.

    The field is evaluated at d=1 positions: ``nodes`` carry the linear
    exponent with coefficients ``lambdas``, ``mu_atoms``/``mu_weights``
    define the probability measure in the denominator, and ``q`` its power.
    """

    q: float
    beta: float
    kernel: KernelSpec
    nodes: np.ndarray
    lambdas: np.ndarray
    mu_atoms: np.ndarray
    mu_weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "lambdas", "mu_atoms", "mu_weights"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if self.q <= 0 or self.beta <= 0:
            raise ValueError("q and beta must be positive")
        if self.nodes.shape != self.lambdas.shape:
            raise ValueError("nodes and lambdas must have matching shapes")
        w = self.mu_weights
        if self.mu_atoms.shape != w.shape or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mu_weights must be nonnegative and sum to 1 over mu_atoms")
        if not all(np.all(np.isfinite(a)) for a in (self.nodes, self.lambdas, self.mu_atoms, w)):
            raise ValueError("case inputs must be finite")

    @property
    def sigma2(self) -> float:
        return self.kernel.sigma2(1)


def _case_geometry(case: ExpoIneqCase):
    keep = case.mu_weights > 0
    atoms = case.mu_atoms[keep]
    weights = case.mu_weights[keep]
    points = np.unique(np.concatenate([atoms, case.nodes]))
    cov = gamma_matrix(case.kernel, points[:, None])
    coef = np.zeros(len(points))
    np.add.at(coef, np.searchsorted(points, case.nodes), case.lambdas)
    atom_idx = np.searchsorted(points, atoms)
    return cov, coef, atom_idx, np.log(weights)


def _oracle(method: str, cov: np.ndarray, fn, n_nodes: int, n_draws: int, seed: int, *,
            exponential: bool) -> tuple[float, float]:
    """(estimate, stderr) of E[exp(fn(g))] if ``exponential``, else of E[fn(g)], g ~ N(0, cov)."""
    if method == "quadrature":
        estimate = (gauss_hermite_expect if exponential else gauss_hermite_mean)(cov, fn, n_nodes=n_nodes)
        return estimate, _QUAD_RTOL * max(abs(estimate), 1.0)
    if method == "mc":
        rng = tagged_stream(seed, _DOMAIN_ORACLE, 0 if exponential else 1)
        return monte_carlo_mean(cov, (lambda g: np.exp(fn(g))) if exponential else fn, n_draws, rng)
    raise ValueError(f"unknown method {method!r}; expected 'quadrature' or 'mc'")


def check_expo_ineq(case: ExpoIneqCase, method: str = "quadrature",
                    n_nodes: int = GH_NODES, n_draws: int = 1_000_000,
                    seed: int = 0) -> BoundCheckReport:
    """Check E[e^{beta sum lam_i g(x_i)} / (int e^{beta g} dmu)^q] against its two-sided bound."""
    cov, coef, atom_idx, log_mu = _case_geometry(case)

    def log_integrand(g):
        return case.beta * (g @ coef) - case.q * _logsumexp(log_mu + case.beta * g[:, atom_idx], axis=1)

    estimate, stderr = _oracle(method, cov, log_integrand, n_nodes, n_draws, seed, exponential=True)
    half = 0.5 * case.beta**2 * case.sigma2
    lower = math.exp(-half * case.q)
    upper = math.exp(half * (case.q + np.abs(case.lambdas).sum()) ** 2)
    return make_report(f"expo_ineq(q={case.q:g},beta={case.beta:g},method={method})",
                       estimate, stderr, lower=lower, upper=upper)


def random_expo_cases(seed: int, count: int = 10) -> list[ExpoIneqCase]:
    """Randomized finite-measure cases (at most 4 atoms) for the moment suites.

    Exponent nodes are drawn from the atom set, which keeps the joint
    Gaussian small enough for the tensorized quadrature oracle.
    """
    rng = tagged_stream(seed, _DOMAIN_ORACLE, 99)
    cases = []
    for _ in range(count):
        n_atoms = int(rng.integers(1, 5))
        atoms = np.sort(rng.uniform(-3.0, 3.0, n_atoms))
        weights = rng.dirichlet(np.ones(n_atoms))
        weights = weights / weights.sum()
        kernel = KernelSpec(kind="exponential-petermann",
                            lam=float(rng.uniform(0.5, 2.0)),
                            normalize_unit_variance=bool(rng.integers(0, 2)))
        n_nodes = int(rng.integers(0, n_atoms + 1))
        node_idx = rng.choice(n_atoms, size=n_nodes, replace=False)
        cases.append(ExpoIneqCase(
            q=float(rng.uniform(0.3, 2.0)), beta=float(rng.uniform(0.2, 0.8)),
            kernel=kernel, nodes=atoms[node_idx], lambdas=rng.uniform(-1.5, 1.5, n_nodes),
            mu_atoms=atoms, mu_weights=weights))
    return cases


def check_log_moment_bounds(mu_atoms, mu_weights, beta: float, kernel: KernelSpec,
                            method: str = "quadrature", n_nodes: int = GH_NODES,
                            n_draws: int = 100_000, seed: int = 0) -> BoundCheckReport:
    """Check E log int e^{beta g - beta^2 sigma^2/2} dmu against its constant-scaled bounds."""
    case = ExpoIneqCase(q=1.0, beta=beta, kernel=kernel, nodes=np.empty(0), lambdas=np.empty(0),
                        mu_atoms=mu_atoms, mu_weights=mu_weights)
    cov, _, atom_idx, log_mu = _case_geometry(case)
    shift = 0.5 * beta**2 * case.sigma2

    def integrand(g):
        return _logsumexp(log_mu + beta * g[:, atom_idx] - shift, axis=1)

    estimate, stderr = _oracle(method, cov, integrand, n_nodes, n_draws, seed, exponential=False)
    w = case.mu_weights[case.mu_weights > 0]
    overlap = float(w @ cov[np.ix_(atom_idx, atom_idx)] @ w)
    constants = BoundConstants(beta=beta, sigma2=case.sigma2)
    return make_report(f"log_moment(beta={beta:g},method={method})", estimate, stderr,
                       lower=-constants.c1 * overlap, upper=-constants.c2 * overlap)


# -- polymer-measure checks ---------------------------------------------------


def _tilted_report(n_values, cases, params: GibbsParams, env_seeds, threads: int,
                   **replica_args) -> list[BoundCheckReport]:
    """Quenched mean of log <1_event> of each (name, bound, tilt, event) of ``cases(n)``, n-major.

    A case's tilted copy of the M free paths is reweighted by
    ``tilt_log_weight`` on its event, against log Z of the free paths, taken
    once per field.  A case with no hit gets add-one smoothing, one
    pseudo-hit out of M+1, a conservative upper bound, and its row notes the
    replicas smoothed.  One :func:`quenched_average` builds each replica by
    one :func:`replica_over_n` over every n, on either backend, so the cases
    of one n share one field and one path set.
    """
    M, beta = params.M, params.beta

    def reduce(paths, hv, n) -> list[float]:        # (log mass, 1.0 if smoothed) per case
        log_z = _logsumexp(beta * hv[:M])
        out = []
        for t, (_, _, tilt, event) in enumerate(cases(n), start=1):
            tilted, h1 = PathEnsemble(paths.positions[t * M:(t + 1) * M]), hv[t * M:(t + 1) * M]
            hits = np.asarray(event(tilted), dtype=bool)
            if not hits.any():
                out += [-math.log(M + 1.0), 1.0]
                continue
            log_w = tilt_log_weight(tilted, tilt)
            out += [float(_logsumexp(beta * h1[hits] + log_w[hits]) - log_z), 0.0]
        return out

    qa = quenched_average(env_seeds, lambda seed: replica_over_n(
        seed, n_values, params, reduce, **replica_args,
        tilts=lambda n: [case[2] for case in cases(n)]), threads=threads)
    reports = []
    for t, (name, bound, _, _) in enumerate(case for n in n_values for case in cases(n)):
        smoothed = int(qa.values[:, 2 * t + 1].sum())
        reports.append(make_report(name, qa.mean[2 * t], qa.stderr[2 * t], upper=bound,
                                   notes=f"smoothed_replicas={smoothed}" if smoothed else ""))
    return reports


def girsanov_identity_test(n: int, lams, params: GibbsParams, env_seeds,
                           kernel: KernelSpec = KernelSpec(),
                           h: float | None = None, L: float | None = None,
                           threads: int = 1) -> list[BoundCheckReport]:
    """Environment mean of log <exp(lam S_n - n lam^2/2)> must vanish, one report per lam of ``lams``.

    d=1, grid backend.  The identity is exact for the grid field when the
    per-step drift ``lam`` is an integer multiple of the grid spacing
    (lattice shifts preserve the synthesized field's law); otherwise it
    holds up to a discretization remainder.  Every lam is evaluated on one
    field and one path set per replica; the default L covers the largest
    drift.
    """
    lams = [float(lam) for lam in lams]
    L_eff = L if L is not None else suggested_halfwidth(n, drift=n * max(abs(lam) for lam in lams))

    def log_ratios(paths, hv, n) -> list[float]:
        log_z = _logsumexp(params.beta * hv)
        return [float(_logsumexp(params.beta * hv + (lam * paths.endpoints[:, 0] - 0.5 * n * lam**2))
                      - log_z) for lam in lams]

    qa = quenched_average(env_seeds, lambda s: replica_over_n(
        s, [n], params, log_ratios, kernel, h=h, L=L_eff), threads=threads)
    return [make_report(f"girsanov_identity(n={n},beta={params.beta:g},lambda={lam:g})",
                        mean, stderr, lower=0.0, upper=0.0)
            for lam, mean, stderr in zip(lams, qa.mean, qa.stderr)]


def mean_control_test(alphas, n_grid, params: GibbsParams, env_seeds,
                      kernel: KernelSpec = KernelSpec(),
                      h: float | None = None, L: float | None = None,
                      threads: int = 1) -> list[BoundCheckReport]:
    """Quenched mean of log <1_{S_n >= n^alpha}> against -n^(2 alpha - 1)/2 (d=1).

    One report per (alpha, n), alpha-major.  Every alpha of one n is
    evaluated on one field and one path set per replica; the default L
    covers the largest drift n^alpha.
    """
    alphas = [float(alpha) for alpha in alphas]
    if min(alphas) <= MEAN_CONTROL_MIN_ALPHA:
        raise ValueError(f"alpha must exceed 1/2, got {min(alphas)}")
    n_grid = list(n_grid)

    def cases(n):
        return [(f"mean_control(n={n},alpha={alpha:g},beta={params.beta:g})",
                 -0.5 * float(n) ** (2 * alpha - 1),
                 TiltSpec(lambda_tilde=np.array([float(n) ** alpha])),
                 lambda t, a=float(n) ** alpha: t.endpoints[:, 0] >= a)
                for alpha in alphas]

    reports = _tilted_report(n_grid, cases, params, env_seeds, threads, kernel=kernel, h=h, L=L)
    return [reports[i * len(alphas) + a] for a in range(len(alphas)) for i in range(len(n_grid))]


def ball_bound_test(alpha: float, n_values, js, params: GibbsParams, env_seeds,
                    kernel: KernelSpec = KernelSpec(),
                    h: float | None = None, L: float | None = None,
                    threads: int = 1) -> list[BoundCheckReport]:
    """Quenched mean of log <1_{S_n in B(j n^alpha, n^alpha)}> against its bound, n-major.

    Each j of ``js`` is a nonzero vector of even integers, all of one
    dimension d; the bound scales with sum_i (j_i - sgn(j_i))^2.  d=1 runs on
    the grid and d > 1 on the exact backend; on either, every j of one n
    shares one field and one path set per replica.
    """
    js = [np.atleast_1d(np.asarray(j, dtype=int)) for j in js]
    if not js or len({j.size for j in js}) != 1:
        raise ValueError("js must be a nonempty list of vectors of one dimension")
    if any(np.all(j == 0) or np.any(j % 2 != 0) for j in js):
        raise ValueError("j must be a nonzero vector of even integers")
    d = js[0].size

    def cases(n):
        radius = float(n) ** alpha
        return [(f"ball_bound(n={n},k={n},j={tuple(int(x) for x in j)},alpha={alpha:g},"
                 f"beta={params.beta:g})",
                 -0.5 * float(n) ** (2 * alpha - 1) * float(((j - np.sign(j)) ** 2).sum()),
                 TiltSpec(lambda_tilde=(j - np.sign(j)) * radius),
                 lambda t, c=j * radius, n=n, r=radius:
                     np.abs(t.positions[:, n - 1, :] - c).max(axis=1) <= r)
                for j in js]

    return _tilted_report(list(n_values), cases, params, env_seeds, threads,
                          backend="grid" if d == 1 else "exact", kernel=kernel, d=d, h=h, L=L)


# -- concentration ------------------------------------------------------------


def concentration_bound(n: int, nu: float) -> float:
    """Tail-probability bound exp(-(1/4) n^{(2 nu - 1)/3}); 0 where the power overflows."""
    return math.exp(-0.25 * _inf_on_overflow(lambda: float(n) ** ((2.0 * nu - 1.0) / 3.0)))


def concentration_test(nu: float, n_grid, params: GibbsParams, env_seeds,
                       kernel: KernelSpec = KernelSpec(),
                       h: float | None = None, L: float | None = None,
                       threads: int = 1) -> list[BoundCheckReport]:
    """Frequency of |log Z_n - E log Z_n| >= n^nu across environments against its tail bound.

    One report per n.  log Z_n is :func:`gibbs.log_partition` of one
    replica, E log Z_n the replicas' mean, and the frequency's stderr is
    the binomial one, floored at one deviation in R.  The paper proves the
    bound beyond an unspecified n_0.  Where n^nu overflows no deviation
    reaches it, so the frequency is 0.
    """
    if nu <= 0.5:
        raise ValueError(f"nu must exceed 1/2, got {nu}")
    seeds = list(env_seeds)
    if len(seeds) < CONCENTRATION_MIN_R:
        raise ValueError(f"concentration test needs >= {CONCENTRATION_MIN_R} replicas per n, got {len(seeds)}")
    n_grid = list(n_grid)
    qa = quenched_average(seeds, lambda s: replica_over_n(
        s, n_grid, params, lambda paths, hv, n: log_partition(params.beta, hv).value, kernel,
        h=h, L=L), threads=threads)
    reports = []
    for n, values, mean in zip(n_grid, qa.values.T, qa.mean):
        thr = _inf_on_overflow(lambda: float(n) ** nu)
        freq = float(np.mean(np.abs(values - mean) >= thr))
        freq_se = float(np.sqrt(max(freq * (1 - freq), 1.0 / len(seeds)) / len(seeds)))
        reports.append(make_report(f"concentration_tail(n={n},nu={nu:g})", freq, freq_se,
                                   upper=concentration_bound(n, nu)))
    return reports


# -- martingale increment probe -----------------------------------------------


def _draw_batches(template: EnvironmentHandle, nodes: np.ndarray, rng: np.random.Generator,
                  count: int):
    """``count`` fresh draws of one grid slice gathered at ``nodes``, batch by batch.

    Yields (draw range, (draws, len(nodes)) values) for consecutive ranges
    covering [0, count), each synthesized from about ``MC_CHUNK // 4``
    normals.  Draw r takes the r-th n_circ normals of ``rng``, so the values
    do not depend on the batch size.  Every batch reuses one normals buffer
    and one field buffer, and each yielded array is a fresh gather; fresh
    buffers per batch raised the peak RSS of ``verify increment`` by about
    0.6 MiB.  The quarter keeps ``synthesize``'s per-batch half-spectrum
    small: with whole ``MC_CHUNK`` batches the probe of ``verify all`` paid
    four times the minor page faults at glibc's default heap thresholds.
    """
    batches = _batches(count, max(1, MC_CHUNK // 4 // template.n_circ))
    z = np.empty((max(draws.stop - draws.start for draws in batches), template.n_circ))
    field = np.empty_like(z)
    for draws in batches:
        size = draws.stop - draws.start
        rng.standard_normal(out=z[:size])
        yield draws, template.synthesize(z[:size], out=field[:size])[:, nodes]


def _conditional_log_w(n: int, j: int, params: GibbsParams, seed: int, kernel: KernelSpec,
                       n_outer: int, n_inner: int, h: float | None, L: float | None,
                       f_radius: float | None, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """E[log W | F_i] per outer draw, for i = 0..n, from n_inner and from 2*n_inner inner draws.

    Returns two (n + 1, n_outer) arrays.  W = M^-1 sum_m f_m exp(beta H_m)
    over one fixed ensemble of ``params.M`` walks, with f the indicator of
    |S_j| <= ``f_radius`` and H summed over slices 1..``horizon``; F_i
    reveals slices 1..i.  One outer set of ``n_outer`` draws and one inner
    set of 2*n_inner draws, of every slice, serve every i: per outer draw
    r, E[log W | F_i] is the mean over inner draws q of log(u_i[r] . v_i[q])
    - log M, where u_i holds exp(beta * outer slices 1..i) and v_i
    exp(beta * inner slices i+1..horizon) on the paths inside f.  Slice k
    of every draw of a set comes from one stream, tagged by the set and k,
    so a slice can be drawn alone and again.

    i walks upward.  u folds in outer slice i at step i; v starts as the
    product over every inner slice and divides inner slice i out again,
    so the draws are held as one (n_outer, M) and one (2*n_inner, M)
    array.  u_i v_i^T is taken a block of about ``MC_CHUNK`` entries at a
    time, and each log is taken relative to log sum_m u_i[r], so beta = 0
    gives every mean exactly.
    """
    beta = params.beta
    template = EnvironmentHandle(seed, kernel, d=1, backend="grid", h=h,
                                 L=L if L is not None else suggested_halfwidth(n))
    paths = sample_paths(seed, params.M, n, 1)
    inside = np.abs(paths.positions[:, j - 1, 0]) <= (f_radius if f_radius is not None
                                                       else 2.0 * math.sqrt(j))
    if not inside.any():
        raise ValueError("probe functional has zero sampled mass; enlarge f_radius")
    nodes = template.snap_paths(paths.positions)[:, inside]
    log_m = math.log(params.M)

    def fold(weights: np.ndarray, k: int, domain: int, sign: float) -> None:
        """Multiply each row by exp(sign * beta * its draw of slice k)."""
        for draws, g in _draw_batches(template, nodes[k - 1], tagged_stream(seed, domain, k),
                                      len(weights)):
            weights[draws] *= np.exp(np.multiply(g, sign * beta, out=g), out=g)

    def inner_means(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        log_norm = np.log(u.sum(axis=1))
        step = max(1, MC_CHUNK // len(u))
        # one block buffer for every batch: a fresh block per batch raised
        # the peak RSS of verify increment by about 0.75 MiB
        block = np.empty(len(u) * min(step, n_inner))
        sums = []
        for offset in (0, n_inner):
            total = np.zeros(len(u))
            for rows in _batches(n_inner, step):
                log_w = block[:len(u) * (rows.stop - rows.start)].reshape(len(u), -1)
                np.matmul(u, v[offset + rows.start:offset + rows.stop].T, out=log_w)
                np.log(log_w, out=log_w)
                log_w -= log_norm[:, None]
                total += log_w.sum(axis=1)
            sums.append(total)
        base = log_norm - log_m
        return base + sums[0] / n_inner, base + (sums[0] + sums[1]) / (2 * n_inner)

    e_half, e_full = np.empty((n + 1, n_outer)), np.empty((n + 1, n_outer))
    u = np.ones((n_outer, int(inside.sum())))
    v = np.ones((2 * n_inner, u.shape[1]))
    for k in range(1, horizon + 1):
        fold(v, k, _DOMAIN_PROBE_INNER, 1.0)
    for i in range(horizon + 1):
        if i:
            fold(u, i, _DOMAIN_PROBE_OUTER, 1.0)
        if i == horizon:        # nothing left to integrate out, here or at any later i
            e_half[i:] = e_full[i:] = np.log(u.sum(axis=1)) - log_m
            break
        if i:
            fold(v, i, _DOMAIN_PROBE_INNER, -1.0)
        # at i = 0 every outer row is all ones: one row serves them all
        e_half[i], e_full[i] = inner_means(u if i else u[:1], v)
    return e_half, e_full


def martingale_increment_probe(n: int, j: int, params: GibbsParams, seed: int,
                               kernel: KernelSpec = KernelSpec(),
                               n_outer: int = 2000, n_inner: int = 2000,
                               h: float | None = None, L: float | None = None,
                               f_radius: float | None = None,
                               horizon: int | None = None) -> list[BoundCheckReport]:
    """Nested Monte Carlo checks of the martingale increments of log W.

    Delta_i = E[log W | F_i] - E[log W | F_{i-1}], i = 1..n, is the change
    in the conditional mean of log W when slice i is revealed (see
    :func:`_conditional_log_w` for W, the draws and the conditional means).
    Per i, the exponential moment E exp|Delta_i| is checked against the
    bound K; its nested bias is removed by linear extrapolation from
    n_inner to 2*n_inner inner draws.  The increments are orthogonal, so
    sum_i E[Delta_i^2] = Var log W exactly; the last report checks that
    difference against 0, with the same extrapolation for Delta_i^2 and
    Var log W taken from the outer draws' own log W = E[log W | F_n].
    The path expectation inside W reuses one fixed ensemble of
    ``params.M`` walks for every draw, so its sampling error largely
    cancels in the increments.

    Returns n ``increment_probe`` reports in order of i, then the
    ``increment_orthogonality`` report.
    """
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    if n_outer < 2 or n_inner < 1:
        raise ValueError("need n_outer >= 2 (for a standard error) and n_inner >= 1")
    horizon = n if horizon is None else horizon
    if not 0 <= horizon <= n:
        raise ValueError("horizon must lie in [0, n]")
    e_half, e_full = _conditional_log_w(n, j, params, seed, kernel, n_outer, n_inner, h, L,
                                        f_radius, horizon)
    d_half, d_full = np.diff(e_half, axis=0), np.diff(e_full, axis=0)     # (n, n_outer)
    notes = f"inner={n_inner},outer={n_outer},M={params.M}"
    upper = BoundConstants(beta=params.beta, sigma2=kernel.sigma2(1)).K
    reports = []
    for i in range(1, n + 1):
        extrapolated = 2.0 * np.exp(np.abs(d_full[i - 1])) - np.exp(np.abs(d_half[i - 1]))
        reports.append(make_report(
            f"increment_probe(n={n},j={j},i={i},beta={params.beta:g})", float(extrapolated.mean()),
            float(extrapolated.std(ddof=1) / math.sqrt(n_outer)), upper=upper, notes=notes))
    # sum_i Delta_i = log W - E log W per outer draw, so its spread is Var log W
    total = d_full.sum(axis=0)
    gap = ((2.0 * d_full**2 - d_half**2).sum(axis=0)
           - n_outer / (n_outer - 1) * (total - total.mean())**2)
    reports.append(make_report(f"increment_orthogonality(n={n})", float(gap.mean()),
                               float(gap.std(ddof=1) / math.sqrt(n_outer)), lower=0.0, upper=0.0,
                               notes=notes))
    return reports
