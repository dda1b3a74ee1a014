import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from polymerlab.environment import (_DOMAIN_PROBE_INNER, EnvironmentHandle, suggested_halfwidth,
                                    tagged_stream)
from polymerlab import gibbs
from polymerlab.cli import main
from polymerlab.gibbs import GibbsParams, ReplicaError, hamiltonian, quenched_average
from polymerlab.kernels import KernelSpec
from polymerlab.quadrature import _logsumexp
from polymerlab.verify import (BoundConstants, ExpoIneqCase, _conditional_log_w, _draw_batches,
                               _tilted_report, ball_bound_test, check_expo_ineq,
                               check_log_moment_bounds, concentration_bound, concentration_test,
                               girsanov_identity_test, make_report, martingale_increment_probe,
                               mean_control_test, random_expo_cases)
from polymerlab.walk import PathEnsemble, TiltSpec, sample_paths, tilt_log_weight, tilt_path

UNIT = KernelSpec()


# -- constants and report plumbing --------------------------------------------


def test_bound_constants_reference_values():
    bc = BoundConstants(beta=0.5, sigma2=1.0)
    assert bc.c1 == pytest.approx((math.e**2 - 1) / 16)
    assert bc.c2 == pytest.approx((1 - math.exp(-0.25)) / 2)
    assert bc.c == pytest.approx(bc.c1)
    assert bc.K == pytest.approx(math.exp((math.e**2 - 1) / 16) + math.exp(0.25))
    assert bc.K > 2.0


@pytest.mark.parametrize("beta, K", [(0.5, 2.7748300643537314), (1.0, 7.694969091505724e+80),
                                     (1.1, math.inf), (2.0, math.inf), (1e200, math.inf)])
def test_increment_constant_is_inf_where_it_overflows(beta, K):
    assert BoundConstants(beta=beta).K == K


def test_c1_is_inf_where_beta_squared_overflows():
    assert BoundConstants(beta=1e200).c1 == math.inf


def test_c2_reaches_its_limit_where_beta_squared_overflows():
    assert BoundConstants(beta=1e200, sigma2=1.0).c2 == 0.5
    assert BoundConstants(beta=0.5, sigma2=1.0).c2 == (1.0 - math.exp(-0.5**2 * 1.0)) / 2.0


@settings(max_examples=200)
@given(beta=st.floats(min_value=1e-3, max_value=3.0),
       sigma2=st.floats(min_value=1e-2, max_value=4.0))
def test_constant_ordering(beta, sigma2):
    bc = BoundConstants(beta=beta, sigma2=sigma2)
    assert bc.c1 >= bc.c2 > 0.0


def test_make_report_margins():
    two_sided = make_report("r", 0.5, 0.1, lower=0.0, upper=1.0)
    assert two_sided.passed and two_sided.margin_sigmas == pytest.approx(5.0)
    outside = make_report("r", 1.6, 0.1, lower=0.0, upper=1.0)
    assert not outside.passed and outside.margin_sigmas == pytest.approx(-6.0)
    borderline = make_report("r", 1.35, 0.1, upper=1.0)
    assert borderline.passed                      # within 4 sigma of the bound
    exact = make_report("r", 1.0, 0.0, upper=1.0)
    assert exact.passed and exact.margin_sigmas == 0.0
    hard_fail = make_report("r", 1.0 + 1e-12, 0.0, upper=1.0)
    assert not hard_fail.passed


# -- exponential-moment inequality --------------------------------------------


def test_expo_ineq_single_atom_equality_on_upper_bound():
    # one atom, no linear part: closed form e^{q^2 b^2 s^2/2} sits exactly
    # on the upper bound
    case = ExpoIneqCase(q=1.4, beta=0.5, kernel=UNIT, nodes=np.empty(0), lambdas=np.empty(0),
                        mu_atoms=np.array([0.3]), mu_weights=np.array([1.0]))
    rep = check_expo_ineq(case)
    closed = math.exp(0.5 * (1.4 * 0.5) ** 2)
    assert rep.estimate == pytest.approx(closed, rel=1e-8)
    assert rep.upper_bound == pytest.approx(closed, rel=1e-15)
    assert rep.lower_bound <= rep.estimate
    assert rep.passed


def test_expo_ineq_vanishing_beta_limit():
    case = ExpoIneqCase(q=1.0, beta=1e-6, kernel=UNIT, nodes=np.array([0.5]), lambdas=np.array([1.0]),
                        mu_atoms=np.array([0.0, 1.0]), mu_weights=np.array([0.5, 0.5]))
    rep = check_expo_ineq(case)
    assert rep.estimate == pytest.approx(1.0, abs=1e-6)
    assert rep.lower_bound == pytest.approx(1.0, abs=1e-6)
    assert rep.upper_bound == pytest.approx(1.0, abs=1e-5)


def test_expo_ineq_two_atoms_quadrature_vs_mc():
    case = ExpoIneqCase(q=1.0, beta=0.5, kernel=UNIT, nodes=np.array([0.0]), lambdas=np.array([1.0]),
                        mu_atoms=np.array([0.0, math.log(2)]), mu_weights=np.array([0.5, 0.5]))
    quad = check_expo_ineq(case)
    mc = check_expo_ineq(case, method="mc", n_draws=1_000_000, seed=11)
    assert quad.passed and mc.passed
    assert abs(mc.estimate - quad.estimate) < 4 * mc.stderr


def test_expo_ineq_randomized_cases_inside_bounds():
    for case in random_expo_cases(202, count=10):
        rep = check_expo_ineq(case)
        assert rep.passed, rep


def test_expo_ineq_case_validation():
    with pytest.raises(ValueError):
        ExpoIneqCase(q=0.0, beta=0.5, kernel=UNIT, nodes=np.empty(0), lambdas=np.empty(0),
                     mu_atoms=np.array([0.0]), mu_weights=np.array([1.0]))
    with pytest.raises(ValueError):
        ExpoIneqCase(q=1.0, beta=0.5, kernel=UNIT, nodes=np.empty(0), lambdas=np.empty(0),
                     mu_atoms=np.array([0.0, 1.0]), mu_weights=np.array([0.9, 0.3]))
    case = random_expo_cases(1, count=1)[0]
    with pytest.raises(ValueError):
        check_expo_ineq(case, method="bogus")


# -- log-moment inequality -----------------------------------------------------


def test_log_moment_single_atom_closed_form():
    rep = check_log_moment_bounds(np.array([0.0]), np.array([1.0]), 0.5, UNIT)
    assert rep.estimate == pytest.approx(-0.125, abs=1e-6)
    assert rep.lower_bound <= rep.estimate <= rep.upper_bound
    # bounds are -c1 sigma^2 and -c2 sigma^2 for a point mass
    bc = BoundConstants(beta=0.5, sigma2=1.0)
    assert rep.lower_bound == pytest.approx(-bc.c1)
    assert rep.upper_bound == pytest.approx(-bc.c2)


def test_log_moment_distant_atoms_overlap_halves():
    atoms = np.array([0.0, 25.0])
    weights = np.array([0.5, 0.5])
    rep = check_log_moment_bounds(atoms, weights, 0.5, UNIT, method="mc", n_draws=100_000, seed=5)
    bc = BoundConstants(beta=0.5, sigma2=1.0)
    assert rep.lower_bound == pytest.approx(-bc.c1 * 0.5, rel=1e-6)
    assert rep.upper_bound == pytest.approx(-bc.c2 * 0.5, rel=1e-6)
    assert rep.passed


def test_log_moment_small_beta_limit():
    rep = check_log_moment_bounds(np.array([0.0, 0.5]), np.array([0.5, 0.5]), 1e-3, UNIT)
    assert abs(rep.estimate) <= 1e-4
    assert abs(rep.lower_bound) <= 1e-4 and abs(rep.upper_bound) <= 1e-4
    assert rep.passed


def test_log_moment_randomized_cases_inside_bounds():
    for case in random_expo_cases(203, count=10):
        rep = check_log_moment_bounds(case.mu_atoms, case.mu_weights, case.beta, case.kernel)
        assert rep.passed, rep


# -- Girsanov identity ----------------------------------------------------------


def test_girsanov_zero_drift_is_identically_zero():
    rep, = girsanov_identity_test(8, [0.0], GibbsParams(beta=0.5, M=64), range(4))
    assert rep.estimate == 0.0 and rep.stderr == 0.0 and rep.passed


def test_girsanov_free_measure_martingale_mean():
    rep, = girsanov_identity_test(12, [0.2], GibbsParams(beta=0.0, M=4000), range(40))
    assert rep.passed and abs(rep.estimate) < 0.05


def test_girsanov_quenched_identity_small():
    rep, = girsanov_identity_test(16, [0.1], GibbsParams(beta=0.5, M=2000), range(500, 560))
    assert rep.passed


def test_girsanov_domain_error_when_grid_too_small():
    with pytest.raises(ReplicaError):
        girsanov_identity_test(16, [0.1], GibbsParams(beta=0.5, M=100), range(3), L=1.0)


# -- mean control ----------------------------------------------------------------


def test_mean_control_requires_alpha_above_half():
    with pytest.raises(ValueError):
        mean_control_test([0.4], [4], GibbsParams(beta=0.5, M=10), range(2))
    with pytest.raises(ValueError):
        mean_control_test([0.8, 0.5], [4], GibbsParams(beta=0.5, M=10), range(2))


def test_mean_control_free_measure_analytic_bound():
    # log(1 - Phi(n^{alpha - 1/2})) <= -n^{2 alpha - 1}/2, the Gaussian
    # tail inequality behind the beta = 0 sanity row
    for n in (4, 16, 64):
        t = n ** (0.8 - 0.5)
        assert math.log(norm.sf(t)) <= -0.5 * n ** (2 * 0.8 - 1)
    assert math.log(norm.sf(3.0)) == pytest.approx(-6.6077, abs=2e-4)
    assert math.log(norm.sf(3.0)) <= -4.5


def test_mean_control_small_run_passes():
    reports = mean_control_test([0.8], [4, 9], GibbsParams(beta=0.5, M=500), range(40))
    assert len(reports) == 2
    for rep, n in zip(reports, [4, 9]):
        assert rep.upper_bound == pytest.approx(-0.5 * n ** 0.6)
        assert rep.passed


def test_tilted_log_mass_smoothing_on_zero_hits():
    never = ("never", 0.0, TiltSpec(np.array([1.0])), lambda t: np.zeros(t.M, dtype=bool))
    rep, = _tilted_report([4], lambda n: [never], GibbsParams(beta=0.0, M=50), range(2), 1,
                          kernel=UNIT, L=20.0)
    assert rep.notes == "smoothed_replicas=2"
    assert rep.estimate == pytest.approx(-math.log(51.0))


# -- tilts sharing one replica -----------------------------------------------------


def reference_tilted_log_mass(seed, kernel, n, M, beta, tilt, event_fn, d=1, backend="grid",
                              h=None, L=None):
    """The single-tilt estimator as it stood before tilts shared a replica: one field
    and one path set per tilt, queried as [plain, tilted]."""
    paths = sample_paths(seed, M, n, d)
    tilted = tilt_path(paths, tilt)
    log_w = tilt_log_weight(tilted, tilt)
    hits = np.asarray(event_fn(tilted), dtype=bool)
    both = PathEnsemble(np.concatenate([paths.positions, tilted.positions]))
    h0, h1 = np.split(hamiltonian(EnvironmentHandle(seed, kernel, d=d, backend=backend, h=h, L=L),
                                  both), 2)
    if not hits.any():
        return -math.log(M + 1.0), True
    value = _logsumexp(beta * h1[hits] + log_w[hits]) - _logsumexp(beta * h0)
    return float(value), False


def reference_tilted_report(name, bound, seeds, **mass_args):
    qa = quenched_average(seeds, lambda s: reference_tilted_log_mass(s, **mass_args))
    smoothed = int(qa.values[:, 1].sum())
    return make_report(name, qa.mean[0], qa.stderr[0], upper=bound,
                       notes=f"smoothed_replicas={smoothed}" if smoothed else "")


@pytest.mark.parametrize("L", [None, 30.0])
def test_mean_control_rows_equal_single_tilt_calls_on_the_shared_grid(L):
    # without an explicit L every alpha of one n runs on the grid of the largest drift
    alphas, n_grid, params, seeds = [0.6, 0.7, 0.75, 0.8], [4, 9], GibbsParams(beta=0.5, M=120), range(5)
    got = mean_control_test(alphas, n_grid, params, seeds, L=L, threads=2)
    want = []
    for alpha in alphas:
        for n in n_grid:
            a = float(n) ** alpha
            want.append(reference_tilted_report(
                f"mean_control(n={n},alpha={alpha:g},beta=0.5)", -0.5 * float(n) ** (2 * alpha - 1),
                seeds, kernel=UNIT, n=n, M=params.M, beta=params.beta,
                tilt=TiltSpec(np.array([a])), event_fn=lambda t, a=a: t.endpoints[:, 0] >= a,
                L=L if L is not None else suggested_halfwidth(n, drift=float(n) ** 0.8)))
    assert got == want


@pytest.mark.parametrize("L", [None, 50.0])
def test_d1_ball_rows_equal_single_tilt_calls_on_the_shared_grid(L):
    n, params, seeds = 9, GibbsParams(beta=0.5, M=150), range(10, 16)
    radius = 9.0 ** 0.75
    got = ball_bound_test(0.75, [n], [(2,), (4,)], params, seeds, L=L)
    want = [reference_tilted_report(
        f"ball_bound(n=9,k=9,j=({j},),alpha=0.75,beta=0.5)", -0.5 * 3.0 * (j - 1) ** 2, seeds,
        kernel=UNIT, n=n, M=params.M, beta=params.beta,
        tilt=TiltSpec(np.array([(j - 1) * radius])),
        event_fn=lambda t, j=j: np.abs(t.positions[:, n - 1, :] - j * radius).max(axis=1) <= radius,
        L=L if L is not None else suggested_halfwidth(n, drift=3 * radius))
        for j in (2, 4)]
    assert got == want


def test_d2_exact_ball_couples_every_j_on_one_field(monkeypatch):
    # [free, tilt_1, tilt_2] is one exact ensemble per (replica, n), as on the grid
    kernel = KernelSpec(kind="product-exponential")
    n, params, seeds = 4, GibbsParams(beta=0.4, M=40), range(3)
    radius = 4.0 ** 0.75
    js = [np.array(j) for j in ((2, 2), (-2, 2))]
    tilts = [TiltSpec((j - np.sign(j)) * radius) for j in js]
    queried = []

    class RecordingHandle(EnvironmentHandle):
        def sample_slice_at(self, k, positions):
            queried.append(len(positions))
            return super().sample_slice_at(k, positions)

    monkeypatch.setattr(gibbs, "EnvironmentHandle", RecordingHandle)
    got = ball_bound_test(0.75, [n], js, params, seeds, kernel=kernel)
    assert queried == [3 * params.M] * (n * len(seeds))

    def log_masses(seed):
        paths = sample_paths(seed, params.M, n, 2)
        tilted = [tilt_path(paths, tilt) for tilt in tilts]
        h0, *hs = np.split(hamiltonian(EnvironmentHandle(seed, kernel, d=2, backend="exact"),
                                       PathEnsemble(np.concatenate(
                                           [paths.positions, *(t.positions for t in tilted)]))), 3)
        out = []
        for j, tilt, t, h1 in zip(js, tilts, tilted, hs):
            hits = np.abs(t.endpoints - j * radius).max(axis=1) <= radius
            assert hits.any()
            log_w = tilt_log_weight(t, tilt)
            out.append(float(_logsumexp(params.beta * h1[hits] + log_w[hits])
                             - _logsumexp(params.beta * h0)))
        return out

    qa = quenched_average(seeds, log_masses)
    assert got == [make_report(f"ball_bound(n=4,k=4,j={tuple(int(x) for x in j)},alpha=0.75,beta=0.4)",
                               qa.mean[i], qa.stderr[i], upper=-0.5 * 2.0 * 2.0)
                   for i, j in enumerate(js)]


def test_tilted_log_mass_pairs_equal_single_tilt_calls():
    tilts = [TiltSpec(np.array([a])) for a in (0.0, 2.0, 3.0)]
    events = [lambda t: t.endpoints[:, 0] >= 0.0, lambda t: t.endpoints[:, 0] >= 2.0,
              lambda t: np.zeros(t.M, dtype=bool)]
    cases = [(f"tilt{i}", 0.0, t, e) for i, (t, e) in enumerate(zip(tilts, events))]
    seeds, params = [7, 8], GibbsParams(beta=0.6, M=80)
    got = _tilted_report([4], lambda n: cases, params, seeds, 1, kernel=UNIT, L=50.0)
    want = [reference_tilted_report(name, 0.0, seeds, kernel=UNIT, n=4, M=80, beta=0.6, tilt=t,
                                    event_fn=e, L=50.0) for name, _, t, e in cases]
    assert got == want and not got[1].notes
    assert got[2].estimate == -math.log(81.0) and got[2].notes == "smoothed_replicas=2"


@pytest.mark.parametrize("L", [None, 40.0])
def test_verify_meancontrol_builds_one_handle_per_replica_and_n(tmp_path, monkeypatch, L):
    built = []

    class CountingHandle(EnvironmentHandle):
        def __init__(self, seed, *args, **kwargs):
            built.append(seed)
            super().__init__(seed, *args, **kwargs)

    monkeypatch.setattr(gibbs, "EnvironmentHandle", CountingHandle)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alphas": [0.6, 0.7, 0.75, 0.8], "n_grid": [4, 9], "M": 50, "R": 3,
                               "backend": {"L": L}}))
    assert main(["verify", "meancontrol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(built) == 3 * 2 and len(set(built)) == 3


# -- ball bounds ------------------------------------------------------------------


def test_ball_bound_scaling_of_emitted_bounds():
    params = GibbsParams(beta=0.5, M=400)
    r2, = ball_bound_test(0.75, [9], [(2,)], params, range(20))
    r4, = ball_bound_test(0.75, [9], [(4,)], params, range(20, 40))
    assert r2.upper_bound == -0.5 * 3.0                 # n^{2a-1} = sqrt(9)
    assert r4.upper_bound / r2.upper_bound == 9.0       # (j - sgn j)^2 scaling
    assert r2.passed and r4.passed


def test_ball_bound_two_dimensional_bound_value():
    kernel = KernelSpec(kind="product-exponential")
    rep, = ball_bound_test(0.75, [9], [(2, 2)], GibbsParams(beta=0.3, M=150),
                           range(12), kernel=kernel)
    assert rep.upper_bound == pytest.approx(-3.0)       # -(sqrt(9)/2) * 2
    assert rep.passed


def test_ball_bound_validation():
    params = GibbsParams(beta=0.5, M=10)
    with pytest.raises(ValueError):
        ball_bound_test(0.8, [4], [(0,)], params, range(2))
    with pytest.raises(ValueError):
        ball_bound_test(0.8, [4], [(2,), (3,)], params, range(2))
    with pytest.raises(ValueError, match="one dimension"):
        ball_bound_test(0.8, [4], [(2,), (2, 2)], params, range(2))
    with pytest.raises(ValueError, match="one dimension"):
        ball_bound_test(0.8, [4], [], params, range(2))


# -- concentration -----------------------------------------------------------------


def test_concentration_bound_reference_value():
    assert concentration_bound(100, 0.75) == pytest.approx(0.584, abs=1e-3)


def test_concentration_free_measure_logZ_is_zero():
    reports = concentration_test(0.75, [4, 8], GibbsParams(beta=0.0, M=50), range(200))
    assert [r.name for r in reports] == ["concentration_tail(n=4,nu=0.75)",
                                         "concentration_tail(n=8,nu=0.75)"]
    for r, n in zip(reports, [4, 8]):
        # every log Z_n is 0, so no deviation; the stderr is floored at one in R
        assert r.estimate == 0.0 and r.stderr == 1.0 / 200
        assert r.upper_bound == concentration_bound(n, 0.75) and r.passed


def test_concentration_preconditions():
    params = GibbsParams(beta=0.5, M=50)
    with pytest.raises(ValueError, match="nu must exceed 1/2"):
        concentration_test(0.4, [8], params, range(200))
    with pytest.raises(ValueError, match=">= 200 replicas"):
        concentration_test(0.75, [8], params, range(199))


@pytest.mark.parametrize("nu", [400.0, 1e308])
def test_concentration_overflowing_powers_give_frequency_and_bound_zero(nu):
    # 9**400 and 4**1e308 overflow a float: no deviation reaches them, and the bound is 0
    assert concentration_bound(9, nu) == concentration_bound(4, nu) == 0.0
    assert concentration_bound(1, nu) == math.exp(-0.25)
    reports = concentration_test(nu, [1, 4, 9], GibbsParams(beta=0.5, M=20), range(200))
    assert [r.upper_bound for r in reports] == [math.exp(-0.25), 0.0, 0.0]
    for r in reports[1:]:
        assert r.estimate == 0.0 and r.margin_sigmas == 0.0 and r.passed


def test_replica_fan_outs_name_the_failed_replica():
    # L = 1 is far too narrow a grid for n = 9 walks
    params = GibbsParams(beta=0.5, M=50)
    for run in (lambda: mean_control_test([0.8], [9], params, range(2), L=1.0),
                lambda: ball_bound_test(0.75, [9], [[2]], params, range(2), L=1.0),
                lambda: concentration_test(0.75, [9], params, range(200), L=1.0)):
        with pytest.raises(ReplicaError, match=r"replica 0 \(seed 0\)"):
            run()


# -- martingale increment probe -------------------------------------------------------


def test_probe_vanishing_beta_control():
    reports = martingale_increment_probe(4, 4, GibbsParams(beta=1e-3, M=800), seed=21,
                                         n_outer=400, n_inner=400)
    assert all(abs(r.estimate - 1.0) < 0.01 for r in reports[:4])


def test_probe_measurability_gives_exact_zero_increment():
    # W truncated to slices <= 2: revealing slice 3 or 4 changes nothing
    reports = martingale_increment_probe(4, 2, GibbsParams(beta=0.5, M=300), seed=3,
                                         n_outer=100, n_inner=100, horizon=2)
    assert all(r.estimate == 1.0 and r.stderr == 0.0 for r in reports[2:4])
    # at beta = 0 no slice enters W: every increment and the orthogonality gap vanish exactly
    flat = martingale_increment_probe(4, 2, GibbsParams(beta=0.0, M=300), seed=3,
                                      n_outer=100, n_inner=100)
    assert [(r.estimate, r.stderr) for r in flat] == [(1.0, 0.0)] * 4 + [(0.0, 0.0)]
    assert all(r.passed for r in flat)


def test_probe_bound_check_and_determinism():
    params = GibbsParams(beta=0.5, M=500)
    res1 = martingale_increment_probe(4, 4, params, seed=9, n_outer=300, n_inner=300)
    res2 = martingale_increment_probe(4, 4, params, seed=9, n_outer=300, n_inner=300)
    assert res1 == res2
    assert [r.name for r in res1] == [f"increment_probe(n=4,j=4,i={i},beta=0.5)"
                                      for i in range(1, 5)] + ["increment_orthogonality(n=4)"]
    assert all(r.upper_bound == pytest.approx(BoundConstants(0.5, 1.0).K) for r in res1[:4])
    assert res1[4].lower_bound == res1[4].upper_bound == 0.0
    assert all(r.passed for r in res1)


def test_probe_validation():
    params = GibbsParams(beta=0.5, M=50)
    with pytest.raises(ValueError):
        martingale_increment_probe(4, 5, params, seed=0)
    with pytest.raises(ValueError):
        martingale_increment_probe(4, 4, params, seed=0, f_radius=1e-9)
    with pytest.raises(ValueError, match="n_outer"):
        martingale_increment_probe(4, 4, params, seed=0, n_outer=1, n_inner=10)
    with pytest.raises(ValueError, match="n_inner"):
        martingale_increment_probe(4, 4, params, seed=0, n_outer=10, n_inner=0)
    with pytest.raises(ValueError, match="horizon"):
        martingale_increment_probe(4, 4, params, seed=0, horizon=5)
    # no cap on n: one draw set serves every i
    assert len(martingale_increment_probe(8, 8, params, seed=0, n_outer=20, n_inner=10)) == 9


def _draw_slices_one_at_a_time(template, nodes, rng, count):
    """Reference for the batched draws: one synthesis and gather per draw."""
    return np.stack([template.synthesize(rng.standard_normal(template.n_circ))[nodes]
                     for _ in range(count)])


def _reference_probe(n, j, i, params, seed, n_outer, n_inner):
    """E exp|Delta_i| and its stderr by the per-i algorithm: fresh outer slices 1..i
    and two fresh inner sets, one per side, one whole (O, 2R) product per side."""
    template = EnvironmentHandle(seed, UNIT, d=1, backend="grid", L=suggested_halfwidth(n))
    paths = sample_paths(seed, params.M, n, 1)
    idx = np.stack([template.snap(paths.positions[:, kk, :]) for kk in range(n)])
    f_vals = (np.abs(paths.positions[:, j - 1, 0]) <= 2.0 * math.sqrt(j)).astype(float)

    def draws(domain, count, slices):
        """(count, M) sums over ``slices``; draw r takes every slice from one stream."""
        out = np.zeros((count, params.M))
        for r in range(count):
            rng = tagged_stream(seed, domain, r)
            for kk in slices:
                out[r] += template.synthesize(rng.standard_normal(template.n_circ))[idx[kk - 1]]
        return out

    outer_lo = draws(10, n_outer, range(1, i))
    outer_hi = outer_lo + draws(11, n_outer, [i])

    def side(base, fresh, domain):
        u = f_vals[None, :] * np.exp(params.beta * base)
        if not fresh:
            vals = np.log(u.sum(axis=1)) - math.log(params.M)
            return vals, vals
        log_w = np.log(u @ np.exp(params.beta * draws(domain, 2 * n_inner, fresh)).T)
        log_w -= math.log(params.M)
        return log_w[:, :n_inner].mean(axis=1), log_w.mean(axis=1)

    hi_half, hi_full = side(outer_hi, list(range(i + 1, n + 1)), 12)
    lo_half, lo_full = side(outer_lo, list(range(i, n + 1)), 13)
    extrapolated = 2.0 * np.exp(np.abs(hi_full - lo_full)) - np.exp(np.abs(hi_half - lo_half))
    return float(extrapolated.mean()), float(extrapolated.std(ddof=1) / math.sqrt(n_outer))


@pytest.mark.parametrize("chunk", [None, 1, 7001])
def test_batched_increment_draws_match_one_draw_at_a_time(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr("polymerlab.verify.MC_CHUNK", chunk)
    template = EnvironmentHandle(11, UNIT, d=1, backend="grid", L=suggested_halfwidth(3))
    idx = np.stack([template.snap(np.linspace(-4.0, 4.0, 37)[:, None] * s) for s in (0.5, 1.0, 1.5)])
    for k in (1, 2, 3):
        batches = list(_draw_batches(template, idx[k - 1], tagged_stream(11, _DOMAIN_PROBE_INNER, k), 301))
        starts = [0] + [draws.stop for draws, _ in batches]
        assert [(draws.start, draws.stop) for draws, _ in batches] == list(zip(starts, starts[1:]))
        assert starts[-1] == 301 and all(draws.stop > draws.start for draws, _ in batches)
        got = np.concatenate([gathered for _, gathered in batches])
        want = _draw_slices_one_at_a_time(template, idx[k - 1],
                                          tagged_stream(11, _DOMAIN_PROBE_INNER, k), 301)
        assert got.tobytes() == want.tobytes()


def test_increment_probe_holds_no_whole_outer_draw_array(monkeypatch):
    # the probe holds one (n_outer, M) and one (2 n_inner, M) array; the outer
    # draws of all slices, or the whole (n_outer, 2 n_inner) product, would
    # each take more than the bound below
    monkeypatch.setattr("polymerlab.verify.MC_CHUNK", 20_000)
    params, n_outer, n_inner = GibbsParams(beta=0.5, M=400), 2000, 1000
    tracemalloc.start()
    try:
        martingale_increment_probe(4, 4, params, seed=9, n_outer=n_outer, n_inner=n_inner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (n_outer + 2 * n_inner) * params.M * 8


@pytest.mark.parametrize("chunk", [None, 7001])
def test_batched_increment_probe_matches_reference(monkeypatch, chunk):
    # 300 draws are not a multiple of any batch size used here
    params = GibbsParams(beta=0.5, M=200)
    whole = martingale_increment_probe(4, 4, params, seed=9, n_outer=300, n_inner=300)
    if chunk is not None:
        monkeypatch.setattr("polymerlab.verify.MC_CHUNK", chunk)
    got = martingale_increment_probe(4, 4, params, seed=9, n_outer=300, n_inner=300)
    for a, b in zip(got, whole):
        assert a.estimate == pytest.approx(b.estimate, rel=1e-12, abs=1e-14)
        assert a.stderr == pytest.approx(b.stderr, rel=1e-9)
    # the per-i algorithm draws its own fields: the two agree within 4 sigma
    for i, report in enumerate(got[:4], start=1):
        estimate, stderr = _reference_probe(4, 4, i, params, seed=9, n_outer=300, n_inner=300)
        assert abs(report.estimate - estimate) < 4.0 * math.hypot(report.stderr, stderr)


def test_increments_sum_of_squares_is_the_variance_over_fresh_fields():
    # sum_i E[Delta_i^2] from the probe's draws against Var log W over fresh
    # fields on the same paths (W truncated to |S_4| <= 4)
    n, params, seed = 4, GibbsParams(beta=0.5, M=200), 17
    e_half, e_full = _conditional_log_w(n, n, params, seed, UNIT, 1000, 1000, None, None, None, n)
    sq = (2.0 * np.diff(e_full, axis=0)**2 - np.diff(e_half, axis=0)**2).sum(axis=0)
    paths = sample_paths(seed, params.M, n, 1)
    inside = np.abs(paths.endpoints[:, 0]) <= 2.0 * math.sqrt(n)
    log_w = np.array([_logsumexp(params.beta * hamiltonian(EnvironmentHandle(
        seed + 1 + r, UNIT, backend="grid", L=suggested_halfwidth(n)), paths)[inside])
        for r in range(4000)]) - math.log(params.M)
    dev2 = (log_w - log_w.mean())**2
    var, var_se = dev2.sum() / (len(log_w) - 1), dev2.std(ddof=1) / math.sqrt(len(log_w))
    se = math.hypot(sq.std(ddof=1) / math.sqrt(len(sq)), var_se)
    assert abs(sq.mean() - var) < 4.0 * se


@pytest.mark.parametrize("n", [9, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_increment_orthogonality_holds_at_n_9_and_16(n, seed):
    # sum_i E[Delta_i^2] = Var log W; z reads 1.20 and -0.65 at n = 9, 2.21 and 0.27 at n = 16
    report = martingale_increment_probe(n, n, GibbsParams(beta=0.5, M=200), seed=seed,
                                        n_outer=300, n_inner=300)[-1]
    assert report.name == f"increment_orthogonality(n={n})"
    assert report.lower_bound == report.upper_bound == 0.0 and report.stderr > 0
    assert abs(report.estimate) < 4.0 * report.stderr and report.passed


def test_random_expo_cases_shape_and_determinism():
    cases = random_expo_cases(42, count=10)
    assert len(cases) == 10
    for case in cases:
        assert 1 <= case.mu_atoms.size <= 4
        assert case.mu_weights.sum() == pytest.approx(1.0)
    again = random_expo_cases(42, count=10)
    assert all(np.array_equal(a.mu_atoms, b.mu_atoms) for a, b in zip(cases, again))


def test_log_moment_unknown_method_raises():
    case = random_expo_cases(1, count=1)[0]
    with pytest.raises(ValueError, match="unknown method"):
        check_log_moment_bounds(case.mu_atoms, case.mu_weights, case.beta, case.kernel,
                                method="bogus")
