import ast
import importlib
import pkgutil
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import polymerlab
from polymerlab import environment as env_mod
from polymerlab.environment import (_DOMAIN_SLICE, _JITTER, CovarianceConditioningError,
                                    EnvironmentHandle, GridDomainError, SpectralClippingError,
                                    _grid_spectrum, _lower_covariance, covariance_selftest,
                                    tagged_stream)
from polymerlab.kernels import KernelSpec, _as_points, gamma_eval, gamma_matrix

UNIT = KernelSpec()  # normalized exponential, lam=1
PRODUCT = KernelSpec(kind="product-exponential")


def test_requery_returns_cached_value():
    env = EnvironmentHandle(11, UNIT, backend="exact")
    first = env.sample_slice_at(3, [1.7])
    second = env.sample_slice_at(3, [1.7])
    assert first[0] == second[0]


def test_repeated_positions_within_one_call():
    env = EnvironmentHandle(11, UNIT, backend="exact")
    vals = env.sample_slice_at(1, [0.2, 0.2, 0.9, 0.2])
    assert vals[0] == vals[1] == vals[3]
    assert vals[0] != vals[2]


def test_requery_returns_drawn_values_and_rejects_new_points():
    env = EnvironmentHandle(5, PRODUCT, d=2, backend="exact")
    first = env.sample_slice_at(1, np.array([[0.0, -0.0], [1.3, 0.2], [-0.4, 2.0]]))
    again = env.sample_slice_at(1, np.array([[-0.4, 2.0], [-0.0, 0.0], [0.0, 0.0], [1.3, 0.2]]))
    assert again.tobytes() == first[[2, 0, 0, 1]].tobytes()
    with pytest.raises(ValueError, match=r"slice 1: position \[1\.3, 0\.0\] was not drawn"):
        env.sample_slice_at(1, np.array([[0.0, 0.0], [1.3, 0.0]]))
    assert env._slices[1].values.tobytes() == first.tobytes()
    # an empty query draws nothing, so the slice's first query is still to come
    assert env.sample_slice_at(2, np.empty((0, 2))).shape == (0,)
    assert env.sample_slice_at(2, np.array([[1.3, 0.0]])).shape == (1,)


def one_shot_reference(env: EnvironmentHandle, k: int, positions) -> tuple[np.ndarray, np.ndarray]:
    """Distinct points and values of a slice's first exact query, drawn the former way.

    A dict keyed by each point's bytes after ``+ 0.0`` finds the distinct
    points; one Cholesky factor of their jittered covariance colours the
    slice's normals, added to a zero conditional mean.
    """
    index, new, rows = {}, [], []
    for p in _as_points(positions, d=env.d):
        rows.append(index.setdefault((p + 0.0).tobytes(), len(new)))
        if rows[-1] == len(new):
            new.append(p)
    new = np.asarray(new)
    cov = gamma_matrix(env.kernel, new)
    cov.flat[::len(new) + 1] += _JITTER * env.sigma2
    z = tagged_stream(env.seed, _DOMAIN_SLICE, k).standard_normal(len(new))
    return new + 0.0, (np.zeros(len(new)) + np.linalg.cholesky(cov) @ z)[rows]


def lattice_points(seed: int, count: int, d: int) -> np.ndarray:
    """Points on a half-integer lattice, so they repeat, with random signs, so zeros are signed."""
    rng = np.random.default_rng(seed)
    return rng.integers(-3, 4, (count, d)) * 0.5 * rng.choice([-1.0, 1.0], (count, d))


@pytest.mark.parametrize("d, kernel, positions", [
    (1, UNIT, [0.0, -0.0, 1.3, 0.2, 1.3, -0.0, -2.5]),
    (1, UNIT, lattice_points(1, 60, 1)),
    (2, PRODUCT, [[0.0, -0.0], [-0.0, 0.0], [0.5, -0.5], [0.0, 0.0], [0.5, -0.5], [-0.0, -0.0]]),
    (2, PRODUCT, lattice_points(2, 300, 2)),
    (2, KernelSpec(kind="squared-exponential"), lattice_points(3, 40, 2)),
    (3, PRODUCT, lattice_points(4, 300, 3)),
])
def test_first_query_bytes_match_the_one_shot_reference(d, kernel, positions):
    pts = _as_points(positions, d=d)
    assert np.signbit(pts).any() and len(np.unique(pts + 0.0, axis=0)) < len(pts)
    for k in (1, 7):
        env = EnvironmentHandle(40 + d, kernel, d=d, backend="exact")
        want_points, want = one_shot_reference(env, k, pts)
        got = env.sample_slice_at(k, pts)
        assert got.tobytes() == want.tobytes()
        assert env._slices[k].points.tobytes() == want_points.tobytes()


@pytest.mark.parametrize("m", [2, 63, 64, 65, 127, 128, 129, 600])
@pytest.mark.parametrize("d, kernel", [(2, PRODUCT), (1, UNIT)])
def test_exact_draw_from_the_lower_triangle_matches_the_full_covariance(m, d, kernel):
    # row blocks of 64 points: part of one block, one or two full blocks and a row more, ten blocks
    assert env_mod._COV_BLOCK == 64
    pts = np.random.default_rng(m).uniform(-10.0, 10.0, (m, d))
    env = EnvironmentHandle(9, kernel, d=d, backend="exact")
    got = env.sample_slice_at(4, pts)
    jitter = _JITTER * env.sigma2 * np.eye(m)
    z = tagged_stream(9, _DOMAIN_SLICE, 4).standard_normal(m)
    want = np.linalg.cholesky(gamma_matrix(kernel, pts) + jitter) @ z
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", [UNIT, PRODUCT, KernelSpec(kind="squared-exponential")])
def test_lower_covariance_holds_the_full_matrix_bytes_on_and_below_the_diagonal(kernel):
    pts = np.random.default_rng(1).uniform(-5.0, 5.0, (300, 1 if kernel is UNIT else 3))
    lower = _lower_covariance(kernel, pts)
    assert np.tril(lower).tobytes() == np.tril(gamma_matrix(kernel, pts)).tobytes()
    # nothing right of a row block's last point is built
    assert not any(lower[r0:r0 + 64, r0 + 64:].any() for r0 in range(0, 300, 64))


def test_exact_slices_keep_no_covariance_factor():
    # 16 slices of 600 distinct d = 2 points: a kept 600 x 600 factor per
    # slice would hold 44 MiB, the points and values hold 0.2 MiB
    pts = np.random.default_rng(0).uniform(-10.0, 10.0, (600, 2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        env = EnvironmentHandle(3, PRODUCT, d=2, backend="exact")
        for k in range(1, 17):
            env.sample_slice_at(k, pts)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(env._slices) == 16
    assert kept < 600 * 600 * 8


def test_seed_determinism_and_distinctness():
    a = EnvironmentHandle(99, UNIT, backend="exact").sample_slice_at(1, [0.0, 1.0])
    b = EnvironmentHandle(99, UNIT, backend="exact").sample_slice_at(1, [0.0, 1.0])
    c = EnvironmentHandle(100, UNIT, backend="exact").sample_slice_at(1, [0.0, 1.0])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampled_moments_over_many_seeds():
    vals = np.array([EnvironmentHandle(s, UNIT, backend="exact").sample_slice_at(1, [0.0])[0]
                     for s in range(10_000)])
    assert abs(vals.mean()) < 0.05
    assert abs(vals.var() - 1.0) < 0.05


def test_in_slice_correlation_matches_kernel():
    pos = [0.0, np.log(2)]
    vals = np.array([EnvironmentHandle(s, UNIT, backend="exact").sample_slice_at(1, pos)
                     for s in range(10_000)])
    corr = np.corrcoef(vals.T)[0, 1]
    assert abs(corr - 0.5) < 0.04


def test_grid_slice_bit_identical_and_frozen():
    env = EnvironmentHandle(21, UNIT, backend="grid", h=0.1, L=5.0)
    a = env.build_grid_slice(2)
    b = EnvironmentHandle(21, UNIT, backend="grid", h=0.1, L=5.0).build_grid_slice(2)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        a[0] = 0.0


def test_cached_grid_slice_is_a_contiguous_copy():
    env = EnvironmentHandle(21, UNIT, backend="grid", h=0.1, L=5.0)
    values = env.build_grid_slice(3)
    assert values.flags.c_contiguous and not values.flags.writeable
    assert values.nbytes == 8 * env.n_nodes and values.base is None
    z = tagged_stream(21, _DOMAIN_SLICE, 3).standard_normal(env.n_circ)
    assert values.tobytes() == env.synthesize(z).tobytes()


@pytest.mark.parametrize("batch", [(), (3,), (2, 4)])
def test_synthesize_matches_plain_ifft_and_keeps_z(batch):
    # the half-spectrum by hand: normal 0 is mode 0, normals 2j-1 and 2j the
    # real and imaginary parts of mode j, the last normal mode n_circ/2
    env = EnvironmentHandle(21, UNIT, backend="grid", h=0.1, L=5.0)
    m = env.n_circ
    rng = np.random.default_rng(len(batch))
    z = rng.standard_normal((*batch, m))
    before = z.copy()
    scaled = z * _grid_spectrum(env.kernel, env.h, env.n_nodes)[0]
    half = np.zeros((*batch, m // 2 + 1), dtype=complex)
    half[..., 0] = scaled[..., 0]
    half[..., 1:m // 2] = scaled[..., 1:m - 1:2] + 1j * scaled[..., 2:m - 1:2]
    half[..., m // 2] = scaled[..., m - 1]
    want = np.fft.irfft(half, n=m)[..., :env.n_nodes]
    got = env.synthesize(z)
    assert got.shape == (*batch, env.n_nodes)
    assert got.tobytes() == want.tobytes()
    out = np.full_like(z, np.nan)
    into = env.synthesize(z, out=out)
    assert into.base is out and into.tobytes() == want.tobytes()
    assert z.tobytes() == before.tobytes()


@pytest.mark.parametrize("normals", [
    lambda m: np.zeros(m, dtype=complex),
    lambda m: np.zeros((2, m), dtype=complex),
    lambda m: np.zeros(m + 1),
    lambda m: np.zeros((m, 2)),
    lambda m: np.float64(0.0),
])
def test_synthesize_rejects_complex_or_misshaped_normals(normals):
    env = EnvironmentHandle(21, UNIT, backend="grid", h=0.1, L=5.0)
    with pytest.raises(ValueError, match="real standard normals"):
        env.synthesize(normals(env.n_circ))


@pytest.mark.parametrize("L", [0.0, 0.05, 0.1, 5.0])
def test_synthesized_covariance_matches_the_kernel_at_small_lags(L):
    # n_nodes = 1, 2, 3 and 101 at h = 0.1; 40,000 fields per lag
    env = EnvironmentHandle(4, UNIT, backend="grid", h=0.1, L=L)
    draws = 40_000
    fields = env.synthesize(np.random.default_rng(5).standard_normal((draws, env.n_circ)))
    for lag in range(min(6, env.n_nodes)):
        target = float(gamma_eval(UNIT, np.array([[0.1 * lag]]))[0])
        emp = float(np.mean(fields[:, 0] * fields[:, lag]))
        se = np.sqrt((UNIT.sigma2(1) ** 2 + target**2) / draws)
        assert abs(emp - target) < 4 * se, (env.n_nodes, lag, emp, target)


def _stream_state(rng: np.random.Generator) -> tuple:
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"])


def test_grid_slice_consumes_exactly_n_circ_normals(monkeypatch):
    streams = []

    def recording(*tag):
        streams.append(tagged_stream(*tag))
        return streams[-1]

    monkeypatch.setattr("polymerlab.environment.tagged_stream", recording)
    env = EnvironmentHandle(8, UNIT, backend="grid", h=0.1, L=5.0)
    env.build_grid_slice(2)
    reference = tagged_stream(8, _DOMAIN_SLICE, 2)
    reference.standard_normal(env.n_circ)
    assert len(streams) == 1
    assert _stream_state(streams[0]) == _stream_state(reference)
    reference.standard_normal(1)
    assert _stream_state(streams[0]) != _stream_state(reference)


def test_single_node_grid_is_plain_gaussian():
    vals = np.array([EnvironmentHandle(s, UNIT, backend="grid", h=0.1, L=0.0).sample_slice_at(1, [0.0])[0]
                     for s in range(4000)])
    assert abs(vals.mean()) < 0.08
    assert abs(vals.var() - 1.0) < 0.1


def test_grid_lag_autocovariance():
    env = EnvironmentHandle(7, UNIT, backend="grid", h=0.1, L=50.0)
    slices = np.stack([env.build_grid_slice(k) for k in range(1, 1001)])
    lag10 = float(np.mean(slices[:, :-10] * slices[:, 10:]))
    assert abs(lag10 - np.exp(-1)) < 0.05


def test_grid_snapping_and_domain_error():
    env = EnvironmentHandle(3, UNIT, backend="grid", h=0.1, L=2.0)
    v_node = env.sample_slice_at(1, [1.0])
    v_near = env.sample_slice_at(1, [1.04])
    assert v_node[0] == v_near[0]
    with pytest.raises(GridDomainError):
        env.sample_slice_at(1, [2.5])


def test_grid_rejects_higher_dimension():
    with pytest.raises(ValueError):
        EnvironmentHandle(0, UNIT, d=2, backend="grid", L=2.0)


def test_petermann_kernel_rejected_above_one_dimension():
    with pytest.raises(ValueError):
        EnvironmentHandle(0, UNIT, d=2, backend="exact")
    EnvironmentHandle(0, KernelSpec(kind="product-exponential"), d=2, backend="exact")


def test_exact_backend_d2_joint_consistency():
    kernel = KernelSpec(kind="product-exponential")
    env = EnvironmentHandle(8, kernel, d=2, backend="exact")
    vals = env.sample_slice_at(1, np.array([[0.0, 0.0], [0.5, -0.5]]))
    again = env.sample_slice_at(1, np.array([[0.5, -0.5]]))
    assert vals[1] == again[0]


def test_conditioning_error_on_indefinite_covariance(monkeypatch):
    # the jitter is supposed to absorb rounding-level indefiniteness, so an
    # honestly indefinite matrix has to be injected to exercise the error path
    import polymerlab.environment as env_mod

    def indefinite(kernel, a, b=None, d=None):
        if b is None:
            return np.array([[1.0, 2.0], [2.0, 1.0]])
        return np.zeros((len(np.atleast_2d(a)), len(np.atleast_2d(b))))

    monkeypatch.setattr(env_mod, "gamma_matrix", indefinite)
    env = EnvironmentHandle(5, UNIT, backend="exact")
    with pytest.raises(CovarianceConditioningError):
        env.sample_slice_at(1, [0.0, 1.0])


def test_spectral_clipping_diagnostics_and_error():
    env = EnvironmentHandle(1, UNIT, backend="grid", h=0.1, L=5.0)
    env.build_grid_slice(1)
    assert _grid_spectrum(env.kernel, env.h, env.n_nodes)[1] <= 1e-6
    wide = KernelSpec(kind="squared-exponential", lam=0.1)
    bad = EnvironmentHandle(1, wide, backend="grid", h=0.5, L=2.0)
    with pytest.raises(SpectralClippingError):
        bad.build_grid_slice(1)
    # the error is not cached away: a second handle of the law raises too
    again = EnvironmentHandle(2, wide, backend="grid", h=0.5, L=2.0)
    with pytest.raises(SpectralClippingError, match="clipped"):
        again.build_grid_slice(1)
    with pytest.raises(SpectralClippingError):
        _grid_spectrum(wide, 0.5, bad.n_nodes)


def test_handles_of_one_law_share_one_read_only_spectrum(monkeypatch):
    calls = []

    def counting(kernel, x):
        calls.append(len(x))
        return gamma_eval(kernel, x)

    monkeypatch.setattr(env_mod, "gamma_eval", counting)
    _grid_spectrum.cache_clear()
    handles = [EnvironmentHandle(seed, UNIT, backend="grid", h=0.1, L=3.0) for seed in range(4)]
    for env in handles:
        env.build_grid_slice(1)
    assert calls == [handles[0].n_nodes]
    assert _grid_spectrum.cache_info().misses == 1
    scale = _grid_spectrum(UNIT, 0.1, handles[0].n_nodes)[0]
    assert all(_grid_spectrum(env.kernel, env.h, env.n_nodes)[0] is scale for env in handles)
    assert not scale.flags.writeable
    with pytest.raises(ValueError):
        scale[0] = 0.0
    assert not any(hasattr(env, name) for env in handles
                   for name in ("_spectrum", "_scaled_spectrum", "diagnostics"))

    # another n_nodes is another law: one more entry, one more evaluation
    wider = EnvironmentHandle(0, UNIT, backend="grid", h=0.1, L=4.0)
    wider.build_grid_slice(1)
    assert calls == [handles[0].n_nodes, wider.n_nodes]
    assert _grid_spectrum.cache_info().misses == 2
    assert len(_grid_spectrum(UNIT, 0.1, wider.n_nodes)[0]) == wider.n_circ


def test_concurrent_first_use_of_a_law_gives_every_handle_the_same_field():
    handles = [EnvironmentHandle(s, UNIT, backend="grid", h=0.1, L=3.0) for s in range(8)]
    m = handles[0].n_circ
    want = [env.synthesize(tagged_stream(env.seed, _DOMAIN_SLICE, 1).standard_normal(m))
            for env in handles]
    _grid_spectrum.cache_clear()    # every thread now races to fill the law's entry
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(env.build_grid_slice, 1) for env in handles]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_threads_starting_a_new_law_together_compute_its_spectrum_once(monkeypatch):
    def slow(kernel, x):
        time.sleep(0.05)       # holds each computation open while the other threads arrive
        return gamma_eval(kernel, x)

    monkeypatch.setattr(env_mod, "gamma_eval", slow)
    handles = [EnvironmentHandle(s, UNIT, backend="grid", h=0.1, L=3.5) for s in range(4)]
    barrier = threading.Barrier(len(handles))

    def first_slice(env):
        barrier.wait(timeout=60)
        return env.build_grid_slice(1)

    _grid_spectrum.cache_clear()
    with ThreadPoolExecutor(max_workers=len(handles)) as pool:
        for future in [pool.submit(first_slice, env) for env in handles]:
            future.result(timeout=60)
    assert _grid_spectrum.cache_info().misses == 1


def test_selftest_slice_independence_and_stationarity():
    env = EnvironmentHandle(500, UNIT, backend="exact")
    points = [(1, 0.0), (1, 0.7), (1, 1.4), (2, 0.0)]
    rows = covariance_selftest(env, points, n_seeds=3000)
    assert all(abs(r.z) < 4 for r in rows)
    # stationarity: the two lag-0.7 pairs estimate the same target
    lag_rows = [r for r in rows
                if r.position_a[0] == r.position_b[0] == 1
                and abs(abs(r.position_a[1] - r.position_b[1]) - 0.7) < 1e-12]
    assert len(lag_rows) == 2
    diff = lag_rows[0].empirical_cov - lag_rows[1].empirical_cov
    assert abs(diff) < 4 * np.hypot(lag_rows[0].stderr, lag_rows[1].stderr)


def test_selftest_grid_targets_use_snapped_positions():
    env = EnvironmentHandle(500, UNIT, backend="grid", h=0.1, L=2.0)
    rows = covariance_selftest(env, [(1, 0.0), (1, np.log(2))], n_seeds=500)
    pair = [r for r in rows if r.position_a != r.position_b][0]
    assert pair.target_cov == pytest.approx(np.exp(-0.7))


def test_selftest_requires_enough_seeds():
    env = EnvironmentHandle(0, UNIT, backend="exact")
    with pytest.raises(ValueError):
        covariance_selftest(env, [(1, 0.0)], n_seeds=10)


def test_slice_index_validation():
    env = EnvironmentHandle(0, UNIT, backend="exact")
    with pytest.raises(ValueError):
        env.sample_slice_at(0, [0.0])


def test_tagged_stream_rejects_tags_outside_their_key_fields():
    # domain takes the top 16 bits of the second key word, index the low 48
    with pytest.raises(ValueError, match="stream tag"):
        tagged_stream(1, 1, 2**48 + 5)      # would alias tagged_stream(1, 1, 5)
    for domain, index in ((2**16, 0), (-1, 0), (0, -1), (0, 2**48)):
        with pytest.raises(ValueError, match="stream tag"):
            tagged_stream(7, domain, index)


def test_every_stream_tag_is_defined_once_in_the_environment_table():
    table = {name: value for name, value in vars(env_mod).items() if name.startswith("_DOMAIN_")}
    assert len(set(table.values())) == len(table) >= 5
    assert all(isinstance(v, int) and 0 <= v < 1 << 16 for v in table.values())
    for info in pkgutil.iter_modules(polymerlab.__path__):
        mod = importlib.import_module(f"polymerlab.{info.name}")
        for name, value in vars(mod).items():
            if name.startswith("_DOMAIN_"):
                assert value is table[name], f"{info.name}.{name}"
        if mod is not env_mod:      # equal small ints are one object, so also read the source
            stored = {node.id for node in ast.walk(ast.parse(Path(mod.__file__).read_text()))
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            assert not {n for n in stored if n.startswith("_DOMAIN_")}, info.name


def _assert_same_philox_state(got: dict, want: dict):
    assert got.keys() == want.keys() and got["state"].keys() == want["state"].keys()
    for part in ("counter", "key"):
        assert got["state"][part].tobytes() == want["state"][part].tobytes()
    for part in ("bit_generator", "buffer", "buffer_pos", "has_uint32", "uinteger"):
        assert np.array_equal(got[part], want[part])


@pytest.mark.parametrize("seed, domain, index", [(0, 0, 0), (1, 1, 5), (2**64 - 1, 2**16 - 1, 2**48 - 1),
                                                 (20240817, 6, 3999), (2**64 - 1, 0, 0),
                                                 (0, 2**16 - 1, 0), (0, 0, 2**48 - 1)])
def test_tagged_stream_bytes_for_valid_tags(seed, domain, index):
    # the stream is Philox(key=...)'s: same state before and after, same first 1000 normals
    key = np.array([seed, (domain << 48) | index], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key))
    got = tagged_stream(seed, domain, index)
    _assert_same_philox_state(got.bit_generator.state, want.bit_generator.state)
    assert got.standard_normal(1000).tobytes() == want.standard_normal(1000).tobytes()
    _assert_same_philox_state(got.bit_generator.state, want.bit_generator.state)


def test_signed_zero_is_one_exact_point():
    one_call = EnvironmentHandle(11, UNIT, backend="exact")
    both = one_call.sample_slice_at(1, [0.0, -0.0])
    assert both[0] == both[1]
    assert len(one_call._slices[1].points) == 1

    two_calls = EnvironmentHandle(11, UNIT, backend="exact")
    first = two_calls.sample_slice_at(1, [0.0])
    second = two_calls.sample_slice_at(1, [-0.0])
    assert first[0] == second[0] == both[0]
    assert len(two_calls._slices[1].points) == 1


@pytest.mark.parametrize("call, match", [
    (lambda: EnvironmentHandle(0, UNIT, backend="fft"), "unknown backend"),
    (lambda: EnvironmentHandle(0, UNIT, d=0), "dimension d"),
    (lambda: EnvironmentHandle(0, PRODUCT, d=2, backend="grid", L=2.0), "d=1 only"),
    (lambda: EnvironmentHandle(0, UNIT, backend="grid"), "requires a half-width"),
    (lambda: EnvironmentHandle(0, UNIT, backend="grid", h=0.0, L=2.0), "spacing h"),
    (lambda: EnvironmentHandle(0, UNIT, backend="grid", h=-0.1, L=2.0), "spacing h"),
    (lambda: EnvironmentHandle(0, UNIT, backend="grid", L=-1.0), "half-width L"),
    (lambda: EnvironmentHandle(0, UNIT, backend="exact").build_grid_slice(1),
     "build_grid_slice requires the grid backend"),
    (lambda: EnvironmentHandle(0, UNIT, backend="exact").snap([0.0]), "snap requires the grid backend"),
    (lambda: EnvironmentHandle(0, UNIT, backend="exact").snap_paths(np.zeros((4, 3, 1))),
     "snap_paths requires the grid backend"),
    (lambda: EnvironmentHandle(0, UNIT, backend="exact").synthesize(np.zeros((2, 8))),
     "synthesize requires the grid backend"),
    (lambda: EnvironmentHandle(0, PRODUCT, d=2, backend="exact").sample_slice_at(1, [[0.0, 0.0, 0.0]]),
     "dimension 3"),
    (lambda: EnvironmentHandle(0, UNIT, backend="grid", L=2.0).snap_paths(np.zeros((4, 3, 2))),
     r"shape \(M, n, 1\)"),
    (lambda: EnvironmentHandle(0, UNIT, backend="grid", L=2.0).snap_paths([[[0.0], [np.nan]]]),
     "finite"),
])
def test_handle_rejects_invalid_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()
