import numpy as np
import pytest

from polymerlab.walk import PathEnsemble, TiltSpec, running_max_norm, sample_paths, tilt_log_weight, tilt_path


def test_single_step_variance():
    ens = sample_paths(123, 100_000, 1, 1)
    assert abs(ens.endpoints.var() - 1.0) < 0.02


def test_endpoint_variance_accumulates():
    ens = sample_paths(124, 100_000, 100, 1)
    assert abs(ens.endpoints.var() - 100.0) < 2.0


def test_same_seed_identical_and_replica_prefix():
    a = sample_paths(9, 5, 12, 2)
    b = sample_paths(9, 5, 12, 2)
    assert np.array_equal(a.positions, b.positions)
    c = sample_paths(9, 3, 12, 2)
    assert np.array_equal(a.positions[:3], c.positions)


def test_variance_scales_with_steps_per_coordinate():
    ens = sample_paths(5, 20_000, 30, 2)
    var = ens.positions[:, -1, :].var(axis=0)
    se = 30.0 * np.sqrt(2.0 / 20_000)
    assert np.all(np.abs(var - 30.0) < 4 * se)


def test_tilt_identity_and_ramp():
    ens = sample_paths(2, 4, 8, 1)
    same = tilt_path(ens, TiltSpec(np.array([0.0])))
    assert np.array_equal(same.positions, ens.positions)
    full = tilt_path(ens, TiltSpec(np.array([2.5])))
    assert full.positions[:, -1, 0] == pytest.approx(ens.positions[:, -1, 0] + 2.5)
    # the drift ramps up linearly, 2.5 * p/8 at step p
    assert (full.positions - ens.positions)[:, :, 0] == pytest.approx(
        np.tile(2.5 * np.arange(1, 9) / 8, (4, 1)))


def test_tilt_leaves_input_unchanged():
    ens = sample_paths(2, 4, 8, 1)
    before = ens.positions.copy()
    tilt_path(ens, TiltSpec(np.array([1.0])))
    assert np.array_equal(ens.positions, before)


def test_tilt_rejects_a_non_finite_drift():
    with pytest.raises(ValueError):
        TiltSpec(np.array([np.nan]))


def test_running_max_norm_examples():
    ens = PathEnsemble(positions=np.array([[[1.0], [-3.0]], [[0.5], [0.25]]]))
    assert np.array_equal(running_max_norm(ens), [3.0, 0.5])
    assert np.array_equal(running_max_norm(PathEnsemble(positions=np.array([[[1.0, -4.0]]]))), [4.0])


def test_girsanov_weight_consistency_in_law():
    # straight tilt: mean of f on tilted paths == weighted mean of f on
    # base paths with the martingale density, within 4 combined sigma
    n, lam, m = 20, 0.15, 80_000
    base = sample_paths(77, m, n, 1)
    tilt = TiltSpec(np.array([n * lam]))
    tilted = tilt_path(base, tilt)
    f_tilted = (tilted.endpoints[:, 0] >= 1.0).astype(float)
    density = np.exp(lam * base.endpoints[:, 0] - 0.5 * n * lam**2)
    f_weighted = (base.endpoints[:, 0] >= 1.0) * density
    diff = f_tilted.mean() - f_weighted.mean()
    se = np.hypot(f_tilted.std(ddof=1), f_weighted.std(ddof=1)) / np.sqrt(m)
    assert abs(diff) < 4 * se


def test_tilt_log_weight_is_unit_mean_density_ratio():
    n, m = 10, 120_000
    base = sample_paths(78, m, n, 1)
    tilt = TiltSpec(np.array([3.0]))
    tilted = tilt_path(base, tilt)
    w = np.exp(tilt_log_weight(tilted, tilt))
    assert abs(w.mean() - 1.0) < 4 * w.std(ddof=1) / np.sqrt(m)


def test_argument_validation():
    with pytest.raises(ValueError):
        sample_paths(0, 0, 5)
    with pytest.raises(ValueError):
        PathEnsemble(positions=np.zeros((2, 2)))
