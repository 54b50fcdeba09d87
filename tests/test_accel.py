import numpy as np
import pytest
from scipy import sparse

from cohsets import _accel
from cohsets.dbmr import multi_start
from cohsets.generators import GyreConfig, gen_double_gyre
from cohsets.model import ingest_pairs, prune_empty
from tests.dense_reference import group_sums_loop, latent_scores_loop


def _advect_unblocked(xs, ys, t0, n_steps, h, a, delta, omega):
    """Reference numpy RK4 that steps every point at once."""
    x = np.array(xs, dtype=np.float64, copy=True)
    y = np.array(ys, dtype=np.float64, copy=True)
    for s in range(n_steps):
        t = t0 + s * h
        k1x, k1y = _accel.velocity_arrays(x, y, t, a, delta, omega)
        k2x, k2y = _accel.velocity_arrays(
            x + 0.5 * h * k1x, y + 0.5 * h * k1y, t + 0.5 * h, a, delta, omega)
        k3x, k3y = _accel.velocity_arrays(
            x + 0.5 * h * k2x, y + 0.5 * h * k2y, t + 0.5 * h, a, delta, omega)
        k4x, k4y = _accel.velocity_arrays(x + h * k3x, y + h * k3y, t + h, a, delta, omega)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return x, y


def test_advect_blocks_bitwise_equal_unblocked():
    rng = np.random.default_rng(181)
    size = 2 * _accel.ADVECT_BLOCK + 123
    x = rng.uniform(0.0, 2.0, size)
    y = rng.uniform(0.0, 1.0, size)
    x_start, y_start = x.copy(), y.copy()
    args = (0.3, 25, 0.01, 0.25, 0.25, 2 * np.pi)
    blocked = _accel.advect_rk4(x, y, *args)
    reference = _advect_unblocked(x, y, *args)
    assert np.array_equal(blocked[0], reference[0])
    assert np.array_equal(blocked[1], reference[1])
    # the inputs are left untouched
    assert np.array_equal(x, x_start) and np.array_equal(y, y_start)


def test_latent_scores_backends_agree():
    rng = np.random.default_rng(173)
    counts = rng.integers(0, 9, size=(7, 11)).astype(np.float64)
    factor = rng.random((7, 3))
    factor[rng.random((7, 3)) < 0.3] = 0.0
    factor /= factor.sum(axis=0)
    looped = latent_scores_loop(counts, factor)
    finite = np.isfinite(looped)
    for operand in (counts, sparse.csc_array(counts)):
        scores = _accel.latent_scores(operand, factor)
        assert np.array_equal(finite, np.isfinite(scores))
        assert looped[finite] == pytest.approx(scores[finite], rel=1e-12)


def test_group_sums_backends_agree():
    rng = np.random.default_rng(179)
    counts = rng.integers(0, 9, size=(6, 13)).astype(np.float64)
    labels0 = rng.integers(0, 4, size=13)
    reference = group_sums_loop(counts, labels0, 4)
    for operand in (counts, sparse.csc_array(counts)):
        assert np.array_equal(_accel.group_sums(operand, labels0, 4), reference)
    # grouped sums preserve the total mass
    assert reference.sum() == counts.sum()


def test_numpy_backend_runs_pipelines():
    """A gyre sample and an alternating-ascent fit run on the numpy kernels."""
    dataset, _ = gen_double_gyre(GyreConfig(nx=8, ny=4, points_per_box=4, t_end=0.5))
    counts, _, _ = prune_empty(ingest_pairs(dataset))
    best, best_run, traces = multi_start(counts, 3, runs=2, seed=0)
    assert np.isfinite(traces[best_run].objectives[-1])
