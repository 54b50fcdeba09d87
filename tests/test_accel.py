import numpy as np
import pytest
from scipy import sparse

from cohsets import _accel
from cohsets.dbmr import multi_start
from cohsets.generators import GyreConfig, gen_double_gyre
from cohsets.model import ingest_pairs, prune_empty
from tests.dense_reference import (
    floored_log,
    group_sums_loop,
    latent_scores_loop,
    latent_scores_reference,
)


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
        scores = _accel.latent_scores(operand, floored_log(factor))
        assert np.array_equal(finite, np.isfinite(scores))
        assert looped[finite] == pytest.approx(scores[finite], rel=1e-12)


def test_latent_scores_of_the_log_equal_the_zero_mask_reference():
    """On the log of a factor, the kernel's scores equal the zero-mask
    reference's bit for bit (a zero count gives 0 on one side and -0 on the
    other, which compare equal), with -inf at the same places: on both
    storages, for one factor and a stack, with zero factor entries, a whole
    zero factor column, a column of zero counts and counts of 2^40, where the
    floor times the count overflows."""
    rng = np.random.default_rng(191)
    m, n, r, runs = 9, 12, 4, 3
    counts = rng.integers(0, 6, size=(m, n)).astype(np.float64)
    counts[rng.random((m, n)) < 0.1] = 2.0**40
    counts[3, 7] = 2.0**40
    counts[:, 5] = 0.0
    factor = rng.random((runs, m, r))
    factor[rng.random((runs, m, r)) < 0.3] = 0.0
    factor[1, :, 2] = 0.0
    factor[:, 3, 1] = 0.0
    factor[:, 0, 0] = 1.0
    factor /= np.where(factor.sum(axis=1, keepdims=True) > 0.0,
                       factor.sum(axis=1, keepdims=True), 1.0)
    for operand in (counts, sparse.csc_array(counts)):
        stacked = _accel.latent_scores(operand, floored_log(factor))
        assert stacked.shape == (runs, r, n)
        for run in range(runs):
            expected = latent_scores_reference(operand, factor[run])
            assert np.isneginf(expected).any() and np.isfinite(expected).any()
            for scores in (stacked[run], _accel.latent_scores(operand, floored_log(factor[run]))):
                assert not np.isnan(scores).any()
                assert np.array_equal(np.isneginf(scores), np.isneginf(expected))
                assert np.array_equal(scores, expected)
        # the column of zero counts scores 0 for every state, also the zero one
        assert (stacked[:, :, 5] == 0.0).all()


def test_group_sums_backends_agree():
    rng = np.random.default_rng(179)
    counts = rng.integers(0, 9, size=(6, 13)).astype(np.float64)
    labels0 = rng.integers(0, 4, size=13)
    reference = group_sums_loop(counts, labels0, 4)
    for operand in (counts, sparse.csc_array(counts)):
        assert np.array_equal(_accel.group_sums(operand, labels0, 4), reference)
    # grouped sums preserve the total mass
    assert reference.sum() == counts.sum()


def test_kernels_into_out_equal_the_allocating_calls():
    """Given ``out`` (and ``work`` for the group sums), both kernels write the
    allocating call's bits into ``out`` and return it: on dense and CSC
    counts, for one factor and a stack."""
    rng = np.random.default_rng(197)
    m, n, r, runs = 9, 12, 4, 3
    counts = rng.integers(0, 6, size=(m, n)).astype(np.float64)
    factor = rng.random((runs, m, r))
    factor[rng.random((runs, m, r)) < 0.3] = 0.0
    log_factor = floored_log(factor / factor.sum(axis=1, keepdims=True))
    labels0 = rng.integers(0, r, size=(runs, n))
    for operand in (counts, sparse.csc_array(counts)):
        for logs, labels in ((log_factor, labels0), (log_factor[0], labels0[0])):
            lead = logs.shape[:-2]
            work = np.full((m + n) * runs * r, np.nan)
            out = np.full(lead + (r, n), np.nan)
            assert _accel.latent_scores(operand, logs, out=out) is out
            assert out.tobytes() == _accel.latent_scores(operand, logs).tobytes()
            out = np.full(lead + (m, r), np.nan)
            assert _accel.group_sums(operand, labels, r, out=out, work=work) is out
            assert out.tobytes() == _accel.group_sums(operand, labels, r).tobytes()


def test_numpy_backend_runs_pipelines():
    """A gyre sample and an alternating-ascent fit run on the numpy kernels."""
    dataset, _ = gen_double_gyre(GyreConfig(nx=8, ny=4, points_per_box=4, t_end=0.5))
    counts, _, _ = prune_empty(ingest_pairs(dataset))
    best, best_run, traces = multi_start(counts, 3, runs=2, seed=0)
    assert np.isfinite(traces[best_run].objectives[-1])
