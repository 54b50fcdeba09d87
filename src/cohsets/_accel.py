"""Hot numerical kernels.

Trajectory advection steps blocks of points through vectorized numpy RK4
stages, one thread per available CPU.

The score and group-sum kernels take the count matrix in either storage that
``model.CountMatrix.operand`` holds: a dense array, multiplied through
numpy's BLAS bindings, or a scipy sparse matrix, whose products visit only
the stored nonzeros. ``benchmarks/bench_kernels.py`` times both storages
across sizes and densities.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import sparse


def velocity_arrays(x, y, t, a, delta, omega):
    """Double-gyre velocity field, vectorized over point arrays.

    The stream function is psi = a sin(pi f(x,t)) sin(pi y) with
    f = dsin x^2 + (1 - 2 dsin) x and dsin = delta sin(omega t); the
    returned components are (-dpsi/dy, dpsi/dx).  ``t`` is a scalar.
    """
    sw = delta * math.sin(omega * t)
    f = sw * x * x + (1.0 - 2.0 * sw) * x
    dfdx = 2.0 * sw * x + 1.0 - 2.0 * sw
    pi_f, pi_y = np.pi * f, np.pi * y
    u = -a * np.pi * np.sin(pi_f) * np.cos(pi_y)
    v = a * np.pi * np.cos(pi_f) * np.sin(pi_y) * dfdx
    return u, v


# Points advected together. A block's stage temporaries stay in cache across
# all steps; each point sees the same arithmetic as when the whole array
# steps at once, so results are bitwise identical.
ADVECT_BLOCK = 8192


def _advect_block(x, y, t0, n_steps, h, a, delta, omega):
    for s in range(n_steps):
        t = t0 + s * h
        k1x, k1y = velocity_arrays(x, y, t, a, delta, omega)
        k2x, k2y = velocity_arrays(x + 0.5 * h * k1x, y + 0.5 * h * k1y, t + 0.5 * h, a, delta, omega)
        k3x, k3y = velocity_arrays(x + 0.5 * h * k2x, y + 0.5 * h * k2y, t + 0.5 * h, a, delta, omega)
        k4x, k4y = velocity_arrays(x + h * k3x, y + h * k3y, t + h, a, delta, omega)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return x, y


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def advect_rk4(xs, ys, t0, n_steps, h, a, delta, omega):
    """RK4 endpoints of the double-gyre flow after ``n_steps`` steps of size
    ``h`` from time ``t0``; the input arrays are left untouched."""
    out_x = np.array(xs, dtype=np.float64, copy=True)
    out_y = np.array(ys, dtype=np.float64, copy=True)

    def advect(start):
        block = slice(start, start + ADVECT_BLOCK)
        out_x[block], out_y[block] = _advect_block(
            out_x[block], out_y[block], t0, n_steps, h, a, delta, omega
        )

    # Most of a step is numpy's sin and cos loops, which release the
    # interpreter lock, so blocks advect in parallel on separate threads.
    # Blocks write disjoint slices.
    starts = range(0, out_x.size, ADVECT_BLOCK)
    with ThreadPoolExecutor(max(1, min(len(starts), _cpu_count()))) as pool:
        list(pool.map(advect, starts))
    return out_x, out_y


def latent_scores(counts, factor):
    """Score matrix s[k, j] = sum_i counts[i, j] * log(factor[i, k]).

    ``factor`` is one (m, r) factor, giving (r, n) scores, or a stack of
    them of shape (runs, m, r), giving (runs, r, n). ``counts`` is a dense
    array or a scipy sparse matrix that stores no zeros. Entries where a
    positive count meets a zero factor entry are -inf.
    """
    if sparse.issparse(counts):
        # Only positive counts are stored, so the -inf of a zero factor entry
        # meets exactly the positive counts that make a score -inf. One
        # product serves every run: each score adds its column's nonzeros in
        # storage order, whatever the number of factor columns.
        with np.errstate(divide="ignore"):
            log_factor = np.log(factor)
        m, r = factor.shape[-2:]
        stacked = np.moveaxis(log_factor, -2, 0).reshape(m, -1)
        scores = (counts.T @ stacked).T
        return scores.reshape(factor.shape[:-2] + (r, counts.shape[1]))
    # The clamped log is exact: a clamped entry contributes only where the
    # paired count is zero, and those terms vanish. A stack multiplies each
    # run's block with its own BLAS call inside one matmul, so every run's
    # scores are bitwise those of a call on its factor alone; one product of
    # all blocks stacked side by side is not (OpenBLAS sums differently in
    # its threaded and matrix-vector paths).
    safe_log = np.log(np.where(factor > 0.0, factor, 1.0))
    scores = np.swapaxes(safe_log, -1, -2) @ counts
    zero = factor <= 0.0
    if zero.any():
        # Counts are nonnegative, so a column meets a zero factor entry with
        # a positive count exactly where this product is positive.
        invalid = np.swapaxes(zero, -1, -2).astype(np.float64) @ counts
        scores[invalid > 0.0] = -np.inf
    return scores


def group_sums(counts, labels0, r):
    """Column sums of ``counts`` grouped by 0-based labels.

    ``labels0`` is one row of n labels, giving (m, r) sums, or one row per
    run, shape (runs, n), giving (runs, m, r). ``counts`` is a dense array
    or a scipy sparse matrix; the sums of integer counts are exact in both.
    """
    rows = np.atleast_2d(labels0)
    runs, n = rows.shape
    onehot = np.zeros((n, runs * r))
    onehot[np.arange(n), rows + r * np.arange(runs)[:, np.newaxis]] = 1.0
    sums = (counts @ onehot).reshape(-1, runs, r)
    if np.ndim(labels0) == 1:
        return sums[:, 0]
    return np.ascontiguousarray(sums.transpose(1, 0, 2))


def warmup() -> None:
    """Advect two points two steps; kept for ``perfbench/ready.py``'s set-up probe."""
    xs = np.array([0.5, 1.5])
    ys = np.array([0.25, 0.75])
    advect_rk4(xs, ys, 0.0, 2, 0.01, 0.25, 0.25, 2.0 * math.pi)
