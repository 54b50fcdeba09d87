"""Hot numerical kernels.

Trajectory advection steps blocks of points through vectorized numpy RK4
stages, one thread per available CPU.

The score and group-sum kernels take the count matrix in either storage that
``model.CountMatrix.operand`` holds: a dense array, multiplied through
numpy's BLAS bindings, or a scipy sparse matrix, whose products visit only
the stored nonzeros. Only the sparse storage of large, mostly empty count
matrices loads scipy; the paper's examples run on dense arrays, so this
module imports numpy alone. ``benchmarks/bench_kernels.py`` times both
storages across sizes and densities.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


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
    ``h`` from time ``t0``, non-finite where a stage overflowed (unwarned);
    the input arrays are left untouched."""
    out_x = np.array(xs, dtype=np.float64, copy=True)
    out_y = np.array(ys, dtype=np.float64, copy=True)

    def advect(start):
        block = slice(start, start + ADVECT_BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):
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


def latent_scores(counts, log_factor, out=None):
    """Score matrix s[k, j] = sum_i counts[i, j] * log_factor[i, k].

    ``log_factor`` is the log of one (m, r) factor, giving (r, n) scores, or
    of a stack (runs, m, r), giving (runs, r, n), floored at -1e300 where the
    factor is zero. ``counts`` is a dense array or a scipy sparse matrix. A
    score is -inf where a positive count meets a zero factor entry: -1e300
    times a zero count adds -0, and times a positive one sends the score below
    -5e299, where no finite score (at least -745 times its column's count
    total) lies. ``out``, when given, receives the scores.
    """
    with np.errstate(over="ignore"):
        if isinstance(counts, np.ndarray):
            # A stack multiplies each run's block with its own BLAS call inside
            # one matmul, so every run's scores are bitwise those of a call on
            # its factor alone; one product of all blocks stacked side by side
            # is not (OpenBLAS sums differently in its threaded and
            # matrix-vector paths).
            scores = np.matmul(np.swapaxes(log_factor, -1, -2), counts, out=out)
        else:
            # One product serves every run: each score adds its column's
            # nonzeros in storage order, whatever the number of factor columns.
            m, r = log_factor.shape[-2:]
            stacked = np.moveaxis(log_factor, -2, 0).reshape(m, -1)
            scores = np.empty(log_factor.shape[:-2] + (r, counts.shape[1])) if out is None else out
            scores.reshape(-1, counts.shape[1])[...] = (counts.T @ stacked).T
    scores[scores < -5e299] = -np.inf
    return scores


def group_sums(counts, labels0, r, out=None, work=None):
    """Column sums of ``counts`` grouped by 0-based labels.

    ``labels0`` is one row of n labels, giving (m, r) sums, or one row per
    run, shape (runs, n), giving (runs, m, r). ``counts`` is a dense array
    or a scipy sparse matrix; the sums of integer counts are exact in both.

    ``out`` receives the sums and ``work`` ((m + n) runs r float64 entries)
    holds the one-hot labels and their dense product; both are allocated if
    not given.
    """
    rows = np.atleast_2d(labels0)
    runs, n = rows.shape
    m, width = counts.shape[0], runs * r
    if work is None:
        work = np.empty((m + n) * width)
    onehot = work[:n * width].reshape(n, width)
    onehot.fill(0.0)
    onehot[np.arange(n), rows + r * np.arange(runs)[:, np.newaxis]] = 1.0
    if isinstance(counts, np.ndarray):
        sums = np.matmul(counts, onehot, out=work[n * width:(m + n) * width].reshape(m, width))
    else:
        sums = np.ascontiguousarray(counts @ onehot)
    if out is None:
        out = np.empty((m, r) if np.ndim(labels0) == 1 else (runs, m, r))
    # (m, runs, r) to (runs, m, r), each run's r sums moved as one item of 8 r
    # bytes: a float64 transpose would copy r values per inner loop.
    item = np.dtype((np.void, 8 * r))
    out.view(item).reshape(runs, m)[...] = sums.view(item).T
    return out


def warmup() -> None:
    """Advect two points two steps; kept for ``perfbench/ready.py``'s set-up probe."""
    xs = np.array([0.5, 1.5])
    ys = np.array([0.25, 0.75])
    advect_rk4(xs, ys, 0.0, 2, 0.01, 0.25, 0.25, 2.0 * math.pi)
