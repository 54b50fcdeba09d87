"""Hot numerical kernels.

Trajectory advection exists in two versions: a numba ``@njit`` loop and a
pure-numpy implementation. The backend is chosen once at import time: numba
when it can be imported, numpy otherwise. Both compute the same endpoints;
results may differ in the last floating-point bits.

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

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def velocity_arrays(x, y, t, a, delta, omega):
    """Double-gyre velocity field, vectorized over point arrays.

    The stream function is psi = a sin(pi f(x,t)) sin(pi y) with
    f = dsin x^2 + (1 - 2 dsin) x and dsin = delta sin(omega t); the
    returned components are (-dpsi/dy, dpsi/dx).  ``t`` is a scalar.
    """
    sw = delta * math.sin(omega * t)
    f = sw * x * x + (1.0 - 2.0 * sw) * x
    dfdx = 2.0 * sw * x + 1.0 - 2.0 * sw
    u = -a * np.pi * np.sin(np.pi * f) * np.cos(np.pi * y)
    v = a * np.pi * np.cos(np.pi * f) * np.sin(np.pi * y) * dfdx
    return u, v


# Points advected together by the numpy path. A block's stage temporaries
# stay in cache across all steps; each point sees the same arithmetic as
# when the whole array steps at once, so results are bitwise identical.
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


def _advect_rk4_numpy(xs, ys, t0, n_steps, h, a, delta, omega):
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


def _advect_rk4_loop(xs, ys, t0, n_steps, h, a, delta, omega):
    # Same stage arithmetic as the numpy path; the velocity formula is
    # inlined because numba cannot call the vectorized helper.
    out_x = xs.copy()
    out_y = ys.copy()
    api = a * math.pi
    n = xs.shape[0]
    for s in range(n_steps):
        t = t0 + s * h
        sw1 = delta * math.sin(omega * t)
        sw2 = delta * math.sin(omega * (t + 0.5 * h))
        sw3 = delta * math.sin(omega * (t + h))
        for i in range(n):
            x = out_x[i]
            y = out_y[i]
            f = sw1 * x * x + (1.0 - 2.0 * sw1) * x
            df = 2.0 * sw1 * x + 1.0 - 2.0 * sw1
            k1x = -api * math.sin(math.pi * f) * math.cos(math.pi * y)
            k1y = api * math.cos(math.pi * f) * math.sin(math.pi * y) * df
            px = x + 0.5 * h * k1x
            py = y + 0.5 * h * k1y
            f = sw2 * px * px + (1.0 - 2.0 * sw2) * px
            df = 2.0 * sw2 * px + 1.0 - 2.0 * sw2
            k2x = -api * math.sin(math.pi * f) * math.cos(math.pi * py)
            k2y = api * math.cos(math.pi * f) * math.sin(math.pi * py) * df
            px = x + 0.5 * h * k2x
            py = y + 0.5 * h * k2y
            f = sw2 * px * px + (1.0 - 2.0 * sw2) * px
            df = 2.0 * sw2 * px + 1.0 - 2.0 * sw2
            k3x = -api * math.sin(math.pi * f) * math.cos(math.pi * py)
            k3y = api * math.cos(math.pi * f) * math.sin(math.pi * py) * df
            px = x + h * k3x
            py = y + h * k3y
            f = sw3 * px * px + (1.0 - 2.0 * sw3) * px
            df = 2.0 * sw3 * px + 1.0 - 2.0 * sw3
            k4x = -api * math.sin(math.pi * f) * math.cos(math.pi * py)
            k4y = api * math.cos(math.pi * f) * math.sin(math.pi * py) * df
            out_x[i] = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            out_y[i] = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return out_x, out_y


def latent_scores(counts, factor):
    """Score matrix s[k, j] = sum_i counts[i, j] * log(factor[i, k]).

    ``counts`` is a dense array or a scipy sparse matrix that stores no
    zeros. Entries where a positive count meets a zero factor entry are -inf.
    """
    if sparse.issparse(counts):
        # Only positive counts are stored, so the -inf of a zero factor entry
        # meets exactly the positive counts that make a score -inf.
        with np.errstate(divide="ignore"):
            log_factor = np.log(factor)
        return (counts.T @ log_factor).T
    # The clamped log is exact: a clamped entry contributes only where the
    # paired count is zero, and those terms vanish.
    safe_log = np.log(np.where(factor > 0.0, factor, 1.0))
    scores = safe_log.T @ counts
    invalid = (factor <= 0.0).T.astype(np.float64) @ (counts > 0.0)
    scores[invalid > 0.0] = -np.inf
    return scores


def group_sums(counts, labels0, r):
    """Column sums of ``counts`` grouped by 0-based ``labels0`` (m x r).

    ``counts`` is a dense array or a scipy sparse matrix; the sums of
    integer counts are exact in both.
    """
    n = counts.shape[1]
    onehot = np.zeros((n, r))
    onehot[np.arange(n), labels0] = 1.0
    return counts @ onehot


if HAVE_NUMBA:
    BACKEND = "numba"
    advect_rk4 = njit(cache=True)(_advect_rk4_loop)
else:
    BACKEND = "numpy"
    advect_rk4 = _advect_rk4_numpy


def warmup() -> None:
    """Trigger jit compilation on tiny inputs so later timings are clean."""
    xs = np.array([0.5, 1.5])
    ys = np.array([0.25, 0.75])
    advect_rk4(xs, ys, 0.0, 2, 0.01, 0.25, 0.25, 2.0 * math.pi)
