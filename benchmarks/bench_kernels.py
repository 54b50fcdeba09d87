"""Timing of the hot kernels.

Run with ``python3 benchmarks/bench_kernels.py``. The package compiles RK4
advection with numba when numba is importable; the first table times the
numpy and, when available, the compiled advection directly.

The second table times the score and group-sum kernels on both count
storages, dense and sparse (CSC), for square count matrices of 100, 300
and 2048 categories over a range of densities, with three latent states.
It shows where the sparse products, whose scipy dispatch costs a fixed
tens of microseconds per call, overtake the dense BLAS products: the
crossover behind ``model.SPARSE_MAX_DENSITY`` and
``model.SPARSE_MIN_ENTRIES``. The last column names the storage that
``CountMatrix`` selects for that shape and density.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import sparse

from cohsets import _accel
from cohsets.model import CountMatrix

REPEATS = 3
LATENT = 3
SIZES = (100, 300, 2048)
DENSITIES = (0.001, 0.004, 0.01, 0.03, 0.1, 0.3, 1.0)


def best_of(fn, *args, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def advection_table(rng: np.random.Generator) -> None:
    xs = rng.random(204800) * 2.0
    ys = rng.random(204800)
    advect_args = (0.0, 400, 0.01, 0.25, 0.25, 2.0 * math.pi)
    t_numpy = best_of(_accel._advect_rk4_numpy, xs.copy(), ys.copy(), *advect_args)
    t_numba = (
        best_of(_accel.advect_rk4, xs.copy(), ys.copy(), *advect_args)
        if _accel.HAVE_NUMBA
        else None
    )
    print(f"selected backend: {_accel.BACKEND}")
    print(f"{'kernel':<40} {'numpy':>10} {'numba':>10}")
    numba_cell = f"{t_numba:>9.3f}s" if t_numba is not None else "       n/a"
    print(f"{'advect_rk4 (204800 pts, 400 steps)':<40} {t_numpy:>9.3f}s {numba_cell}")


def storage_table(rng: np.random.Generator) -> None:
    print(
        f"{'size':>6} {'density':>8} {'nonzeros':>9} "
        f"{'scores dense':>13} {'sparse':>9} {'sums dense':>11} {'sparse':>9}  selected"
    )
    for size in SIZES:
        # Many calls per timing on small matrices, so the per-call cost shows.
        calls = max(1, 2048 * 2048 // (size * size * 8))
        for density in DENSITIES:
            counts = np.where(
                rng.random((size, size)) < density, rng.integers(1, 4, (size, size)), 0
            )
            counts[0, counts.sum(axis=0) == 0] = 1
            dense = counts.astype(np.float64)
            csc = sparse.csc_array(dense)
            factor = rng.random((size, LATENT))
            factor /= factor.sum(axis=0)
            labels0 = rng.integers(0, LATENT, size)

            def per_call(kernel, operand, *args):
                return best_of(lambda: [kernel(operand, *args) for _ in range(calls)]) / calls

            selected = CountMatrix(counts=counts, total=int(counts.sum())).storage
            print(
                f"{size:>6} {density:>8.3f} {csc.nnz:>9} "
                f"{per_call(_accel.latent_scores, dense, factor) * 1e6:>11.0f}us "
                f"{per_call(_accel.latent_scores, csc, factor) * 1e6:>7.0f}us "
                f"{per_call(_accel.group_sums, dense, labels0, LATENT) * 1e6:>9.0f}us "
                f"{per_call(_accel.group_sums, csc, labels0, LATENT) * 1e6:>7.0f}us  {selected}"
            )


def main() -> None:
    rng = np.random.default_rng(0)
    advection_table(rng)
    print()
    storage_table(rng)


if __name__ == "__main__":
    if _accel.HAVE_NUMBA:
        _accel.warmup()
    main()
