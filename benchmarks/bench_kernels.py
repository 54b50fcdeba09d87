"""Timing comparison of the compiled and pure-numpy kernel paths.

Run with ``python3 benchmarks/bench_kernels.py``. The package picks the
compiled path automatically when numba is importable; setting
COHSETS_NO_NUMBA=1 forces the numpy path. This script times both
implementations directly, so it reports the trade-off regardless of which
path the package selected.

A second table times two replaced paths against their replacements: the
dense thin SVD against ``svd.full_svd`` with three leading triplets on the
rescaled matrix of a 2048-box double-gyre sample, and ``np.savetxt`` against
``dataio.write_pairs`` on 10^6 records.
"""

from __future__ import annotations

import math
import tempfile
import time
from pathlib import Path

import numpy as np

from cohsets import _accel, dataio
from cohsets.generators import GyreConfig, gen_double_gyre
from cohsets.model import PairDataset, estimate, ingest_pairs, prune_empty
from cohsets.svd import full_svd

REPEATS = 3


def best_of(fn, *args) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    rng = np.random.default_rng(0)
    rows = []

    xs = rng.random(204800) * 2.0
    ys = rng.random(204800)
    advect_args = (0.0, 400, 0.01, 0.25, 0.25, 2.0 * math.pi)
    rows.append(
        (
            "advect_rk4 (204800 pts, 400 steps)",
            best_of(_accel._advect_rk4_numpy, xs.copy(), ys.copy(), *advect_args),
            best_of(_accel.advect_rk4, xs.copy(), ys.copy(), *advect_args)
            if _accel.HAVE_NUMBA
            else None,
        )
    )

    counts = rng.integers(0, 4, size=(2048, 2048)).astype(np.float64)
    factor = rng.random((2048, 8))
    factor /= factor.sum(axis=0)
    rows.append(
        (
            "latent_scores (2048x2048, r=8)",
            best_of(_accel._latent_scores_numpy, counts, factor),
            best_of(_accel.latent_scores_compiled, counts, factor)
            if _accel.HAVE_NUMBA
            else None,
        )
    )

    labels0 = rng.integers(0, 8, size=2048)
    rows.append(
        (
            "group_sums (2048x2048, r=8)",
            best_of(_accel._group_sums_numpy, counts, labels0, 8),
            best_of(_accel.group_sums_compiled, counts, labels0, 8)
            if _accel.HAVE_NUMBA
            else None,
        )
    )

    print(f"selected backend: {_accel.BACKEND}")
    print(f"{'kernel':<40} {'numpy':>10} {'numba':>10}")
    for name, t_numpy, t_numba in rows:
        numba_cell = f"{t_numba:>9.3f}s" if t_numba is not None else "       n/a"
        print(f"{name:<40} {t_numpy:>9.3f}s {numba_cell}")

    print()
    print(f"{'operation':<40} {'before':>10} {'after':>10}")
    for name, t_before, t_after in replaced_paths(rng):
        print(f"{name:<40} {t_before:>9.3f}s {t_after:>9.3f}s")


def replaced_paths(rng: np.random.Generator) -> list[tuple[str, float, float]]:
    """(name, replaced path time, current path time) per replaced operation."""
    dataset, _ = gen_double_gyre(GyreConfig(points_per_box=10, t_end=2.0))
    counts, _, _ = prune_empty(ingest_pairs(dataset))
    rescaled = estimate(counts).rescaled
    rows = [
        (
            f"SVD {rescaled.shape[0]}x{rescaled.shape[1]} gyre, dense/k=3",
            best_of(np.linalg.svd, rescaled, False),
            best_of(full_svd, rescaled, 3),
        )
    ]

    records = 10**6
    pairs = PairDataset(
        inputs=rng.integers(1, 301, size=records),
        outputs=rng.integers(1, 301, size=records),
        n_inputs=300,
        n_outputs=300,
    )
    table = np.column_stack([pairs.inputs, pairs.outputs])
    header = f"# n={pairs.n_inputs} m={pairs.n_outputs}\nx,y"
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "pairs.csv"
        rows.append(
            (
                "write 10^6 pairs, savetxt/write_pairs",
                best_of(lambda: np.savetxt(path, table, fmt="%d", delimiter=",",
                                           header=header, comments="")),
                best_of(dataio.write_pairs, path, pairs),
            )
        )
    return rows


if __name__ == "__main__":
    if _accel.HAVE_NUMBA:
        _accel.warmup()
    main()
