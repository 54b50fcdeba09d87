"""Timing of the hot kernels and of replaced paths against their replacements.

Run with ``python3 benchmarks/bench_kernels.py``. The package compiles RK4
advection with numba when numba is importable; the first table times the
numpy and, when available, the compiled advection directly. The score and
group-sum kernels run only through numpy's BLAS bindings, so their numba
cells read n/a.

A second table times replaced paths against their replacements on a
2048-box double-gyre sample: the dense thin SVD against ``svd.full_svd``
with three leading triplets on the rescaled matrix; the DBMR gap terms of
every iterate of 5 restarts through a group sum of the dense m x n density
transport matrix against the grouped-count form ``dbmr._gap_terms``; the
reduced models of those restarts built with their dense m x n approximation
and its rescaled form against the two-field ``ReducedModel``; and
``np.savetxt`` against ``dataio.write_pairs`` on 10^6 records.
"""

from __future__ import annotations

import math
import tempfile
import time
from pathlib import Path

import numpy as np

from cohsets import _accel, dataio
from cohsets.dbmr import Affiliation, ReducedModel, _gap_terms, multi_start
from cohsets.generators import GyreConfig, gen_double_gyre
from cohsets.model import PairDataset, estimate, ingest_pairs, prune_empty, rescale
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
            None,
        )
    )

    labels0 = rng.integers(0, 8, size=2048)
    rows.append(
        (
            "group_sums (2048x2048, r=8)",
            best_of(_accel._group_sums_numpy, counts, labels0, 8),
            None,
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
    model = estimate(counts)
    rescaled = model.rescaled
    _, _, traces = multi_start(counts, 3, runs=5, seed=0, snapshots=True, model=model)
    rows = [
        (
            f"SVD {rescaled.shape[0]}x{rescaled.shape[1]} gyre, dense/k=3",
            best_of(np.linalg.svd, rescaled, False),
            best_of(full_svd, rescaled, 3),
        ),
        gap_terms_row(counts, model, traces),
        reduced_model_row(model, traces),
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


def gap_terms_row(counts, model, traces) -> tuple[str, float, float]:
    """Gap terms of every iterate of the DBMR restarts, both ways.

    The replaced path group-summed the dense density transport matrix
    D_out^{-1} P D_in per iterate; the current one reuses the grouped counts
    that the factor update already holds.
    """
    steps = [step for trace in traces for step in trace.steps]
    p, q = model.input_dist, model.output_dist
    density_transport = model.matrix * (p[np.newaxis, :] / q[:, np.newaxis])
    full_norm_sq = float(np.sum(model.rescaled * model.rescaled))
    counts_f = counts.counts.astype(np.float64)
    grouped = [_accel.group_sums(counts_f, step.labels - 1, 3) for step in steps]

    def dense() -> list[tuple[float, float]]:
        terms = []
        for step in steps:
            labels0 = step.labels - 1
            cross = np.sum(_accel.group_sums(density_transport, labels0, 3) * step.factor)
            masses = np.bincount(labels0, weights=p, minlength=3)
            approx_norm_sq = np.sum((step.factor * step.factor) / q[:, np.newaxis] * masses)
            terms.append((full_norm_sq - 2.0 * cross + approx_norm_sq, approx_norm_sq))
        return terms

    def from_grouped() -> list[tuple[float, float]]:
        return [
            _gap_terms(g, step.factor, q, counts.total, full_norm_sq)
            for step, g in zip(steps, grouped)
        ]

    return (
        f"gap terms, {len(steps)} iterates, dense/grouped",
        best_of(dense),
        best_of(from_grouped),
    )


def reduced_model_row(model, traces) -> tuple[str, float, float]:
    """The reduced model of each DBMR restart, both ways.

    The replaced path stored the gathered approximation factor[:, labels - 1]
    and its rescaled form per restart; the current model holds only the factor
    and the affiliation and derives the approximation on access.
    """
    finals = [trace.steps[-1] for trace in traces]
    p, q = model.input_dist, model.output_dist

    def dense() -> list[tuple[np.ndarray, np.ndarray]]:
        built = []
        for step in finals:
            Affiliation(labels=step.labels, n_latent=3)
            approx = step.factor[:, step.labels - 1]
            built.append((approx, rescale(approx, p, q)))
        return built

    def two_fields() -> list[ReducedModel]:
        return [
            ReducedModel(
                factor=step.factor, affiliation=Affiliation(labels=step.labels, n_latent=3)
            )
            for step in finals
        ]

    return (
        f"reduced models, {len(finals)} restarts, dense/2-field",
        best_of(dense),
        best_of(two_fields),
    )


if __name__ == "__main__":
    if _accel.HAVE_NUMBA:
        _accel.warmup()
    main()
