"""Timing of the hot kernels.

Run with ``python3 benchmarks/bench_kernels.py``. The first table times
RK4 advection of 204 800 points through 400 steps.

The second table times the score and group-sum kernels on both count
storages, dense and sparse (CSC), for square count matrices of 100, 300
and 2048 categories over a range of densities, with three latent states.
It shows where the sparse products, whose scipy dispatch costs a fixed
tens of microseconds per call, overtake the dense BLAS products: the
crossover behind ``model.SPARSE_MAX_DENSITY`` and
``model.SPARSE_MIN_ENTRIES``. The last column names the storage that
``CountMatrix`` selects for that shape and density.

The third table times the text formats in a temporary directory: a pairs
file of 10^6 records over 300 categories, and a counts file of the 10^6
entries of a fully occupied 1000 x 1000 count matrix, each written and read
back, in MB/s of file.

The fourth table times the steps of a compare request that once ran on
dense m x n arrays and now run on the nonzeros of the counts, on the
2048-box double-gyre sample of the gyre-flow benchmark's first seed-2
request (64 x 32 boxes, 10 points a box, t_end 2, seed 2000; 0.39 %
nonzero). It explains that workload's gain; ``perfbench/`` measures it.

The fifth table times the k-means of a classical pipeline, both sides with
10 restarts each: the restarts run one at a time, as kept in
``tests/dense_reference.py``, against the batched Lloyd loop of
``svd.kmeans``, on the singular vectors of the three-coherent example at
window noise 3 (100 x 3 points) and of the gyre sample above (2048 x 3).
Both give the same labels, which the table asserts. It explains the
k-means part of paper-batch's gain; ``perfbench/`` measures it.

Replaced paths. The dense column below was measured on the code before the
counts and P were stored as their entries (same sample, one BLAS thread of
a 2-vCPU x86-64 machine, medians of 7 calls); the entry versions returned
the same singular values and the same minimum up to rounding:

    step                          dense m x n   on the entries
    ingest_pairs + prune_empty        60 ms         1.7 ms
    estimate                          61 ms         1.1 ms
    rescaled                          20 ms         0.23 ms
    full_svd (3 triplets)            117 ms          63 ms
    truncate(...).min()               38 ms         2.7 ms (reduced_min_entry)
    _coherence_scores                 19 ms         0.19 ms
"""

from __future__ import annotations

import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import sparse

from cohsets import _accel, dataio, svd
from cohsets.generators import GyreConfig, gen_double_gyre, gen_three_coherent
from cohsets.model import CountMatrix, PairDataset, estimate, ingest_pairs, prune_empty

# The k-means restarts run one at a time are kept as a test reference.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.dense_reference import kmeans_reference  # noqa: E402

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
    seconds = best_of(_accel.advect_rk4, xs, ys, *advect_args)
    print(f"{'kernel':<40} {'seconds':>9}")
    print(f"{'advect_rk4 (204800 pts, 400 steps)':<40} {seconds:>8.3f}s")


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


def text_io_table(rng: np.random.Generator) -> None:
    records, categories, side = 1_000_000, 300, 1000
    dataset = PairDataset(
        inputs=rng.integers(1, categories + 1, records),
        outputs=rng.integers(1, categories + 1, records),
        n_inputs=categories, n_outputs=categories,
    )
    dense = rng.integers(1, 100, (side, side))
    counts = CountMatrix(counts=dense, total=int(dense.sum()))
    print(f"{'text format':<40} {'seconds':>9} {'MB/s':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        pairs, entries = Path(tmp) / "pairs.csv", Path(tmp) / "counts.txt"
        for name, run, path in (
            ("write_pairs (10^6 records)", lambda: dataio.write_pairs(pairs, dataset), pairs),
            ("read_pairs", lambda: dataio.read_pairs(pairs), pairs),
            ("write_counts (10^6 entries)", lambda: dataio.write_counts(entries, counts), entries),
            ("read_count_entries", lambda: dataio.read_count_entries(entries), entries),
        ):
            seconds = best_of(run)
            print(f"{name:<40} {seconds:>8.3f}s {path.stat().st_size / 1e6 / seconds:>8.1f}")


def gyre_sample() -> PairDataset:
    dataset, _ = gen_double_gyre(GyreConfig(seed=2000, nx=64, ny=32, points_per_box=10, t_end=2.0))
    return dataset


def entries_table(dataset: PairDataset) -> None:
    counts, _, _ = prune_empty(ingest_pairs(dataset))
    model = estimate(counts)
    factorization = svd.full_svd(model.rescaled, 3)
    inputs, _ = svd.kmeans(factorization.right, 3, seed=1)
    outputs, _ = svd.kmeans(factorization.left, 3, seed=2)
    p, q = model.input_dist, model.output_dist
    print(f"gyre sample: {counts.shape[0]} x {counts.shape[1]}, {counts.nonzeros} nonzeros")
    print(f"{'step on the entries':<40} {'median':>9}")
    for name, run in (
        ("ingest_pairs + prune_empty", lambda: prune_empty(ingest_pairs(dataset))),
        ("estimate", lambda: estimate(CountMatrix(counts=counts.counts, total=counts.total))),
        ("rescaled", lambda: model.rescaled),
        ("full_svd (3 triplets)", lambda: svd.full_svd(model.rescaled, 3)),
        ("reduced_min_entry", lambda: svd.reduced_min_entry(factorization, 3, p, q)),
        ("_coherence_scores", lambda: svd._coherence_scores(model, inputs, outputs)),
    ):
        times = []
        for _ in range(7):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        print(f"{name:<40} {np.median(times) * 1e3:>7.2f}ms")


def kmeans_table(gyre: PairDataset) -> None:
    three, _ = gen_three_coherent(epsilon=3)
    samples = (("three-coherent eps=3, 100 x 3", three), ("gyre sample, 2048 x 3", gyre))
    print(f"{'kmeans, 10 restarts, both sides':<40} {'one at a time':>14} {'batched':>9}")
    for name, dataset in samples:
        counts, _, _ = prune_empty(ingest_pairs(dataset))
        factorization = svd.full_svd(counts.model.rescaled, 3)
        sides = (factorization.right, factorization.left)
        for side, seed in zip(sides, (1, 2)):
            reference, _, _ = kmeans_reference(side, 3, seed=seed)
            assert np.array_equal(svd.kmeans(side, 3, seed=seed)[0].labels, reference)
        times = []
        for run in (lambda points, seed: kmeans_reference(points, 3, seed=seed),
                    lambda points, seed: svd.kmeans(points, 3, seed=seed)):
            calls = []
            for _ in range(7):
                start = time.perf_counter()
                for side, seed in zip(sides, (1, 2)):
                    run(side, seed)
                calls.append(time.perf_counter() - start)
            times.append(np.median(calls))
        print(f"{name:<40} {times[0] * 1e3:>12.2f}ms {times[1] * 1e3:>7.2f}ms")


def main() -> None:
    rng = np.random.default_rng(0)
    advection_table(rng)
    print()
    storage_table(rng)
    print()
    text_io_table(rng)
    print()
    gyre = gyre_sample()
    entries_table(gyre)
    print()
    kmeans_table(gyre)


if __name__ == "__main__":
    main()
