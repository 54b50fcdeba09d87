"""Timing of the hot kernels.

Run with ``python3 benchmarks/bench_kernels.py``. The tables, in the order
they print:

1. Minor page faults (``ru_minflt``) and time of a 100-restart
   ``dbmr.multi_start`` at r = 3 on the paper's examples (three-coherent at
   window noise 3, 100 x 100; interval map at window noise 1, 90 x 90),
   medians of 9 calls. Between calls a fixed round allocates and frees what
   ``perfbench/calibration.py``'s kernel does: a small SVD and the text of
   20 000 integers. An ascent that allocates and frees its stacks every
   step hands their pages back to the OS and faults them in again; one
   block per ascent keeps them. The last column is the ``tracemalloc`` peak
   of one more call, made after the timed ones: the block of runs r
   (3 m + n) float64 entries plus the (runs, n) label arrays of a step.
   This table runs first, before the other tables' large arrays move
   glibc's mmap and trim thresholds.

2. RK4 advection of 204 800 points through 400 steps.

3. The score and group-sum kernels on both count storages, dense and
   sparse (CSC), for square count matrices of 100, 300 and 2048 categories
   over a range of densities, with three latent states. It shows where the
   sparse products, whose scipy dispatch costs a fixed tens of microseconds
   per call, overtake the dense BLAS products: the crossover behind
   ``model.SPARSE_MAX_DENSITY`` and ``model.SPARSE_MIN_ENTRIES``. The last
   column names the storage that ``CountMatrix`` selects for that shape and
   density.

4. The text formats, in a temporary directory: a pairs file of 10^6
   records over 300 categories, and a counts file of the 10^6 entries of a
   fully occupied 1000 x 1000 count matrix, each written and read back, in
   MB/s of file, with the ``tracemalloc`` peak of one more call. Each read
   runs twice: on the file as written, which the block reader parses, and
   on a copy with CRLF line ends, which goes to ``np.loadtxt``. The table
   explains a reader's gain; ``perfbench/`` measures it.

5. The steps of a compare request that once ran on dense m x n arrays and
   now run on the nonzeros of the counts, on the 2048-box double-gyre
   sample of the gyre-flow benchmark's first seed-2 request (64 x 32 boxes,
   10 points a box, t_end 2, seed 2000; 0.38 % nonzero). It explains that
   workload's gain; ``perfbench/`` measures it.

6. The k-means of a classical pipeline, both sides with 10 restarts each:
   the restarts run one at a time, each from its row of one draw of
   uniforms, as kept in ``tests/dense_reference.py``, against the batched
   Lloyd loop of ``svd.kmeans``, on the singular
   vectors of the three-coherent example at window noise 3 (100 x 3 points)
   and of the gyre sample above (2048 x 3). Both give the same labels, which
   the table asserts. It explains the k-means part of paper-batch's gain;
   ``perfbench/`` measures it.

7. The size rule of ``svd.full_svd``: three leading triplets of the
   rescaled matrix by LAPACK's thin SVD of the densified matrix against
   ARPACK on its nonzeros, on fully occupied count matrices of 100 to 400
   categories, block-structured (four diagonal blocks over a uniform floor)
   and unstructured (the floor alone). Both paths run through ``full_svd``
   with ``svd.LAPACK_MAX_ENTRIES`` moved out of the way, and their singular
   values agree, which the table asserts; the last column names the path
   ``full_svd`` takes at the shipped limit.

8. The pieces of one DBMR ascent step of 100 restarts at r = 3 on the
   three-coherent example at window noise 3 (100 x 100). The first row
   draws the restarts' initial labels with one generator per restart, as
   ``dbmr.multi_start`` once did, against one (100, 100) draw from one
   generator, as it does now; the draws differ by design. From those
   labels: the two kernels alone, then each piece of the step against its
   former stacked form, kept in ``tests/dense_reference.py`` (labels by
   ``np.argmax``, factors from the grouped columns' sums, and scores by a
   clamped log and a second, zero-mask product); the objectives, the sum
   of G log F over all m r entries with log F floored at -1e300, as one
   product and one row sum against one reduction per run of the same
   formula. The kernels take the log floored as the ascent floors it. The
   score row runs on the second iterate's factors, which have zero entries
   as most of an ascent's do; its current form takes the floored log and
   makes one product. Both forms of each piece give the same bits, which
   the table asserts. It explains the draw and ascent parts of
   paper-batch's gains; ``perfbench/`` measures them.

9. ``report.render_compare_images``, the three PPM images of a compare,
   drawn in blocks of rows: median time of 7 calls and ``tracemalloc``
   peak, on the 300 x 300 block counts of ``tests/same_outputs.py``'s pairs
   file grown to the pairs-file benchmark's 10^6 records (nearly full,
   dense storage) and on the gyre sample above (2048 x 2048, 0.38 %
   nonzero). Drawing the whole m x n matrices instead peaked at 3.4 and
   160 MiB and took about 5-7 and 380-470 ms on the same machine.

Run it on one BLAS thread (``OPENBLAS_NUM_THREADS=1``), as the program's
figures were taken.

Replaced paths. The dense column below was measured on the code before the
counts and P were stored as their entries (same sample, one BLAS thread of
a 2-vCPU x86-64 machine, medians of 7 calls); the entry versions returned
the same singular values and the same minimum up to rounding:

    step                          dense m x n   on the entries
    ingest_pairs + prune_empty        60 ms         1.7 ms
    estimate                          61 ms         1.1 ms
    rescaled                          20 ms         0.23 ms
    full_svd (3 triplets)            117 ms          63 ms
    truncate_reference(...).min()     38 ms         2.7 ms (reduced_min_entry)
    _coherence_scores                 19 ms         0.19 ms
"""

from __future__ import annotations

import math
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import sparse

from cohsets import _accel, dataio, dbmr, report, svd
from cohsets.generators import GyreConfig, gen_double_gyre, gen_interval_map, gen_three_coherent
from cohsets.model import (
    CountMatrix,
    PairDataset,
    count_entries,
    estimate,
    ingest_pairs,
    prune_empty,
)
from cohsets.seeding import rng_for

# The k-means restarts run one at a time are kept as a test reference.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.dense_reference import (  # noqa: E402
    floored_log,
    kmeans_reference,
    latent_scores_reference,
    log_likelihoods_stacked_reference,
    ml_factors_stacked_reference,
    pick_labels_stacked_reference,
)

REPEATS = 3
LATENT = 3
SIZES = (100, 300, 2048)
DENSITIES = (0.001, 0.004, 0.01, 0.03, 0.1, 0.3, 1.0)
SVD_SIZES = (100, 128, 200, 300, 400)


def best_of(fn, *args, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def allocate_and_free(tall: np.ndarray, ints: list) -> None:
    """What the benchmark's calibration kernel allocates and frees between requests."""
    np.linalg.svd(tall, full_matrices=False)
    "\n".join(f"{a},{a}" for a in ints)


def page_fault_table() -> None:
    rng = np.random.default_rng(12345)
    tall, ints = rng.random((100, 80)), rng.integers(0, 1000, 20_000).tolist()
    print(f"{'multi_start, 100 restarts, r=3':<40} {'faults':>7} {'median':>9} {'peak':>9}")
    for name, (dataset, _) in (("three-coherent eps=3, 100 x 100", gen_three_coherent(epsilon=3)),
                               ("interval map eps=1, 90 x 90", gen_interval_map(epsilon=1))):
        counts, _, _ = prune_empty(ingest_pairs(dataset))
        faults, times = [], []
        for _ in range(9):
            allocate_and_free(tall, ints)
            before, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
            dbmr.multi_start(counts, 3, 100, seed=2)
            times.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        tracemalloc.start()
        dbmr.multi_start(counts, 3, 100, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{name:<40} {np.median(faults):>7.0f} {np.median(times) * 1e3:>7.2f}ms "
              f"{peak / 1e3:>6.0f} KB")


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
            log_factor = np.log(factor / factor.sum(axis=0))
            labels0 = rng.integers(0, LATENT, size)

            def per_call(kernel, operand, *args):
                return best_of(lambda: [kernel(operand, *args) for _ in range(calls)]) / calls

            selected = CountMatrix(counts=counts, total=int(counts.sum())).storage
            print(
                f"{size:>6} {density:>8.3f} {csc.nnz:>9} "
                f"{per_call(_accel.latent_scores, dense, log_factor) * 1e6:>11.0f}us "
                f"{per_call(_accel.latent_scores, csc, log_factor) * 1e6:>7.0f}us "
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
    print(f"{'text format':<40} {'seconds':>9} {'MB/s':>8} {'peak':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        pairs, entries = Path(tmp) / "pairs.csv", Path(tmp) / "counts.txt"
        pairs_crlf, entries_crlf = Path(tmp) / "pairs-crlf.csv", Path(tmp) / "counts-crlf.txt"
        crlf = {pairs: pairs_crlf, entries: entries_crlf}
        for name, run, path in (
            ("write_pairs (10^6 records)", lambda: dataio.write_pairs(pairs, dataset), pairs),
            ("read_pairs", lambda: dataio.read_pairs(pairs), pairs),
            ("read_pairs, CRLF (np.loadtxt)", lambda: dataio.read_pairs(pairs_crlf), pairs_crlf),
            ("write_counts (10^6 entries)", lambda: dataio.write_counts(entries, counts), entries),
            ("read_count_entries", lambda: dataio.read_count_entries(entries), entries),
            ("read_count_entries, CRLF (np.loadtxt)",
             lambda: dataio.read_count_entries(entries_crlf), entries_crlf),
        ):
            seconds = best_of(run)
            tracemalloc.start()
            run()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(f"{name:<40} {seconds:>8.3f}s {path.stat().st_size / 1e6 / seconds:>8.1f} "
                  f"{peak / 1e6:>6.1f} MB")
            if name.startswith("write_"):
                crlf[path].write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


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


def svd_counts(rng: np.random.Generator, size: int, structured: bool) -> CountMatrix:
    """A fully occupied size x size count matrix: uniform counts of 1-9,
    plus 30 in each cell of four diagonal blocks when ``structured``."""
    counts = rng.integers(1, 10, (size, size))
    if structured:
        block = np.arange(size) * 4 // size
        counts = counts + 30 * (block[:, np.newaxis] == block)
    return CountMatrix(counts=counts, total=int(counts.sum()))


def svd_rule_table(rng: np.random.Generator) -> None:
    print(f"{'full_svd, 3 triplets':<30} {'LAPACK':>9} {'ARPACK':>9}  selected "
          f"(LAPACK up to {svd.LAPACK_MAX_ENTRIES} entries)")
    shipped = svd.LAPACK_MAX_ENTRIES
    for structured in (True, False):
        for size in SVD_SIZES:
            rescaled = svd_counts(rng, size, structured).model.rescaled
            times, values = [], []
            try:
                for limit in (size * size, 0):
                    svd.LAPACK_MAX_ENTRIES = limit
                    values.append(svd.full_svd(rescaled, 3).singular_values)
                    times.append(best_of(svd.full_svd, rescaled, 3, repeats=5))
            finally:
                svd.LAPACK_MAX_ENTRIES = shipped
            assert np.allclose(*values, rtol=1e-10, atol=1e-12)
            name = f"{'block' if structured else 'unstructured'} {size} x {size}"
            print(f"{name:<30} {times[0] * 1e3:>7.2f}ms {times[1] * 1e3:>7.2f}ms  "
                  f"{svd.full_svd(rescaled, 3).path}")


def ascent_step_table() -> None:
    three, _ = gen_three_coherent(epsilon=3)
    counts, _, _ = prune_empty(ingest_pairs(three))
    operand, n, r, runs = counts.operand, counts.shape[1], 3, 100
    labels0 = rng_for(0, 0).integers(0, r, size=(runs, n))
    grouped, factor = dbmr.ml_factors(counts, labels0, r)
    log_factor = floored_log(factor)
    # The second iterate's factors have zero entries, as most score calls of
    # an ascent meet.
    _, stepped = dbmr.ml_factors(
        counts, dbmr._pick_labels(_accel.latent_scores(operand, log_factor)), r)
    draw = "initial labels of the 100 restarts"
    rows = (
        (draw, lambda: np.stack([rng_for(0, run).integers(0, r, size=n) for run in range(runs)]),
         lambda: rng_for(0, 0).integers(0, r, size=(runs, n))),
        ("latent_scores (kernel)", None, lambda: _accel.latent_scores(operand, log_factor)),
        ("scores of zeroed factors: log and products",
         lambda: latent_scores_reference(operand, stepped),
         lambda: _accel.latent_scores(operand, floored_log(stepped))),
        ("scores and label pick",
         lambda: pick_labels_stacked_reference(_accel.latent_scores(operand, log_factor)),
         lambda: dbmr._pick_labels(_accel.latent_scores(operand, log_factor))),
        ("group_sums (kernel)", None, lambda: _accel.group_sums(operand, labels0, r)),
        ("group sums and factors",
         lambda: ml_factors_stacked_reference(operand, labels0, r),
         lambda: dbmr.ml_factors(counts, labels0, r)),
        ("objectives",
         lambda: log_likelihoods_stacked_reference(grouped, factor),
         lambda: dbmr._log_likelihoods(grouped, log_factor)),
    )
    print(f"{'ascent step, 100 x 100, r=3, 100 restarts':<44} {'former':>9} {'now':>9}")
    for name, former, now in rows:
        if former is not None and name != draw:
            pairs = zip(*(out if isinstance(out, tuple) else (out,) for out in (former(), now())))
            assert all(a.tobytes() == b.tobytes() for a, b in pairs), name
        times = []
        for run in (former, now):
            calls = []
            for _ in range(15 if run else 0):
                start = time.perf_counter()
                run()
                calls.append(time.perf_counter() - start)
            times.append(f"{np.median(calls) * 1e6:>7.0f}us" if calls else f"{'':>9}")
        print(f"{name:<44} {times[0]} {times[1]}")


def images_table(gyre: PairDataset) -> None:
    rng = np.random.default_rng(20231)
    inputs = rng.integers(0, 300, 10**6)
    inside = inputs // 75 * 75 + rng.integers(0, 75, inputs.size)
    outputs = np.where(rng.random(inputs.size) < 0.25, rng.integers(0, 300, inputs.size), inside)
    print(f"{'render_compare_images (3 images)':<40} {'median':>9} {'peak':>10}")
    for name, counts in (
        ("300 x 300 block counts", count_entries((300, 300), outputs, inputs)),
        ("2048 x 2048 gyre sample", prune_empty(ingest_pairs(gyre))[0]),
    ):
        _, artifacts = report.compare_experiment(counts, 4, runs=3, seed=0)
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "images.json"
            times = []
            for _ in range(7):
                start = time.perf_counter()
                report.render_compare_images(artifacts, base)
                times.append(time.perf_counter() - start)
            tracemalloc.start()
            report.render_compare_images(artifacts, base)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        print(f"{name:<40} {np.median(times) * 1e3:>7.2f}ms {peak / 2**20:>6.2f} MiB")


def main() -> None:
    rng = np.random.default_rng(0)
    page_fault_table()
    print()
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
    print()
    svd_rule_table(rng)
    print()
    ascent_step_table()
    print()
    images_table(gyre)


if __name__ == "__main__":
    main()
