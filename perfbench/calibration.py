"""A fixed reference kernel that measures how fast this machine runs right now.

On a small shared machine the same code runs up to a third slower for tens
of seconds at a time, depending on what the neighbours do. The benchmark
times this kernel in batches between its requests and scales each request's
time by ``REFERENCE_S`` over the kernel's median time in the batches just
before and just after it, raised to the workload's speed elasticity, so that
times are given at one reference speed.
The kernel mixes the kinds of work the program does: BLAS products, a LAPACK
SVD, elementwise numpy over arrays larger than the cache, interpreted Python
and integer formatting. It never calls the program, so a change to the
program moves the scaled times in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference machine (2 vCPU x86-64 with AVX-512,
# one OpenBLAS thread); reported times are expressed at this speed.
REFERENCE_S = 0.025
SAMPLES_PER_POINT = 3

# Set-up is timed against a fresh interpreter that imports only what the
# program builds on, never the program itself; set-up times are scaled by
# IMPORT_REFERENCE_S over the mean of the two such baselines around each set-up.
IMPORT_BASELINE = "import numpy, numpy.linalg, json, csv, argparse, logging, dataclasses"
IMPORT_REFERENCE_S = 0.14


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._square = rng.random((200, 200))
        self._product = np.empty((200, 200))
        self._tall = rng.random((100, 80))
        self._vector = rng.random(400_000)
        self._buffer = np.empty(400_000)
        self._ints = rng.integers(0, 1000, 20_000).tolist()
        # Kernel times, one list per batch, in the order the batches ran.
        self.batches: list[list[float]] = []

    def _kernel(self) -> None:
        # Large arrays are preallocated: a fresh one would cost page faults
        # that depend on the allocator's state, not on the machine's speed.
        for _ in range(3):
            np.matmul(self._square, self._square, out=self._product)
        for _ in range(4):
            np.linalg.svd(self._tall, full_matrices=False)
        for _ in range(3):
            np.add(self._vector, 1.0, out=self._buffer)
            np.log(self._buffer, out=self._buffer)
        total = 0
        for value in self._ints:
            total += value * value
        "\n".join(f"{a},{a}" for a in self._ints)

    def batch(self, points: int = 1) -> None:
        """Time the kernel ``points * SAMPLES_PER_POINT`` times back to back."""
        samples = []
        for _ in range(points * SAMPLES_PER_POINT):
            start = time.perf_counter()
            self._kernel()
            samples.append(time.perf_counter() - start)
        self.batches.append(samples)

    def factor_around(self, index: int) -> float:
        """Reference-speed multiplier for work done between batches
        ``index - 1`` and ``index``."""
        return REFERENCE_S / statistics.median(self.batches[index - 1] + self.batches[index])

    def factor_overall(self) -> float:
        """Reference-speed multiplier over all batches."""
        return REFERENCE_S / statistics.median([t for batch in self.batches for t in batch])
