"""Empirical transition-model estimation from categorical pair data.

The pipeline is: raw (input, output) pairs -> count matrix -> left-stochastic
transition matrix with input/output marginals, from which the rescaled
matrix of the coherence analysis derives.  Categories are 1-based at every
public boundary; array indices are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

# The DBMR kernels multiply the count matrix once per update. Sparse products
# visit only the nonzeros but pay scipy's dispatch, about 50 microseconds per
# call, so a count matrix is stored sparse only when at most this share of
# its entries is nonzero and it has at least SPARSE_MIN_ENTRIES entries.
# ``benchmarks/bench_kernels.py`` times both storages across that boundary:
# dense products win on 100 x 100 at any density and on 300 x 300 above
# about 10 % nonzeros; sparse ones win on 2048 x 2048 up to about 30 %.
SPARSE_MAX_DENSITY = 0.1
SPARSE_MIN_ENTRIES = 2**16


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _support(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries, in row-major order."""
    return tuple(_read_only(index) for index in np.nonzero(matrix))


@dataclass(frozen=True)
class Partition:
    """1-based cluster labels over a category range.

    An affiliation of input categories to latent states is a partition of
    the inputs; its clusters are the latent states.
    """

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self) -> None:
        labels = _read_only(np.ascontiguousarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-d array")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if (labels < 1).any() or (labels > self.n_clusters).any():
            raise ValueError(f"labels must lie in [1, {self.n_clusters}]")

    @property
    def size(self) -> int:
        return int(self.labels.size)

    def members(self, cluster: int) -> np.ndarray:
        """1-based category indices belonging to ``cluster``."""
        return np.nonzero(self.labels == cluster)[0] + 1

    @property
    def active(self) -> tuple[int, ...]:
        """Clusters with at least one member, in increasing order."""
        return tuple(int(v) for v in np.unique(self.labels))

    @property
    def inactive(self) -> tuple[int, ...]:
        """Clusters without members, in increasing order."""
        return tuple(sorted(set(range(1, self.n_clusters + 1)) - set(self.active)))


@dataclass(frozen=True)
class PairDataset:
    """Sample of S categorical transitions.

    ``inputs[u]`` in [1, n_inputs] and ``outputs[u]`` in [1, n_outputs]
    record the u-th observed transition.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    n_inputs: int
    n_outputs: int

    def __post_init__(self):
        inputs = _read_only(np.ascontiguousarray(self.inputs, dtype=np.int64))
        outputs = _read_only(np.ascontiguousarray(self.outputs, dtype=np.int64))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        if inputs.ndim != 1 or outputs.ndim != 1 or inputs.size != outputs.size:
            raise ValueError("inputs and outputs must be 1-d arrays of equal length")
        if inputs.size < 1:
            raise ValueError("dataset must contain at least one record")
        for name, values, bound in (
            ("input", inputs, self.n_inputs),
            ("output", outputs, self.n_outputs),
        ):
            bad = np.nonzero((values < 1) | (values > bound))[0]
            if bad.size:
                u = int(bad[0])
                raise ValueError(
                    f"record {u + 1}: {name} category {int(values[u])} "
                    f"outside [1, {bound}]"
                )

    @property
    def size(self) -> int:
        return int(self.inputs.size)


@dataclass(frozen=True)
class CountMatrix:
    """Nonnegative integer transition counts, outputs along rows."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = _read_only(np.ascontiguousarray(self.counts, dtype=np.int64))
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a 2-d array")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) != self.total:
            raise ValueError("declared total does not equal the entry sum")

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the positive counts, in row-major order."""
        return _support(self.counts)

    @property
    def nonzeros(self) -> int:
        return int(self.support[0].size)

    @property
    def storage(self) -> str:
        """Storage of ``operand``: "sparse" or "dense", from shape and nonzeros."""
        m, n = self.shape
        if m * n >= SPARSE_MIN_ENTRIES and self.nonzeros <= SPARSE_MAX_DENSITY * m * n:
            return "sparse"
        return "dense"

    @cached_property
    def operand(self):
        """The counts in float64 for the DBMR kernels, derived once.

        A CSC matrix of the positive counts when ``storage`` is "sparse",
        the dense array otherwise.
        """
        if self.storage == "dense":
            return self.counts.astype(np.float64)
        rows, cols = self.support
        values = self.counts[rows, cols].astype(np.float64)
        return sparse.csc_array((values, (rows, cols)), shape=self.shape)

    @cached_property
    def model(self) -> TransitionModel:
        """The estimated transition model of these counts, derived once."""
        return estimate(self)


@dataclass(frozen=True)
class TransitionModel:
    """Left-stochastic transition matrix with its marginals.

    ``matrix`` has columns that are conditional output distributions;
    ``input_dist`` and ``output_dist`` are the strictly positive marginals.
    Every other matrix derives from these three.
    """

    matrix: np.ndarray
    input_dist: np.ndarray
    output_dist: np.ndarray

    def __post_init__(self):
        for field in ("matrix", "input_dist", "output_dist"):
            object.__setattr__(self, field, _read_only(np.asarray(getattr(self, field), dtype=np.float64)))
        m, n = self.matrix.shape
        if self.input_dist.shape != (n,) or self.output_dist.shape != (m,):
            raise ValueError("marginal lengths do not match the matrix shape")
        if (self.matrix < 0).any():
            raise ValueError("transition matrix must be nonnegative")
        if np.abs(self.matrix.sum(axis=0) - 1.0).max() > 1e-12:
            raise ValueError("transition matrix columns must sum to 1")
        if (self.input_dist <= 0).any() or (self.output_dist <= 0).any():
            raise ValueError("marginals must be strictly positive")
        if np.abs(self.matrix @ self.input_dist - self.output_dist).max() > 1e-12:
            raise ValueError("output marginal must equal matrix @ input marginal")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def rescaled(self) -> np.ndarray:
        """D_out^{-1/2} @ matrix @ D_in^{1/2}, the matrix whose singular values
        measure coherence; built anew on each access."""
        return rescale(self.matrix, self.input_dist, self.output_dist)

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the positive entries, in row-major order."""
        return _support(self.matrix)

    @cached_property
    def rescaled_norm_sq(self) -> float:
        """Squared Frobenius norm of ``rescaled``, summed over the support with
        ``rescale``'s product per entry."""
        rows, cols = self.support
        scale = np.sqrt(self.input_dist)[cols] / np.sqrt(self.output_dist)[rows]
        values = self.matrix[rows, cols] * scale
        return float(np.sum(values * values))


def ingest_pairs(dataset: PairDataset) -> CountMatrix:
    """Count matrix N with N[i, j] = #records with input j+1 and output i+1."""
    n, m = dataset.n_inputs, dataset.n_outputs
    flat = (dataset.outputs - 1) * n + (dataset.inputs - 1)
    counts = np.bincount(flat, minlength=m * n).reshape(m, n)
    return CountMatrix(counts=counts, total=dataset.size)


def prune_empty(counts: CountMatrix) -> tuple[CountMatrix, np.ndarray, np.ndarray]:
    """Drop all-zero rows and columns.

    Returns the pruned matrix plus 1-based index maps: ``row_map[i]`` is the
    original output category of pruned row i, likewise ``col_map`` for
    columns.  Original ordering is preserved.
    """
    if counts.total == 0:
        raise ValueError("empty model: all counts are zero")
    keep_rows = np.nonzero(counts.counts.sum(axis=1) > 0)[0]
    keep_cols = np.nonzero(counts.counts.sum(axis=0) > 0)[0]
    pruned = counts.counts[np.ix_(keep_rows, keep_cols)]
    return (
        CountMatrix(counts=pruned, total=counts.total),
        _read_only(keep_rows + 1),
        _read_only(keep_cols + 1),
    )


def count_occurring(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray | None = None
) -> tuple[CountMatrix, np.ndarray, np.ndarray]:
    """``prune_empty`` of the counts that add the positive ``weights[u]`` (1
    by default) at 0-based (rows[u], cols[u]), in memory that grows with the
    entries and the categories that occur, never with a declared m x n shape.
    """
    if rows.size == 0:
        raise ValueError("empty model: all counts are zero")
    total = rows.size if weights is None else int(weights.sum())
    box = (int(rows.max()) + 1, int(cols.max()) + 1)
    if box[0] * box[1] <= 4 * rows.size:
        # The entries' bounding box has few cells per entry: count on it.
        counts = np.bincount(rows * box[1] + cols, weights, box[0] * box[1])
        return prune_empty(CountMatrix(counts=counts.reshape(box), total=total))
    (row_map, row_at), (col_map, col_at) = (np.unique(i, return_inverse=True) for i in (rows, cols))
    counts = np.bincount(row_at * col_map.size + col_at, weights, row_map.size * col_map.size)
    counts = CountMatrix(counts=counts.reshape(row_map.size, -1), total=total)
    return counts, _read_only(row_map + 1), _read_only(col_map + 1)


def estimate(counts: CountMatrix) -> TransitionModel:
    """Empirical transition model from a pruned count matrix.

    Column j of the matrix is column j of the counts divided by its sum; the
    input marginal is the column-sum fraction; the output marginal is the
    pushforward matrix @ input_dist.  Stored probability vectors are
    renormalized to sum exactly to one so downstream identities hold to
    machine precision.
    """
    N = counts.counts
    col_sums = N.sum(axis=0)
    if (col_sums <= 0).any() or (N.sum(axis=1) <= 0).any():
        raise ValueError("counts must be pruned: zero row or column sum found")
    p = col_sums / counts.total
    p /= p.sum()
    P = N / col_sums[np.newaxis, :]
    P /= P.sum(axis=0, keepdims=True)
    q = P @ p
    q /= q.sum()
    return TransitionModel(matrix=P, input_dist=p, output_dist=q)


def rescale(matrix: np.ndarray, input_dist: np.ndarray, output_dist: np.ndarray) -> np.ndarray:
    """D_out^{-1/2} @ matrix @ D_in^{1/2}: entry (i, j) times sqrt(p_j) / sqrt(q_i)."""
    return matrix * (np.sqrt(input_dist)[np.newaxis, :] / np.sqrt(output_dist)[:, np.newaxis])


def kl_divergence(u: np.ndarray, v: np.ndarray) -> float:
    """Kullback-Leibler divergence sum_i u_i log(u_i / v_i).

    Conventions: 0 log 0 = 0; +inf as soon as some u_i > 0 has v_i = 0.
    Both arguments must be probability vectors (sums within 1e-9 of one).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("arguments must be 1-d vectors of equal length")
    if (u < 0).any() or (v < 0).any():
        raise ValueError("probability vectors must be nonnegative")
    if abs(u.sum() - 1.0) > 1e-9 or abs(v.sum() - 1.0) > 1e-9:
        raise ValueError("arguments must sum to 1 within 1e-9")
    support = u > 0
    if (v[support] == 0).any():
        return float("inf")
    us = u[support]
    return float(np.sum(us * np.log(us / v[support])))
