"""Empirical transition-model estimation from categorical pair data.

The pipeline is: raw (input, output) pairs -> count matrix -> left-stochastic
transition matrix with input/output marginals, from which the rescaled
matrix of the coherence analysis derives.  Categories are 1-based at every
public boundary; array indices are 0-based internally.

Storage: a count matrix holds its positive counts once, as a ``CscMatrix``:
column j's rows (increasing) and counts are the slice
``indptr[j]:indptr[j + 1]`` of ``indices`` and ``data``.  Counting sorts or
bins flat keys of the records, pruning relabels the stored entries, and the
transition matrix P and its rescaled form are CSC matrices on the same
entries, so memory grows with the records and the nonzeros, never with
m x n.  Dense m x n arrays remain only in ``CountMatrix.operand`` and
``joint_operand`` when the storage rule below picks dense (small or dense
count matrices, where BLAS beats scipy's dispatch), and in the tests.

scipy is loaded by ``scipy_sparse`` on first use, and only two things use
it: the sparse ``operand``, a scipy ``csc_array`` on the counts' arrays, and
ARPACK in ``svd.full_svd``.  The paper's 90-100 category examples need
neither, so a process that runs only them never imports scipy.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

logger = logging.getLogger(__name__)

# The DBMR kernels multiply the count matrix once per update. Sparse products
# visit only the nonzeros but pay scipy's dispatch, about 50 microseconds per
# call, so a count matrix is stored sparse only when at most this share of
# its entries is nonzero and it has at least SPARSE_MIN_ENTRIES entries.
# ``benchmarks/bench_kernels.py`` times both storages across that boundary:
# dense products win on 100 x 100 at any density and on 300 x 300 above
# about 10 % nonzeros; sparse ones win on 2048 x 2048 up to about 30 %.
SPARSE_MAX_DENSITY = 0.1
SPARSE_MIN_ENTRIES = 2**16


@cache
def scipy_sparse():
    """``scipy.sparse`` with ``scipy.sparse.linalg`` loaded, imported on the
    first call; the time the import took is logged at DEBUG."""
    start = time.perf_counter()
    import scipy.sparse.linalg

    logger.debug("loaded scipy.sparse for sparse storage or ARPACK in %.3f s",
                 time.perf_counter() - start)
    return scipy.sparse


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CscMatrix:
    """A matrix in compressed sparse column form.

    Column j's row indices and values are the slice
    ``indptr[j]:indptr[j + 1]`` of ``indices`` and ``data``. The index
    arrays are int64 and all three are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        m, n = (int(size) for size in self.shape)
        object.__setattr__(self, "shape", (m, n))
        for name in ("indptr", "indices"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("indptr", "indices", "data"):
            _read_only(getattr(self, name))
        size = self.data.size
        if self.indptr.shape != (n + 1,) or not self.indices.size == size == self.indptr[-1]:
            raise ValueError(f"CSC arrays do not describe {size} entries of a {m} x {n} matrix")

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        dense[_csc_support(self)] = self.data
        return dense

    def row_blocks(self, entries: int):
        """The matrix in dense float64 blocks of ``entries // n`` rows (at least one),
        from its entries grouped by block by any sort: they fill distinct cells."""
        m, n = self.shape
        step = max(1, entries // n)
        rows, cols = _csc_support(self)
        flat = rows * n + cols
        del cols  # each array is freed once read: at most 24 B an entry are alive
        block_of = rows // step
        order = np.argsort(block_of)
        ends = np.searchsorted(block_of, np.arange(1, -(-m // step)), sorter=order)
        del block_of
        flat = flat[order]
        data = self.data[order]
        del order
        for start, cells, values in zip(range(0, m, step), np.split(flat, ends), np.split(data, ends)):
            block = np.zeros((min(step, m - start), n))
            block.ravel()[cells - start * n] = values
            yield block

    def to_scipy(self):
        """A scipy ``csc_array`` on these same arrays, without a copy."""
        return scipy_sparse().csc_array((self.data, self.indices, self.indptr), shape=self.shape)


def _csc_support(matrix: CscMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the stored entries, in storage (column-major) order."""
    cols = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
    return matrix.indices, _read_only(cols)


def _from_entries(shape, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> CscMatrix:
    """The CSC matrix of entries given in column-major order, rows
    increasing within each column."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=shape[1]))))
    return CscMatrix(indptr, rows, data, shape)


def _push(matrix: CscMatrix, cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for the column index ``cols`` of each entry; each row
    adds its terms column by column, as scipy's CSC product does."""
    return np.bincount(matrix.indices, matrix.data * x[cols], matrix.shape[0])


def as_csc(matrix, dtype) -> CscMatrix:
    """``matrix`` as a ``CscMatrix`` of ``dtype`` with rows increasing and
    distinct within each column: a ``CscMatrix`` as it is, a scipy sparse
    matrix (anything with ``tocsc``) with its duplicates summed, a dense
    array on its nonzeros."""
    if isinstance(matrix, CscMatrix):
        if matrix.data.dtype == dtype:
            return matrix
        return CscMatrix(matrix.indptr, matrix.indices, matrix.data.astype(dtype), matrix.shape)
    if hasattr(matrix, "tocsc"):
        csc = matrix.tocsc(copy=True)
        csc.sum_duplicates()
        return CscMatrix(csc.indptr, csc.indices, csc.data.astype(dtype), csc.shape)
    dense = np.asarray(matrix)
    if dense.ndim != 2:
        raise ValueError("matrix must be a 2-d array")
    cols, rows = np.nonzero(dense.T)
    return _from_entries(dense.shape, rows, cols, dense[rows, cols].astype(dtype))


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
    """Nonnegative integer transition counts, outputs along rows.

    ``counts`` holds the positive counts once, as an int64 ``CscMatrix``;
    a dense array or a scipy sparse matrix given here is converted to it
    (see ``as_csc``). ``support``, ``nonzeros``, ``column_totals``,
    ``storage``, ``operand``, ``model`` and ``joint_operand`` derive from it.
    """

    counts: CscMatrix
    total: int

    def __post_init__(self):
        counts = as_csc(self.counts, np.int64)
        if (counts.data < 0).any():
            raise ValueError("counts must be nonnegative")
        if not counts.data.all():
            rows, cols = _csc_support(counts)
            positive = counts.data > 0
            counts = _from_entries(counts.shape, rows[positive], cols[positive],
                                   counts.data[positive])
        if int(counts.data.sum()) != self.total:
            raise ValueError("declared total does not equal the entry sum")
        object.__setattr__(self, "counts", counts)

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the positive counts, in column-major order."""
        return _csc_support(self.counts)

    @property
    def nonzeros(self) -> int:
        return int(self.counts.nnz)

    @property
    def storage(self) -> str:
        """Storage of ``operand``: "sparse" or "dense", from shape and nonzeros."""
        m, n = self.shape
        if m * n >= SPARSE_MIN_ENTRIES and self.nonzeros <= SPARSE_MAX_DENSITY * m * n:
            return "sparse"
        return "dense"

    @cached_property
    def column_totals(self) -> np.ndarray:
        """Per input, the float64 total of its counts, derived once; sums of
        integers, so exact."""
        return np.bincount(self.support[1], weights=self.counts.data, minlength=self.shape[1])

    def _in_storage(self, matrix: CscMatrix):
        """``matrix`` in float64 in ``storage``: a scipy CSC matrix when
        "sparse", the dense array otherwise."""
        matrix = as_csc(matrix, np.float64)
        return matrix.to_scipy() if self.storage == "sparse" else matrix.toarray()

    @cached_property
    def operand(self):
        """The counts in float64 for the DBMR kernels, in ``storage``, derived once."""
        return self._in_storage(self.counts)

    @cached_property
    def joint_operand(self):
        """P diag(p) of ``model`` in ``storage``, derived once; the
        factorization residuals group its columns."""
        model = self.model
        P = model.matrix
        values = P.data * model.input_dist[model.support[1]]
        return self._in_storage(CscMatrix(P.indptr, P.indices, values, P.shape))

    @cached_property
    def model(self) -> TransitionModel:
        """The estimated transition model of these counts, derived once."""
        return estimate(self)

    @cached_property
    def full_log_likelihood(self) -> float:
        """Log-likelihood of the counts under ``model``, derived once: P is
        stored on exactly the positive counts, so it is sum N log P over them."""
        return float(np.sum(self.counts.data * np.log(self.model.matrix.data)))


@dataclass(frozen=True)
class TransitionModel:
    """Left-stochastic transition matrix with its marginals.

    ``matrix`` is a float64 ``CscMatrix`` of the positive entries of P,
    whose columns are conditional output distributions (a dense array or a
    scipy sparse matrix given here is converted); ``input_dist`` and
    ``output_dist`` are the strictly positive marginals. Every other matrix
    derives from these three.
    """

    matrix: CscMatrix
    input_dist: np.ndarray
    output_dist: np.ndarray

    def __post_init__(self):
        matrix = as_csc(self.matrix, np.float64)
        object.__setattr__(self, "matrix", matrix)
        for field in ("input_dist", "output_dist"):
            object.__setattr__(self, field, _read_only(np.asarray(getattr(self, field), dtype=np.float64)))
        m, n = matrix.shape
        if self.input_dist.shape != (n,) or self.output_dist.shape != (m,):
            raise ValueError("marginal lengths do not match the matrix shape")
        if not (matrix.data > 0).all():
            raise ValueError("transition matrix must be nonnegative, with positive stored entries")
        column_sums = np.add.reduceat(matrix.data, matrix.indptr[:-1]) if matrix.nnz else 0.0
        if not np.diff(matrix.indptr).all() or np.abs(column_sums - 1.0).max() > 1e-12:
            raise ValueError("transition matrix columns must sum to 1")
        if (self.input_dist <= 0).any() or (self.output_dist <= 0).any():
            raise ValueError("marginals must be strictly positive")
        if np.abs(_push(matrix, self.support[1], self.input_dist) - self.output_dist).max() > 1e-12:
            raise ValueError("output marginal must equal matrix @ input marginal")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def rescaled(self) -> CscMatrix:
        """D_out^{-1/2} @ matrix @ D_in^{1/2} on the entries of P, the matrix
        whose singular values measure coherence: entry (i, j) times
        sqrt(p_j) / sqrt(q_i). Built anew on each access."""
        rows, cols = self.support
        values = self.matrix.data * (np.sqrt(self.input_dist)[cols] / np.sqrt(self.output_dist)[rows])
        return CscMatrix(self.matrix.indptr, self.matrix.indices, values, self.shape)

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the positive entries, in column-major order."""
        return _csc_support(self.matrix)

    @cached_property
    def rescaled_norm_sq(self) -> float:
        """Squared Frobenius norm of ``rescaled``, summed over its entries."""
        values = self.rescaled.data
        return float(np.sum(values * values))


# Counting bins an index when its range holds at most this many values per
# entry, so the bins grow with the entries, and sorts its values otherwise.
# On 10^6 records over 300 x 300 categories binning takes 3 ms and sorting
# 26 ms (one core of a 2-vCPU x86-64 machine); the 2048 x 2048 gyre sample
# has 200 cells per record and is sorted.
BIN_CELLS_PER_KEY = 4


def _ranks(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted candidate values of a nonnegative index array and the rank of
    each entry among them: every value up to the largest when that range has
    at most ``BIN_CELLS_PER_KEY`` values per entry, else the distinct ones."""
    size = int(index.max(initial=-1)) + 1
    if size <= BIN_CELLS_PER_KEY * index.size:
        return np.arange(size), index
    return np.unique(index, return_inverse=True)


def count_entries(
    shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, weights: np.ndarray | None = None
) -> CountMatrix:
    """Counts of ``shape`` that add ``weights[u]`` (1 by default) at 0-based
    (rows[u], cols[u]); duplicates accumulate.

    The column-major flat key of each entry is counted, so the work and
    memory grow with the entries, plus the column pointers.
    """
    m, n = shape
    if m * n >= 2**63:
        raise ValueError(f"a {m} x {n} count matrix exceeds the flat index range")
    # The distinct flat keys and their summed weights; keys summing to 0 drop.
    keys, at = _ranks(cols * m + rows)
    sums = np.bincount(at, weights, keys.size)
    kept = np.flatnonzero(sums)
    entry_cols, entry_rows = np.divmod(keys[kept], m)
    values = sums[kept].astype(np.int64, copy=False)
    return CountMatrix(counts=_from_entries((m, n), entry_rows, entry_cols, values),
                       total=int(values.sum()))


def ingest_pairs(dataset: PairDataset) -> CountMatrix:
    """Count matrix N with N[i, j] = #records with input j+1 and output i+1."""
    return count_entries(
        (dataset.n_outputs, dataset.n_inputs), dataset.outputs - 1, dataset.inputs - 1
    )


def prune_empty(counts: CountMatrix) -> tuple[CountMatrix, np.ndarray, np.ndarray]:
    """Drop all-zero rows and columns.

    Returns the pruned matrix plus 1-based index maps: ``row_map[i]`` is the
    original output category of pruned row i, likewise ``col_map`` for
    columns.  Original ordering is preserved.
    """
    if counts.total == 0:
        raise ValueError("empty model: all counts are zero")
    N = counts.counts
    occupied = np.bincount(N.indices, minlength=N.shape[0]) > 0
    keep_rows = np.flatnonzero(occupied)
    keep_cols = np.flatnonzero(np.diff(N.indptr))
    # Relabelling rows by rank keeps them increasing within each column.
    rows = (np.cumsum(occupied) - 1)[N.indices]
    indptr = np.append(N.indptr[keep_cols], N.nnz)
    pruned = CscMatrix(indptr, rows, N.data, (keep_rows.size, keep_cols.size))
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
    (row_map, row_at), (col_map, col_at) = (_ranks(index) for index in (rows, cols))
    counts, kept_rows, kept_cols = prune_empty(
        count_entries((row_map.size, col_map.size), row_at, col_at, weights)
    )
    return counts, _read_only(row_map[kept_rows - 1] + 1), _read_only(col_map[kept_cols - 1] + 1)


def estimate(counts: CountMatrix) -> TransitionModel:
    """Empirical transition model from a pruned count matrix.

    Column j of the matrix is column j of the counts divided by its sum; the
    input marginal is the column-sum fraction; the output marginal is the
    pushforward matrix @ input_dist.  Stored probability vectors are
    renormalized to sum exactly to one so downstream identities hold to
    machine precision.  All of it is computed on the entries of the counts.
    """
    N = counts.counts
    m, n = N.shape
    if N.nnz == 0 or not np.diff(N.indptr).all() or not np.bincount(N.indices, minlength=m).all():
        raise ValueError("counts must be pruned: zero row or column sum found")
    cols = counts.support[1]
    col_sums = counts.column_totals
    p = col_sums / counts.total
    p /= p.sum()
    values = N.data / col_sums[cols]
    # Each column adds its entries in row order, as a dense column sum does.
    values /= np.bincount(cols, values, n)[cols]
    matrix = CscMatrix(N.indptr, N.indices, values, N.shape)
    q = _push(matrix, cols, p)
    q /= q.sum()
    return TransitionModel(matrix=matrix, input_dist=p, output_dist=q)
