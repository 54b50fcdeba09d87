"""Coherent-set identification by truncated SVD of the rescaled transition matrix.

The pipeline computes only the leading singular triplets of the rescaled
matrix (ARPACK on its nonzeros), truncates to the leading ``rank`` of them,
clusters input categories on rows of the right singular vectors and output
categories on rows of the left singular vectors, then matches the two
clusterings by maximum total transition probability.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, svds

from .model import CountMatrix, Partition, TransitionModel
from .seeding import mix_seed, rng_for

logger = logging.getLogger(__name__)

# Singular values below this multiple of max(m, n) * sigma_1 count as zero.
RANK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SvdFactorization:
    """Leading singular triplets, restricted to values above the rank cutoff.

    ``path`` names the solver that ran, "arpack" or "lapack"; ``values_cut``
    counts the computed values at or below the rank cutoff, which were dropped.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    path: str
    values_cut: int

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)


@dataclass(frozen=True)
class ClassicalResult:
    factorization: SvdFactorization
    input_partition: Partition
    output_partition: Partition
    coherence: float


def spectrum_depth(rank: int, size: int) -> int:
    """Leading singular values a report lists: max(rank, 3), at most ``size``."""
    return min(max(rank, 3), size)


def full_svd(matrix, k: int | None = None) -> SvdFactorization:
    """The ``k`` leading singular triplets of ``matrix`` (all when ``k`` is None).

    ``matrix`` is a dense array or a scipy sparse matrix; a dense one is
    converted to CSC, so only the nonzeros are read. Triplets with singular
    values at or below the rank cutoff are dropped. For ``k < min(m, n)``
    ARPACK runs on the nonzeros from a fixed start vector, so repeated calls
    return identical arrays. LAPACK computes the thin SVD of the densified
    matrix when ``k >= min(m, n)``, so the dense array has at most k rows or
    columns, and when the matrix is zero.
    """
    matrix = sparse.csc_array(matrix, dtype=np.float64)
    if min(matrix.shape) == 0:
        raise ValueError("matrix must be a nonempty 2-d array")
    if not np.isfinite(matrix.data).all():
        raise ValueError("matrix must have finite entries")
    size = min(matrix.shape)
    k = size if k is None else k
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    # ARPACK cannot start on a zero matrix.
    path = "arpack" if k < size and matrix.data.any() else "lapack"
    try:
        if path == "arpack":
            # A seeded generic vector: a structured one such as all ones is
            # orthogonal to singular vectors of symmetric block examples.
            start = np.random.default_rng(0).standard_normal(size)
            left, sigma, right_t = svds(matrix, k=k, tol=0, v0=start)
            left, sigma, right_t = left[:, ::-1], sigma[::-1], right_t[::-1]
        else:
            left, sigma, right_t = np.linalg.svd(matrix.toarray(), full_matrices=False)
    except (np.linalg.LinAlgError, ArpackError) as exc:
        raise np.linalg.LinAlgError(f"SVD failed to converge: {exc}") from exc
    cutoff = RANK_TOLERANCE * max(matrix.shape) * (sigma[0] if sigma.size else 0.0)
    keep = sigma > cutoff
    return SvdFactorization(
        left=left[:, keep],
        singular_values=sigma[keep],
        right=right_t[keep].T,
        path=path,
        values_cut=int(sigma.size - keep.sum()),
    )


def _truncated_factors(
    factorization: SvdFactorization,
    rank: int,
    input_dist: np.ndarray,
    output_dist: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(m x rank, n x rank) factors whose product A @ B.T is the rank-``rank``
    truncation in transition-matrix coordinates: the sqrt(q) and 1/sqrt(p)
    rescalings are folded into the left and right singular vectors."""
    if not 1 <= rank <= factorization.rank:
        raise ValueError(f"rank must lie in [1, {factorization.rank}], got {rank}")
    left = factorization.left[:, :rank] * (
        factorization.singular_values[:rank] * np.sqrt(output_dist)[:, np.newaxis]
    )
    right = factorization.right[:, :rank] / np.sqrt(input_dist)[:, np.newaxis]
    return left, right


def truncate(
    factorization: SvdFactorization,
    rank: int,
    input_dist: np.ndarray,
    output_dist: np.ndarray,
) -> np.ndarray:
    """Rank-``rank`` truncation in transition-matrix coordinates, as a dense
    m x n array; only images need it whole.

    The truncated rescaled matrix is taken back through the diagonal
    rescaling that built it from the transition matrix,
    D_out^{1/2} @ truncated @ D_in^{-1/2}. Its columns sum to one when the
    leading singular value is simple; it may contain negative entries.
    """
    left, right = _truncated_factors(factorization, rank, input_dist, output_dist)
    return left @ right.T


# ``reduced_min_entry`` forms the truncation this many entries at a time.
ROW_BLOCK_ENTRIES = 2**16


def reduced_min_entry(
    factorization: SvdFactorization,
    rank: int,
    input_dist: np.ndarray,
    output_dist: np.ndarray,
) -> float:
    """Smallest entry of ``truncate``'s matrix, formed in blocks of rows so
    that no m x n array is built."""
    left, right = _truncated_factors(factorization, rank, input_dist, output_dist)
    step = max(1, ROW_BLOCK_ENTRIES // right.shape[0])
    return float(min(
        (left[start:start + step] @ right.T).min() for start in range(0, left.shape[0], step)
    ))


def degree_of_coherence(matrix: np.ndarray, rank: int) -> float:
    """Sum of the ``rank`` leading singular values of ``matrix``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-d")
    if not 1 <= rank <= min(matrix.shape):
        raise ValueError(f"rank must lie in [1, {min(matrix.shape)}], got {rank}")
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return float(sigma[:rank].sum())


def _plus_plus_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    dist_sq = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = dist_sq.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=dist_sq / total))
        else:
            idx = int(rng.integers(n))
        centers[c] = points[idx]
        np.minimum(dist_sq, np.sum((points - centers[c]) ** 2, axis=1), out=dist_sq)
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, int]:
    """Nearest-center labels with empty clusters repaired; returns (labels, repairs)."""
    dist_sq = (
        np.sum(points**2, axis=1)[:, np.newaxis]
        - 2.0 * points @ centers.T
        + np.sum(centers**2, axis=1)[np.newaxis, :]
    )
    labels = np.argmin(dist_sq, axis=1)
    k = centers.shape[0]
    sizes = np.bincount(labels, minlength=k)
    empties = np.nonzero(sizes == 0)[0]
    if empties.size == 0:
        return labels, 0
    # Hand the farthest points to empty clusters, never draining a cluster
    # below one member. Stable sort keeps ties deterministic.
    own = dist_sq[np.arange(points.shape[0]), labels]
    order = np.argsort(-own, kind="stable")
    cursor = 0
    for empty in empties:
        while sizes[labels[order[cursor]]] <= 1:
            cursor += 1
        pick = order[cursor]
        cursor += 1
        sizes[labels[pick]] -= 1
        labels[pick] = empty
        sizes[empty] = 1
    return labels, int(empties.size)


def _lloyd(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int
) -> tuple[np.ndarray, np.ndarray, list[float], int]:
    centers = _plus_plus_centers(points, k, rng)
    labels = None
    objectives: list[float] = []
    repairs = 0
    for _ in range(max_iters):
        new_labels, repaired = _assign(points, centers)
        repairs += repaired
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
        gaps = points - centers[labels]
        objectives.append(float(np.sum(gaps * gaps)))
    return labels, centers, objectives, repairs


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    restarts: int = 10,
    max_iters: int = 100,
    seed: int = 0,
) -> Partition:
    """Lloyd iterations with plus-plus seeding over ``restarts`` deterministic restarts.

    The best restart is chosen by final within-cluster squared distance;
    ties keep the lowest restart index. All returned clusters are nonempty.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, np.newaxis]
    if points.ndim != 2 or points.size == 0:
        raise ValueError("points must be a nonempty 1-d or 2-d array")
    if not np.isfinite(points).all():
        raise ValueError("points must have finite entries")
    n = points.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must lie in [1, {n}], got {n_clusters}")
    if restarts < 1 or max_iters < 1:
        raise ValueError("restarts and max_iters must be positive")
    best_labels = None
    best_objective = np.inf
    total_repairs = 0
    for restart in range(restarts):
        labels, _, objectives, repairs = _lloyd(
            points, n_clusters, rng_for(seed, restart), max_iters
        )
        total_repairs += repairs
        if objectives[-1] < best_objective:
            best_objective = objectives[-1]
            best_labels = labels
    if total_repairs:
        logger.debug("kmeans repaired %d empty clusters across restarts", total_repairs)
    return Partition(labels=best_labels + 1, n_clusters=n_clusters)


def _coherence_scores(
    model: TransitionModel, input_partition: Partition, output_partition: Partition
) -> np.ndarray:
    """Matrix of transition probabilities between clusters.

    Entry (k, l) is the probability that the output lands in output cluster
    l+1 given that the input lies in input cluster k+1: the joint mass
    P_ij p_j of the entries from input cluster k+1 to output cluster l+1,
    over the input cluster's mass.
    """
    r = input_partition.n_clusters
    rows, cols = model.support
    in_labels0 = input_partition.labels - 1
    pair = in_labels0[cols] * r + (output_partition.labels - 1)[rows]
    joint = np.bincount(pair, model.matrix.data * model.input_dist[cols], r * r)
    input_mass = np.bincount(in_labels0, model.input_dist, r)
    return joint.reshape(r, r) / input_mass[:, np.newaxis]


def _best_assignment(scores: np.ndarray) -> tuple[np.ndarray, float]:
    """Column paired with each row of a square score matrix at maximum total
    score, and that total."""
    if not np.isfinite(scores).all():
        raise ValueError("coherence scores must be finite")
    cols = np.array(_min_cost_assignment((-scores).tolist()), dtype=np.int64)
    return cols, float(scores[np.arange(cols.size), cols].sum())


def _min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """Minimum-cost assignment of a square cost matrix by shortest augmenting
    paths (Crouse, IEEE TAES 2016), the algorithm of scipy's
    ``linear_sum_assignment``, with its order of operations, so that ties
    resolve the same way. Returns the column of each row.
    """
    size = len(cost)
    u, v = [0.0] * size, [0.0] * size
    col4row, row4col, path = [-1] * size, [-1] * size, [-1] * size
    for current in range(size):
        # Dijkstra from row ``current`` over reduced costs to a free column.
        shortest = [math.inf] * size
        seen_rows, seen_cols = [False] * size, [False] * size
        # Scanning columns from the last makes a constant matrix's solution
        # the identity.
        remaining = list(range(size - 1, -1, -1))
        row, sink, min_val = current, -1, 0.0
        while sink == -1:
            seen_rows[row] = True
            index, lowest = -1, math.inf
            for position, col in enumerate(remaining):
                reduced = min_val + cost[row][col] - u[row] - v[col]
                if reduced < shortest[col]:
                    path[col], shortest[col] = row, reduced
                # Among equal costs, prefer a free column: it ends the path.
                if shortest[col] < lowest or (shortest[col] == lowest and row4col[col] == -1):
                    index, lowest = position, shortest[col]
            min_val = lowest
            col = remaining[index]
            if row4col[col] == -1:
                sink = col
            else:
                row = row4col[col]
            seen_cols[col] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[current] += min_val
        for row in range(size):
            if seen_rows[row] and row != current:
                u[row] += min_val - shortest[col4row[row]]
        for col in range(size):
            if seen_cols[col]:
                v[col] -= min_val - shortest[col]
        # Augment along the path back to ``current``.
        col = sink
        while True:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == current:
                break
    return col4row


def match_partitions(
    model: TransitionModel, input_partition: Partition, output_partition: Partition
) -> tuple[Partition, float]:
    """Relabel output clusters to best correspond with input clusters.

    Returns the relabeled output partition and the matched objective: the sum
    over input clusters of the probability of landing in the paired output
    cluster. Output clusters may be empty; their scores are zero.
    """
    m, n = model.shape
    if input_partition.size != n:
        raise ValueError(f"input partition covers {input_partition.size} of {n} categories")
    if output_partition.size != m:
        raise ValueError(f"output partition covers {output_partition.size} of {m} categories")
    if input_partition.n_clusters != output_partition.n_clusters:
        raise ValueError("partitions must have the same number of clusters")
    scores = _coherence_scores(model, input_partition, output_partition)
    assignment, objective = _best_assignment(scores)
    relabel = np.empty(input_partition.n_clusters, dtype=np.int64)
    relabel[assignment] = np.arange(1, input_partition.n_clusters + 1)
    matched = Partition(
        labels=relabel[output_partition.labels - 1],
        n_clusters=output_partition.n_clusters,
    )
    return matched, objective


def classical_pipeline(
    counts: CountMatrix,
    rank: int,
    seed: int = 0,
    restarts: int = 10,
) -> ClassicalResult:
    """Estimate, factorize, cluster both category sets, and match.

    The factorization holds the ``spectrum_depth`` leading triplets, enough
    for the reported spectrum; ``rank`` must not exceed the triplets kept.
    """
    model = counts.model
    factorization = full_svd(model.rescaled, spectrum_depth(rank, min(model.shape)))
    if not 1 <= rank <= factorization.rank:
        raise ValueError(f"rank must lie in [1, {factorization.rank}], got {rank}")
    input_partition = kmeans(
        factorization.right[:, :rank], rank, restarts=restarts, seed=mix_seed(seed, 1)
    )
    raw_output = kmeans(
        factorization.left[:, :rank], rank, restarts=restarts, seed=mix_seed(seed, 2)
    )
    output_partition, coherence = match_partitions(model, input_partition, raw_output)
    return ClassicalResult(
        factorization=factorization,
        input_partition=input_partition,
        output_partition=output_partition,
        coherence=coherence,
    )
