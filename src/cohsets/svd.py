"""Coherent-set identification by truncated SVD of the rescaled transition matrix.

The pipeline computes only the leading singular triplets of the rescaled
matrix (LAPACK on the paper's small matrices, ARPACK on the nonzeros of
larger ones), truncates to the leading ``rank`` of them,
clusters input categories on rows of the right singular vectors and output
categories on rows of the left singular vectors, then matches the two
clusterings by maximum total transition probability.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dbmr import BATCH_ENTRIES, spectrum_depth
from .model import CountMatrix, Partition, TransitionModel, as_csc, scipy_sparse
from .seeding import mix_seed, rng_for

logger = logging.getLogger(__name__)

# Singular values below this multiple of max(m, n) * sigma_1 count as zero.
RANK_TOLERANCE = 1e-12

# LAPACK factorizes a matrix of at most this many entries whole (up to
# 128 x 128); ARPACK computes the leading triplets of a larger one on its
# nonzeros. For three triplets on one BLAS thread of a 2-vCPU x86-64
# machine, LAPACK takes 0.7-2.1 ms on the paper's 90- and 100-category
# examples against ARPACK's 1.2-2.7 ms. ARPACK wins from about 128-160
# categories on block-structured counts with a clear gap after the third
# value (1.3 against 2.4 ms at 128 x 128, 1.9 against 6.4 ms at 200 x 200),
# and by 5 against 16 ms on a 300 x 300 block matrix; LAPACK stays ahead up
# to about 400 x 400 on full counts without structure, where ARPACK needs
# many restarts.
LAPACK_MAX_ENTRIES = 2**14


@dataclass(frozen=True)
class SvdFactorization:
    """Leading singular triplets, restricted to values above the rank cutoff.

    ``path`` names the solver that ran, "arpack" or "lapack"; "lapack" also
    names the rank-0 factorization of an all-zero matrix, where no solver
    runs. ``values_cut`` counts the computed values at or below the rank
    cutoff, which were dropped.
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
    """``kmeans_repairs`` sums the empty clusters k-means repaired over the
    restarts of both sides."""

    factorization: SvdFactorization
    input_partition: Partition
    output_partition: Partition
    coherence: float
    kmeans_repairs: int


def full_svd(matrix, k: int | None = None) -> SvdFactorization:
    """The ``k`` leading singular triplets of ``matrix`` (all when ``k`` is None).

    ``matrix`` is a dense array or a CSC matrix (see ``model.as_csc``); it
    is converted to a ``CscMatrix``, so only the nonzeros are read. Of the
    ``k`` leading values, those at or below the rank cutoff are dropped with
    their vectors. LAPACK computes the thin SVD of the densified matrix when
    it has at most ``LAPACK_MAX_ENTRIES`` entries or when ``k >= min(m, n)``
    (so the dense array has at most k rows or columns); otherwise ARPACK
    runs on the nonzeros from a fixed start vector, so repeated calls return
    identical arrays. A zero matrix, on which ARPACK cannot start, has rank
    0: it returns LAPACK's empty factorization without densifying.
    """
    matrix = as_csc(matrix, np.float64)
    m, n = matrix.shape
    size = min(m, n)
    if size == 0:
        raise ValueError("matrix must be a nonempty 2-d array")
    if not np.isfinite(matrix.data).all():
        raise ValueError("matrix must have finite entries")
    k = size if k is None else k
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not matrix.data.any():
        return SvdFactorization(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)), "lapack",
                                values_cut=min(k, size))
    arpack = k < size and m * n > LAPACK_MAX_ENTRIES
    try:
        if arpack:
            left, sigma, right_t = _arpack_triplets(matrix, k)
        else:
            left, sigma, right_t = np.linalg.svd(matrix.toarray(), full_matrices=False)
            left, sigma, right_t = left[:, :k], sigma[:k], right_t[:k]
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD failed to converge: {exc}") from exc
    cutoff = RANK_TOLERANCE * max(m, n) * (sigma[0] if sigma.size else 0.0)
    keep = sigma > cutoff
    return SvdFactorization(
        left=left[:, keep],
        singular_values=sigma[keep],
        right=right_t[keep].T,
        path="arpack" if arpack else "lapack",
        values_cut=int(sigma.size - keep.sum()),
    )


def _arpack_triplets(matrix, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ARPACK's ``k`` leading triplets of a nonzero ``CscMatrix``, largest
    first, as (left, values, right transposed)."""
    linalg = scipy_sparse().linalg
    # A seeded generic vector: a structured one such as all ones is
    # orthogonal to singular vectors of symmetric block examples.
    start = np.random.default_rng(0).standard_normal(min(matrix.shape))
    try:
        left, sigma, right_t = linalg.svds(matrix.to_scipy(), k=k, tol=0, v0=start)
    except linalg.ArpackError as exc:
        raise np.linalg.LinAlgError(str(exc)) from exc
    return left[:, ::-1], sigma[::-1], right_t[::-1]


def truncated_factors(
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


# Products of factors, and images, are formed this many entries at a time.
ROW_BLOCK_ENTRIES = 2**16


def product_blocks(left: np.ndarray, right: np.ndarray):
    """``left @ right.T`` in blocks of rows, never whole."""
    step = max(1, ROW_BLOCK_ENTRIES // right.shape[0])
    return (left[start:start + step] @ right.T for start in range(0, left.shape[0], step))


def reduced_min_entry(
    factorization: SvdFactorization,
    rank: int,
    input_dist: np.ndarray,
    output_dist: np.ndarray,
) -> float:
    """Smallest entry of the truncation of ``truncated_factors``."""
    blocks = product_blocks(*truncated_factors(factorization, rank, input_dist, output_dist))
    return float(min(block.min() for block in blocks))


def _plus_plus_centers(points: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Plus-plus centers (restarts, k, d), restart i's from row i of the
    (restarts, k) ``uniforms``.

    Center c of a restart is the number of entries of the normalized cdf of
    its weights that are <= its u_c, as ``rng.choice(n, p=weights / total)``
    picks from its uniform. The weights are the squared distances to the
    restart's centers so far, or ones where those are all zero: before the
    first center, and when every point coincides with a center.
    """
    runs, k = uniforms.shape
    picks = np.empty((runs, k), dtype=np.int64)
    dist_sq = np.zeros((runs, points.shape[0]))
    for c in range(k):
        weights = np.where(dist_sq.any(axis=1, keepdims=True), dist_sq, 1.0)
        cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        picks[:, c] = (cdf <= uniforms[:, c:c + 1]).sum(axis=1)
        new = np.sum((points - points[picks[:, c:c + 1]]) ** 2, axis=2)
        dist_sq = np.minimum(dist_sq, new) if c else new
    return points[picks]


def _repair_empty(labels: np.ndarray, sizes: np.ndarray, dist_sq: np.ndarray) -> int:
    """Hand the farthest points to each restart's empty clusters, in place,
    never draining a cluster below one member; returns the clusters repaired.

    ``dist_sq`` is (restarts, n, k). A stable sort keeps ties deterministic.
    """
    repaired = 0
    for row in np.flatnonzero((sizes == 0).any(axis=1)):
        row_labels, row_sizes = labels[row], sizes[row]
        empties = np.flatnonzero(row_sizes == 0)
        own = dist_sq[row, np.arange(row_labels.size), row_labels]
        order = np.argsort(-own, kind="stable")
        cursor = 0
        for empty in empties:
            while row_sizes[row_labels[order[cursor]]] <= 1:
                cursor += 1
            pick = order[cursor]
            cursor += 1
            row_sizes[row_labels[pick]] -= 1
            row_labels[pick] = empty
            row_sizes[empty] = 1
        repaired += int(empties.size)
    return repaired


def _cluster_keys(labels: np.ndarray, k: int) -> np.ndarray:
    """Flat bin of each point's cluster, restart by restart, for 0-based
    labels (restarts, n)."""
    return (labels + k * np.arange(labels.shape[0])[:, np.newaxis]).ravel()


def _cluster_means(columns: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each nonempty cluster's points, (restarts, k, d).

    ``columns`` (d, at least restarts n) holds the points' coordinates,
    repeated once per restart. The points of a cluster are added in row
    order.
    """
    runs, k = sizes.shape
    keys = _cluster_keys(labels, k)
    sums = np.stack([np.bincount(keys, column[:keys.size], runs * k) for column in columns], 1)
    return (sums / sizes.reshape(-1, 1)).reshape(runs, k, -1)


def _lloyd(points: np.ndarray, uniforms: np.ndarray,
           max_iters: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Lloyd iterations from plus-plus centers, one restart per row of the
    (restarts, k) ``uniforms``, all restarts advancing together.

    Returns each restart's final 0-based labels (restarts, n) and
    within-cluster squared distance, and the empty clusters repaired over
    all restarts. A restart stops when its labels repeat or after
    ``max_iters`` assignments. Its arithmetic is that of the restart run
    alone: its distances come from its own BLAS call inside one batched
    ``matmul``, and its objective is summed over its own contiguous row.
    """
    runs, k = uniforms.shape
    centers = _plus_plus_centers(points, uniforms)
    norms = np.sum(points**2, axis=1)[:, np.newaxis]
    doubled = 2.0 * points
    columns = np.tile(points.T, runs)
    final_labels = np.empty((runs, points.shape[0]), dtype=np.int64)
    final_objective = np.empty(runs)
    live = np.arange(runs)  # restarts still iterating
    labels = objective = None
    repairs = 0
    for _ in range(max_iters):
        dist_sq = (
            norms
            - doubled @ centers.transpose(0, 2, 1)
            + np.sum(centers**2, axis=2)[:, np.newaxis, :]
        )
        new_labels = np.argmin(dist_sq, axis=2)
        sizes = np.bincount(_cluster_keys(new_labels, k), minlength=live.size * k).reshape(-1, k)
        repairs += _repair_empty(new_labels, sizes, dist_sq)
        if labels is not None:
            repeated = (new_labels == labels).all(axis=1)
            final_labels[live[repeated]] = labels[repeated]
            final_objective[live[repeated]] = objective[repeated]
            going = ~repeated
            live, new_labels, sizes = live[going], new_labels[going], sizes[going]
            if not live.size:
                break
        labels = new_labels
        centers = _cluster_means(columns, labels, sizes)
        gaps = points - centers[np.arange(live.size)[:, np.newaxis], labels]
        objective = (gaps * gaps).reshape(live.size, -1).sum(axis=1)
    else:
        final_labels[live], final_objective[live] = labels, objective
    return final_labels, final_objective, repairs


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    restarts: int = 10,
    max_iters: int = 100,
    seed: int = 0,
) -> tuple[Partition, int]:
    """Lloyd iterations with plus-plus seeding over ``restarts`` deterministic restarts.

    Restart i seeds its centers from row i of one ``rng_for(seed, 0)`` draw
    of (restarts, k) uniforms; a chunk draws the next rows, and a double
    takes one output of the generator, so the rows do not depend on the
    chunking. The best restart is chosen by final within-cluster squared
    distance; ties keep the lowest restart index. All returned clusters are
    nonempty. Returns the partition and the empty clusters repaired, summed
    over restarts. Restarts iterate together in chunks of max(1,
    ``BATCH_ENTRIES`` // (n max(k, d))).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, np.newaxis]
    if points.ndim != 2 or points.size == 0:
        raise ValueError("points must be a nonempty 1-d or 2-d array")
    if not np.isfinite(points).all():
        raise ValueError("points must have finite entries")
    n, d = points.shape
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must lie in [1, {n}], got {n_clusters}")
    if restarts < 1 or max_iters < 1:
        raise ValueError("restarts and max_iters must be positive")
    chunk = max(1, BATCH_ENTRIES // (n * max(n_clusters, d)))
    rng = rng_for(seed, 0)
    best_labels, best_objective, repairs = None, np.inf, 0
    for start in range(0, restarts, chunk):
        uniforms = rng.random((min(chunk, restarts - start), n_clusters))
        labels, objectives, repaired = _lloyd(points, uniforms, max_iters)
        repairs += repaired
        best = int(np.argmin(objectives))
        if objectives[best] < best_objective:
            best_labels, best_objective = labels[best], objectives[best]
    if repairs:
        logger.debug("kmeans repaired %d empty clusters across restarts", repairs)
    return Partition(labels=best_labels + 1, n_clusters=n_clusters), repairs


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


def classical_pipeline(counts: CountMatrix, rank: int, seed: int = 0) -> ClassicalResult:
    """Estimate, factorize, cluster both category sets, and match.

    The factorization holds the ``spectrum_depth`` leading triplets, enough
    for the reported spectrum; ``rank`` must not exceed the triplets kept.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    model = counts.model
    factorization = full_svd(model.rescaled, spectrum_depth(rank, min(model.shape)))
    if rank > factorization.rank:
        raise ValueError(f"rank must lie in [1, {factorization.rank}], got {rank}")
    input_partition, input_repairs = kmeans(factorization.right[:, :rank], rank,
                                            seed=mix_seed(seed, 1))
    raw_output, output_repairs = kmeans(factorization.left[:, :rank], rank,
                                        seed=mix_seed(seed, 2))
    output_partition, coherence = match_partitions(model, input_partition, raw_output)
    return ClassicalResult(
        factorization=factorization,
        input_partition=input_partition,
        output_partition=output_partition,
        coherence=coherence,
        kmeans_repairs=input_repairs + output_repairs,
    )
