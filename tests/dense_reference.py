"""Dense reference formulas the program no longer runs, kept as test oracles.

Each function computes its quantity entry by entry over the full m x n
matrix, the way the program did before it worked on the nonzeros of the
counts: explicit loops for the two DBMR kernels, dense m x n temporaries for
the bound chain and the Pythagoras pair, the n x n induced projection for
the factorization residuals. The DBMR ascent is also kept as it ran before its restarts
advanced together: one restart at a time. Three pieces of the stacked ascent
step are kept as they ran before the step stopped reducing its stacks per
run or along their middle axis: the maximum-likelihood factors from the
grouped columns' sums, the objectives by one reduction per run, and the
label pick by ``np.argmax``.

The text readers and writers are kept as they ran before ``cohsets.dataio``
parsed bodies from the path and formatted rows in numpy blocks: the pairs
reader runs ``np.loadtxt`` on the open text handle, and the count and label
writers format one line per entry.

The estimate, the likelihood and norm of the full model, the cluster
scores of the partition matching and the truncation are kept as they ran
before the counts and P were stored as their nonzeros: on dense m x n
arrays. ``dense`` gives the m x n array of counts or of a stored matrix.
The truncation and the reduced approximation are also kept as the m x n
arrays the program built whole before it drew its images in blocks of
rows, and so is the image renderer, as the byte reference of the drawn PPMs.

k-means is kept as it ran before its restarts iterated together: one
restart at a time from its own row of uniforms, one boolean-mask mean per
cluster whose points are added in row order.

The paper's lemmas that no command runs are checked through short copies
without input validation: the balancedness constants and Pinsker-type bounds
of one column, the KL divergence, the n x n induced projection and the
singular-value pairs of a projected matrix. The reduced spectrum is kept as
it was computed for one reduction at a time, from its factor and the input
mass of each latent state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy import sparse

from cohsets._accel import group_sums
from cohsets.dataio import _PAIRS_PREAMBLE
from cohsets.dbmr import ReducedModel
from cohsets.model import CountMatrix, PairDataset, Partition, estimate
from cohsets.report import _PALETTE
from cohsets.seeding import rng_for
from cohsets.svd import truncated_factors


def dense(matrix) -> np.ndarray:
    """The m x n array of a ``CountMatrix``'s counts, or of a dense or CSC
    matrix (``CscMatrix`` or scipy's)."""
    if isinstance(matrix, CountMatrix):
        matrix = matrix.counts
    return matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix)


def rescale_dense(matrix, input_dist, output_dist):
    """D_out^{-1/2} @ matrix @ D_in^{1/2} of a dense m x n array."""
    return matrix * (np.sqrt(input_dist)[np.newaxis, :] / np.sqrt(output_dist)[:, np.newaxis])


def random_partition(n_inputs, n_latent, seed):
    """Uniform random labels from ``np.random.default_rng(seed)``."""
    labels = np.random.default_rng(seed).integers(1, n_latent + 1, size=n_inputs)
    return Partition(labels=labels, n_clusters=n_latent)


def estimate_dense(counts):
    """(P, p, q) of ``model.estimate``, from the dense counts."""
    N = dense(counts)
    col_sums = N.sum(axis=0)
    if (col_sums <= 0).any() or (N.sum(axis=1) <= 0).any():
        raise ValueError("counts must be pruned: zero row or column sum found")
    p = col_sums / counts.total
    p /= p.sum()
    P = N / col_sums[np.newaxis, :]
    P /= P.sum(axis=0, keepdims=True)
    q = P @ p
    q /= q.sum()
    return P, p, q


def log_likelihood_dense(counts, P):
    """Sum of N log P over the positive counts; -inf where P is zero there."""
    N = dense(counts)
    observed = N > 0
    if (P[observed] <= 0.0).any():
        return float("-inf")
    return float(np.sum(N[observed] * np.log(P[observed])))


def rescaled_norm_sq_dense(P, p, q):
    rescaled = rescale_dense(P, p, q)
    return float(np.sum(rescaled * rescaled))


def coherence_scores_dense(P, p, input_partition, output_partition):
    """Cluster-to-cluster transition probabilities from one-hot products."""
    m, n = P.shape
    r = input_partition.n_clusters
    joint = P * p[np.newaxis, :]
    in_onehot = np.zeros((n, r))
    in_onehot[np.arange(n), input_partition.labels - 1] = 1.0
    out_onehot = np.zeros((m, r))
    out_onehot[np.arange(m), output_partition.labels - 1] = 1.0
    cluster_joint = out_onehot.T @ joint @ in_onehot
    input_mass = p @ in_onehot
    return (cluster_joint / input_mass[np.newaxis, :]).T


def truncate_dense(factorization, rank, input_dist, output_dist):
    """The rank-``rank`` rescaled truncation, then the inverse rescaling."""
    if not 1 <= rank <= factorization.rank:
        raise ValueError(f"rank must lie in [1, {factorization.rank}], got {rank}")
    scaled_left = factorization.left[:, :rank] * factorization.singular_values[:rank]
    reduced = scaled_left @ factorization.right[:, :rank].T
    reduced *= np.sqrt(output_dist)[:, np.newaxis] / np.sqrt(input_dist)[np.newaxis, :]
    return reduced


def truncate_reference(factorization, rank, input_dist, output_dist):
    """The m x n truncation as the program once formed it whole: the product
    of ``svd.truncated_factors``. ``truncate_dense`` rescales after the
    product, so it rounds differently."""
    left, right = truncated_factors(factorization, rank, input_dist, output_dist)
    return left @ right.T


def approx_dense(reduced):
    """The m x n approximate transition matrix of a reduction: column j is
    the factor column of j's label."""
    return reduced.factor[:, reduced.affiliation.labels - 1]


def render_matrix_image_reference(matrix, path, input_partition=None, output_partition=None):
    """``report.render_matrix_image`` as it drew the whole m x n matrix at
    once, from a dense array or a CSC matrix."""
    if len(matrix.shape) != 2 or 0 in matrix.shape:
        raise ValueError("matrix must be a nonempty 2-d array")
    if not isinstance(matrix, np.ndarray):
        matrix = matrix.toarray()
    matrix = matrix.astype(np.float64, copy=False)
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must have finite entries")
    m, n = matrix.shape
    scale = float(np.abs(matrix).max())
    if scale == 0.0:
        scale = 1.0
    shade = (255.0 * (1.0 - np.clip(np.abs(matrix) / scale, 0.0, 1.0))).astype(np.uint8)
    pixels = np.repeat(shade[:, :, np.newaxis], 3, axis=2)
    pixels[matrix < 0.0, 0] = 255
    canvas = np.full((m + 1, n + 1, 3), 255, dtype=np.uint8)
    canvas[:m, 1:] = pixels
    if output_partition is not None:
        canvas[:m, 0] = _PALETTE[(output_partition.labels - 1) % len(_PALETTE)]
    if input_partition is not None:
        canvas[m, 1:] = _PALETTE[(input_partition.labels - 1) % len(_PALETTE)]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{n + 1} {m + 1}\n255\n".encode("ascii"))
        fh.write(canvas.tobytes())


def latent_scores_loop(counts, factor):
    """s[k, j] = sum_i counts[i, j] log factor[i, k]; -inf on a zero factor entry."""
    m, n = counts.shape
    r = factor.shape[1]
    log_factor = np.empty((m, r))
    for i in range(m):
        for k in range(r):
            if factor[i, k] > 0.0:
                log_factor[i, k] = math.log(factor[i, k])
            else:
                log_factor[i, k] = -np.inf
    scores = np.empty((r, n))
    for j in range(n):
        for k in range(r):
            acc = 0.0
            for i in range(m):
                c = counts[i, j]
                if c > 0.0:
                    ll = log_factor[i, k]
                    if ll == -np.inf:
                        acc = -np.inf
                        break
                    acc += c * ll
            scores[k, j] = acc
    return scores


def group_sums_loop(counts, labels0, r):
    m, n = counts.shape
    out = np.zeros((m, r))
    for i in range(m):
        for j in range(n):
            c = counts[i, j]
            if c != 0.0:
                out[i, labels0[j]] += c
    return out


def bound_constants_dense(model, reduced):
    """(kappa_diff, kappa_col, deviations) from dense |P - L| temporaries."""
    P = dense(model.matrix)
    L = approx_dense(reduced)
    q = model.output_dist[:, np.newaxis]
    abs_diff = np.abs(P - L)
    zero_tol = 32.0 * np.finfo(np.float64).eps
    snapped = abs_diff.max(axis=0) <= zero_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        diff_terms = abs_diff.sum(axis=0) / (abs_diff / q).max(axis=0)
        ratio = np.divide(abs_diff, P, out=np.zeros_like(abs_diff), where=abs_diff != 0.0)
        deviations = ratio.max(axis=0) * (2.0 / 3.0)
    diff_terms[snapped] = 1.0
    deviations[snapped] = 0.0
    col_balance = P.sum(axis=0) / (P / q).max(axis=0)
    with np.errstate(invalid="ignore"):
        col_terms = col_balance * (1.0 - deviations)
    return 0.5 * float(diff_terms.min()), 0.5 * float(col_terms.min()), deviations


def zeros_max_dense(P, weighted, labels0):
    """Per column j, the largest weighted[i, labels0[j]] over the zeros of P[:, j]; 0 if none."""
    peaks = np.zeros(P.shape[1])
    for j in range(P.shape[1]):
        zeros = P[:, j] == 0.0
        if zeros.any():
            peaks[j] = weighted[zeros, labels0[j]].max()
    return peaks


def weighted_kl_sum_dense(model, reduced):
    P = dense(model.matrix)
    L = approx_dense(reduced)
    support = P > 0.0
    if (L[support] <= 0.0).any():
        return float("inf")
    ratio = np.zeros_like(P)
    ratio[support] = P[support] * np.log(P[support] / L[support])
    return float(model.input_dist @ ratio.sum(axis=0))


def frob_gap_sq_dense(model, reduced):
    gap = dense(model.rescaled) - rescale_dense(
        approx_dense(reduced), model.input_dist, model.output_dist)
    return float(np.sum(gap * gap))


def pythagoras_check_dense(rescaled_full, rescaled_reduced):
    """(squared gap, squared-norm difference) of two dense rescaled matrices."""
    full = np.asarray(rescaled_full, dtype=np.float64)
    red = np.asarray(rescaled_reduced, dtype=np.float64)
    if full.shape != red.shape:
        raise ValueError(f"shape mismatch: {full.shape} != {red.shape}")
    gap = full - red
    return float(np.sum(gap * gap)), float(np.sum(full * full) - np.sum(red * red))


# The DBMR ascent as the program ran it before restarts were batched: one
# restart at a time, with the score and group-sum kernels of that time.
# ``multi_start_reference`` runs the restarts of ``dbmr.multi_start`` one by
# one through ``dbmr_run_reference``.


def factor_log(factor):
    """log F, -inf on the zero entries."""
    with np.errstate(divide="ignore"):
        return np.log(factor)


def floored_log(factor):
    """log F floored at -1e300 on the zero entries: what the score kernel
    and the objectives take of an iterate's factor."""
    return np.maximum(factor_log(factor), -1e300)


def latent_scores_reference(counts, factor):
    """The score kernel as it took the factor rather than its log. On dense
    counts, for one factor or a (runs, m, r) stack, a clamped log makes one
    product and, where the factor has zeros, the zero mask a second one."""
    if sparse.issparse(counts):
        return (counts.T @ factor_log(factor)).T
    safe_log = np.log(np.where(factor > 0.0, factor, 1.0))
    scores = np.swapaxes(safe_log, -1, -2) @ counts
    zero = factor <= 0.0
    if zero.any():
        invalid = np.swapaxes(zero, -1, -2).astype(np.float64) @ (counts > 0.0)
        scores[invalid > 0.0] = -np.inf
    return scores


def group_sums_reference(counts, labels0, r):
    n = counts.shape[1]
    onehot = np.zeros((n, r))
    onehot[np.arange(n), labels0] = 1.0
    return counts @ onehot


def _grouped_log_likelihood(grouped, factor):
    """Sum of G log F over all m r entries in row-major order, log F floored
    at -1e300, so a zero G adds -0."""
    return float(np.add.reduce((grouped * floored_log(factor)).ravel()))


def _factor_and_objective(operand, labels0, n_latent):
    grouped = group_sums_reference(operand, labels0, n_latent)
    totals = grouped.sum(axis=0)
    m = operand.shape[0]
    factor = np.full((m, n_latent), 1.0 / m)
    active = totals > 0.0
    factor[:, active] = grouped[:, active] / totals[active]
    return factor, _grouped_log_likelihood(grouped, factor), grouped


def best_labels_reference(operand, factor):
    return np.argmax(latent_scores_reference(operand, factor), axis=0)


def ml_factors_stacked_reference(operand, labels0, n_latent):
    grouped = group_sums(operand, labels0, n_latent)
    totals = grouped.sum(axis=1, keepdims=True)
    factor = np.full(grouped.shape, 1.0 / grouped.shape[1])
    np.divide(grouped, totals, out=factor, where=totals > 0.0)
    return grouped, factor


def log_likelihoods_stacked_reference(grouped, factor):
    return np.array([_grouped_log_likelihood(g, f) for g, f in zip(grouped, factor)])


def pick_labels_stacked_reference(scores):
    return np.argmax(scores, axis=1)


def _gap_terms(grouped, factor, q, total, full_norm_sq):
    weights = 1.0 / (total * q)[:, np.newaxis]
    approx_norm_sq = float(np.sum(factor * factor * grouped.sum(axis=0) * weights))
    return max(full_norm_sq - approx_norm_sq, 0.0), approx_norm_sq


@dataclass(frozen=True)
class DbmrStep:
    """One iterate: objective scalars always, label/factor snapshots optional."""

    index: int
    objective: float
    frob_gap_sq: float
    approx_norm_sq: float
    labels: np.ndarray | None
    factor: np.ndarray | None


@dataclass(frozen=True)
class StepTrace:
    """A DBMR trace as the ascent kept it before it recorded arrays: one
    ``DbmrStep`` per iterate."""

    steps: tuple
    converged: bool
    dipped: bool

    @property
    def iterations(self):
        return len(self.steps) - 1


def dbmr_run_reference(counts, init, max_steps=500, tol=0.0, snapshots=True):
    if init.size != counts.shape[1]:
        raise ValueError(f"init covers {init.size} of {counts.shape[1]} inputs")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    n_latent = init.n_clusters
    model = estimate(counts)
    operand = counts.operand
    q = model.output_dist
    full_norm_sq = model.rescaled_norm_sq

    labels0 = init.labels - 1
    factor, objective, grouped = _factor_and_objective(operand, labels0, n_latent)
    gap_sq, approx_norm_sq = _gap_terms(grouped, factor, q, counts.total, full_norm_sq)
    steps = [
        DbmrStep(
            index=0,
            objective=objective,
            frob_gap_sq=gap_sq,
            approx_norm_sq=approx_norm_sq,
            labels=labels0 + 1 if snapshots else None,
            factor=factor if snapshots else None,
        )
    ]
    converged = dipped = False
    for index in range(1, max_steps + 1):
        new_labels0 = best_labels_reference(operand, factor)
        new_factor, new_objective, new_grouped = _factor_and_objective(
            operand, new_labels0, n_latent
        )
        if new_objective < objective:
            # Both updates are ascent steps; a strict drop can only be a
            # rounding artifact, so keep the previous iterate.
            converged = dipped = True
            break
        labels0, factor = new_labels0, new_factor
        gap_sq, approx_norm_sq = _gap_terms(new_grouped, factor, q, counts.total, full_norm_sq)
        stalled = new_objective - objective <= tol
        objective = new_objective
        steps.append(
            DbmrStep(
                index=index,
                objective=objective,
                frob_gap_sq=gap_sq,
                approx_norm_sq=approx_norm_sq,
                labels=labels0 + 1 if snapshots else None,
                factor=factor if snapshots else None,
            )
        )
        if stalled:
            converged = True
            break
    last = steps[-1]
    if last.labels is None:
        steps[-1] = DbmrStep(
            index=last.index,
            objective=last.objective,
            frob_gap_sq=last.frob_gap_sq,
            approx_norm_sq=last.approx_norm_sq,
            labels=labels0 + 1,
            factor=factor,
        )
    reduced = ReducedModel(
        counts=counts,
        factor=factor,
        affiliation=Partition(labels=labels0 + 1, n_clusters=n_latent),
    )
    return reduced, StepTrace(
        steps=tuple(steps), converged=converged, dipped=dipped
    )


def multi_start_reference(
    counts, n_latent, runs, max_steps=500, seed=0, tol=0.0, snapshots=False
):
    if runs < 1:
        raise ValueError("runs must be positive")
    best = None
    best_index = -1
    best_objective = float("-inf")
    traces = []
    inits = rng_for(seed, 0).integers(1, n_latent + 1, size=(runs, counts.shape[1]))
    for run in range(runs):
        init = Partition(labels=inits[run], n_clusters=n_latent)
        reduced, trace = dbmr_run_reference(
            counts, init, max_steps=max_steps, tol=tol, snapshots=snapshots
        )
        traces.append(trace)
        final = trace.steps[-1].objective
        if final > best_objective:
            best, best_index, best_objective = reduced, run, final
    return best, best_index, traces


def build_projection(input_dist, affiliation):
    """Column-stochastic projection averaging over affiliation classes,
    weighted by ``input_dist``, with its rescaled symmetric form.

    Entry (i, j) is input_dist[i] / (class mass of i) when i and j share a
    latent state and 0 otherwise. The rescaled form conjugates by the square
    root of ``input_dist`` and is symmetric idempotent. Eigenvectors with
    eigenvalue 1 are the input distribution restricted to each active class,
    listed in increasing label order.
    """
    p = np.asarray(input_dist, dtype=np.float64)
    labels0 = affiliation.labels - 1
    masses = np.bincount(labels0, weights=p, minlength=affiliation.n_clusters)
    same = labels0[:, np.newaxis] == labels0[np.newaxis, :]
    matrix = np.where(same, (p / masses[labels0])[:, np.newaxis], 0.0)
    root_p = np.sqrt(p)
    rescaled = matrix * (root_p[np.newaxis, :] / root_p[:, np.newaxis])
    eigenvectors = tuple(np.where(labels0 == k - 1, p, 0.0) for k in affiliation.active)
    return SimpleNamespace(matrix=matrix, rescaled=rescaled, active=affiliation.active,
                           eigenvectors=eigenvectors, rank=len(affiliation.active))


def singular_value_dominance(rescaled, projection_rescaled):
    """Pair each singular value of the projected matrix with the full one.

    Projecting cannot increase any singular value, so within each pair the
    first entry is at most the second.
    """
    sigma_projected = np.linalg.svd(rescaled @ projection_rescaled, compute_uv=False)
    sigma_full = np.linalg.svd(rescaled, compute_uv=False)
    return [(float(a), float(b)) for a, b in zip(sigma_projected, sigma_full)]


def reduced_singular_values_reference(reduced):
    """Singular values of one reduction's rescaled approximation from its
    (outputs x latent) core, padded with zeros or cut to min(m, n)."""
    model = reduced.model
    masses = np.bincount(reduced.affiliation.labels - 1, weights=model.input_dist,
                         minlength=reduced.n_latent)
    core = (
        reduced.factor
        * np.sqrt(masses)[np.newaxis, :]
        / np.sqrt(model.output_dist)[:, np.newaxis]
    )
    sigma = np.linalg.svd(core, compute_uv=False)
    size = min(model.shape)
    if sigma.size >= size:
        return sigma[:size]
    return np.concatenate([sigma, np.zeros(size - sigma.size)])


def kl(u, v):
    """sum_i u_i log(u_i / v_i) with 0 log 0 = 0; +inf when some u_i > 0 has v_i = 0."""
    support = u > 0.0
    if (v[support] <= 0.0).any():
        return float("inf")
    return float(np.sum(u[support] * np.log(u[support] / v[support])))


def balancedness(x):
    """1-norm over (length times max magnitude); 1.0 for the zero vector."""
    peak = np.abs(x).max()
    if peak == 0.0:
        return 1.0
    return float(np.abs(x).sum() / (x.size * peak))


def weighted_balancedness(x, weights):
    """1-norm over the largest weight-relative magnitude; 1.0 for zero."""
    peak = (np.abs(x) / weights).max()
    if peak == 0.0:
        return 1.0
    return float(np.abs(x).sum() / peak)


def deviation_coefficient(u, v):
    """Two thirds of the largest relative deviation of v from u.

    Zero-over-zero entries contribute 0; a positive deviation on a zero entry
    of u makes the coefficient infinite.
    """
    diff = np.abs(u - v)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(diff == 0.0, 0.0, diff / u)
    return float(ratio.max() * (2.0 / 3.0))


def pinsker_l2(u, v, weights):
    """Four KL-based upper bounds for squared distances between distributions.

    Returns ((a), (b), (c), (d)) as (value, applicable) pairs:
      (a) bounds the squared 2-norm via the difference balancedness,
      (b) bounds the weight-relative squared distance via the weighted kind,
      (c) and (d) replace the difference balancedness with the balancedness
          of u damped by (1 - deviation); they require deviation < 1.
    """
    divergence = kl(u, v)
    diff = u - v
    alpha = deviation_coefficient(u, v)
    bound_a = 2.0 * divergence / (u.size * balancedness(diff))
    bound_b = 2.0 * divergence / weighted_balancedness(diff, weights)
    applicable = bool(alpha < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound_c = 2.0 * divergence / (u.size * balancedness(u) * (1.0 - alpha))
        bound_d = 2.0 * divergence / (weighted_balancedness(u, weights) * (1.0 - alpha))
    return (
        (float(bound_a), True),
        (float(bound_b), True),
        (float(bound_c), applicable),
        (float(bound_d), applicable),
    )


def verify_factorization_reference(model, reduced):
    """Residuals of the exact factorization through the dense n x n projection."""
    projection = build_projection(model.input_dist, reduced.affiliation)
    factorization = float(
        np.abs(approx_dense(reduced) - dense(model.matrix) @ projection.matrix).max()
    )
    input_fixed = float(
        np.abs(projection.matrix @ model.input_dist - model.input_dist).max()
    )
    output_marginal = float(
        np.abs(approx_dense(reduced) @ model.input_dist - model.output_dist).max()
    )
    return {
        "factorization": factorization,
        "input_fixed": input_fixed,
        "output_marginal": output_marginal,
    }


def read_pairs_handle_reference(path):
    """``read_pairs`` with ``np.loadtxt`` on the open handle, after a
    ``tell``/``seek`` past the optional ``x,y`` line; a line of only
    whitespace and comment is read as blank, as the README grammar says, and
    a byte that is not UTF-8 is read as a character no field holds."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
        match = _PAIRS_PREAMBLE.match(first.strip())
        if match is None:
            raise ValueError(f"{path}: expected preamble '# n=<n> m=<m>', got {first.strip()!r}")
        n, m = int(match.group(1)), int(match.group(2))
        pos = fh.tell()
        second = fh.readline()
        if second.strip().lower() != "x,y":
            fh.seek(pos)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                body = (line if line.split("#", 1)[0].strip() else "\n" for line in fh)
                table = np.loadtxt(body, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed record line ({exc})") from exc
    if table.size == 0:
        raise ValueError(f"{path}: no records")
    if table.shape[1] != 2:
        raise ValueError(f"{path}: expected two comma-separated fields per record")
    return PairDataset(inputs=table[:, 0], outputs=table[:, 1], n_inputs=n, n_outputs=m)


def write_counts_lines_reference(path, counts):
    """One f-string line per positive entry, in ``np.nonzero`` order."""
    m, n = counts.shape
    N = dense(counts)
    rows, cols = np.nonzero(N)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n} {counts.total}\n")
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {N[i, j]}\n")


def write_labels_lines_reference(path, labels, n_labels):
    """One f-string line per label."""
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# r={n_labels}\n")
        for value in labels:
            fh.write(f"{value}\n")


def plus_plus_centers_reference(points, uniforms):
    """One restart's plus-plus centers from its row of k uniforms: center c
    is ``np.searchsorted(cdf, u_c, side="right")`` on the normalized cdf of
    the squared distances to the centers so far, or of unit weights where
    those are all zero."""
    k = uniforms.size
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    dist_sq = np.zeros(points.shape[0])
    for c in range(k):
        weights = dist_sq if dist_sq.any() else np.ones_like(dist_sq)
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        centers[c] = points[int(np.searchsorted(cdf, uniforms[c], side="right"))]
        gaps = np.sum((points - centers[c]) ** 2, axis=1)
        dist_sq = np.minimum(dist_sq, gaps) if c else gaps
    return centers


def assign_reference(points, centers):
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


def lloyd_reference(points, uniforms, max_iters):
    """(labels, centers, objective per iteration, repairs) of the restart
    seeded from the row of k ``uniforms``."""
    k = uniforms.size
    centers = plus_plus_centers_reference(points, uniforms)
    labels = None
    objectives = []
    repairs = 0
    for _ in range(max_iters):
        new_labels, repaired = assign_reference(points, centers)
        repairs += repaired
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            centers[c] = np.cumsum(members, axis=0)[-1] / members.shape[0]
        gaps = points - centers[labels]
        objectives.append(float(np.sum(gaps * gaps)))
    return labels, centers, objectives, repairs


def kmeans_reference(points, n_clusters, restarts=10, max_iters=100, seed=0):
    """(best 1-based labels, best objective, repairs over all restarts).
    Restart i seeds from row i of one ``rng_for(seed, 0)`` draw."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, np.newaxis]
    best_labels = None
    best_objective = np.inf
    total_repairs = 0
    for row in rng_for(seed, 0).random((restarts, n_clusters)):
        labels, _, objectives, repairs = lloyd_reference(points, row, max_iters)
        total_repairs += repairs
        if objectives[-1] < best_objective:
            best_objective = objectives[-1]
            best_labels = labels
    return best_labels + 1, best_objective, total_repairs
