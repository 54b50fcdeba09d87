"""Dense reference formulas the program no longer runs, kept as test oracles.

Each function computes its quantity entry by entry over the full m x n
matrix, the way the program did before it worked on the nonzeros of the
counts: explicit loops for the two DBMR kernels, dense m x n temporaries for
the bound chain and the Pythagoras pair, the n x n induced projection for
the factorization residuals. The DBMR ascent is also kept as it ran before its restarts
advanced together: one restart at a time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from cohsets.dbmr import (
    DbmrStep,
    DbmrTrace,
    ReducedModel,
    random_affiliation,
)
from cohsets.model import Partition, estimate, rescale
from cohsets.projection import FactorizationResiduals, build_projection
from cohsets.seeding import mix_seed


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
    P = model.matrix
    L = reduced.approx
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
    P = model.matrix
    L = reduced.approx
    support = P > 0.0
    if (L[support] <= 0.0).any():
        return float("inf")
    ratio = np.zeros_like(P)
    ratio[support] = P[support] * np.log(P[support] / L[support])
    return float(model.input_dist @ ratio.sum(axis=0))


def frob_gap_sq_dense(model, reduced):
    gap = model.rescaled - rescale(reduced.approx, model.input_dist, model.output_dist)
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


def latent_scores_reference(counts, factor):
    if sparse.issparse(counts):
        with np.errstate(divide="ignore"):
            log_factor = np.log(factor)
        return (counts.T @ log_factor).T
    safe_log = np.log(np.where(factor > 0.0, factor, 1.0))
    scores = safe_log.T @ counts
    invalid = (factor <= 0.0).T.astype(np.float64) @ (counts > 0.0)
    scores[invalid > 0.0] = -np.inf
    return scores


def group_sums_reference(counts, labels0, r):
    n = counts.shape[1]
    onehot = np.zeros((n, r))
    onehot[np.arange(n), labels0] = 1.0
    return counts @ onehot


def _grouped_log_likelihood(grouped, factor):
    observed = grouped > 0.0
    values = factor[observed]
    if (values <= 0.0).any():
        return float("-inf")
    return float(np.sum(grouped[observed] * np.log(values)))


def _factor_and_objective(operand, labels0, n_latent):
    grouped = group_sums_reference(operand, labels0, n_latent)
    totals = grouped.sum(axis=0)
    m = operand.shape[0]
    factor = np.full((m, n_latent), 1.0 / m)
    active = totals > 0.0
    factor[:, active] = grouped[:, active] / totals[active]
    return factor, _grouped_log_likelihood(grouped, factor), grouped


def best_labels_reference(operand, factor):
    scores = latent_scores_reference(operand, factor)
    labels0 = np.argmax(scores, axis=0)
    sunk = int(np.isneginf(scores).all(axis=0).sum())
    return labels0, sunk


def _gap_terms(grouped, factor, q, total, full_norm_sq):
    weights = 1.0 / (total * q)[:, np.newaxis]
    approx_norm_sq = float(np.sum(factor * factor * grouped.sum(axis=0) * weights))
    return max(full_norm_sq - approx_norm_sq, 0.0), approx_norm_sq


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
    converged = False
    sunk_columns = 0
    for index in range(1, max_steps + 1):
        new_labels0, sunk = best_labels_reference(operand, factor)
        sunk_columns += sunk
        new_factor, new_objective, new_grouped = _factor_and_objective(
            operand, new_labels0, n_latent
        )
        if new_objective < objective:
            # Both updates are ascent steps; a strict drop can only be a
            # rounding artifact, so keep the previous iterate.
            converged = True
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
        factor=factor, affiliation=Partition(labels=labels0 + 1, n_clusters=n_latent)
    )
    return reduced, DbmrTrace(
        steps=tuple(steps), converged=converged, sunk_columns=sunk_columns
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
    for run in range(runs):
        init = random_affiliation(counts.shape[1], n_latent, mix_seed(seed, run))
        reduced, trace = dbmr_run_reference(
            counts, init, max_steps=max_steps, tol=tol, snapshots=snapshots
        )
        traces.append(trace)
        final = trace.steps[-1].objective
        if final > best_objective:
            best, best_index, best_objective = reduced, run, final
    return best, best_index, traces


def verify_factorization_reference(model, reduced):
    """Residuals of the exact factorization through the dense n x n projection."""
    projection = build_projection(model.input_dist, reduced.affiliation)
    factorization = float(
        np.abs(reduced.approx - model.matrix @ projection.matrix).max()
    )
    input_fixed = float(
        np.abs(projection.matrix @ model.input_dist - model.input_dist).max()
    )
    output_marginal = float(
        np.abs(reduced.approx @ model.input_dist - model.output_dist).max()
    )
    return FactorizationResiduals(
        factorization=factorization,
        input_fixed=input_fixed,
        output_marginal=output_marginal,
    )
