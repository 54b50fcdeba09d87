"""Dense reference formulas the program no longer runs, kept as test oracles.

Each function computes its quantity entry by entry over the full m x n
matrix, the way the program did before it worked on the nonzeros of the
counts: explicit loops for the two DBMR kernels, dense m x n temporaries for
the bound chain.
"""

from __future__ import annotations

import math

import numpy as np

from cohsets.model import rescale


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
