"""The projection identities of stacked reductions, without building Pi.

An affiliation of input categories induces a transition-matrix projection Pi
(entry (i, j) is p_i over the input mass of i's class when i and j share a
class) whose rescaled form is an orthogonal projection. The maximum-likelihood
reduction is P Pi, which yields a Pythagoras identity for the squared
Frobenius gap. Each check takes the counts, ``factors`` (runs, m, r) and
1-based ``labels`` (runs, n): one reduction per row.
"""

from __future__ import annotations

import numpy as np

from ._accel import group_sums
from .dbmr import latent_sums
from .model import CountMatrix


def verify_factorization(counts: CountMatrix, factors, labels) -> dict[str, np.ndarray]:
    """Per reduction, the max-norm residuals of its factor against P Pi under
    the report's ``factorization_residuals`` keys; all vanish for
    maximum-likelihood factors. Column j of P Pi is column k_j of P W, with
    W_jk = p_j / mass_k for j in class k: a class average, the group sum of
    P diag(p) over the state's mass. States without inputs are left out.
    """
    p, q = counts.model.input_dist, counts.model.output_dist
    r = factors.shape[2]
    labels0 = labels - 1
    masses = latent_sums(labels0, p, r)
    # P diag(p), not the factor's own route from the counts
    grouped = group_sums(counts.joint_operand, labels0, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(factors - grouped / masses[:, np.newaxis])
    at_label = np.take_along_axis(masses, labels0, axis=1)
    return {
        "factorization": np.where(masses[:, np.newaxis] > 0.0, gap, 0.0).max(axis=(1, 2)),
        "input_fixed": np.abs(p / at_label * at_label - p).max(axis=1),
        "output_marginal": np.abs(np.einsum("smr,sr->sm", factors, masses) - q).max(axis=1),
    }


def pythagoras_check(counts: CountMatrix, factors, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per reduction with maximum-likelihood factors: (squared Frobenius gap
    in its Pythagoras form, squared norm of the rescaled approximation).

    The reduction is a projection of the full model, so
    |P~ - L~|^2 = |P~|^2 - |L~|^2 = |P~|^2 - sum_ik F_ik^2 T_k / (S q_i), with
    S records and T_k the (integer, so exactly summed) counts of the inputs of
    latent state k. The difference is clamped at 0, where rounding of an exact
    fit could make it negative. Each row's terms are one contiguous block, one
    sum each, so a row's values are bitwise those of its reduction alone.
    """
    model = counts.model
    totals = latent_sums(labels - 1, counts.column_totals, factors.shape[2])[:, np.newaxis, :]
    weights = 1.0 / (counts.total * model.output_dist)[:, np.newaxis]
    terms = factors * factors * totals * weights
    approx_norm_sq = terms.reshape(terms.shape[0], -1).sum(axis=1)
    return np.maximum(model.rescaled_norm_sq - approx_norm_sq, 0.0), approx_norm_sq
