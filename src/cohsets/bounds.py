"""Balancedness constants and the Frobenius-KL bound chain.

The squared Frobenius gap between the rescaled transition matrix and its
reduction is bounded by an input-weighted sum of columnwise KL divergences,
divided by a balancedness constant. The same quantity has an exact
likelihood form, which also yields a computable lower bound on the degree of
coherence of the reduced model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dbmr import ReducedModel

_KAPPA_CHOICES = ("post", "pr", "q1", "q2")


@dataclass(frozen=True)
class BoundConstants:
    """Candidate balancedness constants for the Frobenius-KL bound."""

    kappa_diff: float
    kappa_col: float
    kappa_prior: float
    kappa_post: float
    kappa_post_tag: str
    col_usable: bool
    deviations: np.ndarray


def bound_constants(reduced: ReducedModel) -> BoundConstants:
    """Columnwise balancedness constants for the model/reduction pair.

    kappa_diff halves the smallest weighted balancedness of the column
    differences; kappa_col halves the smallest weighted column balancedness
    damped by (1 - deviation). The weighted balancedness of a column x is
    sum_i |x_i| / max_i (|x_i| / q_i), and 1 for a zero column; the deviation
    of column j is two thirds of max_i |P_ij - L_ij| / P_ij. kappa_col can be
    -inf or negative when some column deviates too strongly; it is then
    flagged unusable. kappa_post, the better of the two, never falls below
    the prior constant min(q)/2.

    Column j of the difference |P - L| is |P - F| on the nonzeros of P and
    the factor column F_k of j's label k elsewhere, so every column term is a
    sum or maximum over the column's nonzeros plus a term of F_k.
    """
    nz, F, q = reduced.nonzero_view, reduced.factor, reduced.model.output_dist
    diff = np.abs(nz.values - nz.approx)
    # Entries live in [0, 1], so differences at rounding scale mean the column
    # was reproduced exactly; snap them to zero so the zero-vector convention
    # applies instead of the balancedness of accumulated roundoff.
    zero_tol = 32.0 * np.finfo(np.float64).eps
    off_peak = reduced.off_peak
    snapped = np.maximum(nz.column_max(diff), off_peak) <= zero_tol
    q_on = q[nz.rows]
    off_sum = nz.zeros_sum(F, off_peak)
    peaks = np.maximum(nz.column_max(diff / q_on), nz.zeros_max(F / q[:, np.newaxis]))
    with np.errstate(divide="ignore", invalid="ignore"):
        diff_terms = (nz.column_sum(diff) + off_sum) / peaks
    # A positive F entry on a zero of P deviates infinitely.
    deviations = np.where(
        off_peak == 0.0, nz.column_max(diff / nz.values), np.inf
    ) * (2.0 / 3.0)
    diff_terms[snapped] = 1.0
    deviations[snapped] = 0.0
    # P is nonnegative with unit column sums, so every column peak is positive.
    col_balance = nz.column_sum(nz.values) / nz.column_max(nz.values / q_on)
    with np.errstate(invalid="ignore"):
        col_terms = col_balance * (1.0 - deviations)
    kappa_diff = 0.5 * float(diff_terms.min())
    kappa_col = 0.5 * float(col_terms.min())
    kappa_prior = 0.5 * float(q.min())
    if kappa_diff >= kappa_col:
        kappa_post, tag = kappa_diff, "q1"
    else:
        kappa_post, tag = kappa_col, "q2"
    if kappa_post < kappa_prior - 1e-12:
        raise FloatingPointError(
            f"kappa_post {kappa_post} fell below the prior constant {kappa_prior}"
        )
    deviations.flags.writeable = False
    return BoundConstants(
        kappa_diff=kappa_diff,
        kappa_col=kappa_col,
        kappa_prior=kappa_prior,
        kappa_post=kappa_post,
        kappa_post_tag=tag,
        col_usable=bool((deviations < 1.0).all() and kappa_col > 0.0),
        deviations=deviations,
    )


def _weighted_kl_sum(reduced: ReducedModel) -> float:
    """Input-weighted sum of columnwise KL divergences of P from the reduction."""
    nz = reduced.nonzero_view
    if (nz.approx <= 0.0).any():
        return float("inf")
    terms = nz.values * np.log(nz.values / nz.approx)
    return float(reduced.model.input_dist @ nz.column_sum(terms))


def frobenius_kl_bound(reduced: ReducedModel, kappa_choice: str = "post") -> dict:
    """Evaluate the bound chain: squared gap <= KL form = likelihood form.

    The KL form divides the input-weighted columnwise KL sum by the chosen
    kappa; the likelihood form rescales the log-likelihood drop from the full
    model to the reduction by kappa times the sample size. Both are infinite
    when the reduction misses observed support. Returns the report's
    ``bound`` section: the constants, the chosen kappa, the chain values, and
    the induced lower bound on the reduced model's degree of coherence.
    """
    if kappa_choice not in _KAPPA_CHOICES:
        raise ValueError(f"kappa_choice must be one of {_KAPPA_CHOICES}")
    counts = reduced.counts
    constants = bound_constants(reduced)
    kappa_value = {
        "post": constants.kappa_post,
        "pr": constants.kappa_prior,
        "q1": constants.kappa_diff,
        "q2": constants.kappa_col,
    }[kappa_choice]
    kappa_tag = constants.kappa_post_tag if kappa_choice == "post" else kappa_choice
    frob_gap_sq = reduced.frob_gap_sq
    kl_sum = _weighted_kl_sum(reduced)
    if kappa_value > 0.0:
        kl_form = kl_sum / kappa_value
        likelihood_form = (counts.full_log_likelihood - reduced.log_likelihood) / (
            kappa_value * counts.total
        )
        coherence_bound = coherence_lower_bound(reduced, kappa_value)
        if np.isfinite(kl_form):
            if frob_gap_sq > kl_form + 1e-9:
                raise FloatingPointError(
                    f"squared gap {frob_gap_sq} exceeds its KL bound {kl_form}"
                )
            if abs(kl_form - likelihood_form) > 1e-6 * (1.0 + abs(kl_form)):
                raise FloatingPointError(
                    f"KL form {kl_form} and likelihood form {likelihood_form} disagree"
                )
    else:
        # Degenerate kappa: the chain is vacuous, report raw values only.
        kl_form = float("inf") if kl_sum > 0 else 0.0
        likelihood_form = kl_form
        coherence_bound = float("-inf")
    return {
        "kappa_diff": constants.kappa_diff,
        "kappa_col": constants.kappa_col,
        "kappa_prior": constants.kappa_prior,
        "kappa_post": constants.kappa_post,
        "kappa_post_tag": constants.kappa_post_tag,
        "col_usable": constants.col_usable,
        "max_deviation": float(constants.deviations.max()),
        "kappa_choice": kappa_choice,
        "kappa_value": kappa_value,
        "kappa_tag": kappa_tag,
        "frob_gap_sq": frob_gap_sq,
        "kl_form": kl_form,
        "likelihood_form": likelihood_form,
        "coherence_bound": coherence_bound,
    }


def coherence_lower_bound(reduced: ReducedModel, kappa_value: float) -> float:
    """Lower bound on the reduced degree of coherence from the likelihood drop:
    |P~|^2 minus the drop over kappa times the sample size.

    Returns -inf when the reduction misses observed support.
    """
    if kappa_value <= 0.0:
        raise ValueError("kappa_value must be positive")
    counts = reduced.counts
    return float(
        (reduced.log_likelihood - counts.full_log_likelihood) / (kappa_value * counts.total)
        + counts.model.rescaled_norm_sq
    )
