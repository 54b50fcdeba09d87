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

from .dbmr import CountMatrix, ReducedModel, log_likelihood, relaxed_log_likelihood
from .model import TransitionModel

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


@dataclass(frozen=True)
class BoundReport:
    constants: BoundConstants
    kappa_choice: str
    kappa_value: float
    kappa_tag: str
    frob_gap_sq: float
    kl_form: float
    likelihood_form: float
    coherence_bound: float

    def to_dict(self) -> dict:
        return {
            "kappa_diff": self.constants.kappa_diff,
            "kappa_col": self.constants.kappa_col,
            "kappa_prior": self.constants.kappa_prior,
            "kappa_post": self.constants.kappa_post,
            "kappa_post_tag": self.constants.kappa_post_tag,
            "col_usable": self.constants.col_usable,
            "max_deviation": float(np.max(self.constants.deviations)),
            "kappa_choice": self.kappa_choice,
            "kappa_value": self.kappa_value,
            "kappa_tag": self.kappa_tag,
            "frob_gap_sq": self.frob_gap_sq,
            "kl_form": self.kl_form,
            "likelihood_form": self.likelihood_form,
            "coherence_bound": self.coherence_bound,
        }


def balancedness(x: np.ndarray) -> float:
    """1-norm over (length times max magnitude); 1.0 for the zero vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("x must be a nonempty 1-d array")
    peak = np.abs(x).max()
    if peak == 0.0:
        return 1.0
    return float(np.abs(x).sum() / (x.size * peak))


def weighted_balancedness(x: np.ndarray, weights: np.ndarray) -> float:
    """1-norm over the largest weight-relative magnitude; 1.0 for zero."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if x.shape != weights.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("x and weights must be nonempty 1-d arrays of equal length")
    if (weights <= 0.0).any():
        raise ValueError("weights must be strictly positive")
    peak = (np.abs(x) / weights).max()
    if peak == 0.0:
        return 1.0
    return float(np.abs(x).sum() / peak)


def deviation_coefficient(u: np.ndarray, v: np.ndarray) -> float:
    """Two thirds of the largest relative deviation of v from u.

    Zero-over-zero entries contribute 0; a positive deviation on a zero entry
    of u makes the coefficient infinite.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1 or u.size == 0:
        raise ValueError("u and v must be nonempty 1-d arrays of equal length")
    diff = np.abs(u - v)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(diff == 0.0, 0.0, diff / u)
    return float(ratio.max() * (2.0 / 3.0))


def bound_constants(model: TransitionModel, reduced: ReducedModel) -> BoundConstants:
    """Columnwise balancedness constants for the model/reduction pair.

    kappa_diff halves the smallest weighted balancedness of the column
    differences; kappa_col halves the smallest weighted column balancedness
    damped by (1 - deviation). kappa_col can be -inf or negative when some
    column deviates too strongly; it is then flagged unusable. kappa_post,
    the better of the two, never falls below the prior constant min(q)/2.

    Column j of the difference |P - L| is |P - F| on the nonzeros of P and
    the factor column F_k of j's label k elsewhere, so every column term is a
    sum or maximum over the column's nonzeros plus a term of F_k.
    """
    nz = _Nonzeros.of(model, reduced)
    F, q = reduced.factor, model.output_dist
    diff = np.abs(nz.values - nz.approx)
    # Entries live in [0, 1], so differences at rounding scale mean the column
    # was reproduced exactly; snap them to zero so the zero-vector convention
    # applies instead of the balancedness of accumulated roundoff.
    zero_tol = 32.0 * np.finfo(np.float64).eps
    # Off its support, column j of |P - L| is F[:, k_j]; off_peak is its largest entry there.
    off_peak = nz.zeros_max(F)
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


@dataclass(frozen=True)
class _Nonzeros:
    """P and its reduction L on the nonzeros of P, in row-major order.

    ``at_label`` flat-indexes an m x r array at each nonzero's row and the
    latent state of its column.
    """

    rows: np.ndarray
    cols: np.ndarray
    labels0: np.ndarray
    at_label: np.ndarray
    values: np.ndarray
    approx: np.ndarray

    @classmethod
    def of(cls, model: TransitionModel, reduced: ReducedModel) -> "_Nonzeros":
        rows, cols = model.support
        labels0 = reduced.affiliation.labels - 1
        at_label = rows * reduced.n_latent + labels0[cols]
        return cls(
            rows=rows,
            cols=cols,
            labels0=labels0,
            at_label=at_label,
            values=model.matrix[rows, cols],
            approx=reduced.factor.ravel().take(at_label),
        )

    def column_sum(self, terms: np.ndarray) -> np.ndarray:
        # Each column adds its terms in row order, as a dense column sum does.
        return np.bincount(self.cols, weights=terms, minlength=self.labels0.size)

    def column_max(self, terms: np.ndarray) -> np.ndarray:
        """Per-column maximum of nonnegative terms; every column has a nonzero."""
        peaks = np.zeros(self.labels0.size)
        np.maximum.at(peaks, self.cols, terms)
        return peaks

    def zeros_sum(self, terms: np.ndarray, peaks: np.ndarray) -> np.ndarray:
        """Per column j, the sum of the nonnegative ``terms[i, k_j]`` over the
        zeros i of column j; ``peaks`` is ``zeros_max(terms)``.

        That is the column total minus its part on the support, set to
        exactly 0 where no term off the support is positive.
        """
        on_support = self.column_sum(terms.ravel().take(self.at_label))
        off_support = np.maximum(terms.sum(axis=0)[self.labels0] - on_support, 0.0)
        return np.where(peaks == 0.0, 0.0, off_support)

    def zeros_max(self, terms: np.ndarray) -> np.ndarray:
        """Per column j, the largest ``terms[i, k_j]`` over the zeros i of
        column j; 0 for a column without zeros.

        Each latent state ranks its rows by term, so column j's answer is the
        term of the first row in k_j's ranking that is a zero of column j;
        that term does not depend on how ties are ranked.
        """
        m, r = terms.shape
        n = self.labels0.size
        ranking = np.argsort(-terms, axis=0)
        place = np.empty_like(ranking)
        place[ranking, np.arange(r)] = np.arange(m)[:, np.newaxis]
        # Only columns with a zero take part; each gets one slot per nonzero.
        nonzeros = np.bincount(self.cols, minlength=n)
        has_zero = nonzeros < m
        size = np.where(has_zero, nonzeros, 0)
        starts = np.cumsum(size) - size
        taking = has_zero[self.cols]
        cols, places = self.cols[taking], place.ravel().take(self.at_label[taking])
        # The first free place of a column with s nonzeros is at most s, so
        # marking the places below s in its slots finds it: the first
        # unmarked slot, or s when all are marked.
        low = places < size[cols]
        marked = np.zeros(cols.size, dtype=bool)
        marked[starts[cols[low]] + places[low]] = True
        free = np.append(np.flatnonzero(~marked), cols.size)
        first = np.minimum(free[np.searchsorted(free, starts)] - starts, size)
        peaks = np.zeros(n)
        labels0 = self.labels0[has_zero]
        peaks[has_zero] = terms[ranking[first[has_zero], labels0], labels0]
        return peaks


def _weighted_kl_sum(nz: _Nonzeros, model: TransitionModel) -> float:
    """Input-weighted sum of columnwise KL divergences of P from the reduction."""
    if (nz.approx <= 0.0).any():
        return float("inf")
    terms = nz.values * np.log(nz.values / nz.approx)
    return float(model.input_dist @ nz.column_sum(terms))


def _frob_gap_sq(nz: _Nonzeros, model: TransitionModel, reduced: ReducedModel) -> float:
    """|P~ - L~|^2 as a sum over the nonzeros of P plus one over its zeros.

    On a zero (i, j) of P the rescaled gap is L~_ij, whose square is
    p_j F_ik^2 / q_i. Holds for any factor.
    """
    F, p, q = reduced.factor, model.input_dist, model.output_dist
    scale = np.sqrt(p)[nz.cols] / np.sqrt(q)[nz.rows]
    on_support = nz.values * scale - nz.approx * scale
    terms = F * F / q[:, np.newaxis]
    off_support = nz.zeros_sum(terms, nz.zeros_max(terms))
    return float(np.sum(on_support * on_support) + p @ off_support)


def frobenius_kl_bound(
    counts: CountMatrix,
    reduced: ReducedModel,
    kappa_choice: str = "post",
) -> BoundReport:
    """Evaluate the bound chain: squared gap <= KL form = likelihood form.

    The KL form divides the input-weighted columnwise KL sum by the chosen
    kappa; the likelihood form rescales the log-likelihood drop from the full
    model to the reduction by kappa times the sample size. Both are infinite
    when the reduction misses observed support. The report also carries the
    induced lower bound on the reduced model's degree of coherence.
    """
    if kappa_choice not in _KAPPA_CHOICES:
        raise ValueError(f"kappa_choice must be one of {_KAPPA_CHOICES}")
    model = counts.model
    constants = bound_constants(model, reduced)
    kappa_value = {
        "post": constants.kappa_post,
        "pr": constants.kappa_prior,
        "q1": constants.kappa_diff,
        "q2": constants.kappa_col,
    }[kappa_choice]
    kappa_tag = constants.kappa_post_tag if kappa_choice == "post" else kappa_choice
    nz = _Nonzeros.of(model, reduced)
    frob_gap_sq = _frob_gap_sq(nz, model, reduced)
    kl_sum = _weighted_kl_sum(nz, model)
    full_objective = log_likelihood(counts, model.matrix)
    reduced_objective = relaxed_log_likelihood(
        counts, reduced.factor, reduced.affiliation
    )
    full_norm_sq = model.rescaled_norm_sq
    if kappa_value > 0.0:
        kl_form = kl_sum / kappa_value
        likelihood_form = (full_objective - reduced_objective) / (
            kappa_value * counts.total
        )
        coherence_bound = full_norm_sq - likelihood_form
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
    return BoundReport(
        constants=constants,
        kappa_choice=kappa_choice,
        kappa_value=kappa_value,
        kappa_tag=kappa_tag,
        frob_gap_sq=frob_gap_sq,
        kl_form=kl_form,
        likelihood_form=likelihood_form,
        coherence_bound=coherence_bound,
    )


def coherence_lower_bound(
    counts: CountMatrix,
    reduced: ReducedModel,
    kappa_value: float,
) -> float:
    """Lower bound on the reduced degree of coherence from the likelihood drop.

    Returns -inf when the reduction misses observed support.
    """
    if kappa_value <= 0.0:
        raise ValueError("kappa_value must be positive")
    model = counts.model
    full_objective = log_likelihood(counts, model.matrix)
    reduced_objective = relaxed_log_likelihood(
        counts, reduced.factor, reduced.affiliation
    )
    full_norm_sq = model.rescaled_norm_sq
    return float(
        (reduced_objective - full_objective) / (kappa_value * counts.total)
        + full_norm_sq
    )


def pinsker_l2(
    u: np.ndarray, v: np.ndarray, weights: np.ndarray
) -> tuple[tuple[float, bool], ...]:
    """Four KL-based upper bounds for squared distances between distributions.

    Returns ((a), (b), (c), (d)) as (value, applicable) pairs:
      (a) bounds the squared 2-norm via the difference balancedness,
      (b) bounds the weight-relative squared distance via the weighted kind,
      (c) and (d) replace the difference balancedness with the balancedness
          of u damped by (1 - deviation); they require deviation < 1.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    kl = _kl(u, v)
    size = u.size
    diff = u - v
    alpha = deviation_coefficient(u, v)
    bound_a = 2.0 * kl / (size * balancedness(diff))
    bound_b = 2.0 * kl / weighted_balancedness(diff, weights)
    applicable = bool(alpha < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound_c = 2.0 * kl / (size * balancedness(u) * (1.0 - alpha))
        bound_d = 2.0 * kl / (weighted_balancedness(u, weights) * (1.0 - alpha))
    return (
        (float(bound_a), True),
        (float(bound_b), True),
        (float(bound_c), applicable),
        (float(bound_d), applicable),
    )


def _kl(u: np.ndarray, v: np.ndarray) -> float:
    support = u > 0.0
    if (v[support] <= 0.0).any():
        return float("inf")
    return float(np.sum(u[support] * np.log(u[support] / v[support])))
