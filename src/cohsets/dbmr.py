"""Direct Bayesian model reduction by alternating likelihood ascent.

A reduced model is a left-stochastic factor of shape (outputs, latent) plus a
hard affiliation of input categories to latent states. The alternating loop
maximizes the relaxed log-likelihood of the observed counts: affiliations pick
the best latent column per input, the factor renormalizes grouped counts.
Both update steps are monotone in the relaxed log-likelihood.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._accel import group_sums, latent_scores
from .model import CountMatrix, TransitionModel, estimate
from .seeding import mix_seed
from .svd import Partition

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Affiliation:
    """Hard assignment of input categories to latent states, labels 1-based."""

    labels: np.ndarray
    n_latent: int

    def __post_init__(self) -> None:
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-d array")
        if self.n_latent < 1:
            raise ValueError("n_latent must be positive")
        if (labels < 1).any() or (labels > self.n_latent).any():
            raise ValueError(f"labels must lie in [1, {self.n_latent}]")

    @property
    def size(self) -> int:
        return int(self.labels.size)

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(int(v) for v in np.unique(self.labels))

    @property
    def inactive(self) -> tuple[int, ...]:
        return tuple(sorted(set(range(1, self.n_latent + 1)) - set(self.active)))


def partition_to_affiliation(partition: Partition) -> Affiliation:
    return Affiliation(labels=partition.labels, n_latent=partition.n_clusters)


@dataclass(frozen=True)
class ReducedModel:
    """Factor and affiliation; the approximate transition matrix derives from them.

    The reduction is a projection of the full model, so these two fields set
    it fully. ``model.rescale(reduced.approx, p, q)`` gives its rescaled form.
    """

    factor: np.ndarray
    affiliation: Affiliation

    @property
    def approx(self) -> np.ndarray:
        """Approximate transition matrix: column j is the factor column of j's label."""
        return self.factor[:, self.affiliation.labels - 1]

    @property
    def n_latent(self) -> int:
        return self.affiliation.n_latent

    @property
    def inactive(self) -> tuple[int, ...]:
        return self.affiliation.inactive


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
class DbmrTrace:
    steps: tuple[DbmrStep, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.steps) - 1

    @property
    def objectives(self) -> np.ndarray:
        return np.array([step.objective for step in self.steps])


def log_likelihood(counts: CountMatrix, transition: np.ndarray) -> float:
    """Count-weighted log of transition entries; -inf on support violation."""
    transition = np.asarray(transition, dtype=np.float64)
    if transition.shape != counts.shape:
        raise ValueError(f"transition shape {transition.shape} != counts shape {counts.shape}")
    _check_left_stochastic(transition, "transition")
    observed = counts.counts > 0
    values = transition[observed]
    if (values <= 0.0).any():
        return float("-inf")
    return float(np.sum(counts.counts[observed] * np.log(values)))


def relaxed_log_likelihood(
    counts: CountMatrix, factor: np.ndarray, affiliation: Affiliation
) -> float:
    """Likelihood with each input column scored against its latent column."""
    factor = np.asarray(factor, dtype=np.float64)
    _check_factor(counts, factor, affiliation)
    grouped = group_sums(
        counts.counts.astype(np.float64), affiliation.labels - 1, affiliation.n_latent
    )
    return _grouped_log_likelihood(grouped, factor)


def _grouped_log_likelihood(grouped: np.ndarray, factor: np.ndarray) -> float:
    observed = grouped > 0.0
    values = factor[observed]
    if (values <= 0.0).any():
        return float("-inf")
    return float(np.sum(grouped[observed] * np.log(values)))


def _check_left_stochastic(matrix: np.ndarray, name: str) -> None:
    if (matrix < 0.0).any():
        raise ValueError(f"{name} has negative entries")
    gap = np.abs(matrix.sum(axis=0) - 1.0).max()
    if gap > 1e-9:
        raise ValueError(f"{name} columns must sum to 1 within 1e-9 (off by {gap:g})")


def _check_factor(counts: CountMatrix, factor: np.ndarray, affiliation: Affiliation) -> None:
    m = counts.shape[0]
    if factor.shape != (m, affiliation.n_latent):
        raise ValueError(
            f"factor shape {factor.shape} != ({m}, {affiliation.n_latent})"
        )
    if affiliation.size != counts.shape[1]:
        raise ValueError(
            f"affiliation covers {affiliation.size} of {counts.shape[1]} inputs"
        )
    _check_left_stochastic(factor, "factor")


def update_factor(counts: CountMatrix, affiliation: Affiliation) -> np.ndarray:
    """Maximum-likelihood factor for a fixed affiliation.

    Columns of latent states with no affiliated inputs have no data; they are
    set to the uniform distribution and logged.
    """
    if affiliation.size != counts.shape[1]:
        raise ValueError(
            f"affiliation covers {affiliation.size} of {counts.shape[1]} inputs"
        )
    factor, _, _ = _factor_and_objective(
        counts.counts.astype(np.float64), affiliation.labels - 1, affiliation.n_latent
    )
    if affiliation.inactive:
        logger.debug("inactive latent states %s set to uniform", affiliation.inactive)
    return factor


def _factor_and_objective(
    counts_f: np.ndarray, labels0: np.ndarray, n_latent: int
) -> tuple[np.ndarray, float, np.ndarray]:
    """(factor, relaxed log-likelihood, grouped counts of shape (m, n_latent))."""
    grouped = group_sums(counts_f, labels0, n_latent)
    totals = grouped.sum(axis=0)
    m = counts_f.shape[0]
    factor = np.full((m, n_latent), 1.0 / m)
    active = totals > 0.0
    factor[:, active] = grouped[:, active] / totals[active]
    return factor, _grouped_log_likelihood(grouped, factor), grouped


def update_affiliation(counts: CountMatrix, factor: np.ndarray) -> Affiliation:
    """Best latent state per input column; ties take the smallest label.

    Columns scoring -inf against every latent column fall back to label 1 and
    are logged.
    """
    factor = np.asarray(factor, dtype=np.float64)
    if factor.ndim != 2 or factor.shape[0] != counts.shape[0]:
        raise ValueError(f"factor shape {factor.shape} incompatible with counts {counts.shape}")
    _check_left_stochastic(factor, "factor")
    labels0, sunk = _best_labels(counts.counts.astype(np.float64), factor)
    if sunk:
        logger.debug("%d input columns had -inf scores for every latent state", sunk)
    return Affiliation(labels=labels0 + 1, n_latent=factor.shape[1])


def _best_labels(counts_f: np.ndarray, factor: np.ndarray) -> tuple[np.ndarray, int]:
    scores = latent_scores(counts_f, factor)
    labels0 = np.argmax(scores, axis=0)
    sunk = int(np.isneginf(scores).all(axis=0).sum())
    return labels0, sunk


def _gap_terms(
    grouped: np.ndarray,
    factor: np.ndarray,
    q: np.ndarray,
    total: int,
    full_norm_sq: float,
) -> tuple[float, float]:
    """(squared Frobenius gap, squared norm of the rescaled approximation).

    The reduction is a projection of the full model, so
    |P~ - L~|^2 = |P~|^2 - |L~|^2, and |L~|^2 depends only on the grouped
    counts G: with S records and column totals T_k = sum_i G_ik,
    |L~|^2 = sum_ik F_ik^2 T_k / (S q_i). (For the maximum-likelihood factor
    F_ik = G_ik / T_k the cross term <P~, L~> = sum_ik G_ik F_ik / (S q_i)
    equals |L~|^2.) The difference is clamped at 0, where rounding of an exact
    fit could otherwise make it negative.
    """
    weights = 1.0 / (total * q)[:, np.newaxis]
    approx_norm_sq = float(np.sum(factor * factor * grouped.sum(axis=0) * weights))
    return max(full_norm_sq - approx_norm_sq, 0.0), approx_norm_sq


def dbmr_run(
    counts: CountMatrix,
    n_latent: int,
    init: Affiliation,
    max_steps: int = 500,
    tol: float = 0.0,
    model: TransitionModel | None = None,
    snapshots: bool = True,
) -> tuple[ReducedModel, DbmrTrace]:
    """Alternate affiliation and factor updates from ``init`` until the
    objective stalls (increase <= ``tol``, exact equality at the default 0)
    or ``max_steps`` update pairs have run.

    The trace records every iterate including the initial one. The final
    iterate always keeps label and factor snapshots; earlier iterates keep
    them only when ``snapshots`` is true.
    """
    if init.size != counts.shape[1]:
        raise ValueError(f"init covers {init.size} of {counts.shape[1]} inputs")
    if init.n_latent != n_latent:
        raise ValueError(f"init has {init.n_latent} latent states, expected {n_latent}")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    if model is None:
        model = estimate(counts)
    counts_f = counts.counts.astype(np.float64)
    q = model.output_dist
    full_norm_sq = float(np.sum(model.rescaled * model.rescaled))

    labels0 = init.labels - 1
    factor, objective, grouped = _factor_and_objective(counts_f, labels0, n_latent)
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
    for index in range(1, max_steps + 1):
        new_labels0, _ = _best_labels(counts_f, factor)
        new_factor, new_objective, new_grouped = _factor_and_objective(
            counts_f, new_labels0, n_latent
        )
        if new_objective < objective:
            # Both updates are ascent steps; a strict drop can only be a
            # rounding artifact, so keep the previous iterate.
            logger.debug("objective dipped by %g at step %d", objective - new_objective, index)
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
        factor=factor, affiliation=Affiliation(labels=labels0 + 1, n_latent=n_latent)
    )
    return reduced, DbmrTrace(steps=tuple(steps), converged=converged)


def random_affiliation(n_inputs: int, n_latent: int, seed: int) -> Affiliation:
    """Uniform random labels; deterministic per seed."""
    if n_inputs < 1 or n_latent < 1:
        raise ValueError("n_inputs and n_latent must be positive")
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, n_latent + 1, size=n_inputs)
    return Affiliation(labels=labels, n_latent=n_latent)


def multi_start(
    counts: CountMatrix,
    n_latent: int,
    runs: int,
    max_steps: int = 500,
    seed: int = 0,
    tol: float = 0.0,
    snapshots: bool = False,
    model: TransitionModel | None = None,
) -> tuple[ReducedModel, int, list[DbmrTrace]]:
    """Run from ``runs`` random initial affiliations; return the best model.

    Run i draws its initial affiliation from a sub-seed mixed from ``seed``
    and i. The best run maximizes the final objective; ties keep the lowest
    run index. Returns (best model, best run index, all traces).
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    if model is None:
        model = estimate(counts)
    best: ReducedModel | None = None
    best_index = -1
    best_objective = float("-inf")
    traces: list[DbmrTrace] = []
    for run in range(runs):
        init = random_affiliation(counts.shape[1], n_latent, mix_seed(seed, run))
        reduced, trace = dbmr_run(
            counts, n_latent, init, max_steps=max_steps, tol=tol,
            model=model, snapshots=snapshots,
        )
        traces.append(trace)
        final = trace.steps[-1].objective
        if final > best_objective:
            best, best_index, best_objective = reduced, run, final
    return best, best_index, traces


def reduce_with_affiliation(counts: CountMatrix, affiliation: Affiliation) -> ReducedModel:
    """Maximum-likelihood reduction for a fixed affiliation, no iteration."""
    return ReducedModel(factor=update_factor(counts, affiliation), affiliation=affiliation)


def output_partition(reduced: ReducedModel) -> Partition:
    """Group output categories by the latent state with the largest factor entry.

    Ties take the smallest label; clusters may be empty.
    """
    labels0 = np.argmax(reduced.factor, axis=1)
    return Partition(labels=labels0 + 1, n_clusters=reduced.n_latent)


def rescaled_factor_spectrum(
    factor: np.ndarray, labels: np.ndarray, model: TransitionModel
) -> np.ndarray:
    """Singular values of the rescaled approximation, padded to min(m, n).

    The rescaled approximation factors through an (outputs x latent) core whose
    columns carry the square root of each latent state's input mass, against an
    orthonormal row frame; the core's SVD therefore matches the full matrix's.
    """
    factor = np.asarray(factor, dtype=np.float64)
    labels0 = np.asarray(labels, dtype=np.int64) - 1
    masses = np.bincount(labels0, weights=model.input_dist, minlength=factor.shape[1])
    core = (
        factor
        * np.sqrt(masses)[np.newaxis, :]
        / np.sqrt(model.output_dist)[:, np.newaxis]
    )
    sigma = np.linalg.svd(core, compute_uv=False)
    size = min(model.shape)
    if sigma.size >= size:
        return sigma[:size]
    return np.concatenate([sigma, np.zeros(size - sigma.size)])


def reduced_singular_values(reduced: ReducedModel, model: TransitionModel) -> np.ndarray:
    """Spectrum of a reduced model's rescaled approximation."""
    return rescaled_factor_spectrum(reduced.factor, reduced.affiliation.labels, model)
