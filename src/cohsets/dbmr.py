"""Direct Bayesian model reduction by alternating likelihood ascent.

A reduced model of a count matrix is a left-stochastic factor of shape
(outputs, latent) plus a hard affiliation of input categories to latent
states; what the bound chain and the projection checks read of it derives
from these once. The alternating loop maximizes the relaxed log-likelihood
of the observed counts: affiliations pick the best latent column per input,
the factor renormalizes grouped counts. Both update steps are monotone in
the relaxed log-likelihood.

All restarts ascend together: each iteration scores and groups the counts
of every restart still ascending with one call per kernel, their factors
stacked as (runs, m, r). Each restart keeps the arithmetic, and so the
trace, it has when ascending alone, and retires when its objective dips or
stalls or it reaches its step cap. ``dbmr_run`` is the batch of one.
Restarts run in consecutive chunks of max(1, BATCH_ENTRIES // (r (m + n)))
restarts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._accel import group_sums, latent_scores
from .model import CountMatrix, Partition, TransitionModel
from .seeding import mix_seed

logger = logging.getLogger(__name__)

# A chunk of A restarts holds its stacked factors, scores and one-hot labels
# in arrays of about A * r * (m + n) float64 entries; this caps that number
# (8 MB an array). The 100 restarts of an r = 3 fit on a 100 x 100 matrix
# form one chunk; on a 2048 x 2048 matrix a chunk holds 85 restarts.
BATCH_ENTRIES = 2**20


@dataclass(frozen=True)
class _Nonzeros:
    """P and its reduction L on the nonzeros of P, in P's column-major order.

    Column j's nonzeros are the slice ``starts[j]:starts[j + 1]``; every
    column of P has one. ``at_label`` flat-indexes an m x r array at each
    nonzero's row and the latent state of its column.
    """

    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    labels0: np.ndarray
    at_label: np.ndarray
    values: np.ndarray
    approx: np.ndarray

    def column_sum(self, terms: np.ndarray) -> np.ndarray:
        # Each column adds its terms in row order, as a dense column sum does.
        return np.bincount(self.cols, weights=terms, minlength=self.labels0.size)

    def column_max(self, terms: np.ndarray) -> np.ndarray:
        """Per-column maximum of the terms; every column has a nonzero."""
        return np.maximum.reduceat(terms, self.starts)

    def zeros_sum(self, terms: np.ndarray, peaks: np.ndarray) -> np.ndarray:
        """Per column j, the sum of the nonnegative ``terms[i, k_j]`` over the
        zeros i of column j; ``peaks`` is ``zeros_max`` of the terms or of
        the factor whose entries they scale (F^2 / q is zero where F is).

        That is the column total minus its part on the support, clamped at
        0, and set to exactly 0 where ``peaks`` shows no positive term off
        the support.
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


@dataclass(frozen=True)
class ReducedModel:
    """A reduction of the counts: a left-stochastic factor (outputs x latent)
    and an affiliation of the inputs to its latent states.

    The reduction is a projection of the full model ``counts.model``, so
    these three fields set it fully; they are checked once, here. Every
    other piece derives from them at most once. ``model.rescale(reduced.approx,
    p, q)`` gives its rescaled form.
    """

    counts: CountMatrix
    factor: np.ndarray
    affiliation: Partition

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=np.float64)
        factor.setflags(write=False)
        object.__setattr__(self, "factor", factor)
        m, n = self.counts.shape
        if factor.shape != (m, self.affiliation.n_clusters):
            raise ValueError(
                f"factor shape {factor.shape} != ({m}, {self.affiliation.n_clusters})"
            )
        if self.affiliation.size != n:
            raise ValueError(f"affiliation covers {self.affiliation.size} of {n} inputs")
        _check_left_stochastic(factor, "factor")

    @property
    def model(self) -> TransitionModel:
        return self.counts.model

    @property
    def approx(self) -> np.ndarray:
        """Approximate transition matrix: column j is the factor column of j's label."""
        return self.factor[:, self.affiliation.labels - 1]

    @property
    def n_latent(self) -> int:
        return self.affiliation.n_clusters

    @property
    def inactive(self) -> tuple[int, ...]:
        return self.affiliation.inactive

    @cached_property
    def masses(self) -> np.ndarray:
        """Input mass of each latent state."""
        return np.bincount(
            self.affiliation.labels - 1, weights=self.model.input_dist, minlength=self.n_latent
        )

    @cached_property
    def log_likelihood(self) -> float:
        """Relaxed log-likelihood: each input column scored against its latent column."""
        grouped = group_sums(self.counts.operand, self.affiliation.labels - 1, self.n_latent)
        return float(_log_likelihoods(grouped[np.newaxis], self.factor[np.newaxis])[0])

    @cached_property
    def nonzero_view(self) -> _Nonzeros:
        """P and the reduction on the nonzeros of P."""
        model = self.model
        rows, cols = model.support
        labels0 = self.affiliation.labels - 1
        at_label = rows * self.n_latent + labels0[cols]
        return _Nonzeros(
            rows=rows,
            cols=cols,
            starts=model.matrix.indptr[:-1],
            labels0=labels0,
            at_label=at_label,
            values=model.matrix.data,
            approx=self.factor.ravel().take(at_label),
        )

    @cached_property
    def off_peak(self) -> np.ndarray:
        """Per input column j, the largest factor entry F[i, k_j] over the
        zeros i of column j of P: column j of |P - L| off its support."""
        return self.nonzero_view.zeros_max(self.factor)

    @cached_property
    def frob_gap_sq(self) -> float:
        """|P~ - L~|^2 as a sum over the nonzeros of P plus one over its zeros.

        On a zero (i, j) of P the rescaled gap is L~_ij, whose square is
        p_j F_ik^2 / q_i. Holds for any factor.
        """
        nz, F = self.nonzero_view, self.factor
        p, q = self.model.input_dist, self.model.output_dist
        scale = np.sqrt(p)[nz.cols] / np.sqrt(q)[nz.rows]
        on_support = nz.values * scale - nz.approx * scale
        off_support = nz.zeros_sum(F * F / q[:, np.newaxis], self.off_peak)
        return float(np.sum(on_support * on_support) + p @ off_support)


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
    """Iterates of one run, the initial one first, as arrays of one entry per
    iterate: ``objectives``, ``frob_gap_sq`` and ``approx_norm_sq``.

    ``labels`` and ``factor`` are the final iterate's. When snapshots were
    asked for, ``label_snapshots`` (iterates, n) and ``factor_snapshots``
    (iterates, m, r) hold every iterate's. ``sunk_columns`` sums, over the
    run's affiliation updates, the input columns that scored -inf for every
    latent state.
    """

    objectives: np.ndarray
    frob_gap_sq: np.ndarray
    approx_norm_sq: np.ndarray
    labels: np.ndarray
    factor: np.ndarray
    converged: bool
    sunk_columns: int
    label_snapshots: np.ndarray | None = None
    factor_snapshots: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return self.objectives.size - 1

    @property
    def steps(self) -> tuple[DbmrStep, ...]:
        """One ``DbmrStep`` per iterate, built on access; the last always
        carries the final labels and factor."""
        scalars = zip(
            self.objectives.tolist(), self.frob_gap_sq.tolist(), self.approx_norm_sq.tolist()
        )
        steps = []
        for index, values in enumerate(scalars):
            if index == self.iterations:
                snapshot = (self.labels, self.factor)
            elif self.label_snapshots is not None:
                snapshot = (self.label_snapshots[index], self.factor_snapshots[index])
            else:
                snapshot = (None, None)
            steps.append(DbmrStep(index, *values, *snapshot))
        return tuple(steps)


def _log_likelihoods(grouped: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Per run, sum of G log F over the observed entries (G > 0) of its (m, r)
    block, taken in row-major order; -inf where F is zero on an observed
    entry. Both arrays are (runs, m, r).
    """
    observed = grouped > 0.0
    with np.errstate(divide="ignore"):
        terms = grouped[observed] * np.log(factor[observed])
    # Each run's terms are added pairwise on their own, as np.sum adds them;
    # summing padded rows would group them differently and move the last bits.
    ends = np.cumsum(observed.reshape(observed.shape[0], -1).sum(axis=1)).tolist()
    return np.array([
        np.add.reduce(terms[start:end]) for start, end in zip([0] + ends[:-1], ends)
    ])


def _check_left_stochastic(matrix: np.ndarray, name: str) -> None:
    if matrix.min() < 0.0:
        raise ValueError(f"{name} has negative entries")
    gap = np.abs(matrix.sum(axis=0) - 1.0).max()
    if gap > 1e-9:
        raise ValueError(f"{name} columns must sum to 1 within 1e-9 (off by {gap:g})")


def update_factor(counts: CountMatrix, affiliation: Partition) -> np.ndarray:
    """Maximum-likelihood factor for a fixed affiliation.

    Columns of latent states with no affiliated inputs have no data; they are
    set to the uniform distribution and logged.
    """
    if affiliation.size != counts.shape[1]:
        raise ValueError(
            f"affiliation covers {affiliation.size} of {counts.shape[1]} inputs"
        )
    _, _, factor = _ml_factors(
        counts.operand, (affiliation.labels - 1)[np.newaxis], affiliation.n_clusters
    )
    if affiliation.inactive:
        logger.debug("inactive latent states %s set to uniform", affiliation.inactive)
    return factor[0]


def _ml_factors(
    operand, labels0: np.ndarray, n_latent: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grouped counts, latent totals, maximum-likelihood factors) for the
    0-based labels in each row of ``labels0``: (runs, m, n_latent),
    (runs, 1, n_latent) and (runs, m, n_latent). Latent states without
    inputs get the uniform column."""
    grouped = group_sums(operand, labels0, n_latent)
    totals = grouped.sum(axis=1, keepdims=True)
    factor = np.full(grouped.shape, 1.0 / grouped.shape[1])
    np.divide(grouped, totals, out=factor, where=totals > 0.0)
    return grouped, totals, factor


def update_affiliation(counts: CountMatrix, factor: np.ndarray) -> Partition:
    """Best latent state per input column; ties take the smallest label.

    Columns scoring -inf against every latent column fall back to label 1 and
    are logged.
    """
    factor = np.asarray(factor, dtype=np.float64)
    if factor.ndim != 2 or factor.shape[0] != counts.shape[0]:
        raise ValueError(f"factor shape {factor.shape} incompatible with counts {counts.shape}")
    _check_left_stochastic(factor, "factor")
    labels0, sunk = _best_labels(counts, factor[np.newaxis])
    if sunk[0]:
        logger.debug("%d input columns had -inf scores for every latent state", sunk[0])
    return Partition(labels=labels0[0] + 1, n_clusters=factor.shape[1])


def _best_labels(counts: CountMatrix, factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per run of the (runs, m, r) ``factor``: best 0-based latent state per
    input column, and how many columns scored -inf for every state."""
    scores = latent_scores(counts.operand, factor)
    return np.argmax(scores, axis=1), np.isneginf(scores).all(axis=1).sum(axis=1)


def _gap_terms(
    totals: np.ndarray,
    factor: np.ndarray,
    q: np.ndarray,
    total: int,
    full_norm_sq: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per run: (squared Frobenius gap, squared norm of the rescaled approximation).

    The reduction is a projection of the full model, so
    |P~ - L~|^2 = |P~|^2 - |L~|^2, and |L~|^2 depends only on the grouped
    counts G: with S records and the latent totals T_k = sum_i G_ik,
    |L~|^2 = sum_ik F_ik^2 T_k / (S q_i). (For the maximum-likelihood factor
    F_ik = G_ik / T_k the cross term <P~, L~> = sum_ik G_ik F_ik / (S q_i)
    equals |L~|^2.) The difference is clamped at 0, where rounding of an exact
    fit could otherwise make it negative. Each run's terms are one contiguous
    (m, r) block of the (runs, m, r) arrays, reduced in one sum per block.
    """
    weights = 1.0 / (total * q)[:, np.newaxis]
    terms = factor * factor * totals * weights
    approx_norm_sq = terms.reshape(terms.shape[0], -1).sum(axis=1)
    return np.maximum(full_norm_sq - approx_norm_sq, 0.0), approx_norm_sq


def dbmr_run(
    counts: CountMatrix,
    init: Partition,
    max_steps: int = 500,
    tol: float = 0.0,
    snapshots: bool = True,
) -> tuple[ReducedModel, DbmrTrace]:
    """Alternate affiliation and factor updates from ``init`` until the
    objective stalls (increase <= ``tol``, exact equality at the default 0)
    or ``max_steps`` update pairs have run.

    The trace records every iterate including the initial one. The final
    iterate always keeps label and factor snapshots; earlier iterates keep
    them only when ``snapshots`` is true. The latent states are the clusters
    of ``init``.
    """
    if init.size != counts.shape[1]:
        raise ValueError(f"init covers {init.size} of {counts.shape[1]} inputs")
    (trace,) = _ascend(
        counts, (init.labels - 1)[np.newaxis], init.n_clusters, max_steps, tol, snapshots
    )
    return _final_model(counts, trace, init.n_clusters), trace


def _ascend(
    counts: CountMatrix,
    labels0: np.ndarray,
    n_latent: int,
    max_steps: int,
    tol: float,
    snapshots: bool,
) -> list[DbmrTrace]:
    """Ascend from each row of 0-based initial labels together; one trace per row.

    Every iteration updates the restarts still ascending with one score and
    one group-sum call. A restart whose objective dips keeps its previous
    iterate; one that dips, stalls or reaches ``max_steps`` retires.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    operand, model = counts.operand, counts.model
    gap_args = (model.output_dist, counts.total, model.rescaled_norm_sq)
    runs = labels0.shape[0]
    final_labels = np.empty_like(labels0)
    final_factor = np.empty((runs, counts.shape[0], n_latent))
    final_converged = np.zeros(runs, dtype=bool)
    sunk_columns = np.zeros(runs, dtype=np.int64)
    # Per iteration, the runs whose iterate was taken and that iterate's
    # objective, gap and norm, plus labels and factor with snapshots.
    history: list[tuple[np.ndarray, ...]] = []
    live = np.arange(runs)  # rows of the restarts still ascending
    grouped, totals, factor = _ml_factors(operand, labels0, n_latent)
    objective = _log_likelihoods(grouped, factor)
    accepted = np.ones(runs, dtype=bool)
    converged = np.zeros(runs, dtype=bool)
    for index in range(max_steps + 1):
        if index:
            new_labels0, sunk = _best_labels(counts, factor)
            sunk_columns[live] += sunk
            grouped, totals, new_factor = _ml_factors(operand, new_labels0, n_latent)
            new_objective = _log_likelihoods(grouped, new_factor)
            # Both updates are ascent steps; a strict drop can only be a
            # rounding artifact, so a restart that dips keeps its previous
            # iterate and stops.
            dipped = new_objective < objective
            if dipped.any():
                logger.debug("objective dipped in %d restarts at step %d", dipped.sum(), index)
            accepted = ~dipped
            converged = dipped | (new_objective - objective <= tol)
            labels0 = np.where(accepted[:, np.newaxis], new_labels0, labels0)
            factor = np.where(accepted[:, np.newaxis, np.newaxis], new_factor, factor)
            objective = np.where(accepted, new_objective, objective)
        gap_sq, approx_norm_sq = _gap_terms(totals, factor, *gap_args)
        taken = (live, objective, gap_sq, approx_norm_sq)
        if snapshots:
            taken += (labels0 + 1, factor)
        history.append(tuple(column[accepted] for column in taken))
        finished = converged | (index == max_steps)
        done = live[finished]
        final_labels[done], final_factor[done] = labels0[finished] + 1, factor[finished]
        final_converged[done] = converged[finished]
        going = ~finished
        if not going.any():
            break
        live, labels0, factor, objective = (
            live[going], labels0[going], factor[going], objective[going]
        )
    # Each run's taken iterates, in iteration order.
    taken_runs, *columns = (np.concatenate(column) for column in zip(*history))
    order = np.argsort(taken_runs, kind="stable")
    objectives, gaps, norms, *stacked = (column[order] for column in columns)
    ends = np.cumsum(np.bincount(taken_runs, minlength=runs)).tolist()
    return [
        DbmrTrace(
            objectives=objectives[start:end],
            frob_gap_sq=gaps[start:end],
            approx_norm_sq=norms[start:end],
            labels=final_labels[run],
            factor=final_factor[run],
            converged=bool(final_converged[run]),
            sunk_columns=int(sunk_columns[run]),
            label_snapshots=stacked[0][start:end] if snapshots else None,
            factor_snapshots=stacked[1][start:end] if snapshots else None,
        )
        for run, (start, end) in enumerate(zip([0] + ends[:-1], ends))
    ]


def _final_model(counts: CountMatrix, trace: DbmrTrace, n_latent: int) -> ReducedModel:
    return ReducedModel(
        counts=counts,
        factor=trace.factor,
        affiliation=Partition(labels=trace.labels, n_clusters=n_latent),
    )


def random_affiliation(n_inputs: int, n_latent: int, seed: int) -> Partition:
    """Uniform random labels; deterministic per seed."""
    if n_inputs < 1 or n_latent < 1:
        raise ValueError("n_inputs and n_latent must be positive")
    return Partition(labels=_random_labels(n_inputs, n_latent, seed), n_clusters=n_latent)


def _random_labels(n_inputs: int, n_latent: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(1, n_latent + 1, size=n_inputs)


def multi_start(
    counts: CountMatrix,
    n_latent: int,
    runs: int,
    max_steps: int = 500,
    seed: int = 0,
    tol: float = 0.0,
    snapshots: bool = False,
) -> tuple[ReducedModel, int, list[DbmrTrace]]:
    """Run from ``runs`` random initial affiliations; return the best model.

    Run i draws its initial affiliation from a sub-seed mixed from ``seed``
    and i. The best run maximizes the final objective; ties keep the lowest
    run index. Returns (best model, best run index, all traces).
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    if n_latent < 1:
        raise ValueError("n_latent must be positive")
    m, n = counts.shape
    chunk = max(1, BATCH_ENTRIES // (n_latent * (m + n)))
    traces: list[DbmrTrace] = []
    for start in range(0, runs, chunk):
        inits = np.stack([
            _random_labels(n, n_latent, mix_seed(seed, run))
            for run in range(start, min(start + chunk, runs))
        ])
        traces += _ascend(counts, inits - 1, n_latent, max_steps, tol, snapshots)
    finals = [trace.objectives[-1] for trace in traces]
    best_index = finals.index(max(finals))
    return _final_model(counts, traces[best_index], n_latent), best_index, traces


def reduce_with_affiliation(counts: CountMatrix, affiliation: Partition) -> ReducedModel:
    """Maximum-likelihood reduction for a fixed affiliation, no iteration."""
    return ReducedModel(
        counts=counts, factor=update_factor(counts, affiliation), affiliation=affiliation
    )


def output_partition(reduced: ReducedModel) -> Partition:
    """Group output categories by the latent state with the largest factor entry.

    Ties take the smallest label; clusters may be empty.
    """
    labels0 = np.argmax(reduced.factor, axis=1)
    return Partition(labels=labels0 + 1, n_clusters=reduced.n_latent)


def reduced_singular_values(reduced: ReducedModel) -> np.ndarray:
    """Singular values of the rescaled approximation, padded to min(m, n).

    The rescaled approximation factors through an (outputs x latent) core whose
    columns carry the square root of each latent state's input mass, against an
    orthonormal row frame; the core's SVD therefore matches the full matrix's.
    """
    model = reduced.model
    core = (
        reduced.factor
        * np.sqrt(reduced.masses)[np.newaxis, :]
        / np.sqrt(model.output_dist)[:, np.newaxis]
    )
    sigma = np.linalg.svd(core, compute_uv=False)
    size = min(model.shape)
    if sigma.size >= size:
        return sigma[:size]
    return np.concatenate([sigma, np.zeros(size - sigma.size)])
