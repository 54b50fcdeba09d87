"""Direct Bayesian model reduction by alternating likelihood ascent.

A reduced model of a count matrix is a left-stochastic factor of shape
(outputs, latent) plus a hard affiliation of input categories to latent
states; what the bound chain and the projection checks read of it derives
from these once. The alternating loop maximizes the relaxed log-likelihood
of the observed counts: affiliations pick the best latent column per input,
the factor renormalizes grouped counts. Both update steps are monotone in
the relaxed log-likelihood.

The factor of any iterate derives from its labels (``ml_factors``) bit for
bit, as sums of integer counts are exact, so a trace keeps no factor. Where
column j has a count N_ij, its state's entry is at least N_ij / T_k > 0.

All restarts ascend together: each iteration scores and groups the counts
of every restart still ascending with one call per kernel, their factors
stacked as (runs, m, r). Each restart keeps the arithmetic, and so the
trace, it has when ascending alone, and retires when its objective dips or
stalls or it reaches its step cap. ``dbmr_run`` is the batch of one.
Restarts run in consecutive chunks of max(1, BATCH_ENTRIES // (r (m + n)))
restarts; each chunk's initial labels are the next rows of one generator's draw.

Around the two kernel calls a step works on whole stacks, never per run:
- an iterate's factors are logged once, in place and floored at -1e300,
  for its objectives and its scores;
- the latent totals are one bincount of the counts' exact column totals,
  equal bit for bit to the grouped columns' sums;
- a run's objective is sum G log F over all m r entries of its block, a zero
  G adding -0: one product of the stacks and one row sum, each row added
  pairwise as the run's sum alone, so its bits depend on no other run;
- the labels come from r - 1 elementwise passes over the score slices with
  a strict ``>``, so ties keep the first state, as ``np.argmax`` does;
- a step takes the new factors as they are; a restart that dipped retires;
- the two stacks and the kernels' work area are views of one float64
  block per chunk, whose first rows hold the restarts still ascending, so
  its pages are not handed back to the OS and faulted in again every step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._accel import group_sums, latent_scores
from .model import CountMatrix, Partition, TransitionModel
from .seeding import rng_for

logger = logging.getLogger(__name__)

# A chunk of A restarts ascends in one block: two stacks of A * r * m
# float64 entries and a work area of A * r * (m + n). This caps
# A * r * (m + n), so the work area is at most 8 MB and the block 24 MB. The
# 100 restarts of an r = 3 fit on a 100 x 100 matrix form one chunk, a
# 0.96 MB block; on a 2048 x 2048 matrix a chunk holds 85 restarts, 16.7 MB.
BATCH_ENTRIES = 2**20
# Refused above this many entries of runs x r x (m + n): a report derives
# all final factors as one (runs, m, r) stack, 512 MB of float64 at most.
MAX_STACK_ENTRIES = 2**26


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
    other piece derives from them at most once.
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
        if factor.min() < 0.0:
            raise ValueError("factor has negative entries")
        gap = np.abs(factor.sum(axis=0) - 1.0).max()
        if gap > 1e-9:
            raise ValueError(f"factor columns must sum to 1 within 1e-9 (off by {gap:g})")

    @property
    def model(self) -> TransitionModel:
        return self.counts.model

    @property
    def n_latent(self) -> int:
        return self.affiliation.n_clusters

    @property
    def inactive(self) -> tuple[int, ...]:
        return self.affiliation.inactive

    @cached_property
    def log_likelihood(self) -> float:
        """Relaxed log-likelihood: sum N log L over the positive counts, in the
        order of ``CountMatrix.full_log_likelihood``; -inf where L is zero on one."""
        with np.errstate(divide="ignore"):
            return float(np.sum(self.counts.counts.data * np.log(self.nonzero_view.approx)))

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
class DbmrTrace:
    """Iterates of one run, the initial one first: ``objectives`` holds one
    entry per iterate.

    ``labels`` are the final iterate's; with snapshots, ``label_snapshots``
    (iterates, n) holds every iterate's. An iterate's factor is ``ml_factors``
    of its labels, bit for bit the ascent's, and what else a table lists
    derives from both. The run stopped on a stall or a dip when
    ``converged``, on a dip when ``dipped``.
    """

    objectives: np.ndarray
    labels: np.ndarray
    converged: bool
    dipped: bool
    label_snapshots: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return self.objectives.size - 1


def _log_likelihoods(grouped: np.ndarray, log_factor: np.ndarray, work=None) -> np.ndarray:
    """Per run, the sum of G log F over all m r entries of its (m, r) block,
    added pairwise in row-major order as ``np.add.reduce`` adds a run alone.
    Both arrays are (runs, m, r); the second holds log F floored at -1e300,
    so a zero G adds -0. ``work`` (``grouped.size`` float64 entries,
    allocated if not given) holds the products.
    """
    runs = grouped.shape[0]
    out = None if work is None else work[:grouped.size].reshape(runs, -1)
    products = np.multiply(grouped.reshape(runs, -1), log_factor.reshape(runs, -1), out=out)
    return products.sum(axis=1)


def ml_factors(
    counts: CountMatrix, labels0: np.ndarray, n_latent: int, out=None, work=None
) -> tuple[np.ndarray, np.ndarray]:
    """(grouped counts, maximum-likelihood factors) for the 0-based labels in
    each row of ``labels0``, both (runs, m, n_latent). Latent states without
    inputs get the uniform column. ``out``, when given, is the pair of
    arrays to fill; ``work`` is ``group_sums``'s."""
    grouped, factor = (None, None) if out is None else out
    grouped = group_sums(counts.operand, labels0, n_latent, out=grouped, work=work)
    # Sums of integer counts are exact, so these latent totals equal the
    # grouped columns' sums bit for bit.
    totals = latent_sums(labels0, counts.column_totals, n_latent)
    with np.errstate(invalid="ignore"):
        factor = np.divide(grouped, totals[:, np.newaxis, :], out=factor)
    empty = totals == 0.0
    if empty.any():
        np.swapaxes(factor, 1, 2)[empty] = 1.0 / factor.shape[1]
    return grouped, factor


def _pick_labels(scores: np.ndarray) -> np.ndarray:
    """Per run of the (runs, r, n) ``scores``: the best 0-based latent state
    per input column, the first of tied ones as ``np.argmax`` picks it.
    Overwrites ``scores[:, 0]``.
    """
    best = scores[:, 0]
    labels0 = np.zeros(best.shape, dtype=np.intp)
    for k in range(1, scores.shape[1]):
        better = scores[:, k] > best
        np.copyto(labels0, k, where=better)
        np.copyto(best, scores[:, k], where=better)
    return labels0


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

    The trace records every iterate including the initial one, with label
    snapshots of each when ``snapshots`` is true; it always keeps the final
    labels. The latent states are the clusters of ``init``.
    """
    if init.size != counts.shape[1]:
        raise ValueError(f"init covers {init.size} of {counts.shape[1]} inputs")
    (trace,) = _ascend(
        counts, (init.labels - 1)[np.newaxis], init.n_clusters, max_steps, tol, snapshots
    )
    return reduce_with_affiliation(counts, Partition(trace.labels, init.n_clusters)), trace


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
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, not {tol}")
    runs = labels0.shape[0]
    m, n = counts.shape
    r, operand = n_latent, counts.operand
    # Stacks 0 and 1 take turns holding the grouped counts and the log
    # factors; the work holds a step's scores, then its one-hot labels and
    # their product, then the objective's products.
    block = np.empty(runs * r * (3 * m + n))
    stacks = block[:2 * runs * m * r].reshape(2, runs, m, r)
    work = block[2 * runs * m * r:]
    factors_at = 0  # the stack that holds the log factors
    final_labels = np.empty_like(labels0)
    final_converged = np.zeros(runs, dtype=bool)
    final_dipped = np.zeros(runs, dtype=bool)
    # Per iteration, the runs whose iterate was taken and that iterate's
    # objective, plus its labels with snapshots.
    history: list[tuple[np.ndarray, ...]] = []
    live = np.arange(runs)  # rows of the restarts still ascending

    def iterate(labels0):
        # An iterate's one log, floored at -1e300 where F is zero, serves its
        # objective and its scores.
        live = len(labels0)
        grouped, factor = stacks[1 - factors_at, :live], stacks[factors_at, :live]
        ml_factors(counts, labels0, r, out=(grouped, factor), work=work)
        with np.errstate(divide="ignore"):
            np.log(factor, out=factor)
        np.maximum(factor, -1e300, out=factor)
        return factor, _log_likelihoods(grouped, factor, work=work)

    log_factor, objective = iterate(labels0)
    accepted = None  # rows whose iterate was taken, when not all were
    converged = dipped = np.zeros(runs, dtype=bool)
    for index in range(max_steps + 1):
        if index:
            scores = latent_scores(operand, log_factor, out=work[:live.size * r * n].reshape(-1, r, n))
            # The new log factors take the place of these, read by now.
            new_labels0 = _pick_labels(scores)
            new_log_factor, new_objective = iterate(new_labels0)
            # Both updates are ascent steps; a strict drop can only be a
            # rounding artifact, so a restart that dips keeps its previous
            # labels and objective and retires below, its factor unread.
            dipped = new_objective < objective
            converged = dipped | (new_objective - objective <= tol)
            accepted = ~dipped if dipped.any() else None
            if accepted is not None:
                logger.debug("objective dipped in %d restarts at step %d", dipped.sum(), index)
                new_labels0 = np.where(accepted[:, np.newaxis], new_labels0, labels0)
                new_objective = np.where(accepted, new_objective, objective)
            labels0, log_factor, objective = new_labels0, new_log_factor, new_objective
        taken = (live, objective)
        if snapshots:
            taken += (labels0 + 1,)
        history.append(taken if accepted is None else tuple(column[accepted] for column in taken))
        finished = converged | (index == max_steps)
        if not finished.any():
            continue
        done = live[finished]
        final_labels[done] = labels0[finished] + 1
        final_converged[done], final_dipped[done] = converged[finished], dipped[finished]
        going = ~finished
        if not going.any():
            break
        # The going runs' log factors move to the front of the spent grouped
        # counts' stack; "clip" lets take write straight into its out.
        kept = np.flatnonzero(going)
        factors_at = 1 - factors_at
        log_factor = np.take(log_factor, kept, axis=0, out=stacks[factors_at, :kept.size],
                             mode="clip")
        live, labels0, objective = live[kept], labels0[kept], objective[kept]
    # Each run's taken iterates, in iteration order.
    taken_runs, *columns = (np.concatenate(column) for column in zip(*history))
    order = np.argsort(taken_runs, kind="stable")
    objectives, *snapshot = (column[order] for column in columns)
    ends = np.cumsum(np.bincount(taken_runs, minlength=runs)).tolist()
    return [
        DbmrTrace(
            objectives=objectives[start:end],
            labels=final_labels[run],
            converged=bool(final_converged[run]),
            dipped=bool(final_dipped[run]),
            label_snapshots=snapshot[0][start:end] if snapshots else None,
        )
        for run, (start, end) in enumerate(zip([0] + ends[:-1], ends))
    ]


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

    Run i starts from row i of ``rng_for(seed, 0).integers(1, n_latent + 1,
    size=(runs, n))``, drawn chunk by chunk, for any chunk size and any
    ``runs`` > i. The best run maximizes the final objective; ties keep the
    lowest run index. Returns (best model, best run index, all traces).
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    if n_latent < 1:
        raise ValueError("n_latent must be positive")
    m, n = counts.shape
    if runs * n_latent * (m + n) > MAX_STACK_ENTRIES:
        raise ValueError(f"{runs} restarts of {n_latent} latent states on a {m} x {n} matrix "
                         f"exceed the cap of 2**26 entries of runs x rank x (m + n)")
    chunk = max(1, BATCH_ENTRIES // (n_latent * (m + n)))
    rng = rng_for(seed, 0)
    traces: list[DbmrTrace] = []
    for start in range(0, runs, chunk):
        labels0 = rng.integers(0, n_latent, size=(min(chunk, runs - start), n))
        traces += _ascend(counts, labels0, n_latent, max_steps, tol, snapshots)
    finals = [trace.objectives[-1] for trace in traces]
    best_index = finals.index(max(finals))
    best = reduce_with_affiliation(counts, Partition(traces[best_index].labels, n_latent))
    return best, best_index, traces


def reduce_with_affiliation(counts: CountMatrix, affiliation: Partition) -> ReducedModel:
    """Maximum-likelihood reduction for a fixed affiliation, no iteration.

    Columns of latent states with no affiliated inputs have no data; they are
    set to the uniform distribution and logged.
    """
    if affiliation.size != counts.shape[1]:
        raise ValueError(
            f"affiliation covers {affiliation.size} of {counts.shape[1]} inputs"
        )
    _, factor = ml_factors(
        counts, (affiliation.labels - 1)[np.newaxis], affiliation.n_clusters
    )
    if affiliation.inactive:
        logger.debug("inactive latent states %s set to uniform", affiliation.inactive)
    return ReducedModel(counts=counts, factor=factor[0], affiliation=affiliation)


def output_partition(reduced: ReducedModel) -> Partition:
    """Group output categories by the latent state with the largest factor entry.

    Ties take the smallest label; clusters may be empty.
    """
    labels0 = np.argmax(reduced.factor, axis=1)
    return Partition(labels=labels0 + 1, n_clusters=reduced.n_latent)


def spectrum_depth(rank: int, size: int) -> int:
    """Leading singular values a report lists: max(rank, 3), at most ``size``."""
    return min(max(rank, 3), size)


def latent_sums(labels0: np.ndarray, weights: np.ndarray, r: int) -> np.ndarray:
    """Per row of the 0-based (runs, n) ``labels0``, the sum of the per-input
    ``weights`` over each of the r latent states; (runs, r). One bincount
    sums every row: row k's labels are offset by k r."""
    runs = labels0.shape[0]
    keys = (labels0 + r * np.arange(runs)[:, np.newaxis]).ravel()
    sums = np.bincount(keys, weights=np.tile(weights, runs), minlength=runs * r)
    return sums.reshape(runs, r)


def reduced_singular_values(
    model: TransitionModel, factors: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """The leading singular values a report lists of the rescaled
    approximation of each stacked reduction: max(r, 3) values, padded with
    zeros and cut to min(m, n); (runs, depth).

    ``factors`` (runs, m, r) and 1-based ``labels`` (runs, n) hold one
    reduction per row. Its rescaled approximation factors through an
    (outputs x latent) core whose columns carry the square root of each
    latent state's input mass, against an orthonormal row frame; the core's
    SVD therefore matches the full matrix's. All cores go to one SVD call,
    which factors each on its own, so a row's values are bitwise those of its
    reduction alone.
    """
    runs, _, r = factors.shape
    masses = latent_sums(labels - 1, model.input_dist, r)
    cores = factors * np.sqrt(masses)[:, np.newaxis, :] / np.sqrt(model.output_dist)[:, np.newaxis]
    sigma = np.linalg.svd(cores, compute_uv=False)
    depth = spectrum_depth(r, min(model.shape))
    if sigma.shape[1] >= depth:
        return sigma[:, :depth]
    return np.concatenate([sigma, np.zeros((runs, depth - sigma.shape[1]))], axis=1)
