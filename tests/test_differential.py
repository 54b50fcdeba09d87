"""Differential checks of the sparse-aware program against dense references.

Hypothesis draws small count matrices: single rows or columns, duplicate and
proportional columns (exact block fits), affiliations with more latent
states than inputs or with empty latent states, and factors with zeros that
sink input columns to -inf for every latent state. The two DBMR kernels run
on a dense array and on a scipy sparse matrix; the bound chain runs on the
nonzeros of P. Each result is compared with the dense formulas in
``tests/dense_reference.py``. The batched DBMR ascent is compared, bit for
bit, with the sequential one kept there, and the batched k-means restarts,
on points with repeated rows, with the restarts run one at a time. The
model estimated on the entries of the counts, its likelihood and norm, the
cluster scores and the truncation's smallest entry are compared with the
dense m x n formulas kept there too.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from cohsets import _accel, dbmr, model as model_module, svd
from cohsets.bounds import (
    _weighted_kl_sum,
    bound_constants,
    coherence_lower_bound,
    frobenius_kl_bound,
)
from cohsets.dbmr import (
    ReducedModel,
    dbmr_run,
    multi_start,
    random_affiliation,
    reduce_with_affiliation,
)
from cohsets.generators import GyreConfig, gen_double_gyre
from cohsets.model import CountMatrix, Partition, estimate, ingest_pairs, prune_empty, rescale
from cohsets.projection import pythagoras_check, verify_factorization
from cohsets.report import compare_experiment, multirun_experiment
from cohsets.seeding import mix_seed, rng_for
from cohsets.svd import _coherence_scores, classical_pipeline, full_svd, reduced_min_entry, truncate
from tests.dense_reference import (
    dense,
    best_labels_reference,
    bound_constants_dense,
    coherence_scores_dense,
    estimate_dense,
    log_likelihood_dense,
    rescaled_norm_sq_dense,
    truncate_dense,
    frob_gap_sq_dense,
    dbmr_run_reference,
    group_sums_loop,
    kmeans_reference,
    latent_scores_loop,
    lloyd_reference,
    multi_start_reference,
    pythagoras_check_dense,
    verify_factorization_reference,
    weighted_kl_sum_dense,
    zeros_max_dense,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SIZES = st.sampled_from([1, 2, 3, 5, 7])
COUNTS = st.sampled_from([0, 0, 0, 1, 2, 6])


@st.composite
def count_arrays(draw):
    """(counts, block labels or None); block columns are proportional copies."""
    m, n = draw(SIZES), draw(SIZES)
    kind = draw(st.sampled_from(["random", "blocks"]))
    if kind == "random":
        return draw(arrays(np.int64, (m, n), elements=COUNTS)), None
    blocks = draw(st.integers(1, n))
    base = draw(arrays(np.int64, (m, blocks), elements=COUNTS))
    labels0 = draw(arrays(np.int64, n, elements=st.integers(0, blocks - 1)))
    scale = draw(arrays(np.int64, n, elements=st.integers(1, 3)))
    return base[:, labels0] * scale, labels0


@st.composite
def factors(draw, m, r, counts=None):
    """Factor entries in [0, 1] with zeros; optionally a zero row under a
    positive count, which sinks that count's column for every latent state."""
    factor = draw(arrays(np.float64, (m, r), elements=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])))
    if counts is not None and counts.any() and draw(st.booleans()):
        rows, _ = np.nonzero(counts)
        factor[rows[draw(st.integers(0, rows.size - 1))]] = 0.0
    return factor


@SETTINGS
@given(data=st.data())
def test_kernels_match_loops_on_both_storages(data):
    counts, _ = data.draw(count_arrays())
    counts = counts.astype(np.float64)
    m, n = counts.shape
    r = data.draw(st.integers(1, n + 2))
    factor = data.draw(factors(m, r, counts))
    labels0 = data.draw(arrays(np.int64, n, elements=st.integers(0, r - 1)))
    expected_scores = latent_scores_loop(counts, factor)
    expected_sums = group_sums_loop(counts, labels0, r)
    for operand in (counts, sparse.csc_array(counts), sparse.csr_array(counts)):
        scores = _accel.latent_scores(operand, factor)
        assert scores.shape == (r, n)
        assert np.array_equal(np.isneginf(scores), np.isneginf(expected_scores))
        finite = np.isfinite(expected_scores)
        np.testing.assert_allclose(scores[finite], expected_scores[finite], rtol=1e-12, atol=1e-12)
        # integer sums are exact on both storages
        assert np.array_equal(_accel.group_sums(operand, labels0, r), expected_sums)


@st.composite
def reductions(draw):
    """(counts, model, reduced, exact): a pruned count matrix, its model, and
    a reduction; ``exact`` marks the ML factor of the generating blocks."""
    counts, blocks = draw(count_arrays())
    if counts.sum() == 0:
        counts = counts.copy()
        counts[0, 0] = 1
        blocks = None
    pruned, _, col_map = prune_empty(CountMatrix(counts=counts, total=int(counts.sum())))
    model = estimate(pruned)
    m, n = pruned.shape
    exact = blocks is not None and draw(st.booleans())
    if exact:
        kept = blocks[col_map - 1]
        r = int(kept.max()) + 1
        # blocks whose columns were all pruned leave latent states empty
        affiliation = Partition(labels=kept + 1, n_clusters=r)
    else:
        r = draw(st.integers(1, n + 2))
        affiliation = Partition(
            labels=draw(arrays(np.int64, n, elements=st.integers(1, r))), n_clusters=r
        )
    if exact or draw(st.booleans()):
        reduced = reduce_with_affiliation(pruned, affiliation)
        if draw(st.booleans()):
            # an ML factor with one entry raised and its column renormalized,
            # off the fit when exact
            factor = reduced.factor.copy()
            k = draw(st.integers(0, r - 1))
            factor[draw(st.integers(0, m - 1)), k] += draw(st.sampled_from([1e-17, 0.01]))
            factor[:, k] /= factor[:, k].sum()
            reduced = ReducedModel(counts=pruned, factor=factor, affiliation=affiliation)
            exact = False
    else:
        factor = draw(factors(m, r))
        factor[draw(st.integers(0, m - 1))] += 0.5  # every column carries mass
        reduced = ReducedModel(
            counts=pruned, factor=factor / factor.sum(axis=0), affiliation=affiliation
        )
    return pruned, model, reduced, exact


@SETTINGS
@given(case=reductions())
def test_bound_chain_matches_dense_formulas(case):
    counts, model, reduced, exact = case
    kappa_diff, kappa_col, deviations = bound_constants_dense(model, reduced)
    kappa_prior = 0.5 * model.output_dist.min()
    try:
        constants = bound_constants(reduced)
    except FloatingPointError:
        assert max(kappa_diff, kappa_col) < kappa_prior - 1e-12 * (1.0 + kappa_prior)
        return
    # maxima and the row-ordered column sums of P are reproduced exactly
    assert np.array_equal(constants.deviations, deviations)
    np.testing.assert_allclose(constants.kappa_col, kappa_col, rtol=1e-14)
    np.testing.assert_allclose(constants.kappa_diff, kappa_diff, rtol=1e-12)
    np.testing.assert_allclose(
        _weighted_kl_sum(reduced), weighted_kl_sum_dense(model, reduced), rtol=1e-14
    )
    weighted = reduced.factor / model.output_dist[:, np.newaxis]
    assert np.array_equal(
        reduced.nonzero_view.zeros_max(weighted),
        zeros_max_dense(dense(model.matrix), weighted, reduced.affiliation.labels - 1),
    )
    gap, dense_gap = reduced.frob_gap_sq, frob_gap_sq_dense(model, reduced)
    assert abs(gap - dense_gap) <= 1e-12 * (dense_gap + model.rescaled_norm_sq)
    if exact:
        # the zeros of an exact fit contribute exactly nothing
        assert gap <= 1e-24
    bound = frobenius_kl_bound(reduced)
    assert bound.frob_gap_sq == gap
    # Pythagoras reads the chain's gap, and the chain's coherence bound is
    # the one coherence_lower_bound gives for its kappa
    assert pythagoras_check(reduced)[0] == bound.frob_gap_sq
    if bound.kappa_value > 0.0:
        assert coherence_lower_bound(reduced, bound.kappa_value) == bound.coherence_bound


def _assert_close(value, expected, scale=None):
    """Agreement within 1e-12 relative to ``scale`` (default: the expected value)."""
    scale = np.abs(expected) if scale is None else scale
    assert np.all(np.abs(np.asarray(value) - expected) <= 1e-12 * scale)


@SETTINGS
@given(case=reductions(), data=st.data())
def test_entry_model_matches_dense_formulas(case, data):
    """P, p and q, the full model's likelihood and rescaled norm, the cluster
    scores and the truncation estimated on the entries of the counts agree
    with the dense m x n formulas, on both storages. The drawn matrices
    include a single category, columns with one nonzero, exact block fits,
    truncation ranks up to min(m, n) and partitions with empty clusters."""
    pruned, _, reduced, _ = case
    storage = data.draw(st.sampled_from(["dense", "sparse"]))
    with pytest.MonkeyPatch.context() as patch:
        counts = _counts_on_storage(patch, dense(pruned), storage)
        model = counts.model
    P, p, q = estimate_dense(counts)
    _assert_close(dense(model.matrix), P)
    _assert_close(model.input_dist, p)
    _assert_close(model.output_dist, q)
    _assert_close(model.rescaled_norm_sq, rescaled_norm_sq_dense(P, p, q))
    _assert_close(counts.full_log_likelihood, log_likelihood_dense(counts, P))
    m, n = counts.shape
    r = reduced.n_latent
    outputs = Partition(labels=data.draw(arrays(np.int64, m, elements=st.integers(1, r))), n_clusters=r)
    with np.errstate(invalid="ignore"):  # an empty input cluster scores 0 / 0
        scores = _coherence_scores(model, reduced.affiliation, outputs)
        expected = coherence_scores_dense(P, p, reduced.affiliation, outputs)
    assert np.array_equal(np.isnan(scores), np.isnan(expected))
    _assert_close(scores[~np.isnan(expected)], expected[~np.isnan(expected)])
    factorization = full_svd(model.rescaled, data.draw(st.integers(1, min(m, n) + 1)))
    rank = data.draw(st.integers(1, factorization.rank))
    reference = truncate_dense(factorization, rank, p, q)
    scale = np.abs(reference).max()
    _assert_close(truncate(factorization, rank, p, q), reference, scale)
    _assert_close(reduced_min_entry(factorization, rank, p, q), reference.min(), scale)


def test_exact_fit_gaps(three_example, three_affiliation, interval_example,
                        interval_affiliation):
    counts, _, _ = three_example
    bound = frobenius_kl_bound(reduce_with_affiliation(counts, three_affiliation))
    assert bound.frob_gap_sq <= 1e-24
    counts, _, _ = interval_example
    bound = frobenius_kl_bound(reduce_with_affiliation(counts, interval_affiliation))
    assert abs(bound.frob_gap_sq - 27.0) <= 1e-12


def test_off_support_mass_is_never_snapped(three_example, three_affiliation):
    """An exact fit on the support with mass off it deviates infinitely."""
    counts, model, _ = three_example
    exact = reduce_with_affiliation(counts, three_affiliation)
    for extra in (1e-17, 0.01):
        factor = exact.factor.copy()
        factor[60, 0] += extra  # row 60 carries no count of latent state 1's inputs
        factor[:, 0] /= factor[:, 0].sum()
        reduced = ReducedModel(counts=counts, factor=factor, affiliation=three_affiliation)
        deviations = bound_constants(reduced).deviations
        assert np.array_equal(deviations, bound_constants_dense(model, reduced)[2])
        state_one = three_affiliation.labels == 1
        assert (deviations[state_one] == (np.inf if extra > 1e-9 else 0.0)).all()


def _counts_on_storage(monkeypatch, counts_array, storage):
    """A fresh CountMatrix whose operand takes ``storage``."""
    if storage == "sparse":
        monkeypatch.setattr(model_module, "SPARSE_MIN_ENTRIES", 0)
        monkeypatch.setattr(model_module, "SPARSE_MAX_DENSITY", 1.0)
    else:
        monkeypatch.setattr(model_module, "SPARSE_MAX_DENSITY", -1.0)
    counts = CountMatrix(counts=counts_array, total=int(counts_array.sum()))
    assert counts.storage == storage
    assert sparse.issparse(counts.operand) == (storage == "sparse")
    return counts


def _runs_on_storage(monkeypatch, counts_array, storage, init):
    """DBMR run on a fresh CountMatrix whose operand takes ``storage``."""
    counts = _counts_on_storage(monkeypatch, counts_array, storage)
    return dbmr_run(counts, init, snapshots=True)


@pytest.mark.parametrize("source", ["three", "interval", "gyre"])
def test_dbmr_identical_on_both_storages(monkeypatch, source, three_example,
                                         interval_example):
    if source == "gyre":
        dataset, _ = gen_double_gyre(GyreConfig(nx=16, ny=8, points_per_box=8, t_end=1.0))
        counts, _, _ = prune_empty(ingest_pairs(dataset))
    else:
        counts = (three_example if source == "three" else interval_example)[0]
    for seed in range(3):
        init = random_affiliation(counts.shape[1], 3, seed)
        with monkeypatch.context() as patch:
            dense_reduced, dense_trace = _runs_on_storage(patch, counts.counts, "dense", init)
        with monkeypatch.context() as patch:
            sparse_reduced, sparse_trace = _runs_on_storage(patch, counts.counts, "sparse", init)
        assert np.array_equal(dense_reduced.affiliation.labels, sparse_reduced.affiliation.labels)
        assert np.array_equal(dense_reduced.factor, sparse_reduced.factor)
        assert dense_trace.iterations == sparse_trace.iterations
        assert dense_trace.sunk_columns == sparse_trace.sunk_columns
        assert [s.objective for s in dense_trace.steps] == [s.objective for s in sparse_trace.steps]


def _assert_same_restarts(batched, sequential):
    """Best model, best run and every trace agree bit for bit."""
    (best, best_run, traces), (ref_best, ref_run, ref_traces) = batched, sequential
    assert best_run == ref_run
    assert np.array_equal(best.factor, ref_best.factor)
    assert np.array_equal(best.affiliation.labels, ref_best.affiliation.labels)
    assert len(traces) == len(ref_traces)
    for trace, ref in zip(traces, ref_traces):
        assert trace.iterations == ref.iterations
        assert trace.converged == ref.converged
        assert trace.sunk_columns == ref.sunk_columns
        for step, ref_step in zip(trace.steps, ref.steps):
            assert step.index == ref_step.index
            assert step.objective == ref_step.objective
            assert step.frob_gap_sq == ref_step.frob_gap_sq
            assert step.approx_norm_sq == ref_step.approx_norm_sq
            for value, ref_value in ((step.labels, ref_step.labels), (step.factor, ref_step.factor)):
                assert (value is None) == (ref_value is None)
                if value is not None:
                    assert np.array_equal(value, ref_value)


def _chunked(patch, counts, n_latent, restarts_per_chunk):
    """Cap the batch so that chunks hold ``restarts_per_chunk`` restarts."""
    m, n = counts.shape
    patch.setattr(dbmr, "BATCH_ENTRIES", restarts_per_chunk * n_latent * (m + n))


@SETTINGS
@given(data=st.data())
def test_multi_start_matches_sequential_runs(data):
    """The batched ascent reproduces R sequential runs: labels, factors, step
    objectives and gaps, iterations, convergence, sunk columns, best run."""
    counts_array, _ = data.draw(count_arrays())
    if counts_array.sum() == 0:
        counts_array = counts_array.copy()
        counts_array[0, 0] = 1
    pruned, _, _ = prune_empty(CountMatrix(counts=counts_array, total=int(counts_array.sum())))
    n_latent = data.draw(st.integers(1, pruned.shape[1] + 2))
    runs = data.draw(st.integers(1, 7))
    options = dict(
        max_steps=data.draw(st.sampled_from([1, 2, 3, 500])),
        seed=data.draw(st.integers(0, 50)),
        snapshots=data.draw(st.booleans()),
    )
    storage = data.draw(st.sampled_from(["dense", "sparse"]))
    per_chunk = data.draw(st.sampled_from([None, 1, 2, 3]))
    with pytest.MonkeyPatch.context() as patch:
        counts = _counts_on_storage(patch, pruned.counts, storage)
        if per_chunk is not None:
            _chunked(patch, counts, n_latent, per_chunk)
        batched = multi_start(counts, n_latent, runs, **options)
        sequential = multi_start_reference(counts, n_latent, runs, **options)
    _assert_same_restarts(batched, sequential)


@SETTINGS
@given(data=st.data())
def test_batched_kernels_and_labels_match_single_runs(data):
    """Stacked factors and labels give each run's single-run scores, group
    sums, labels and sunk-column counts, on both storages."""
    counts_array, _ = data.draw(count_arrays())
    m, n = counts_array.shape
    r = data.draw(st.integers(1, n + 2))
    runs = data.draw(st.integers(1, 4))
    factor = np.stack([data.draw(factors(m, r, counts_array)) for _ in range(runs)])
    labels0 = data.draw(arrays(np.int64, (runs, n), elements=st.integers(0, r - 1)))
    for storage in ("dense", "sparse"):
        with pytest.MonkeyPatch.context() as patch:
            counts = _counts_on_storage(patch, counts_array, storage)
            scores = _accel.latent_scores(counts.operand, factor)
            sums = _accel.group_sums(counts.operand, labels0, r)
            labels, sunk = dbmr._best_labels(counts, factor)
            for run in range(runs):
                single = _accel.latent_scores(counts.operand, factor[run])
                assert np.array_equal(scores[run], single)
                assert np.array_equal(sums[run], group_sums_loop(counts_array, labels0[run], r))
                ref_labels, ref_sunk = best_labels_reference(counts.operand, factor[run])
                assert np.array_equal(labels[run], ref_labels)
                assert sunk[run] == ref_sunk


@pytest.mark.parametrize("shape", [(7, 1, 3), (94, 108, 2)])
def test_stacked_dense_scores_match_single_runs(shape):
    """Scores of stacked factors equal single-run scores bit for bit where one
    BLAS product of all blocks side by side would not: on one input column
    (matrix-vector path) and on products large enough to be threaded."""
    m, n, r = shape
    rng = np.random.default_rng(73)
    for _ in range(60 if n == 1 else 1):
        counts = rng.choice([0.0, 1.0, 2.0, 6.0], size=(m, n))
        runs = int(rng.integers(2, 6)) if n == 1 else 52
        # positive factors: a -inf score would hide the finite sums
        factor = 1.0 - rng.random((runs, m, r))
        scores = _accel.latent_scores(counts, factor)
        for run, single in enumerate(factor):
            assert np.array_equal(scores[run], _accel.latent_scores(counts, single))


@pytest.mark.parametrize("storage", ["dense", "sparse"])
@pytest.mark.parametrize("source", ["three", "interval", "gyre"])
def test_multi_start_matches_sequential_on_examples(source, storage, three_example,
                                                    interval_example):
    """Paper examples and a gyre sample, with and without snapshots and with
    chunk boundaries: restarts retire at different steps, and the lowest of
    equally good restarts wins."""
    if source == "gyre":
        dataset, _ = gen_double_gyre(GyreConfig(nx=16, ny=8, points_per_box=8, t_end=1.0))
        counts_array = prune_empty(ingest_pairs(dataset))[0].counts
    else:
        counts_array = (three_example if source == "three" else interval_example)[0].counts
    for snapshots, per_chunk in ((False, None), (True, 7)):
        with pytest.MonkeyPatch.context() as patch:
            counts = _counts_on_storage(patch, counts_array, storage)
            if per_chunk is not None:
                _chunked(patch, counts, 3, per_chunk)
            batched = multi_start(counts, 3, 20, seed=11, snapshots=snapshots)
            sequential = multi_start_reference(counts, 3, 20, seed=11, snapshots=snapshots)
        _assert_same_restarts(batched, sequential)
        _, best_run, traces = batched
        if source != "interval":  # every interval-map restart stops after 2 pairs
            assert len({trace.iterations for trace in traces}) > 1
        finals = [trace.steps[-1].objective for trace in traces]
        assert best_run == finals.index(max(finals))


def test_multi_start_tie_goes_to_the_lowest_run():
    """Block counts: several restarts end on the same objective; the first wins."""
    counts = CountMatrix(
        counts=np.array([[5, 5, 0, 0], [5, 5, 0, 0], [0, 0, 5, 5], [0, 0, 5, 5]]),
        total=40,
    )
    with pytest.MonkeyPatch.context() as patch:
        _chunked(patch, counts, 2, 2)
        batched = multi_start(counts, 2, runs=9, seed=3)
    _assert_same_restarts(batched, multi_start_reference(counts, 2, runs=9, seed=3))
    _, best_run, traces = batched
    finals = [trace.steps[-1].objective for trace in traces]
    assert finals.count(max(finals)) > 1
    assert best_run == finals.index(max(finals))


@pytest.mark.parametrize("snapshots", [False, True])
def test_derived_steps_equal_the_per_step_trace(snapshots, three_example, interval_example):
    """A trace keeps one array per quantity; the steps derived from it are
    the ones the sequential ascent records step by step, with snapshots on
    every step or on the last one only."""
    for counts in (three_example[0], interval_example[0]):
        for seed, max_steps in itertools.product(range(4), (1, 500)):
            init = random_affiliation(counts.shape[1], 3, seed)
            batched = dbmr_run(counts, init, max_steps=max_steps, snapshots=snapshots)
            sequential = dbmr_run_reference(counts, init, max_steps=max_steps, snapshots=snapshots)
            _assert_same_restarts((*batched[:1], 0, batched[1:]), (*sequential[:1], 0, sequential[1:]))
            trace, ref = batched[1], sequential[1]
            assert trace.objectives.tolist() == [step.objective for step in ref.steps]
            assert trace.frob_gap_sq.tolist() == [step.frob_gap_sq for step in ref.steps]
            assert trace.approx_norm_sq.tolist() == [step.approx_norm_sq for step in ref.steps]
            assert all((step.labels is not None) == snapshots for step in trace.steps[:-1])


@st.composite
def kmeans_cases(draw):
    """k-means arguments: points whose rows repeat a few distinct ones, any
    number of clusters up to the points, 1 to 12 restarts, and iteration
    caps that stop restarts before their labels repeat, in row- or
    column-major layout. The distinct rows are drawn by hypothesis (ties,
    zeros) or are normal samples, whose sums round differently in another
    order."""
    d = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(1, 24))
    shape = (draw(st.integers(1, n)), d)
    if draw(st.booleans()):
        distinct = draw(arrays(np.float64, shape, elements=st.floats(-4.0, 4.0)))
    else:
        distinct = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(shape)
    rows = draw(arrays(np.int64, n, elements=st.integers(0, distinct.shape[0] - 1)))
    # The pipeline clusters column-major slices of the singular vectors.
    layout = draw(st.sampled_from([np.ascontiguousarray, np.asfortranarray]))
    return {
        "points": layout(distinct[rows]),
        "n_clusters": draw(st.integers(1, n)),
        "restarts": draw(st.integers(1, 12)),
        "max_iters": draw(st.sampled_from([1, 2, 3, 100])),
        "seed": draw(st.integers(0, 2**32)),
    }


@SETTINGS
@given(case=kmeans_cases(), per_chunk=st.sampled_from([None, 1, 2, 5]))
def test_kmeans_matches_restarts_run_one_at_a_time(case, per_chunk):
    """The batched Lloyd loop gives every restart the labels, objective and
    repairs of the restart run alone; ``kmeans`` picks the same best
    restart, also across chunks of restarts."""
    points, k, restarts, max_iters, seed = case.values()
    labels, objectives, repairs = svd._lloyd(
        points, k, [rng_for(seed, restart) for restart in range(restarts)], max_iters
    )
    refs = [lloyd_reference(points, k, rng_for(seed, restart), max_iters)
            for restart in range(restarts)]
    for restart, (ref_labels, _, ref_objectives, _) in enumerate(refs):
        assert np.array_equal(labels[restart], ref_labels)
        assert objectives[restart] == ref_objectives[-1]
    assert repairs == sum(ref[3] for ref in refs)
    ref_labels, ref_objective, ref_repairs = kmeans_reference(**case)
    assert objectives.min() == ref_objective
    with pytest.MonkeyPatch.context() as patch:
        if per_chunk is not None:
            patch.setattr(svd, "BATCH_ENTRIES", per_chunk * points.shape[0] * max(k, points.shape[1]))
        partition, total_repairs = svd.kmeans(**case)
    assert np.array_equal(partition.labels, ref_labels)
    assert total_repairs == ref_repairs


def test_storage_follows_shape_and_nonzeros():
    small = np.eye(100, dtype=np.int64)
    assert CountMatrix(counts=small, total=100).storage == "dense"
    # the dense kernels' BLAS products run on C-ordered counts
    assert CountMatrix(counts=small, total=100).operand.flags.c_contiguous
    size = 512
    sparse_counts = np.eye(size, dtype=np.int64)
    counts = CountMatrix(counts=sparse_counts, total=size)
    assert counts.storage == "sparse"
    assert counts.nonzeros == size
    assert sparse.issparse(counts.operand)
    assert np.array_equal(counts.operand.toarray(), sparse_counts)
    full = np.ones((size, size), dtype=np.int64)
    assert CountMatrix(counts=full, total=size * size).storage == "dense"


def _two_per_column(size):
    """(counts, reduction): two counts a column of a size x size matrix, and
    the reduction of a random 3-state affiliation, its model estimated."""
    rng = np.random.default_rng(191)
    counts_array = np.zeros((size, size), dtype=np.int64)
    for shift in (0, 1):
        counts_array[(np.arange(size) + shift * rng.integers(1, size)) % size, np.arange(size)] += 1
    counts = CountMatrix(counts=counts_array, total=int(counts_array.sum()))
    counts.model  # estimated before any tracing, as a caller holding the counts has it
    return counts, reduce_with_affiliation(counts, random_affiliation(size, 3, 0))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_bound_chain_allocates_no_dense_matrix():
    """The bound chain's memory follows the nonzeros, not m x n."""
    size = 2000
    counts, reduced = _two_per_column(size)
    peak = _traced_peak(lambda: frobenius_kl_bound(reduced))
    # an m x n boolean mask alone would take size * size bytes
    assert peak < size * size


def test_factorization_residuals_allocate_no_projection():
    """The residuals need class averages, not the n x n induced projection."""
    size = 2000
    counts, reduced = _two_per_column(size)
    peak = _traced_peak(lambda: verify_factorization(reduced))
    assert peak < 8 * size * size


def test_estimate_and_classical_pipeline_peaks():
    """On a 2048-box gyre sample (0.4 % nonzero) the counts, P, its rescaled
    form and everything a compare derives from them live on the nonzeros:
    estimating the model, the classical pipeline and a whole fresh compare
    each peak below a quarter of one m x n float64 array."""
    config = GyreConfig(nx=64, ny=32, points_per_box=10, t_end=2.0, seed=2000)
    counts, _, _ = prune_empty(ingest_pairs(gen_double_gyre(config)[0]))
    matrix_bytes = 8 * counts.shape[0] * counts.shape[1]

    def fresh():
        return CountMatrix(counts=counts.counts, total=counts.total)

    assert _traced_peak(lambda: estimate(fresh())) < 0.25 * matrix_bytes
    assert _traced_peak(lambda: classical_pipeline(fresh(), 3)) < 0.25 * matrix_bytes
    assert _traced_peak(lambda: compare_experiment(fresh(), 3, runs=5, seed=2)) < 0.25 * matrix_bytes


@SETTINGS
@given(case=reductions())
def test_pythagoras_matches_dense_formula(case):
    """The pair from the nonzeros and the factor equals the dense one for the
    ML factor of any drawn affiliation, empty latent states included."""
    counts, model, reduced, _ = case
    reduced = reduce_with_affiliation(counts, reduced.affiliation)
    p, q = model.input_dist, model.output_dist
    reference = pythagoras_check_dense(dense(model.rescaled), rescale(reduced.approx, p, q))
    tolerance = 1e-12 * (1.0 + model.rescaled_norm_sq)
    for value, expected in zip(pythagoras_check(reduced), reference):
        assert abs(value - expected) <= tolerance


@SETTINGS
@given(case=reductions())
def test_factorization_residuals_match_dense_projection(case):
    """Residuals of ML and of arbitrary factors, with empty latent states,
    equal those through the dense projection up to rounding."""
    _, model, reduced, _ = case
    residuals = verify_factorization(reduced)
    reference = verify_factorization_reference(model, reduced)
    for field in ("factorization", "input_fixed", "output_marginal"):
        assert abs(getattr(residuals, field) - getattr(reference, field)) <= 1e-12


def test_reports_carry_storage_counters(three_example):
    dataset, _ = gen_double_gyre(GyreConfig(nx=32, ny=16, points_per_box=4, t_end=0.5))
    gyre, _, _ = prune_empty(ingest_pairs(dataset))
    for counts, storage in ((three_example[0], "dense"), (gyre, "sparse")):
        report, _ = compare_experiment(counts, 3, runs=3, seed=4)
        summary, _, _ = multirun_experiment(counts, 3, runs=3, seed=4)
        expected = {
            "count_storage": storage,
            "count_nonzeros": int(np.count_nonzero(dense(counts))),
            # each column's own latent state covers its support, so no
            # column of a DBMR iterate scores -inf everywhere
            "dbmr_sunk_columns": 0,
        }
        for diagnostics, seed in ((summary["diagnostics"], 4), (report["diagnostics"], mix_seed(4, 2))):
            _, _, traces = multi_start(counts, 3, runs=3, seed=seed)
            pairs = sum(trace.iterations for trace in traces)
            assert pairs > 0
            assert {key: diagnostics[key] for key in expected} == expected
            assert diagnostics["dbmr_update_pairs"] == pairs
        assert set(summary["diagnostics"]) == set(expected) | {"dbmr_update_pairs"}
        # three triplets of a 100 x 100 or larger matrix come from ARPACK
        assert report["diagnostics"]["svd_path"] == "arpack"
        assert report["diagnostics"]["svd_values_cut"] == 0
        classical = classical_pipeline(counts, 3, seed=mix_seed(4, 1))
        assert report["diagnostics"]["kmeans_repairs"] == classical.kmeans_repairs
