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
dense m x n formulas kept there too, and the PPM images, drawn in blocks of
rows, byte for byte with those the whole-matrix renderer draws.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from cohsets import _accel, dbmr, model as model_module, report, svd
from cohsets.bounds import (
    _weighted_kl_sum,
    bound_constants,
    coherence_lower_bound,
    frobenius_kl_bound,
)
from cohsets.dbmr import (
    ReducedModel,
    dbmr_run,
    ml_factors,
    multi_start,
    reduce_with_affiliation,
    reduced_singular_values,
    spectrum_depth,
)
from cohsets.generators import GyreConfig, gen_double_gyre, gen_three_coherent
from cohsets.model import (
    CountMatrix, Partition, as_csc, count_entries, estimate, ingest_pairs, prune_empty,
)
from cohsets.projection import pythagoras_check, verify_factorization
from cohsets.report import compare_experiment, multirun_experiment, render_compare_images
from cohsets.seeding import mix_seed, rng_for
from cohsets.svd import _coherence_scores, classical_pipeline, full_svd, reduced_min_entry
from tests.conftest import random_counts
from tests.dense_reference import (
    approx_dense,
    dense,
    best_labels_reference,
    bound_constants_dense,
    coherence_scores_dense,
    estimate_dense,
    floored_log,
    log_likelihood_dense,
    rescaled_norm_sq_dense,
    truncate_dense,
    truncate_reference,
    frob_gap_sq_dense,
    dbmr_run_reference,
    group_sums_loop,
    kmeans_reference,
    latent_scores_loop,
    lloyd_reference,
    multi_start_reference,
    pythagoras_check_dense,
    random_partition,
    reduced_singular_values_reference,
    render_matrix_image_reference,
    rescale_dense,
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
        scores = _accel.latent_scores(operand, floored_log(factor))
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
    assert bound["frob_gap_sq"] == gap
    # the chain's coherence bound is the one coherence_lower_bound gives for its kappa
    if bound["kappa_value"] > 0.0:
        assert coherence_lower_bound(reduced, bound["kappa_value"]) == bound["coherence_bound"]


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
    _assert_close(truncate_reference(factorization, rank, p, q), reference, scale)
    _assert_close(reduced_min_entry(factorization, rank, p, q), reference.min(), scale)


def test_exact_fit_gaps(three_example, three_affiliation, interval_example,
                        interval_affiliation):
    counts, _, _ = three_example
    bound = frobenius_kl_bound(reduce_with_affiliation(counts, three_affiliation))
    assert bound["frob_gap_sq"] <= 1e-24
    counts, _, _ = interval_example
    bound = frobenius_kl_bound(reduce_with_affiliation(counts, interval_affiliation))
    assert abs(bound["frob_gap_sq"] - 27.0) <= 1e-12


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
    counts = CountMatrix(counts=counts_array, total=int(dense(counts_array).sum()))
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
        init = random_partition(counts.shape[1], 3, seed)
        with monkeypatch.context() as patch:
            dense_reduced, dense_trace = _runs_on_storage(patch, counts.counts, "dense", init)
        with monkeypatch.context() as patch:
            sparse_reduced, sparse_trace = _runs_on_storage(patch, counts.counts, "sparse", init)
        assert np.array_equal(dense_reduced.affiliation.labels, sparse_reduced.affiliation.labels)
        assert np.array_equal(dense_reduced.factor, sparse_reduced.factor)
        assert dense_trace.iterations == sparse_trace.iterations
        assert dense_trace.dipped == sparse_trace.dipped
        assert dense_trace.objectives.tolist() == sparse_trace.objectives.tolist()


def _assert_same_restarts(batched, sequential):
    """Best model, best run and every trace agree bit for bit. The factors of
    the best model, of every final iterate and of every snapshot, derived
    from their labels with one stacked ``ml_factors`` call each, are the
    sequential ascent's step factors."""
    (best, best_run, traces), (ref_best, ref_run, ref_traces) = batched, sequential
    counts, r = best.counts, best.n_latent
    assert best_run == ref_run
    assert best.factor.tobytes() == ref_best.factor.tobytes()
    assert np.array_equal(best.affiliation.labels, ref_best.affiliation.labels)
    assert len(traces) == len(ref_traces)
    finals = np.stack([trace.labels for trace in traces])
    final_factors = ml_factors(counts, finals - 1, r)[1]
    ref_finals = np.stack([ref.steps[-1].factor for ref in ref_traces])
    assert final_factors.tobytes() == ref_finals.tobytes()
    for trace, ref in zip(traces, ref_traces):
        assert trace.iterations == ref.iterations
        assert trace.converged == ref.converged
        assert trace.dipped == ref.dipped
        assert trace.objectives.tolist() == [step.objective for step in ref.steps]
        assert np.array_equal(trace.labels, ref.steps[-1].labels)
        if trace.label_snapshots is None:
            assert all(step.labels is None for step in ref.steps[:-1])
            labels, ref_steps = trace.labels[np.newaxis], ref.steps[-1:]
        else:
            assert np.array_equal(trace.label_snapshots, [step.labels for step in ref.steps])
            labels, ref_steps = trace.label_snapshots, ref.steps
        factors = ml_factors(counts, labels - 1, r)[1]
        assert factors.tobytes() == np.stack([step.factor for step in ref_steps]).tobytes()
        # the gap terms derived from the iterates are the sequential ascent's
        gaps, norms = pythagoras_check(counts, factors, labels)
        assert gaps.tolist() == [step.frob_gap_sq for step in ref_steps]
        assert norms.tolist() == [step.approx_norm_sq for step in ref_steps]
    if traces[0].label_snapshots is not None:
        # all snapshots at once, as multirun --trace derives them
        snapshots = np.concatenate([trace.label_snapshots for trace in traces])
        factors = ml_factors(counts, snapshots - 1, r)[1]
        ref_factors = [step.factor for ref in ref_traces for step in ref.steps]
        assert factors.tobytes() == np.stack(ref_factors).tobytes()


def _chunked(patch, counts, n_latent, restarts_per_chunk):
    """Cap the batch so that chunks hold ``restarts_per_chunk`` restarts."""
    m, n = counts.shape
    patch.setattr(dbmr, "BATCH_ENTRIES", restarts_per_chunk * n_latent * (m + n))


@SETTINGS
@given(data=st.data())
def test_multi_start_matches_sequential_runs(data):
    """The batched ascent reproduces R sequential runs: labels, derived
    factors, step objectives and gaps, iterations, convergence, dips, best run."""
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


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_multi_start_with_a_dip_mid_chunk_matches_single_runs(monkeypatch, storage):
    """A dip forced into the middle row of a chunk's second update step
    retires that restart at step 2, while the others retire at steps of
    their own. Every trace is its restart's run alone in the sequential
    reference; the dipped one keeps its first step's iterate."""
    dataset, _ = gen_three_coherent(epsilon=3)
    pruned, _, _ = prune_empty(ingest_pairs(dataset))
    runs, r, seed = 12, 3, 5
    likelihoods = dbmr._log_likelihoods
    calls = []

    def dipping(grouped, log_factor, **kwargs):
        sums = likelihoods(grouped, log_factor, **kwargs)
        calls.append(sums.size)
        if len(calls) == 3:  # the initial iterates, then two update steps
            sums[sums.size // 2] = -np.inf
        return sums

    with monkeypatch.context() as patch:
        counts = _counts_on_storage(patch, pruned.counts, storage)
        patch.setattr(dbmr, "_log_likelihoods", dipping)
        _, _, traces = multi_start(counts, r, runs, seed=seed, snapshots=True)
    assert calls[0] == runs and calls[2] >= 3
    (dipped,) = [run for run, trace in enumerate(traces) if trace.dipped]
    assert len({trace.iterations for trace in traces}) > 2
    inits = rng_for(seed, 0).integers(1, r + 1, size=(runs, counts.shape[1]))
    for run, trace in enumerate(traces):
        init = Partition(labels=inits[run], n_clusters=r)
        _, ref = dbmr_run_reference(counts, init, max_steps=1 if run == dipped else 500)
        assert trace.objectives.tolist() == [step.objective for step in ref.steps]
        assert np.array_equal(trace.label_snapshots, [step.labels for step in ref.steps])
        assert np.array_equal(trace.labels, ref.steps[-1].labels)
        assert (trace.converged, trace.dipped) == ((True, True) if run == dipped
                                                  else (ref.converged, ref.dipped))


def test_ascent_kernels_write_into_one_block(monkeypatch, three_example):
    """Every score and group-sum result of an ascent lies in one block, so
    a step that fell back to allocating its stacks fails here."""
    results = []
    for name in ("group_sums", "latent_scores"):
        def recording(*args, kernel=getattr(dbmr, name), **kwargs):
            results.append(kernel(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(dbmr, name, recording)
    counts = three_example[0]
    labels0 = np.stack([rng_for(0, run).integers(0, 3, counts.shape[1]) for run in range(8)])
    traces = dbmr._ascend(counts, labels0, 3, 500, 0.0, False)
    assert len(results) >= 1 + 2 * max(trace.iterations for trace in traces)

    def owner(array):
        while array.base is not None:
            array = array.base
        return array

    assert len({id(owner(result)) for result in results}) == 1


@SETTINGS
@given(data=st.data())
def test_batched_kernels_and_labels_match_single_runs(data):
    """Stacked factors and labels give each run's single-run scores, group
    sums and labels, on both storages."""
    counts_array, _ = data.draw(count_arrays())
    m, n = counts_array.shape
    r = data.draw(st.integers(1, n + 2))
    runs = data.draw(st.integers(1, 4))
    factor = np.stack([data.draw(factors(m, r, counts_array)) for _ in range(runs)])
    labels0 = data.draw(arrays(np.int64, (runs, n), elements=st.integers(0, r - 1)))
    for storage in ("dense", "sparse"):
        with pytest.MonkeyPatch.context() as patch:
            counts = _counts_on_storage(patch, counts_array, storage)
            scores = _accel.latent_scores(counts.operand, floored_log(factor))
            sums = _accel.group_sums(counts.operand, labels0, r)
            labels = dbmr._pick_labels(scores.copy())
            for run in range(runs):
                single = _accel.latent_scores(counts.operand, floored_log(factor[run]))
                assert np.array_equal(scores[run], single)
                assert np.array_equal(sums[run], group_sums_loop(counts_array, labels0[run], r))
                assert np.array_equal(labels[run], best_labels_reference(counts.operand, factor[run]))


@SETTINGS
@given(data=st.data())
def test_own_state_scores_finite_under_the_ml_factors(data):
    """Under the maximum-likelihood factors of any labels, every input column
    scores finite against its own latent state, on both storages: where
    column j has a count N_ij, its state's entry is at least N_ij / T_k > 0.
    So no column of an ascent ever scores -inf for every state. Labels are
    drawn with more latent states than inputs and with empty states."""
    counts_array, _ = data.draw(count_arrays())
    n = counts_array.shape[1]
    r = data.draw(st.integers(1, n + 3))
    labels0 = data.draw(arrays(np.int64, (data.draw(st.integers(1, 4)), n),
                               elements=st.integers(0, r - 1)))
    for storage in ("dense", "sparse"):
        with pytest.MonkeyPatch.context() as patch:
            counts = _counts_on_storage(patch, counts_array, storage)
            _, factors = ml_factors(counts, labels0, r)
            scores = _accel.latent_scores(counts.operand, floored_log(factors))
        own = np.take_along_axis(scores, labels0[:, np.newaxis, :], axis=1)
        assert np.isfinite(own).all(), (storage, counts_array, labels0)


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
        log_factor = np.log(factor)
        scores = _accel.latent_scores(counts, log_factor)
        for run, single in enumerate(log_factor):
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
        finals = [trace.objectives[-1] for trace in traces]
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
    finals = [trace.objectives[-1] for trace in traces]
    assert finals.count(max(finals)) > 1
    assert best_run == finals.index(max(finals))


@pytest.mark.parametrize("snapshots", [False, True])
def test_derived_steps_equal_the_per_step_trace(snapshots, three_example, interval_example):
    """A trace keeps one array per quantity, holding what the sequential
    ascent records step by step; snapshots of every step are kept only when
    asked for, the final labels always."""
    for counts in (three_example[0], interval_example[0]):
        for seed, max_steps in itertools.product(range(4), (1, 500)):
            init = random_partition(counts.shape[1], 3, seed)
            batched = dbmr_run(counts, init, max_steps=max_steps, snapshots=snapshots)
            sequential = dbmr_run_reference(counts, init, max_steps=max_steps, snapshots=snapshots)
            _assert_same_restarts((*batched[:1], 0, batched[1:]), (*sequential[:1], 0, sequential[1:]))
            assert (batched[1].label_snapshots is not None) == snapshots


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
    uniforms = rng_for(seed, 0).random((restarts, k))
    labels, objectives, repairs = svd._lloyd(points, uniforms, max_iters)
    refs = [lloyd_reference(points, row, max_iters) for row in uniforms]
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
    return counts, reduce_with_affiliation(counts, random_partition(size, 3, 0))


def _stack_of_one(reduced):
    """(factors, labels) of the one reduction, as the projection checks take a stack."""
    return reduced.factor[np.newaxis], reduced.affiliation.labels[np.newaxis]


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
    peak = _traced_peak(lambda: verify_factorization(counts, *_stack_of_one(reduced)))
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
    gap, difference = pythagoras_check_dense(dense(model.rescaled),
                                             rescale_dense(approx_dense(reduced), p, q))
    gaps, norms = pythagoras_check(counts, *_stack_of_one(reduced))
    tolerance = 1e-12 * (1.0 + model.rescaled_norm_sq)
    assert abs(gaps[0] - gap) <= tolerance
    assert abs(model.rescaled_norm_sq - norms[0] - difference) <= tolerance


@SETTINGS
@given(case=reductions())
def test_factorization_residuals_match_dense_projection(case):
    """Residuals of ML and of arbitrary factors, with empty latent states,
    equal those through the dense projection up to rounding."""
    counts, model, reduced, _ = case
    residuals = verify_factorization(counts, *_stack_of_one(reduced))
    reference = verify_factorization_reference(model, reduced)
    assert set(residuals) == set(reference)
    for field, values in residuals.items():
        assert abs(values[0] - reference[field]) <= 1e-12


def _assert_stacked_spectra_bitwise(counts, labels, n_latent):
    """The spectra of the stacked ML reductions of the label rows equal,
    bit for bit, the leading ones computed one reduction at a time."""
    reductions = [
        reduce_with_affiliation(counts, Partition(labels=row, n_clusters=n_latent))
        for row in labels
    ]
    factors = np.stack([reduced.factor for reduced in reductions])
    stacked = reduced_singular_values(counts.model, factors, np.asarray(labels))
    depth = spectrum_depth(n_latent, min(counts.shape))
    assert stacked.shape == (len(reductions), depth)
    for sigma, reduced in zip(stacked, reductions):
        reference = reduced_singular_values_reference(reduced)
        assert sigma.tobytes() == reference[:depth].tobytes()
        # the values past the reported ones are only zero padding
        assert not reference[depth:].any()


def test_stacked_spectra_match_one_reduction_at_a_time(three_example, interval_example):
    """The paper examples with their default partitions, random ones, and one
    that leaves latent state 3 without inputs (zero mass); then r below
    min(m, n), whose spectra are padded with zeros, and r at or above it."""
    rng = np.random.default_rng(233)
    for counts, _, partition in (three_example, interval_example):
        labels = [
            partition.labels,
            np.minimum(partition.labels, 2),
            *rng.integers(1, 4, size=(6, counts.shape[1])),
        ]
        _assert_stacked_spectra_bitwise(counts, labels, 3)
    for m, n, r in ((9, 6, 2), (9, 6, 6), (9, 6, 8), (5, 8, 7)):
        counts = random_counts(rng, m, n)
        _assert_stacked_spectra_bitwise(counts, rng.integers(1, r + 1, size=(4, n)), r)


@SETTINGS
@given(case=reductions(), data=st.data())
def test_stacked_spectra_match_on_drawn_stacks(case, data):
    """Drawn counts and a stack of one to four drawn affiliations, with more
    latent states than inputs or empty ones."""
    counts = case[0]
    r = data.draw(st.integers(1, counts.shape[1] + 2))
    runs = data.draw(st.integers(1, 4))
    labels = data.draw(arrays(np.int64, (runs, counts.shape[1]), elements=st.integers(1, r)))
    _assert_stacked_spectra_bitwise(counts, labels, r)


def test_reports_carry_storage_counters(three_example):
    dataset, _ = gen_double_gyre(GyreConfig(nx=32, ny=16, points_per_box=4, t_end=0.5))
    gyre, _, _ = prune_empty(ingest_pairs(dataset))
    full = random_counts(np.random.default_rng(8), 130, 130)
    # three triplets of the 100 x 100 matrix come from LAPACK, of the
    # 130 x 130 and 512 x 512 matrices from ARPACK
    for counts, storage, path in ((three_example[0], "dense", "lapack"),
                                  (full, "dense", "arpack"), (gyre, "sparse", "arpack")):
        report, _ = compare_experiment(counts, 3, runs=3, seed=4)
        summary, _, _ = multirun_experiment(counts, 3, runs=3, seed=4)
        expected = {
            "count_storage": storage,
            "count_nonzeros": int(np.count_nonzero(dense(counts))),
        }
        for diagnostics, seed in ((summary["diagnostics"], 4), (report["diagnostics"], mix_seed(4, 2))):
            _, _, traces = multi_start(counts, 3, runs=3, seed=seed)
            pairs = sum(trace.iterations for trace in traces)
            assert pairs > 0
            assert {key: diagnostics[key] for key in expected} == expected
            assert diagnostics["dbmr_update_pairs"] == pairs
            assert diagnostics["dbmr_dipped_runs"] == sum(trace.dipped for trace in traces)
        _, _, traces = multi_start(counts, 3, runs=3, seed=4)
        inactive = sum(np.unique(trace.labels).size < 3 for trace in traces)
        assert summary["diagnostics"]["dbmr_inactive_runs"] == inactive
        assert set(summary["diagnostics"]) == set(expected) | {
            "dbmr_update_pairs", "dbmr_dipped_runs", "dbmr_inactive_runs"}
        assert report["diagnostics"]["svd_path"] == path
        assert report["diagnostics"]["svd_values_cut"] == 0
        classical = classical_pipeline(counts, 3, seed=mix_seed(4, 1))
        assert report["diagnostics"]["kmeans_repairs"] == classical.kmeans_repairs


def _image_case(name):
    """(what ``render_matrix_image`` draws, its m x n array, input strip,
    output strip) of one image case."""
    rng = np.random.default_rng(26)
    if name.startswith("csc"):
        P = random_counts(rng, 11, 9, density=0.3).model.matrix
        source, matrix = P, dense(P)
    elif name == "factors":
        left, right = rng.standard_normal((11, 3)), rng.standard_normal((9, 3))
        source, matrix = (left, right), left @ right.T
    elif name == "zero":
        source = matrix = np.zeros((11, 9))
    else:
        m, n = (1, 9) if name.startswith("row") else (11, 1)
        left, right = rng.random((m, 2)), rng.random((n, 2))
        source, matrix = ((left, right) if name.endswith("factors") else sparse.csc_array(left @ right.T),
                          left @ right.T)
    m, n = matrix.shape
    if name in ("csc", "factors"):
        return source, matrix, None, None
    # 14 labels, so the palette of 12 colors wraps
    strips = [Partition(labels=rng.integers(1, 15, size), n_clusters=14) for size in (n, m)]
    return source, matrix, *strips


@pytest.mark.parametrize("entries", [svd.ROW_BLOCK_ENTRIES, 20])
@pytest.mark.parametrize("name", ["csc", "csc-strips", "factors", "zero", "row-csc",
                                  "row-factors", "column-csc", "column-factors"])
def test_images_equal_the_whole_matrix_renderer(tmp_path, monkeypatch, name, entries):
    """Blocks of rows, ragged last block included (20 entries: 2 rows of 9,
    20 of 1), draw the bytes the whole m x n matrix drew: P from its CSC
    entries with and without strips, factors with negative entries (the red
    channel), an all-zero matrix (scale 1), a single row and a single column."""
    monkeypatch.setattr(svd, "ROW_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(report, "ROW_BLOCK_ENTRIES", entries)
    source, matrix, input_strip, output_strip = _image_case(name)
    report.render_matrix_image(source, tmp_path / "blocks.ppm", input_strip, output_strip)
    render_matrix_image_reference(matrix, tmp_path / "whole.ppm", input_strip, output_strip)
    assert (tmp_path / "blocks.ppm").read_bytes() == (tmp_path / "whole.ppm").read_bytes()


@pytest.mark.parametrize("matrix, message", [
    ((np.ones((3, 2)), np.array([[1.0, np.nan], [0.0, 1.0]])), "finite entries"),
    ((np.full((3, 1), 1e300), np.full((2, 1), 1e300)), "finite entries"),
    (sparse.csc_array(np.array([[0.0, np.inf], [1.0, 0.0]])), "finite entries"),
    ((np.ones((0, 2)), np.ones((4, 2))), "nonempty"),
    (np.zeros((3, 0)), "nonempty"),
    ((np.ones((4097, 1)), np.ones((4097, 1))), "too many to draw"),
], ids=["nan-factor", "overflowing-product", "inf-entry", "no-rows", "no-columns", "over-cap"])
def test_images_refuse_what_they_cannot_draw(tmp_path, matrix, message):
    with pytest.raises(ValueError, match=message), np.errstate(over="ignore"):
        report.render_matrix_image(matrix, tmp_path / "m.ppm")
    assert not (tmp_path / "m.ppm").exists()


def test_compare_images_peak_on_the_nonzeros_and_one_block(tmp_path):
    """Drawing the three compare images of a 1024 x 1024 matrix with 0.5 %
    nonzeros peaks below 64 bytes a nonzero plus 40 bytes an entry of one
    block of rows: under half of one m x n float64 array, where drawing the
    whole matrices took five of them."""
    n = 1024
    inputs = np.tile(np.arange(n), 8)
    outputs = (inputs + np.random.default_rng(26).integers(-3, 4, inputs.size)) % n
    counts = count_entries((n, n), outputs, inputs)
    _, artifacts = compare_experiment(counts, 3, runs=2, seed=0)
    bound = 64 * counts.nonzeros + 40 * svd.ROW_BLOCK_ENTRIES
    assert bound < 4 * n * n
    assert _traced_peak(lambda: render_compare_images(artifacts, tmp_path / "r.json")) < bound


def test_row_blocks_hold_three_arrays_of_the_entries():
    """Drawing a full 300 x 300 matrix in blocks of 10 rows holds at most
    three arrays of 8 bytes an entry at once besides a block: where keeping
    the columns, block numbers and order alive took 40 bytes an entry."""
    matrix = as_csc(np.random.default_rng(27).random((300, 300)) + 0.5, np.float64)
    entries = 3000
    bound = 26 * matrix.nnz + 16 * entries
    assert _traced_peak(lambda: sum(1 for _ in matrix.row_blocks(entries))) < bound
