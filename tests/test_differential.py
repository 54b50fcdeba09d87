"""Differential checks of the sparse-aware program against dense references.

Hypothesis draws small count matrices: single rows or columns, duplicate and
proportional columns (exact block fits), affiliations with more latent
states than inputs or with empty latent states, and factors with zeros that
sink input columns to -inf for every latent state. The two DBMR kernels run
on a dense array and on a scipy sparse matrix; the bound chain runs on the
nonzeros of P. Each result is compared with the dense formulas in
``tests/dense_reference.py``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from cohsets import _accel, model as model_module
from cohsets.bounds import (
    _frob_gap_sq,
    _Nonzeros,
    _weighted_kl_sum,
    bound_constants,
    frobenius_kl_bound,
)
from cohsets.dbmr import (
    Affiliation,
    ReducedModel,
    dbmr_run,
    random_affiliation,
    reduce_with_affiliation,
)
from cohsets.generators import GyreConfig, gen_double_gyre
from cohsets.model import CountMatrix, estimate, ingest_pairs, prune_empty
from cohsets.report import compare_experiment, multirun_experiment
from tests.dense_reference import (
    bound_constants_dense,
    frob_gap_sq_dense,
    group_sums_loop,
    latent_scores_loop,
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
        affiliation = Affiliation(labels=kept + 1, n_latent=r)
    else:
        r = draw(st.integers(1, n + 2))
        affiliation = Affiliation(
            labels=draw(arrays(np.int64, n, elements=st.integers(1, r))), n_latent=r
        )
    if exact or draw(st.booleans()):
        reduced = reduce_with_affiliation(pruned, affiliation)
        if draw(st.booleans()):
            # an ML factor with one entry raised, off the fit when exact
            factor = reduced.factor.copy()
            factor[draw(st.integers(0, m - 1)), draw(st.integers(0, r - 1))] += draw(
                st.sampled_from([1e-17, 0.01])
            )
            reduced, exact = ReducedModel(factor=factor, affiliation=affiliation), False
    else:
        factor = draw(factors(m, r))
        factor[draw(st.integers(0, m - 1))] += 0.5  # every column carries mass
        reduced = ReducedModel(factor=factor / factor.sum(axis=0), affiliation=affiliation)
    return pruned, model, reduced, exact


@SETTINGS
@given(case=reductions())
def test_bound_chain_matches_dense_formulas(case):
    counts, model, reduced, exact = case
    kappa_diff, kappa_col, deviations = bound_constants_dense(model, reduced)
    kappa_prior = 0.5 * model.output_dist.min()
    try:
        constants = bound_constants(model, reduced)
    except FloatingPointError:
        assert max(kappa_diff, kappa_col) < kappa_prior - 1e-12 * (1.0 + kappa_prior)
        return
    # maxima and the row-ordered column sums of P are reproduced exactly
    assert np.array_equal(constants.deviations, deviations)
    np.testing.assert_allclose(constants.kappa_col, kappa_col, rtol=1e-14)
    np.testing.assert_allclose(constants.kappa_diff, kappa_diff, rtol=1e-12)
    np.testing.assert_allclose(
        _weighted_kl_sum(model, reduced), weighted_kl_sum_dense(model, reduced), rtol=1e-14
    )
    weighted = reduced.factor / model.output_dist[:, np.newaxis]
    assert np.array_equal(
        _Nonzeros.of(model, reduced).zeros_max(weighted),
        zeros_max_dense(model.matrix, weighted, reduced.affiliation.labels - 1),
    )
    gap, dense_gap = _frob_gap_sq(model, reduced), frob_gap_sq_dense(model, reduced)
    assert abs(gap - dense_gap) <= 1e-12 * (dense_gap + model.rescaled_norm_sq)
    if exact:
        # the zeros of an exact fit contribute exactly nothing
        assert gap <= 1e-24
        assert frobenius_kl_bound(counts, model, reduced).frob_gap_sq == gap


def test_exact_fit_gaps(three_example, three_affiliation, interval_example,
                        interval_affiliation):
    counts, model, _ = three_example
    bound = frobenius_kl_bound(counts, model, reduce_with_affiliation(counts, three_affiliation))
    assert bound.frob_gap_sq <= 1e-24
    counts, model, _ = interval_example
    bound = frobenius_kl_bound(
        counts, model, reduce_with_affiliation(counts, interval_affiliation)
    )
    assert abs(bound.frob_gap_sq - 27.0) <= 1e-12


def test_off_support_mass_is_never_snapped(three_example, three_affiliation):
    """An exact fit on the support with mass off it deviates infinitely."""
    counts, model, _ = three_example
    exact = reduce_with_affiliation(counts, three_affiliation)
    for extra in (1e-17, 0.01):
        factor = exact.factor.copy()
        factor[60, 0] += extra  # row 60 carries no count of latent state 1's inputs
        reduced = ReducedModel(factor=factor, affiliation=three_affiliation)
        deviations = bound_constants(model, reduced).deviations
        assert np.array_equal(deviations, bound_constants_dense(model, reduced)[2])
        state_one = three_affiliation.labels == 1
        assert (deviations[state_one] == (np.inf if extra > 1e-9 else 0.0)).all()


def _runs_on_storage(monkeypatch, counts_array, storage, init):
    """DBMR run on a fresh CountMatrix whose operand takes ``storage``."""
    if storage == "sparse":
        monkeypatch.setattr(model_module, "SPARSE_MIN_ENTRIES", 0)
        monkeypatch.setattr(model_module, "SPARSE_MAX_DENSITY", 1.0)
    else:
        monkeypatch.setattr(model_module, "SPARSE_MAX_DENSITY", -1.0)
    counts = CountMatrix(counts=counts_array, total=int(counts_array.sum()))
    assert counts.storage == storage
    assert sparse.issparse(counts.operand) == (storage == "sparse")
    return dbmr_run(counts, init.n_latent, init, snapshots=True)


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


def test_storage_follows_shape_and_nonzeros():
    small = np.eye(100, dtype=np.int64)
    assert CountMatrix(counts=small, total=100).storage == "dense"
    size = 512
    sparse_counts = np.eye(size, dtype=np.int64)
    counts = CountMatrix(counts=sparse_counts, total=size)
    assert counts.storage == "sparse"
    assert counts.nonzeros == size
    assert sparse.issparse(counts.operand)
    assert np.array_equal(counts.operand.toarray(), sparse_counts)
    full = np.ones((size, size), dtype=np.int64)
    assert CountMatrix(counts=full, total=size * size).storage == "dense"


def test_bound_chain_allocates_no_dense_matrix():
    """The bound chain's memory follows the nonzeros, not m x n."""
    size = 2000
    rng = np.random.default_rng(191)
    counts_array = np.zeros((size, size), dtype=np.int64)
    for shift in (0, 1):
        counts_array[(np.arange(size) + shift * rng.integers(1, size)) % size, np.arange(size)] += 1
    counts = CountMatrix(counts=counts_array, total=int(counts_array.sum()))
    model = estimate(counts)
    affiliation = random_affiliation(size, 3, 0)
    reduced = reduce_with_affiliation(counts, affiliation)
    tracemalloc.start()
    try:
        frobenius_kl_bound(counts, model, reduced)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an m x n boolean mask alone would take size * size bytes
    assert peak < size * size


def test_reports_carry_storage_counters(three_example):
    dataset, _ = gen_double_gyre(GyreConfig(nx=32, ny=16, points_per_box=4, t_end=0.5))
    gyre, _, _ = prune_empty(ingest_pairs(dataset))
    for counts, storage in ((three_example[0], "dense"), (gyre, "sparse")):
        report, _ = compare_experiment(counts, 3, runs=3, seed=4)
        summary, _, _ = multirun_experiment(counts, 3, runs=3, seed=4)
        expected = {
            "count_storage": storage,
            "count_nonzeros": int(np.count_nonzero(counts.counts)),
            # each column's own latent state covers its support, so no
            # column of a DBMR iterate scores -inf everywhere
            "dbmr_sunk_columns": 0,
        }
        assert summary["diagnostics"] == expected
        assert {key: report["diagnostics"][key] for key in expected} == expected
