import dataclasses
import math

import numpy as np
import pytest

from cohsets.dbmr import (
    ReducedModel,
    dbmr_run,
    multi_start,
    output_partition,
    random_affiliation,
    reduce_with_affiliation,
    reduced_singular_values,
    update_affiliation,
    update_factor,
)
from cohsets.model import CountMatrix, Partition, estimate, rescale
from cohsets.report import multirun_experiment
from tests.conftest import random_counts
from tests.dense_reference import dense, log_likelihood_dense

# independent arithmetic for the three-set example: 50 structured columns carry
# 25 cells of count 8 at probability 0.032 and 25 cells of count 2 at 0.008,
# the 50 mixing columns carry 50 cells of count 5 at 0.02
THREE_REFERENCE = 50 * (25 * 8 * math.log(0.032) + 25 * 2 * math.log(0.008)) \
    + 50 * 50 * 5 * math.log(0.02)
# merging the two structured blocks flattens them to 0.02, so every one of the
# 25000 transitions lands on a cell of probability 0.02
THREE_MERGED = 25000 * math.log(0.02)


def test_log_likelihood_trivial():
    assert CountMatrix(counts=np.array([[1]]), total=1).full_log_likelihood == 0.0


def test_log_likelihood_three_example(three_example):
    counts, _, _ = three_example
    assert counts.full_log_likelihood == pytest.approx(THREE_REFERENCE, abs=1e-6)


def test_relaxed_equals_full_on_identity_affiliation(three_example):
    counts, model, _ = three_example
    n = counts.shape[1]
    identity = Partition(labels=np.arange(1, n + 1), n_clusters=n)
    factor = update_factor(counts, identity)
    assert factor == pytest.approx(dense(model.matrix), abs=1e-12)
    assert ReducedModel(counts, factor, identity).log_likelihood == pytest.approx(
        counts.full_log_likelihood
    )


def test_relaxed_interval_default(interval_example, interval_affiliation):
    counts, _, _ = interval_example
    factor = update_factor(counts, interval_affiliation)
    value = ReducedModel(counts, factor, interval_affiliation).log_likelihood
    assert value == pytest.approx(8100 * math.log(1 / 30), abs=1e-8)


def test_relaxed_matches_gathered_likelihood():
    """The relaxed objective is the plain likelihood of the gathered factor."""
    rng = np.random.default_rng(31)
    for _ in range(30):
        counts = random_counts(rng, rng.integers(2, 9), rng.integers(2, 9))
        r = int(rng.integers(1, 4))
        affiliation = random_affiliation(counts.shape[1], r, int(rng.integers(1 << 30)))
        reduced = reduce_with_affiliation(counts, affiliation)
        direct = log_likelihood_dense(counts, reduced.approx)
        relaxed = reduced.log_likelihood
        assert relaxed == pytest.approx(direct, rel=1e-12)


def test_relaxed_support_violation(three_example):
    counts, _, _ = three_example
    affiliation = Partition(labels=np.ones(100, dtype=int), n_clusters=2)
    factor = np.zeros((100, 2))
    factor[0, 0] = 1.0
    factor[:, 1] = 1.0 / 100
    assert ReducedModel(counts, factor, affiliation).log_likelihood == -np.inf


def test_update_factor_three_default(three_example, three_affiliation):
    counts, _, _ = three_example
    factor = update_factor(counts, three_affiliation)
    assert factor.shape == (100, 3)
    assert factor[:25, 0] == pytest.approx(np.full(25, 0.032))
    assert factor[25:50, 0] == pytest.approx(np.full(25, 0.008))
    assert factor[50:, 0] == pytest.approx(np.zeros(50))
    assert factor[:, 2] == pytest.approx(np.where(np.arange(100) >= 50, 0.02, 0.0))


def test_update_factor_inactive_uniform():
    counts = CountMatrix(counts=np.array([[2, 1], [2, 3]]), total=8)
    affiliation = Partition(labels=np.array([1, 1]), n_clusters=2)
    factor = update_factor(counts, affiliation)
    assert factor[:, 0] == pytest.approx([3 / 8, 5 / 8])
    assert factor[:, 1] == pytest.approx([0.5, 0.5])
    assert affiliation.inactive == (2,)


def test_update_factor_left_stochastic_random():
    rng = np.random.default_rng(41)
    for _ in range(50):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.6)
        r = int(rng.integers(1, 5))
        affiliation = random_affiliation(counts.shape[1], r, int(rng.integers(1 << 30)))
        factor = update_factor(counts, affiliation)
        assert factor.sum(axis=0) == pytest.approx(np.ones(r))
        assert (factor >= 0).all()


def test_update_affiliation_is_columnwise_argmax():
    """Exhaustive check of the per-column score maximization."""
    rng = np.random.default_rng(43)
    for _ in range(30):
        counts = random_counts(rng, rng.integers(2, 8), rng.integers(2, 8), density=0.7)
        r = int(rng.integers(1, 4))
        factor = rng.random((counts.shape[0], r))
        factor /= factor.sum(axis=0)
        affiliation = update_affiliation(counts, factor)
        logf = np.log(factor)
        for j in range(counts.shape[1]):
            scores = dense(counts)[:, j] @ logf
            assert affiliation.labels[j] - 1 == int(np.argmax(scores))


def test_update_affiliation_tie_takes_smaller_label():
    counts = CountMatrix(counts=np.array([[3, 1], [1, 3]]), total=8)
    factor = np.array([[0.5, 0.5], [0.5, 0.5]])
    affiliation = update_affiliation(counts, factor)
    assert affiliation.labels.tolist() == [1, 1]


def test_update_affiliation_all_sunk_falls_back_to_one():
    counts = CountMatrix(counts=np.array([[1, 1], [1, 1]]), total=4)
    factor = np.array([[1.0, 0.0], [0.0, 1.0]])
    affiliation = update_affiliation(counts, factor)
    assert affiliation.labels.tolist() == [1, 1]


def test_update_affiliation_recovers_blocks(three_example, three_affiliation):
    counts, _, _ = three_example
    factor = update_factor(counts, three_affiliation)
    again = update_affiliation(counts, factor)
    assert np.array_equal(again.labels, three_affiliation.labels)


def test_dbmr_run_three_default_exact(three_example, three_affiliation):
    counts, model, _ = three_example
    reduced, trace = dbmr_run(counts, three_affiliation)
    assert trace.converged
    assert np.abs(reduced.approx - dense(model.matrix)).max() < 1e-15
    assert trace.steps[-1].objective == pytest.approx(THREE_REFERENCE, abs=1e-6)
    assert trace.steps[-1].frob_gap_sq < 1e-12


def test_dbmr_run_trace_length_with_hmax_one(three_example):
    counts, _, _ = three_example
    init = random_affiliation(100, 3, 5)
    _, trace = dbmr_run(counts, init, max_steps=1)
    assert len(trace.steps) == 2
    assert trace.steps[0].index == 0
    assert trace.steps[1].index == 1


def test_dbmr_traces_monotone_random():
    rng = np.random.default_rng(47)
    for _ in range(100):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.7)
        r = int(rng.integers(1, 4))
        init = random_affiliation(counts.shape[1], r, int(rng.integers(1 << 30)))
        _, trace = dbmr_run(counts, init, max_steps=50)
        objectives = trace.objectives
        assert np.all(np.diff(objectives) >= 0.0)
        assert trace.converged


def test_dbmr_preserves_average_of_extremes():
    """A column that is an average of two others keeps its own latent state."""
    col_a = np.array([4, 2, 2, 0])
    col_b = np.array([0, 2, 2, 4])
    counts = CountMatrix(
        counts=np.column_stack([col_a, (col_a + col_b) // 2, col_b]), total=24
    )
    init = Partition(labels=np.array([1, 2, 3]), n_clusters=3)
    reduced, trace = dbmr_run(counts, init)
    model = estimate(counts)
    assert np.abs(reduced.approx - dense(model.matrix)).max() == 0.0
    assert reduced.affiliation.inactive == ()
    assert len(np.unique(reduced.affiliation.labels)) == 3


def test_dbmr_snapshots_toggle(three_example):
    counts, _, _ = three_example
    init = random_affiliation(100, 3, 9)
    _, trace = dbmr_run(counts, init, snapshots=False)
    assert all(s.labels is None and s.factor is None for s in trace.steps[:-1])
    assert trace.steps[-1].labels is not None
    assert trace.steps[-1].factor is not None
    _, full_trace = dbmr_run(counts, init, snapshots=True)
    assert all(s.labels is not None for s in full_trace.steps)


def test_dbmr_run_validation(three_example):
    counts, _, _ = three_example
    init = random_affiliation(100, 3, 0)
    with pytest.raises(ValueError):
        dbmr_run(counts, random_affiliation(99, 3, 0))
    with pytest.raises(ValueError):
        dbmr_run(counts, init, max_steps=0)
    with pytest.raises(ValueError):
        dbmr_run(counts, init, tol=-1.0)


def test_random_affiliation_deterministic():
    a = random_affiliation(50, 3, 123)
    b = random_affiliation(50, 3, 123)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(random_affiliation(20, 1, 7).labels, np.ones(20, dtype=int))


def test_random_affiliation_covers_labels():
    labels = random_affiliation(3000, 3, 11).labels
    counts = np.bincount(labels, minlength=4)[1:]
    # each label is a fair coin among three; 4 sigma around 1000
    assert np.all(np.abs(counts - 1000) < 4 * np.sqrt(3000 * (1 / 3) * (2 / 3)))


def test_multi_start_three_example(three_example):
    counts, model, _ = three_example
    best, best_run, traces = multi_start(counts, 3, runs=100, seed=0)
    assert len(traces) == 100
    final = traces[best_run].steps[-1].objective
    assert final == pytest.approx(THREE_REFERENCE, abs=1e-6)
    assert all(t.steps[-1].objective <= final + 1e-9 for t in traces)
    gap = dense(model.rescaled) - rescale(best.approx, model.input_dist, model.output_dist)
    assert np.sum(gap * gap) < 1e-12
    finals = {round(t.steps[-1].objective, 6) for t in traces}
    assert finals == {
        round(THREE_REFERENCE, 6), round(THREE_MERGED, 6)
    }


def test_multi_start_tie_keeps_lowest_run():
    counts = CountMatrix(
        counts=np.array([[5, 5, 0, 0], [5, 5, 0, 0], [0, 0, 5, 5], [0, 0, 5, 5]]),
        total=40,
    )
    best, best_run, traces = multi_start(counts, 2, runs=6, seed=3)
    final = traces[best_run].steps[-1].objective
    first_hit = min(
        i for i, t in enumerate(traces) if t.steps[-1].objective == final
    )
    assert best_run == first_hit


def test_multirun_best_matches_multi_start(three_example):
    counts, _, _ = three_example
    _, best_run, traces = multi_start(counts, 3, runs=8, seed=5)
    summary, rows, _ = multirun_experiment(counts, 3, runs=8, seed=5)
    assert summary["best_run"] == best_run
    assert summary["best_objective"] == traces[best_run].steps[-1].objective
    assert [row["objective"] for row in rows] == [t.steps[-1].objective for t in traces]


def test_reduced_model_holds_factor_and_affiliation():
    counts = random_counts(np.random.default_rng(67), 12, 15, density=0.5)
    affiliation = random_affiliation(15, 4, 3)
    reduced = reduce_with_affiliation(counts, affiliation)
    assert [f.name for f in dataclasses.fields(ReducedModel)] == ["counts", "factor", "affiliation"]
    assert np.array_equal(reduced.approx, reduced.factor[:, affiliation.labels - 1])


def test_exact_fit_gap_is_never_negative(three_example, three_affiliation):
    """From the true partition every iterate fits exactly; the gap is 0, not below."""
    counts, _, _ = three_example
    _, trace = dbmr_run(counts, three_affiliation)
    gaps = np.array([step.frob_gap_sq for step in trace.steps])
    assert (gaps >= 0.0).all()
    assert gaps.max() < 1e-12


def test_output_partition_three(three_example, three_affiliation):
    counts, _, _ = three_example
    reduced = reduce_with_affiliation(counts, three_affiliation)
    part = output_partition(reduced)
    assert np.array_equal(part.labels, three_affiliation.labels)


def test_output_partition_uniform_ties_go_low():
    counts = CountMatrix(counts=np.array([[2, 2], [2, 2]]), total=8)
    reduced = reduce_with_affiliation(
        counts, Partition(labels=np.array([1, 2]), n_clusters=2)
    )
    part = output_partition(reduced)
    assert part.labels.tolist() == [1, 1]


def test_reduced_singular_values_match_direct():
    """The factored spectrum equals the SVD of the materialized matrix."""
    rng = np.random.default_rng(53)
    for _ in range(40):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(3, 10), density=0.8)
        r = int(rng.integers(1, 5))
        affiliation = random_affiliation(counts.shape[1], r, int(rng.integers(1 << 30)))
        model = estimate(counts)
        reduced = reduce_with_affiliation(counts, affiliation)
        fast = reduced_singular_values(reduced)
        reduced_rescaled = rescale(reduced.approx, model.input_dist, model.output_dist)
        direct = np.linalg.svd(reduced_rescaled, compute_uv=False)
        assert fast == pytest.approx(direct, abs=1e-10)


def _assert_gap_terms_match_direct(counts, model, init):
    _, trace = dbmr_run(counts, init, snapshots=True)
    for step in trace.steps:
        factor = step.factor
        approx = factor[:, step.labels - 1]
        scaled = approx * np.sqrt(model.input_dist)[None, :] / np.sqrt(model.output_dist)[:, None]
        gap = dense(model.rescaled) - scaled
        assert step.frob_gap_sq == pytest.approx(np.sum(gap * gap), abs=1e-9)
        assert step.approx_norm_sq == pytest.approx(np.sum(scaled * scaled), abs=1e-9)
        reduced = ReducedModel(counts, factor, Partition(step.labels, factor.shape[1]))
        sigma = reduced_singular_values(reduced)
        assert sigma == pytest.approx(
            np.linalg.svd(scaled, compute_uv=False), abs=1e-9
        )


def test_trace_gap_terms_match_direct(three_example):
    counts, model, _ = three_example
    _assert_gap_terms_match_direct(counts, model, random_affiliation(100, 3, 21))
    # non-uniform marginals, so summing a term over the wrong axis shows
    counts = random_counts(np.random.default_rng(61), 30, 40, density=0.3)
    model = estimate(counts)
    _assert_gap_terms_match_direct(counts, model, random_affiliation(40, 4, 5))
    # the initial affiliation leaves latent state 3 empty
    init = Partition(labels=np.arange(40) % 2 + 1, n_clusters=3)
    _assert_gap_terms_match_direct(counts, model, init)
