import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cohsets import dbmr
from cohsets._accel import latent_scores
from cohsets.dbmr import (
    ReducedModel,
    _log_likelihoods,
    ml_factors,
    _pick_labels,
    dbmr_run,
    multi_start,
    output_partition,
    reduce_with_affiliation,
    reduced_singular_values,
)
from cohsets.generators import gen_three_coherent
from cohsets.model import CountMatrix, Partition, estimate, ingest_pairs, prune_empty
from cohsets.projection import pythagoras_check
from cohsets.report import multirun_experiment
from cohsets.seeding import rng_for
from tests.conftest import random_counts
from tests.dense_reference import (
    approx_dense,
    dense,
    floored_log,
    log_likelihood_dense,
    log_likelihoods_stacked_reference,
    ml_factors_stacked_reference,
    pick_labels_stacked_reference,
    random_partition,
    rescale_dense,
)

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
    factor = reduce_with_affiliation(counts, identity).factor
    assert factor == pytest.approx(dense(model.matrix), abs=1e-12)
    assert ReducedModel(counts, factor, identity).log_likelihood == pytest.approx(
        counts.full_log_likelihood
    )


def test_relaxed_interval_default(interval_example, interval_affiliation):
    counts, _, _ = interval_example
    factor = reduce_with_affiliation(counts, interval_affiliation).factor
    value = ReducedModel(counts, factor, interval_affiliation).log_likelihood
    assert value == pytest.approx(8100 * math.log(1 / 30), abs=1e-8)


def test_relaxed_matches_gathered_likelihood():
    """The relaxed objective is the plain likelihood of the gathered factor."""
    rng = np.random.default_rng(31)
    for _ in range(30):
        counts = random_counts(rng, rng.integers(2, 9), rng.integers(2, 9))
        r = int(rng.integers(1, 4))
        affiliation = random_partition(counts.shape[1], r, int(rng.integers(1 << 30)))
        reduced = reduce_with_affiliation(counts, affiliation)
        direct = log_likelihood_dense(counts, approx_dense(reduced))
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
    factor = reduce_with_affiliation(counts, three_affiliation).factor
    assert factor.shape == (100, 3)
    assert factor[:25, 0] == pytest.approx(np.full(25, 0.032))
    assert factor[25:50, 0] == pytest.approx(np.full(25, 0.008))
    assert factor[50:, 0] == pytest.approx(np.zeros(50))
    assert factor[:, 2] == pytest.approx(np.where(np.arange(100) >= 50, 0.02, 0.0))


def test_update_factor_inactive_uniform():
    counts = CountMatrix(counts=np.array([[2, 1], [2, 3]]), total=8)
    affiliation = Partition(labels=np.array([1, 1]), n_clusters=2)
    factor = reduce_with_affiliation(counts, affiliation).factor
    assert factor[:, 0] == pytest.approx([3 / 8, 5 / 8])
    assert factor[:, 1] == pytest.approx([0.5, 0.5])
    assert affiliation.inactive == (2,)


def test_update_factor_left_stochastic_random():
    rng = np.random.default_rng(41)
    for _ in range(50):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.6)
        r = int(rng.integers(1, 5))
        affiliation = random_partition(counts.shape[1], r, int(rng.integers(1 << 30)))
        factor = reduce_with_affiliation(counts, affiliation).factor
        assert factor.sum(axis=0) == pytest.approx(np.ones(r))
        assert (factor >= 0).all()


def _updated_labels(counts, factor):
    """1-based labels of the ascent's affiliation update for one factor."""
    return _pick_labels(latent_scores(counts.operand, floored_log(factor)[np.newaxis]))[0] + 1


def test_update_affiliation_is_columnwise_argmax():
    """Exhaustive check of the per-column score maximization."""
    rng = np.random.default_rng(43)
    for _ in range(30):
        counts = random_counts(rng, rng.integers(2, 8), rng.integers(2, 8), density=0.7)
        r = int(rng.integers(1, 4))
        factor = rng.random((counts.shape[0], r))
        factor /= factor.sum(axis=0)
        labels = _updated_labels(counts, factor)
        logf = np.log(factor)
        for j in range(counts.shape[1]):
            scores = dense(counts)[:, j] @ logf
            assert labels[j] - 1 == int(np.argmax(scores))


def test_update_affiliation_tie_takes_smaller_label():
    counts = CountMatrix(counts=np.array([[3, 1], [1, 3]]), total=8)
    factor = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert _updated_labels(counts, factor).tolist() == [1, 1]


def test_update_affiliation_all_sunk_falls_back_to_one():
    counts = CountMatrix(counts=np.array([[1, 1], [1, 1]]), total=4)
    factor = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert _updated_labels(counts, factor).tolist() == [1, 1]


def test_update_affiliation_recovers_blocks(three_example, three_affiliation):
    counts, _, _ = three_example
    factor = reduce_with_affiliation(counts, three_affiliation).factor
    assert np.array_equal(_updated_labels(counts, factor), three_affiliation.labels)


def test_dbmr_run_three_default_exact(three_example, three_affiliation):
    counts, model, _ = three_example
    reduced, trace = dbmr_run(counts, three_affiliation)
    assert trace.converged
    assert np.abs(approx_dense(reduced) - dense(model.matrix)).max() < 1e-15
    assert trace.objectives[-1] == pytest.approx(THREE_REFERENCE, abs=1e-6)
    gap_sq, _ = pythagoras_check(counts, reduced.factor[np.newaxis], trace.labels[np.newaxis])
    assert gap_sq[0] < 1e-12


def test_dbmr_run_trace_length_with_hmax_one(three_example):
    counts, _, _ = three_example
    init = random_partition(100, 3, 5)
    _, trace = dbmr_run(counts, init, max_steps=1)
    assert trace.iterations == 1
    _, factors = ml_factors(counts, trace.label_snapshots - 1, 3)
    gap_terms = pythagoras_check(counts, factors, trace.label_snapshots)
    for values in (trace.objectives, *gap_terms, trace.label_snapshots):
        assert len(values) == 2


def test_dbmr_traces_monotone_random():
    rng = np.random.default_rng(47)
    for _ in range(100):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.7)
        r = int(rng.integers(1, 4))
        init = random_partition(counts.shape[1], r, int(rng.integers(1 << 30)))
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
    assert np.abs(approx_dense(reduced) - dense(model.matrix)).max() == 0.0
    assert reduced.affiliation.inactive == ()
    assert len(np.unique(reduced.affiliation.labels)) == 3


def test_dbmr_snapshots_toggle(three_example):
    counts, _, _ = three_example
    init = random_partition(100, 3, 9)
    reduced, trace = dbmr_run(counts, init, snapshots=False)
    assert trace.label_snapshots is None
    _, full_trace = dbmr_run(counts, init, snapshots=True)
    assert len(full_trace.label_snapshots) == len(full_trace.objectives)
    # the final labels are kept either way, and are the last snapshot, whose
    # derived factor is the returned model's
    for kept in (trace, full_trace):
        assert np.array_equal(kept.labels, full_trace.label_snapshots[-1])
    _, factors = ml_factors(counts, full_trace.label_snapshots - 1, 3)
    assert reduced.factor.tobytes() == factors[-1].tobytes()


def test_dbmr_run_validation(three_example):
    counts, _, _ = three_example
    init = random_partition(100, 3, 0)
    with pytest.raises(ValueError):
        dbmr_run(counts, random_partition(99, 3, 0))
    with pytest.raises(ValueError):
        dbmr_run(counts, init, max_steps=0)
    with pytest.raises(ValueError):
        dbmr_run(counts, init, tol=-1.0)


def _initial_labels(n_inputs, n_latent, runs, seed):
    """Each restart's random initial affiliation in ``multi_start``."""
    counts = CountMatrix(counts=np.ones((2, n_inputs), dtype=np.int64), total=2 * n_inputs)
    _, _, traces = multi_start(counts, n_latent, runs, max_steps=1, seed=seed, snapshots=True)
    return np.stack([trace.label_snapshots[0] for trace in traces])


def test_random_affiliation_deterministic():
    a = _initial_labels(50, 3, 4, 123)
    assert np.array_equal(a, _initial_labels(50, 3, 4, 123))
    # every restart draws its own labels
    assert len({row.tobytes() for row in a}) == 4
    assert np.array_equal(_initial_labels(20, 1, 2, 7), np.ones((2, 20), dtype=int))


def test_random_affiliation_covers_labels():
    labels = _initial_labels(3000, 3, 1, 11)[0]
    counts = np.bincount(labels, minlength=4)[1:]
    # each label is a fair coin among three; 4 sigma around 1000
    assert np.all(np.abs(counts - 1000) < 4 * np.sqrt(3000 * (1 / 3) * (2 / 3)))


def test_multi_start_draws_every_restart_from_one_stream(monkeypatch, three_example):
    """Restart i ascends from row i of one ``rng_for(seed, 0)`` draw, however
    the restarts are chunked and however many follow it."""
    counts, _, _ = three_example
    (m, n), r, runs, seed = counts.shape, 3, 12, 7

    def traced(traces):
        return [(trace.objectives.tobytes(), trace.labels.tobytes(), trace.converged,
                 trace.dipped, trace.label_snapshots.tobytes()) for trace in traces]

    inits = rng_for(seed, 0).integers(0, r, size=(runs, n))
    alone = traced(dbmr._ascend(counts, row[np.newaxis], r, 500, 0.0, True)[0] for row in inits)
    assert len(set(alone)) == runs
    for per_chunk in (1, 3, runs):
        monkeypatch.setattr(dbmr, "BATCH_ENTRIES", per_chunk * r * (m + n))
        assert traced(multi_start(counts, r, runs, seed=seed, snapshots=True)[2]) == alone
        assert traced(multi_start(counts, r, 5, seed=seed, snapshots=True)[2]) == alone[:5]


def test_multi_start_three_example(three_example):
    counts, model, _ = three_example
    best, best_run, traces = multi_start(counts, 3, runs=100, seed=0)
    assert len(traces) == 100
    final = traces[best_run].objectives[-1]
    assert final == pytest.approx(THREE_REFERENCE, abs=1e-6)
    assert all(t.objectives[-1] <= final + 1e-9 for t in traces)
    gap = dense(model.rescaled) - rescale_dense(
        approx_dense(best), model.input_dist, model.output_dist)
    assert np.sum(gap * gap) < 1e-12
    finals = {round(t.objectives[-1], 6) for t in traces}
    assert finals == {
        round(THREE_REFERENCE, 6), round(THREE_MERGED, 6)
    }


def test_multi_start_tie_keeps_lowest_run():
    counts = CountMatrix(
        counts=np.array([[5, 5, 0, 0], [5, 5, 0, 0], [0, 0, 5, 5], [0, 0, 5, 5]]),
        total=40,
    )
    best, best_run, traces = multi_start(counts, 2, runs=6, seed=3)
    final = traces[best_run].objectives[-1]
    first_hit = min(
        i for i, t in enumerate(traces) if t.objectives[-1] == final
    )
    assert best_run == first_hit


def test_multirun_best_matches_multi_start(three_example):
    counts, _, _ = three_example
    _, best_run, traces = multi_start(counts, 3, runs=8, seed=5)
    summary, rows, _ = multirun_experiment(counts, 3, runs=8, seed=5)
    assert summary["best_run"] == best_run
    assert summary["best_objective"] == traces[best_run].objectives[-1]
    assert [row["objective"] for row in rows] == [t.objectives[-1] for t in traces]


def test_reduced_model_holds_factor_and_affiliation():
    counts = random_counts(np.random.default_rng(67), 12, 15, density=0.5)
    affiliation = random_partition(15, 4, 3)
    reduced = reduce_with_affiliation(counts, affiliation)
    assert [f.name for f in dataclasses.fields(ReducedModel)] == ["counts", "factor", "affiliation"]
    nz = reduced.nonzero_view
    assert np.array_equal(nz.approx, approx_dense(reduced)[nz.rows, nz.cols])


def test_exact_fit_gap_is_never_negative(three_example, three_affiliation):
    """From the true partition every iterate fits exactly; the gap is 0, not below."""
    counts, _, _ = three_example
    _, trace = dbmr_run(counts, three_affiliation)
    _, factors = ml_factors(counts, trace.label_snapshots - 1, 3)
    gaps, _ = pythagoras_check(counts, factors, trace.label_snapshots)
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
    """The factored spectra of a stack equal the SVDs of the materialized matrices."""
    rng = np.random.default_rng(53)
    for _ in range(20):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(3, 10), density=0.8)
        r = int(rng.integers(1, 5))
        model = estimate(counts)
        reductions = [
            reduce_with_affiliation(
                counts, random_partition(counts.shape[1], r, int(rng.integers(1 << 30)))
            )
            for _ in range(3)
        ]
        fast = reduced_singular_values(
            model,
            np.stack([reduced.factor for reduced in reductions]),
            np.stack([reduced.affiliation.labels for reduced in reductions]),
        )
        for sigma, reduced in zip(fast, reductions):
            reduced_rescaled = rescale_dense(approx_dense(reduced), model.input_dist,
                                             model.output_dist)
            direct = np.linalg.svd(reduced_rescaled, compute_uv=False)
            assert sigma == pytest.approx(direct[: sigma.size], abs=1e-10)
            assert direct[sigma.size :] == pytest.approx(np.zeros(direct.size - sigma.size),
                                                         abs=1e-10)


def _assert_gap_terms_match_direct(counts, model, init):
    _, trace = dbmr_run(counts, init, snapshots=True)
    _, factors = ml_factors(counts, trace.label_snapshots - 1, init.n_clusters)
    spectra = reduced_singular_values(model, factors, trace.label_snapshots)
    gaps, norms = pythagoras_check(counts, factors, trace.label_snapshots)
    for step, (factor, labels) in enumerate(zip(factors, trace.label_snapshots)):
        scaled = rescale_dense(factor[:, labels - 1], model.input_dist, model.output_dist)
        gap = dense(model.rescaled) - scaled
        assert gaps[step] == pytest.approx(np.sum(gap * gap), abs=1e-9)
        assert norms[step] == pytest.approx(np.sum(scaled * scaled), abs=1e-9)
        direct = np.linalg.svd(scaled, compute_uv=False)
        depth = spectra.shape[1]
        assert spectra[step] == pytest.approx(direct[:depth], abs=1e-9)
        assert direct[depth:] == pytest.approx(np.zeros(direct.size - depth), abs=1e-9)


def test_trace_gap_terms_match_direct(three_example):
    counts, model, _ = three_example
    _assert_gap_terms_match_direct(counts, model, random_partition(100, 3, 21))
    # non-uniform marginals, so summing a term over the wrong axis shows
    counts = random_counts(np.random.default_rng(61), 30, 40, density=0.3)
    model = estimate(counts)
    _assert_gap_terms_match_direct(counts, model, random_partition(40, 4, 5))
    # the initial affiliation leaves latent state 3 empty
    init = Partition(labels=np.arange(40) % 2 + 1, n_clusters=3)
    _assert_gap_terms_match_direct(counts, model, init)


@pytest.mark.parametrize("r", [1, 2, 3, 7, 96])
def test_label_pick_matches_argmax(r):
    """The label pick gives ``np.argmax``'s first best state, on score stacks
    drawn from a few values (many ties) with -inf entries and whole -inf
    columns."""
    rng = np.random.default_rng(59 + r)
    for runs, n in ((1, 1), (4, 30), (9, 200)):
        values = np.array([-np.inf, -3.5, -1.0, -1.0 + 2.0**-52, 0.0])
        scores = rng.choice(values, size=(runs, r, n), p=[0.3, 0.2, 0.2, 0.1, 0.2])
        scores[:, :, rng.random(n) < 0.2] = -np.inf
        labels0 = _pick_labels(scores.copy())
        assert np.array_equal(labels0, pick_labels_stacked_reference(scores))


def test_factors_and_objectives_match_stacked_references():
    """Latent totals from the column totals give the factors of the grouped
    columns' sums bit for bit, inactive states (r up to n + 2) included, and
    the objectives are those of one reduction per run."""
    rng = np.random.default_rng(61)
    for _ in range(40):
        counts = random_counts(rng, rng.integers(1, 12), rng.integers(1, 12), density=0.5)
        n = counts.shape[1]
        r = int(rng.integers(1, n + 3))
        labels0 = rng.integers(0, r, (int(rng.integers(1, 6)), n))
        grouped, factor = ml_factors(counts, labels0, r)
        ref_grouped, ref_factor = ml_factors_stacked_reference(counts.operand, labels0, r)
        assert grouped.tobytes() == ref_grouped.tobytes()
        assert factor.tobytes() == ref_factor.tobytes()
        assert (_log_likelihoods(grouped, floored_log(factor)).tobytes()
                == log_likelihoods_stacked_reference(grouped, factor).tobytes())


def test_objectives_of_long_rows_match_each_run_alone():
    """Rows of 24 576 products, past numpy's 8192-element blocks, sum to the
    bits of each run's objective alone, whatever the batch, and to the
    per-run reference; zero G meeting the floor adds -0."""
    rng = np.random.default_rng(67)
    runs, m, r = 5, 8192, 3
    grouped = np.where(rng.random((runs, m, r)) < 0.4, 0.0, rng.integers(1, 50, (runs, m, r)))
    scale = 10.0 ** rng.uniform(-9.0, 0.0, (m, 1))
    factor = np.where(grouped > 0.0, rng.random((runs, m, r)) * scale, 0.0)
    log_factor = floored_log(factor)
    batched = _log_likelihoods(grouped, log_factor)
    assert np.isfinite(batched).all()
    assert batched.tobytes() == log_likelihoods_stacked_reference(grouped, factor).tobytes()
    for run in range(runs):
        alone = _log_likelihoods(grouped[run:run + 1], log_factor[run:run + 1])
        assert alone.tobytes() == batched[run:run + 1].tobytes()
        assert _log_likelihoods(grouped[run:], log_factor[run:])[0] == batched[run]


def test_paper_size_ascent_peaks_near_its_block():
    """A 100-restart r = 3 ascent on the 100 x 100 three-coherent counts at
    window noise 3 holds its steps in one block of runs r (3 m + n) float64
    entries, 960 KB. Its traced peak stays under the block plus eight
    (runs, n) arrays of 8-byte entries, 640 KB, for the labels and keys each
    step makes outside it: the initial, current, new and final labels, the
    group sums' one-hot index, and ``latent_sums``' keys and tiled weights.
    A step that allocates a (runs, m, r) stack outside the block again, or
    a block of more stacks, goes over."""
    dataset, _ = gen_three_coherent(epsilon=3)
    counts, _, _ = prune_empty(ingest_pairs(dataset))
    runs, r = 100, 3
    m, n = counts.shape
    block = runs * r * (3 * m + n) * 8
    multi_start(counts, r, runs, seed=2)  # warm numpy's and the counts' caches
    tracemalloc.start()
    try:
        multi_start(counts, r, runs, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block == 960_000
    assert peak < block + 8 * runs * n * 8, peak
