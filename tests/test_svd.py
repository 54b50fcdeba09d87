import dataclasses
import itertools

import numpy as np
import pytest

from cohsets import dbmr, model as model_module, report, svd
from cohsets.generators import GyreConfig, gen_double_gyre
from cohsets.model import Partition, estimate, ingest_pairs, prune_empty, rescale
from cohsets.svd import (
    _assign,
    _coherence_scores,
    _lloyd,
    classical_pipeline,
    degree_of_coherence,
    full_svd,
    kmeans,
    match_partitions,
    truncate,
)
from cohsets.model import CountMatrix
from cohsets.seeding import rng_for
from tests.conftest import random_counts


def relabelings_equal(a: Partition, b: Partition) -> bool:
    """True when the two partitions induce the same grouping."""
    if a.size != b.size:
        return False
    seen = {}
    for la, lb in zip(a.labels, b.labels):
        if la in seen and seen[la] != lb:
            return False
        seen[la] = lb
    return len(set(seen.values())) == len(seen)


def test_full_svd_orthonormal_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(30):
        matrix = rng.normal(size=(rng.integers(2, 12), rng.integers(2, 12)))
        fac = full_svd(matrix)
        k = fac.rank
        assert fac.left.T @ fac.left == pytest.approx(np.eye(k), abs=1e-10)
        assert fac.right.T @ fac.right == pytest.approx(np.eye(k), abs=1e-10)
        assert np.all(np.diff(fac.singular_values) <= 1e-12)
        rebuilt = (fac.left * fac.singular_values) @ fac.right.T
        assert rebuilt == pytest.approx(matrix, abs=1e-9)


def _gyre_matrix():
    config = GyreConfig(nx=32, ny=16, points_per_box=10, t_end=1.0, seed=3)
    dataset, _ = gen_double_gyre(config)
    counts, _, _ = prune_empty(ingest_pairs(dataset))
    return estimate(counts).rescaled


def _assert_leading_triplets(matrix, k):
    """Compare ``full_svd(matrix, k)`` with LAPACK's thin SVD."""
    fac = full_svd(matrix, k)
    left, sigma, right_t = np.linalg.svd(matrix, full_matrices=False)
    kept = int(np.sum(sigma[:k] > svd.RANK_TOLERANCE * max(matrix.shape) * sigma[0]))
    assert fac.rank == kept
    np.testing.assert_allclose(fac.singular_values, sigma[:kept], rtol=0, atol=1e-12)
    assert fac.left.T @ fac.left == pytest.approx(np.eye(kept), abs=1e-12)
    assert fac.right.T @ fac.right == pytest.approx(np.eye(kept), abs=1e-12)
    # every computed pair is a singular pair of its value ...
    scale = sigma[0]
    assert np.abs(matrix @ fac.right - fac.left * fac.singular_values).max() <= 1e-12 * scale
    assert np.abs(matrix.T @ fac.left - fac.right * fac.singular_values).max() <= 1e-12 * scale
    # ... and where a gap follows the kept values, the leading subspaces agree
    if kept < sigma.size and sigma[kept - 1] - sigma[kept] > 1e-6:
        for ours, theirs in ((fac.left, left), (fac.right, right_t.T)):
            cosines = np.linalg.svd(theirs[:, :kept].T @ ours, compute_uv=False)
            assert cosines.min() == pytest.approx(1.0, abs=1e-12)
    return fac


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_full_svd_leading_triplets_paper_examples(three_example, interval_example, k):
    # epsilon 0: (1, 1, 0.6) then zeros, and thirty singular values equal to 1
    for _, model, _ in (three_example, interval_example):
        _assert_leading_triplets(model.rescaled, k)


def test_full_svd_leading_triplets_gyre():
    matrix = _gyre_matrix()
    assert np.count_nonzero(matrix) < 0.05 * matrix.size
    for k in (1, 3, 4):
        _assert_leading_triplets(matrix, k)


def test_full_svd_tiny_matrices_all_k():
    rng = np.random.default_rng(29)
    for shape in ((1, 1), (1, 4), (4, 1), (2, 2), (2, 5), (5, 3), (4, 4)):
        matrix = rng.random(shape)
        for k in range(1, min(shape) + 2):
            _assert_leading_triplets(matrix, k)
    assert full_svd(np.zeros((4, 4)), 2).rank == 0
    with pytest.raises(ValueError):
        full_svd(np.eye(3), 0)


def test_full_svd_repeated_calls_identical(three_example):
    _, model, _ = three_example
    for matrix in (model.rescaled, _gyre_matrix()):
        first, second = full_svd(matrix, 3), full_svd(matrix, 3)
        for a, b in ((first.left, second.left), (first.singular_values,
                     second.singular_values), (first.right, second.right)):
            assert np.array_equal(a, b)


def test_compare_experiment_estimates_once(monkeypatch, three_example):
    counts, _, default = three_example
    # the fixture's counts already hold their model
    counts = CountMatrix(counts=counts.counts, total=counts.total)
    calls = []
    original = model_module.estimate

    def counting_estimate(counts):
        calls.append(1)
        return original(counts)

    # model_module's binding is the one CountMatrix.model looks up
    for module in (model_module, report, svd, dbmr):
        if getattr(module, "estimate", None) is original:
            monkeypatch.setattr(module, "estimate", counting_estimate)
    result, _ = report.compare_experiment(counts, 3, runs=2, default_labels=default.labels)
    assert len(calls) == 1
    assert result["singular_values"]["full"] == pytest.approx([1.0, 1.0, 0.6], abs=1e-12)


def test_compare_experiment_pads_spectrum_with_zeros():
    # two blocks: rank 2, so the third reported value is a padded zero
    counts = CountMatrix(counts=np.kron(np.eye(2, dtype=np.int64), np.full((3, 3), 4)),
                         total=72)
    result, _ = report.compare_experiment(counts, 1, runs=2)
    assert result["singular_values"]["full"] == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)
    assert result["singular_values"]["full_sigma3"] == 0.0
    assert result["singular_values"]["full_coherence"] == pytest.approx(1.0, abs=1e-12)


def test_full_svd_drops_numerical_zeros():
    # rank-1 matrix embedded in 4x4
    u = np.array([1.0, 2.0, 3.0, 4.0])[:, None]
    fac = full_svd(u @ u.T)
    assert fac.rank == 1


def test_full_svd_identity():
    fac = full_svd(np.eye(5))
    assert fac.singular_values == pytest.approx(np.ones(5))


def test_three_example_spectrum(three_example):
    _, model, _ = three_example
    fac = full_svd(model.rescaled)
    assert fac.rank == 3
    assert fac.singular_values == pytest.approx([1.0, 1.0, 0.6], abs=1e-12)
    full = np.linalg.svd(model.rescaled, compute_uv=False)
    assert full[3:].max() < 1e-10


def test_interval_spectrum_thirty_ones(interval_example):
    _, model, _ = interval_example
    sigma = np.linalg.svd(model.rescaled, compute_uv=False)
    assert sigma[:30] == pytest.approx(np.ones(30), abs=1e-9)
    assert sigma[30:].max() < 1e-10
    assert np.sum(model.rescaled**2) == pytest.approx(30.0)


def test_truncate_full_rank_reproduces(three_example):
    # the random counts have non-uniform marginals, so a back-scaling by the
    # forward factor instead of its inverse cannot reproduce the matrix
    nonuniform = estimate(random_counts(np.random.default_rng(5), 6, 8))
    for model in (three_example[1], nonuniform):
        fac = full_svd(model.rescaled)
        reduced = truncate(fac, fac.rank, model.input_dist, model.output_dist)
        reduced_rescaled = rescale(reduced, model.input_dist, model.output_dist)
        assert reduced_rescaled == pytest.approx(model.rescaled, abs=1e-12)
        assert reduced == pytest.approx(model.matrix, abs=1e-12)
    fac = full_svd(nonuniform.rescaled)
    reduced = truncate(fac, 2, nonuniform.input_dist, nonuniform.output_dist)
    assert reduced.sum(axis=0) == pytest.approx(np.ones(8), abs=1e-12)


def test_truncate_rank_one_is_marginal_outer_product():
    rng = np.random.default_rng(5)
    counts = random_counts(rng, 6, 8)
    model = estimate(counts)
    fac = full_svd(model.rescaled)
    reduced = truncate(fac, 1, model.input_dist, model.output_dist)
    reduced_rescaled = rescale(reduced, model.input_dist, model.output_dist)
    expected = np.sqrt(model.output_dist)[:, None] * np.sqrt(model.input_dist)[None, :]
    assert reduced_rescaled == pytest.approx(expected, abs=1e-9)


def test_truncate_rank_out_of_range(three_example):
    _, model, _ = three_example
    fac = full_svd(model.rescaled)
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            truncate(fac, bad, model.input_dist, model.output_dist)


def test_truncation_error_matches_tail():
    """Squared truncation error equals the sum of squared dropped values."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        matrix = rng.normal(size=(7, 9))
        sigma = np.linalg.svd(matrix, compute_uv=False)
        fac = full_svd(matrix)
        for rank in (1, 3, 5):
            # unit marginals make the back-scaling the identity
            red = truncate(fac, rank, np.ones(9), np.ones(7))
            err = np.sum((matrix - red) ** 2)
            assert err == pytest.approx(np.sum(sigma[rank:] ** 2), abs=1e-8)


def test_coherence_maximized_by_singular_frames():
    """No orthonormal frame beats the leading singular vectors."""
    rng = np.random.default_rng(21)
    matrix = rng.normal(size=(8, 8))
    sigma = np.linalg.svd(matrix, compute_uv=False)
    r = 3
    top = sigma[:r].sum()
    assert degree_of_coherence(matrix, r) == pytest.approx(top)
    for _ in range(100):
        frame, _ = np.linalg.qr(rng.normal(size=(8, r)))
        total = np.linalg.norm(matrix @ frame, ord="nuc")
        assert total <= top + 1e-8


def test_degree_of_coherence_bounds(three_example, interval_example):
    _, model3, _ = three_example
    assert degree_of_coherence(model3.rescaled, 3) == pytest.approx(2.6, abs=1e-9)
    _, model9, _ = interval_example
    assert degree_of_coherence(model9.rescaled, 3) == pytest.approx(3.0, abs=1e-9)
    assert degree_of_coherence(model9.rescaled, 1) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(2)
    for _ in range(20):
        counts = random_counts(rng, 6, 6)
        model = estimate(counts)
        for r in (1, 2, 3):
            assert degree_of_coherence(model.rescaled, r) <= r + 1e-9


def test_degree_of_coherence_rank_validation():
    with pytest.raises(ValueError):
        degree_of_coherence(np.eye(3), 4)
    with pytest.raises(ValueError):
        degree_of_coherence(np.eye(3), 0)


def test_kmeans_separated_clusters():
    points = np.array([0.0, 0.01, 10.0, 10.01])
    part = kmeans(points, 2, seed=0)
    assert part.labels[0] == part.labels[1]
    assert part.labels[2] == part.labels[3]
    assert part.labels[0] != part.labels[2]


def test_kmeans_singletons():
    points = np.array([[0.0], [5.0], [9.0]])
    part = kmeans(points, 3, seed=1)
    assert sorted(part.labels.tolist()) == [1, 2, 3]


def test_kmeans_determinism():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(40, 3))
    a = kmeans(points, 4, seed=7)
    b = kmeans(points, 4, seed=7)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_duplicate_points_padded():
    points = np.zeros((6, 2))
    part = kmeans(points, 3, seed=0)
    assert part.n_clusters == 3
    assert len(set(part.labels.tolist())) == 3


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4)
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 0)
    with pytest.raises(ValueError):
        kmeans(np.array([[np.nan, 0.0]]), 1)


def test_lloyd_objective_monotone_and_fixed_point():
    rng = np.random.default_rng(13)
    for trial in range(20):
        points = rng.normal(size=(50, 2))
        labels, centers, objectives, _ = _lloyd(points, 5, rng_for(trial, 0), 100)
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        again, _ = _assign(points, centers)
        assert np.array_equal(again, labels)


def test_kmeans_recovers_blocks(three_example):
    _, model, default = three_example
    fac = full_svd(model.rescaled)
    part = kmeans(fac.right[:, :3], 3, seed=0)
    assert relabelings_equal(part, default)


def test_match_partitions_two_by_two():
    counts = CountMatrix(counts=np.array([[9, 2], [1, 8]]), total=20)
    model = estimate(counts)
    E = Partition(labels=np.array([1, 2]), n_clusters=2)
    F = Partition(labels=np.array([1, 2]), n_clusters=2)
    matched, objective = match_partitions(model, E, F)
    assert np.array_equal(matched.labels, [1, 2])
    assert objective == pytest.approx(1.7)
    # flipping the output labels must be undone by the matching
    flipped = Partition(labels=np.array([2, 1]), n_clusters=2)
    matched2, objective2 = match_partitions(model, E, flipped)
    assert np.array_equal(matched2.labels, [1, 2])
    assert objective2 == pytest.approx(1.7)


def test_match_partitions_validation(three_example):
    _, model, default = three_example
    with pytest.raises(ValueError):
        match_partitions(model, default, Partition(labels=np.ones(99, dtype=int), n_clusters=3))
    with pytest.raises(ValueError):
        match_partitions(
            model, default,
            Partition(labels=np.ones(100, dtype=int), n_clusters=1),
        )


def test_match_beats_every_permutation():
    """Assignment objective equals the exhaustive-permutation maximum."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        r = int(rng.integers(2, 6))
        counts = random_counts(rng, 3 * r, 3 * r)
        model = estimate(counts)
        E = Partition(labels=rng.integers(1, r + 1, size=3 * r) if r > 1 else np.ones(3 * r, int), n_clusters=r)
        # ensure every input cluster is nonempty
        labels = E.labels.copy()
        labels[:r] = np.arange(1, r + 1)
        E = Partition(labels=labels, n_clusters=r)
        F = Partition(labels=np.tile(np.arange(1, r + 1), 3), n_clusters=r)
        scores = _coherence_scores(model, E, F)
        _, objective = match_partitions(model, E, F)
        best = max(
            sum(scores[k, perm[k]] for k in range(r))
            for perm in itertools.permutations(range(r))
        )
        assert objective == pytest.approx(best, abs=1e-12)


def _assignment_cases():
    """Square score matrices: random, small-integer ties, constant, and with
    all-zero columns (empty output clusters)."""
    rng = np.random.default_rng(29)
    for r in range(1, 8):
        for _ in range(40):
            yield rng.random((r, r))
            yield rng.integers(0, 3, size=(r, r)).astype(np.float64)
            tied = rng.choice([0.0, 0.25, 0.5, 1.0 / 3.0], size=(r, r))
            tied[:, rng.integers(r, size=int(rng.integers(1, r + 1)))] = 0.0
            yield tied
        yield np.zeros((r, r))
        yield np.ones((r, r))


def test_best_assignment_matches_scipy():
    """The augmenting-path solver returns scipy's assignment, ties included."""
    from scipy.optimize import linear_sum_assignment

    for scores in _assignment_cases():
        rows, cols = linear_sum_assignment(-scores)
        assignment, objective = svd._best_assignment(scores)
        assert np.array_equal(assignment, cols)
        assert objective == float(scores[rows, cols].sum())


def test_best_assignment_beats_every_permutation():
    for scores in _assignment_cases():
        r = scores.shape[0]
        if r > 6:
            continue
        assignment, objective = svd._best_assignment(scores)
        assert sorted(assignment.tolist()) == list(range(r))
        best = max(
            sum(scores[k, perm[k]] for k in range(r))
            for perm in itertools.permutations(range(r))
        )
        assert objective >= best - 1e-12


def test_best_assignment_rejects_nonfinite_scores():
    with pytest.raises(ValueError):
        svd._best_assignment(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_import_leaves_out_scipy_optimize():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, cohsets; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def test_classical_pipeline_three_example(three_example):
    counts, model, default = three_example
    result = classical_pipeline(counts, 3, seed=0)
    assert relabelings_equal(result.input_partition, default)
    assert relabelings_equal(result.output_partition, default)
    # matched clusters pair E_k with its own image: 0.8 + 0.8 + 1.0
    assert result.coherence == pytest.approx(2.6, abs=1e-9)
    reduced = truncate(result.factorization, 3, model.input_dist, model.output_dist)
    assert reduced == pytest.approx(model.matrix, abs=1e-8)


def test_classical_result_holds_no_matrix(interval_example):
    """The result keeps the factorization and partitions; ``truncate``
    derives the rank-r matrix."""
    counts, _, _ = interval_example
    result = classical_pipeline(counts, 3, seed=0)
    arrays = [
        value
        for holder in (result, result.factorization)
        for value in (getattr(holder, field.name) for field in dataclasses.fields(holder))
        if isinstance(value, np.ndarray)
    ]
    assert arrays and all(array.shape != counts.shape for array in arrays)


def test_classical_pipeline_interval_keeps_triples(interval_example):
    counts, model, _ = interval_example
    result = classical_pipeline(counts, 3, seed=0)
    assert result.coherence == pytest.approx(3.0, abs=1e-9)
    # inputs c, c+10, c+20 of each block share a column and must stay together
    labels = result.input_partition.labels
    for block in range(3):
        for c in range(10):
            base = 30 * block + c
            assert labels[base] == labels[base + 10] == labels[base + 20]


def test_classical_pipeline_rank_one():
    rng = np.random.default_rng(23)
    counts = random_counts(rng, 5, 5)
    result = classical_pipeline(counts, 1, seed=0)
    assert result.input_partition.n_clusters == 1
    assert result.coherence == pytest.approx(1.0)
