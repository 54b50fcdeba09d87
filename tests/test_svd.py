import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from cohsets import dbmr, model as model_module, report, svd
from cohsets.generators import (
    GyreConfig,
    gen_double_gyre,
    interval_map_counts,
    three_coherent_counts,
)
from cohsets.model import Partition, count_occurring, estimate, ingest_pairs, prune_empty
from cohsets.svd import (
    _coherence_scores,
    _lloyd,
    _plus_plus_centers,
    classical_pipeline,
    full_svd,
    kmeans,
    match_partitions,
)
from cohsets.model import CountMatrix
from cohsets.seeding import mix_seed, rng_for
from tests.conftest import random_counts
from tests.dense_reference import (
    assign_reference,
    dense,
    plus_plus_centers_reference,
    rescale_dense,
    truncate_reference,
)


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
    matrix = dense(matrix)
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
    assert matrix.nnz < 0.05 * np.prod(matrix.shape)
    for k in (1, 3, 4):
        _assert_leading_triplets(matrix, k)


def test_full_svd_size_rule():
    """LAPACK up to LAPACK_MAX_ENTRIES entries, ARPACK on a larger dense
    matrix unless k covers its spectrum; both give its leading triplets."""
    rng = np.random.default_rng(31)
    for shape, k, path in (((128, 128), 3, "lapack"), ((129, 128), 3, "arpack"),
                           ((130, 140), 4, "arpack"), ((130, 140), 130, "lapack")):
        assert full_svd(rng.random(shape), k).path == path
        _assert_leading_triplets(rng.random(shape), k)


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
    # LAPACK factorized the 6 x 6 matrix; of its three leading values the
    # cutoff dropped one
    assert result["diagnostics"]["svd_path"] == "lapack"
    assert result["diagnostics"]["svd_values_cut"] == 1


def test_compare_reports_the_lapack_path():
    """Three triplets cover a 3 x 3 spectrum, so LAPACK factorizes it."""
    counts = CountMatrix(counts=np.array([[4, 0, 0], [0, 4, 1], [0, 1, 4]]), total=14)
    result, _ = report.compare_experiment(counts, 2, runs=2)
    assert result["diagnostics"]["svd_path"] == "lapack"
    assert result["diagnostics"]["svd_values_cut"] == 0


def test_compare_reports_kmeans_repairs(monkeypatch, three_example):
    """Both sides' repairs reach the report. Clustering all-zero points in
    place of the singular vectors' rows forces two repairs after each
    restart's first and repeating assignment: 10 restarts, two sides."""
    clustered = svd.kmeans
    monkeypatch.setattr(
        svd, "kmeans", lambda points, k, **options: clustered(np.zeros_like(points), k, **options)
    )
    counts, _, _ = three_example
    result, artifacts = report.compare_experiment(counts, 3, runs=2)
    assert artifacts["classical"].kmeans_repairs == 2 * 10 * 2 * 2
    assert result["diagnostics"]["kmeans_repairs"] == 2 * 10 * 2 * 2


def test_full_svd_of_a_zero_matrix_is_lapacks_empty_factorization():
    """Every field is what LAPACK's thin SVD of the zeros gives."""
    for shape, k in (((4, 4), 2), ((3, 5), None), ((5, 2), 4)):
        left, sigma, right_t = np.linalg.svd(np.zeros(shape), full_matrices=False)
        k_values = sigma[:k]
        keep = k_values > 0.0
        for matrix in (np.zeros(shape), model_module.as_csc(np.zeros(shape), np.float64)):
            fac = full_svd(matrix, k)
            for got, want in ((fac.left, left[:, :k][:, keep]), (fac.singular_values, k_values[keep]),
                              (fac.right, right_t[:k][keep].T)):
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert (fac.path, fac.values_cut) == ("lapack", k_values.size)


def test_full_svd_of_a_zero_matrix_does_not_densify():
    n = 2048
    zero = model_module.CscMatrix(np.zeros(n + 1), np.zeros(0), np.zeros(0), (n, n))
    tracemalloc.start()
    try:
        fac = full_svd(zero, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (fac.rank, fac.values_cut) == (0, 3)
    assert peak < 2**20


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
    full = np.linalg.svd(dense(model.rescaled), compute_uv=False)
    assert full[3:].max() < 1e-10


def test_interval_spectrum_thirty_ones(interval_example):
    _, model, _ = interval_example
    sigma = np.linalg.svd(dense(model.rescaled), compute_uv=False)
    assert sigma[:30] == pytest.approx(np.ones(30), abs=1e-9)
    assert sigma[30:].max() < 1e-10
    assert np.sum(dense(model.rescaled) ** 2) == pytest.approx(30.0)


def test_truncate_full_rank_reproduces(three_example):
    # the random counts have non-uniform marginals, so a back-scaling by the
    # forward factor instead of its inverse cannot reproduce the matrix
    nonuniform = estimate(random_counts(np.random.default_rng(5), 6, 8))
    for model in (three_example[1], nonuniform):
        fac = full_svd(model.rescaled)
        reduced = truncate_reference(fac, fac.rank, model.input_dist, model.output_dist)
        reduced_rescaled = rescale_dense(reduced, model.input_dist, model.output_dist)
        assert reduced_rescaled == pytest.approx(dense(model.rescaled), abs=1e-12)
        assert reduced == pytest.approx(dense(model.matrix), abs=1e-12)
    fac = full_svd(nonuniform.rescaled)
    reduced = truncate_reference(fac, 2, nonuniform.input_dist, nonuniform.output_dist)
    assert reduced.sum(axis=0) == pytest.approx(np.ones(8), abs=1e-12)


def test_truncate_rank_one_is_marginal_outer_product():
    rng = np.random.default_rng(5)
    counts = random_counts(rng, 6, 8)
    model = estimate(counts)
    fac = full_svd(model.rescaled)
    reduced = truncate_reference(fac, 1, model.input_dist, model.output_dist)
    reduced_rescaled = rescale_dense(reduced, model.input_dist, model.output_dist)
    expected = np.sqrt(model.output_dist)[:, None] * np.sqrt(model.input_dist)[None, :]
    assert reduced_rescaled == pytest.approx(expected, abs=1e-9)


def test_truncate_rank_out_of_range(three_example):
    _, model, _ = three_example
    fac = full_svd(model.rescaled)
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            truncate_reference(fac, bad, model.input_dist, model.output_dist)


def test_truncation_error_matches_tail():
    """Squared truncation error equals the sum of squared dropped values."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        matrix = rng.normal(size=(7, 9))
        sigma = np.linalg.svd(matrix, compute_uv=False)
        fac = full_svd(matrix)
        for rank in (1, 3, 5):
            # unit marginals make the back-scaling the identity
            red = truncate_reference(fac, rank, np.ones(9), np.ones(7))
            err = np.sum((matrix - red) ** 2)
            assert err == pytest.approx(np.sum(sigma[rank:] ** 2), abs=1e-8)


def test_coherence_maximized_by_singular_frames():
    """No orthonormal frame beats the leading singular vectors."""
    rng = np.random.default_rng(21)
    matrix = rng.normal(size=(8, 8))
    sigma = np.linalg.svd(matrix, compute_uv=False)
    r = 3
    top = sigma[:r].sum()
    for _ in range(100):
        frame, _ = np.linalg.qr(rng.normal(size=(8, r)))
        total = np.linalg.norm(matrix @ frame, ord="nuc")
        assert total <= top + 1e-8


def _coherence(model, r):
    """Degree of coherence: the sum of the r leading singular values of P~."""
    return np.linalg.svd(dense(model.rescaled), compute_uv=False)[:r].sum()


def test_degree_of_coherence_bounds(three_example, interval_example):
    _, model3, _ = three_example
    assert _coherence(model3, 3) == pytest.approx(2.6, abs=1e-9)
    _, model9, _ = interval_example
    assert _coherence(model9, 3) == pytest.approx(3.0, abs=1e-9)
    assert _coherence(model9, 1) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(2)
    for _ in range(20):
        counts = random_counts(rng, 6, 6)
        model = estimate(counts)
        for r in (1, 2, 3):
            assert _coherence(model, r) <= r + 1e-9


def test_kmeans_separated_clusters():
    points = np.array([0.0, 0.01, 10.0, 10.01])
    part, _ = kmeans(points, 2, seed=0)
    assert part.labels[0] == part.labels[1]
    assert part.labels[2] == part.labels[3]
    assert part.labels[0] != part.labels[2]


def test_kmeans_singletons():
    points = np.array([[0.0], [5.0], [9.0]])
    part, _ = kmeans(points, 3, seed=1)
    assert sorted(part.labels.tolist()) == [1, 2, 3]


def test_kmeans_determinism():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(40, 3))
    a, _ = kmeans(points, 4, seed=7)
    b, _ = kmeans(points, 4, seed=7)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_duplicate_points_padded():
    points = np.zeros((6, 2))
    part, repairs = kmeans(points, 3, seed=0)
    assert part.n_clusters == 3
    assert len(set(part.labels.tolist())) == 3
    # Every assignment of six equal points leaves two clusters empty: each
    # restart repairs them after its first and its repeating assignment.
    assert repairs == 10 * 2 * 2


def test_plus_plus_batched_picks_match_one_at_a_time():
    """Each restart's batched picks are those of the restart alone from the
    same row of uniforms: on points with repeats (zero weights), and on
    coinciding points, where every weight is zero and the weights are ones.
    No pick lands on a point that coincides with an earlier center while
    another point does not."""
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        distinct = rng.normal(size=(int(rng.integers(1, n + 1)), 2))
        points = distinct[rng.integers(0, distinct.shape[0], n)]
        k = int(rng.integers(1, min(n, 6) + 1))
        uniforms = rng.random((4, k))
        centers = _plus_plus_centers(points, uniforms)
        for row, u in zip(centers, uniforms):
            assert np.array_equal(row, plus_plus_centers_reference(points, u))
            for c in range(1, k):
                earlier = row[:c, np.newaxis, :]
                if np.sum((points - earlier) ** 2, axis=2).min(axis=0).any():
                    assert np.sum((row[c] - row[:c]) ** 2, axis=1).min() > 0.0


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4)
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 0)
    with pytest.raises(ValueError):
        kmeans(np.array([[np.nan, 0.0]]), 1)


def test_lloyd_objective_monotone_and_fixed_point():
    """Capping the batched loop after 1, 2, ... assignments gives each
    restart's objective after that many iterations; the final labels are
    their own centers' assignment."""
    rng = np.random.default_rng(13)
    for trial in range(20):
        points = rng.normal(size=(50, 2))
        objectives = np.array([
            _lloyd(points, rng_for(trial, 0).random((3, 5)), cap)[1] for cap in range(1, 25)
        ])
        assert np.all(np.diff(objectives, axis=0) <= 1e-12)
        labels, final, _ = _lloyd(points, rng_for(trial, 0).random((3, 5)), 100)
        assert np.array_equal(final, objectives[-1])
        for row in labels:
            centers = np.stack([points[row == c].mean(axis=0) for c in range(5)])
            again, _ = assign_reference(points, centers)
            assert np.array_equal(again, row)


def test_kmeans_recovers_blocks(three_example):
    _, model, default = three_example
    fac = full_svd(model.rescaled)
    part, _ = kmeans(fac.right[:, :3], 3, seed=0)
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


def test_classical_pipeline_three_example(three_example):
    counts, model, default = three_example
    result = classical_pipeline(counts, 3, seed=0)
    assert relabelings_equal(result.input_partition, default)
    assert relabelings_equal(result.output_partition, default)
    # matched clusters pair E_k with its own image: 0.8 + 0.8 + 1.0
    assert result.coherence == pytest.approx(2.6, abs=1e-9)
    reduced = truncate_reference(result.factorization, 3, model.input_dist, model.output_dist)
    assert reduced == pytest.approx(dense(model.matrix), abs=1e-8)


def test_classical_result_holds_no_matrix(interval_example):
    """The result keeps the factorization and partitions;
    ``truncated_factors`` derives the rank-r matrix's factors."""
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


def _workload_counts(workload_seed):
    """(name, pruned counts, compare seed) of each paper-batch request of the
    benchmark for ``workload_seed``: three-coherent at epsilon 0-10, then
    interval-map at 0 and 1, each record moved within modular windows drawn
    from one generator in that order."""
    rng = np.random.default_rng([workload_seed, 1])
    items = [("three-coherent", e) for e in range(11)] + [("interval-map", e) for e in (0, 1)]
    for index, (name, epsilon) in enumerate(items):
        example = three_coherent_counts if name == "three-coherent" else interval_map_counts
        pattern = dense(example())
        m, n = pattern.shape
        rows, cols = np.nonzero(pattern)
        inputs = np.repeat(cols, pattern[rows, cols])
        outputs = np.repeat(rows, pattern[rows, cols])
        if epsilon:
            inputs = (inputs + rng.integers(-epsilon, epsilon + 1, inputs.size)) % n
            outputs = (outputs + rng.integers(-epsilon, epsilon + 1, outputs.size)) % m
        counts = count_occurring(outputs, inputs)[0]
        yield f"{name}/eps={epsilon}", counts, workload_seed * 1000 + index


def _arpack_factorization(matrix, k):
    """``full_svd``'s triplets as ARPACK gives them: scipy's ``svds`` from
    the same start vector, largest first, cut at the same tolerance."""
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import svds

    start = np.random.default_rng(0).standard_normal(min(matrix.shape))
    left, sigma, right_t = svds(csc_array((matrix.data, matrix.indices, matrix.indptr),
                                          shape=matrix.shape), k=k, tol=0, v0=start)
    left, sigma, right_t = left[:, ::-1], sigma[::-1], right_t[::-1]
    keep = sigma > svd.RANK_TOLERANCE * max(matrix.shape) * sigma[0]
    return svd.SvdFactorization(left=left[:, keep], singular_values=sigma[keep],
                                right=right_t[keep].T, path="arpack",
                                values_cut=int(sigma.size - keep.sum()))


@pytest.mark.parametrize("workload_seed", [2, 5])
def test_lapack_and_arpack_triplets_give_the_same_partitions(monkeypatch, workload_seed):
    """On every paper-batch input with a gap at the rank-3 cut, the classical
    partitions from LAPACK's triplets equal those from ARPACK's. The interval
    map at epsilon 0 has sigma = 1 thirty times, so its leading subspace and
    the partition on it depend on the solver; it is left out."""
    for name, counts, seed in _workload_counts(workload_seed):
        lapack = classical_pipeline(counts, 3, seed=mix_seed(seed, 1))
        assert lapack.factorization.path == "lapack"
        sigma = np.linalg.svd(dense(counts.model.rescaled), compute_uv=False)
        if name == "interval-map/eps=0":
            assert sigma[3] == pytest.approx(sigma[2], abs=1e-12)
            continue
        assert sigma[2] - sigma[3] > 0.05
        with monkeypatch.context() as patch:
            patch.setattr(svd, "full_svd", _arpack_factorization)
            arpack = classical_pipeline(counts, 3, seed=mix_seed(seed, 1))
        np.testing.assert_allclose(arpack.factorization.singular_values,
                                   lapack.factorization.singular_values, rtol=0, atol=1e-14)
        assert np.array_equal(arpack.input_partition.labels, lapack.input_partition.labels), name
        assert np.array_equal(arpack.output_partition.labels, lapack.output_partition.labels), name
