import numpy as np
import pytest

from cohsets import model as model_module
from cohsets.model import (
    CountMatrix,
    PairDataset,
    Partition,
    TransitionModel,
    estimate,
    ingest_pairs,
    kl_divergence,
    prune_empty,
)
from tests.conftest import random_counts


def test_ingest_small():
    ds = PairDataset(inputs=[1, 1, 2], outputs=[1, 2, 2], n_inputs=2, n_outputs=2)
    counts = ingest_pairs(ds)
    assert counts.total == 3
    assert counts.counts.tolist() == [[1, 0], [1, 1]]


def test_ingest_matches_block_construction(three_example):
    counts, _, _ = three_example
    expected = np.zeros((100, 100), dtype=np.int64)
    for i in range(100):
        for j in range(100):
            if i < 25 and j < 25 or 25 <= i < 50 and 25 <= j < 50:
                expected[i, j] = 8
            elif (i < 25) != (j < 25) and i < 50 and j < 50:
                expected[i, j] = 2
            elif i >= 50 and j >= 50:
                expected[i, j] = 5
    assert np.array_equal(counts.counts, expected)
    assert counts.total == 25000


def test_pair_dataset_rejects_out_of_range():
    with pytest.raises(ValueError, match="record 2"):
        PairDataset(inputs=[1, 3], outputs=[1, 1], n_inputs=2, n_outputs=2)
    with pytest.raises(ValueError, match="record 1"):
        PairDataset(inputs=[1], outputs=[0], n_inputs=2, n_outputs=2)


def test_pair_dataset_rejects_empty():
    with pytest.raises(ValueError):
        PairDataset(inputs=[], outputs=[], n_inputs=2, n_outputs=2)


def test_count_matrix_validation():
    with pytest.raises(ValueError):
        CountMatrix(counts=np.array([[1, -1], [0, 2]]), total=2)
    with pytest.raises(ValueError):
        CountMatrix(counts=np.array([[1, 1], [0, 2]]), total=5)


def test_prune_drops_empty_rows_and_columns():
    counts = CountMatrix(
        counts=np.array([[2, 0, 1], [0, 0, 0], [1, 0, 3]]), total=7
    )
    pruned, row_map, col_map = prune_empty(counts)
    assert pruned.shape == (2, 2)
    assert row_map.tolist() == [1, 3]
    assert col_map.tolist() == [1, 3]
    assert pruned.counts.tolist() == [[2, 1], [1, 3]]
    assert pruned.total == 7


def test_prune_noop_when_dense():
    counts = CountMatrix(counts=np.array([[1, 2], [3, 4]]), total=10)
    pruned, row_map, col_map = prune_empty(counts)
    assert np.array_equal(pruned.counts, counts.counts)
    assert row_map.tolist() == [1, 2]
    assert col_map.tolist() == [1, 2]


def test_prune_all_zero_raises():
    counts = CountMatrix(counts=np.zeros((2, 2), dtype=np.int64), total=0)
    with pytest.raises(ValueError, match="empty"):
        prune_empty(counts)


def test_estimate_rejects_unpruned():
    counts = CountMatrix(counts=np.array([[1, 0], [1, 0]]), total=2)
    with pytest.raises(ValueError, match="pruned"):
        estimate(counts)


def test_count_matrix_model_is_estimated_once(monkeypatch):
    counts = random_counts(np.random.default_rng(13), 4, 6)
    calls = []
    original = model_module.estimate

    def counting_estimate(counts):
        calls.append(1)
        return original(counts)

    monkeypatch.setattr(model_module, "estimate", counting_estimate)
    model = counts.model
    assert counts.model is model
    assert len(calls) == 1
    assert np.array_equal(model.matrix, original(counts).matrix)
    unpruned = CountMatrix(counts=np.array([[1, 0], [1, 0]]), total=2)
    with pytest.raises(ValueError, match="pruned"):
        unpruned.model


def test_partition_active_and_inactive():
    partition = Partition(labels=np.array([3, 1, 3, 1]), n_clusters=4)
    assert partition.active == (1, 3)
    assert partition.inactive == (2, 4)
    assert partition.members(3).tolist() == [1, 3]
    with pytest.raises(ValueError):
        Partition(labels=np.array([1, 5]), n_clusters=4)


def test_estimate_identity():
    counts = CountMatrix(counts=np.array([[3, 0], [0, 7]]), total=10)
    model = estimate(counts)
    assert np.allclose(model.matrix, np.eye(2))
    assert np.allclose(model.input_dist, [0.3, 0.7])
    assert np.allclose(model.output_dist, [0.3, 0.7])


def test_estimate_three_example_marginals(three_example):
    counts, model, _ = three_example
    assert np.allclose(model.input_dist, 0.01)
    assert np.allclose(model.output_dist, 0.01)
    # columns of E1 mix 0.8 into F1 and 0.2 into F2
    assert model.matrix[:25, 0] == pytest.approx([0.032] * 25)
    assert model.matrix[25:50, 0] == pytest.approx([0.008] * 25)
    assert model.matrix[50:, 0] == pytest.approx([0.0] * 50)


def test_estimate_interval_entries(interval_example):
    _, model, _ = interval_example
    values = np.unique(np.round(model.matrix, 12))
    assert values.tolist() == [0.0, pytest.approx(1 / 3)]
    assert np.allclose(model.input_dist, 1 / 90)
    # uniform marginals make the rescaled matrix equal the raw one
    assert np.allclose(model.rescaled, model.matrix)


def test_estimate_random_invariants():
    rng = np.random.default_rng(11)
    for _ in range(50):
        counts = random_counts(rng, rng.integers(2, 12), rng.integers(2, 12), density=0.7)
        pruned, _, _ = prune_empty(counts)
        model = estimate(pruned)
        n = model.shape[1]
        assert model.matrix.sum(axis=0) == pytest.approx(np.ones(n))
        assert model.matrix @ model.input_dist == pytest.approx(model.output_dist)
        expected = model.matrix * np.sqrt(model.input_dist)[None, :]
        expected /= np.sqrt(model.output_dist)[:, None]
        assert model.rescaled == pytest.approx(expected)


def test_rescaled_leading_singular_structure():
    """sigma_1 of the rescaled matrix is 1 with right vector sqrt(p)."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.8)
        pruned, _, _ = prune_empty(counts)
        model = estimate(pruned)
        u, s, vt = np.linalg.svd(model.rescaled)
        assert s[0] == pytest.approx(1.0, abs=1e-9)
        root_p = np.sqrt(model.input_dist)
        direction = vt[0] / np.linalg.norm(vt[0])
        assert min(np.abs(direction - root_p).max(),
                   np.abs(direction + root_p).max()) < 1e-8


def test_transition_model_validation():
    with pytest.raises(ValueError):
        TransitionModel(
            matrix=np.array([[0.5, 0.2], [0.5, 0.7]]),
            input_dist=np.array([0.5, 0.5]),
            output_dist=np.array([0.35, 0.65]),
            rescaled=np.eye(2),
        )


def test_kl_identical_and_closed_form():
    u = np.array([0.5, 0.5])
    assert kl_divergence(u, u) == 0.0
    v = np.array([0.25, 0.75])
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert kl_divergence(u, v) == pytest.approx(expected)


def test_kl_support_violation_infinite():
    u = np.array([0.5, 0.5])
    v = np.array([1.0, 0.0])
    assert kl_divergence(u, v) == np.inf


def test_kl_validation():
    with pytest.raises(ValueError):
        kl_divergence(np.array([0.5, 0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        kl_divergence(np.array([0.5, 0.5]), np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        kl_divergence(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))


def test_kl_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = rng.integers(2, 8)
        u = rng.random(k) + 1e-3
        v = rng.random(k) + 1e-3
        u /= u.sum()
        v /= v.sum()
        assert kl_divergence(u, v) >= 0.0
    assert kl_divergence(u, u) == 0.0
