import dataclasses

import numpy as np
import pytest

from cohsets import model as model_module
from cohsets.model import (
    CountMatrix,
    CscMatrix,
    PairDataset,
    Partition,
    TransitionModel,
    count_occurring,
    estimate,
    ingest_pairs,
    prune_empty,
)
from tests.conftest import random_counts
from tests.dense_reference import dense, kl


def test_ingest_small():
    ds = PairDataset(inputs=[1, 1, 2], outputs=[1, 2, 2], n_inputs=2, n_outputs=2)
    counts = ingest_pairs(ds)
    assert counts.total == 3
    assert dense(counts).tolist() == [[1, 0], [1, 1]]


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
    assert np.array_equal(dense(counts), expected)
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


def _triple(matrix: CscMatrix) -> tuple:
    return (matrix.shape, matrix.indptr.tolist(), matrix.indices.tolist(), matrix.data.tolist())


def test_csc_matrix_from_dense_and_scipy_input():
    """Dense input is stored on its nonzeros, scipy input with its duplicates
    summed; both give the same int64-indexed triple, and ``toarray`` and
    ``to_scipy`` give the matrix back, the latter on the same arrays."""
    from scipy import sparse

    array = np.array([[0, 3, 0, 1], [2, 0, 0, 0], [0, 5, 0, 4]])
    from_dense = model_module.as_csc(array, np.int64)
    assert _triple(from_dense) == ((3, 4), [0, 1, 3, 3, 5], [1, 0, 2, 0, 2], [2, 3, 5, 1, 4])
    assert from_dense.indices.dtype == from_dense.indptr.dtype == np.int64
    assert not from_dense.data.flags.writeable
    # the entry (2, 1) given as 2 + 3, in no particular order
    coo = sparse.coo_array(([4, 1, 2, 3, 2, 3], ([2, 0, 2, 0, 1, 2], [3, 3, 1, 1, 0, 1])),
                           shape=(3, 4))
    assert _triple(model_module.as_csc(coo, np.int64)) == _triple(from_dense)
    assert model_module.as_csc(from_dense, np.int64) is from_dense
    assert np.array_equal(from_dense.toarray(), array)
    wrapped = from_dense.to_scipy()
    assert np.shares_memory(wrapped.data, from_dense.data)
    assert np.shares_memory(wrapped.indices, from_dense.indices)
    assert np.array_equal(wrapped.toarray(), array)
    with pytest.raises(ValueError, match="entries"):
        CscMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (1, 2))


def test_push_is_scipys_csc_product_bit_for_bit():
    """q = P p adds each row's terms column by column, as scipy does."""
    rng = np.random.default_rng(17)
    for shape in ((5, 7), (60, 40), (300, 300)):
        counts = random_counts(rng, *shape, density=0.3)
        model = counts.model
        p = rng.random(shape[1])
        assert np.array_equal(model_module._push(model.matrix, model.support[1], p),
                              model.matrix.to_scipy() @ p)


def test_prune_drops_empty_rows_and_columns():
    counts = CountMatrix(
        counts=np.array([[2, 0, 1], [0, 0, 0], [1, 0, 3]]), total=7
    )
    pruned, row_map, col_map = prune_empty(counts)
    assert pruned.shape == (2, 2)
    assert row_map.tolist() == [1, 3]
    assert col_map.tolist() == [1, 3]
    assert dense(pruned).tolist() == [[2, 1], [1, 3]]
    assert pruned.total == 7


def test_prune_noop_when_dense():
    counts = CountMatrix(counts=np.array([[1, 2], [3, 4]]), total=10)
    pruned, row_map, col_map = prune_empty(counts)
    assert np.array_equal(dense(pruned), dense(counts))
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
    assert np.array_equal(dense(model.matrix), dense(original(counts).matrix))
    unpruned = CountMatrix(counts=np.array([[1, 0], [1, 0]]), total=2)
    with pytest.raises(ValueError, match="pruned"):
        unpruned.model


def test_partition_active_and_inactive():
    partition = Partition(labels=np.array([3, 1, 3, 1]), n_clusters=4)
    assert partition.active == (1, 3)
    assert partition.inactive == (2, 4)
    with pytest.raises(ValueError):
        Partition(labels=np.array([1, 5]), n_clusters=4)


def test_estimate_identity():
    counts = CountMatrix(counts=np.array([[3, 0], [0, 7]]), total=10)
    model = estimate(counts)
    assert np.allclose(dense(model.matrix), np.eye(2))
    assert np.allclose(model.input_dist, [0.3, 0.7])
    assert np.allclose(model.output_dist, [0.3, 0.7])


def test_estimate_three_example_marginals(three_example):
    counts, model, _ = three_example
    assert np.allclose(model.input_dist, 0.01)
    assert np.allclose(model.output_dist, 0.01)
    # columns of E1 mix 0.8 into F1 and 0.2 into F2
    assert dense(model.matrix)[:25, 0] == pytest.approx([0.032] * 25)
    assert dense(model.matrix)[25:50, 0] == pytest.approx([0.008] * 25)
    assert dense(model.matrix)[50:, 0] == pytest.approx([0.0] * 50)


def test_estimate_interval_entries(interval_example):
    _, model, _ = interval_example
    values = np.unique(np.round(dense(model.matrix), 12))
    assert values.tolist() == [0.0, pytest.approx(1 / 3)]
    assert np.allclose(model.input_dist, 1 / 90)
    # uniform marginals make the rescaled matrix equal the raw one
    assert np.allclose(dense(model.rescaled), dense(model.matrix))


def test_estimate_random_invariants():
    rng = np.random.default_rng(11)
    for _ in range(50):
        counts = random_counts(rng, rng.integers(2, 12), rng.integers(2, 12), density=0.7)
        pruned, _, _ = prune_empty(counts)
        model = estimate(pruned)
        n = model.shape[1]
        assert dense(model.matrix).sum(axis=0) == pytest.approx(np.ones(n))
        assert dense(model.matrix) @ model.input_dist == pytest.approx(model.output_dist)
        expected = dense(model.matrix) * np.sqrt(model.input_dist)[None, :]
        expected /= np.sqrt(model.output_dist)[:, None]
        assert dense(model.rescaled) == pytest.approx(expected)


def test_rescaled_leading_singular_structure():
    """sigma_1 of the rescaled matrix is 1 with right vector sqrt(p)."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.8)
        pruned, _, _ = prune_empty(counts)
        model = estimate(pruned)
        u, s, vt = np.linalg.svd(dense(model.rescaled))
        assert s[0] == pytest.approx(1.0, abs=1e-9)
        root_p = np.sqrt(model.input_dist)
        direction = vt[0] / np.linalg.norm(vt[0])
        assert min(np.abs(direction - root_p).max(),
                   np.abs(direction + root_p).max()) < 1e-8


def test_transition_model_holds_p_and_its_marginals():
    """Every other matrix of the model derives from its three fields."""
    assert tuple(field.name for field in dataclasses.fields(TransitionModel)) == (
        "matrix", "input_dist", "output_dist"
    )
    model = estimate(random_counts(np.random.default_rng(3), 6, 8, density=0.5))
    # the norm gathers on the support with the rescaled product per entry
    values = dense(model.rescaled)[model.support]
    assert model.rescaled_norm_sq == float(np.sum(values * values))


@pytest.mark.parametrize("n", [7, 10**9])
def test_count_occurring_is_prune_empty(n):
    """Counting only the occurring categories, from records or from weighted
    entries, gives the pruned count matrix and maps whatever n is declared."""
    rng = np.random.default_rng(n)
    used = np.sort(rng.choice(n, size=6, replace=False))  # 0-based categories
    inputs, outputs = rng.integers(0, 6, 40), rng.integers(0, 4, 40)
    # the same records over categories 1..6, counted on the full matrix
    expected, rows, cols = prune_empty(ingest_pairs(
        PairDataset(inputs=inputs + 1, outputs=outputs + 1, n_inputs=6, n_outputs=6)
    ))
    entry_rows, entry_cols = np.nonzero(dense(expected))
    weights = dense(expected)[entry_rows, entry_cols]
    for counts, row_map, col_map in (
        count_occurring(used[outputs], used[inputs]),
        count_occurring(used[rows - 1][entry_rows], used[cols - 1][entry_cols], weights),
    ):
        assert np.array_equal(dense(counts), dense(expected))
        assert counts.total == expected.total == 40
        assert np.array_equal(row_map, used[rows - 1] + 1)
        assert np.array_equal(col_map, used[cols - 1] + 1)


def test_transition_model_validation():
    with pytest.raises(ValueError):
        TransitionModel(
            matrix=np.array([[0.5, 0.2], [0.5, 0.7]]),
            input_dist=np.array([0.5, 0.5]),
            output_dist=np.array([0.35, 0.65]),
        )


def test_kl_identical_and_closed_form():
    u = np.array([0.5, 0.5])
    assert kl(u, u) == 0.0
    v = np.array([0.25, 0.75])
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert kl(u, v) == pytest.approx(expected)


def test_kl_support_violation_infinite():
    u = np.array([0.5, 0.5])
    v = np.array([1.0, 0.0])
    assert kl(u, v) == np.inf


def test_kl_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = rng.integers(2, 8)
        u = rng.random(k) + 1e-3
        v = rng.random(k) + 1e-3
        u /= u.sum()
        v /= v.sum()
        assert kl(u, v) >= 0.0
    assert kl(u, u) == 0.0
