import numpy as np
import pytest

from cohsets.generators import gen_interval_map, gen_three_coherent
from cohsets.model import ingest_pairs, prune_empty


@pytest.fixture(scope="session")
def three_example():
    dataset, partition = gen_three_coherent()
    counts, _, _ = prune_empty(ingest_pairs(dataset))
    return counts, counts.model, partition


@pytest.fixture(scope="session")
def interval_example():
    dataset, partition = gen_interval_map()
    counts, _, _ = prune_empty(ingest_pairs(dataset))
    return counts, counts.model, partition


@pytest.fixture(scope="session")
def three_affiliation(three_example):
    return three_example[2]


@pytest.fixture(scope="session")
def interval_affiliation(interval_example):
    return interval_example[2]


def random_counts(rng, m, n, density=1.0, scale=20):
    """Random count matrix with every row and column occupied."""
    counts = rng.integers(1, scale, size=(m, n))
    if density < 1.0:
        counts = np.where(rng.random((m, n)) < density, counts, 0)
        counts[rng.integers(m), :] += 1  # keep shapes stable under pruning
        counts[:, rng.integers(n)] += 1
        for j in range(n):
            if counts[:, j].sum() == 0:
                counts[rng.integers(m), j] = 1
        for i in range(m):
            if counts[i].sum() == 0:
                counts[i, rng.integers(n)] = 1
    from cohsets.model import CountMatrix

    return CountMatrix(counts=counts, total=int(counts.sum()))
