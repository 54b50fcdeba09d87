import numpy as np
import pytest

from cohsets.dbmr import reduce_with_affiliation
from cohsets.model import Partition, estimate, rescale
from cohsets.projection import (
    build_projection,
    pythagoras_check,
    singular_value_dominance,
    verify_factorization,
)
from tests.conftest import random_counts


def _affiliation(labels: np.ndarray, r: int) -> Partition:
    return Partition(labels=np.asarray(labels, dtype=int), n_clusters=r)


def test_projection_small_literal():
    p = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    labels = np.array([1, 1, 2, 2, 2])
    proj = build_projection(p, _affiliation(labels, 2))
    masses = np.array([0.3, 0.7])
    expected = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            if labels[i] == labels[j]:
                expected[i, j] = p[i] / masses[labels[i] - 1]
    assert proj.matrix == pytest.approx(expected, abs=1e-15)
    assert proj.rank == 2
    assert proj.active == (1, 2)


def test_projection_identity_partition():
    p = np.array([0.4, 0.35, 0.25])
    proj = build_projection(p, _affiliation([1, 2, 3], 3))
    assert proj.matrix == pytest.approx(np.eye(3))
    assert proj.rescaled == pytest.approx(np.eye(3))


def test_projection_single_class_uniform():
    n = 6
    p = np.full(n, 1 / n)
    proj = build_projection(p, _affiliation(np.ones(n), 1))
    assert proj.matrix == pytest.approx(np.full((n, n), 1 / n))
    # rank-one rescaled projection onto the sqrt(p) direction
    root = np.sqrt(p)
    assert proj.rescaled == pytest.approx(np.outer(root, root))


def test_projection_requires_positive_marginal():
    with pytest.raises(ValueError):
        build_projection(np.array([1.0, 0.0]), _affiliation([1, 1], 1))
    with pytest.raises(ValueError):
        build_projection(np.array([0.5, 0.5, 0.0]), _affiliation([1, 1], 1))


def test_projection_invariants_random():
    rng = np.random.default_rng(61)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        r = int(rng.integers(1, n + 1))
        labels = rng.integers(1, r + 1, size=n)
        p = rng.random(n) + 0.05
        p /= p.sum()
        proj = build_projection(p, _affiliation(labels, r))
        # column stochastic, idempotent, and fixing p in plain coordinates
        assert proj.matrix.sum(axis=0) == pytest.approx(np.ones(n))
        assert proj.matrix @ proj.matrix == pytest.approx(proj.matrix, abs=1e-12)
        assert proj.matrix @ p == pytest.approx(p)
        # symmetric idempotent after rescaling
        sym = proj.rescaled
        assert sym == pytest.approx(sym.T, abs=1e-13)
        assert sym @ sym == pytest.approx(sym, abs=1e-12)
        assert proj.rank == len(set(labels.tolist()))
        assert len(proj.eigenvectors) == proj.rank
        assert sum(proj.eigenvectors) == pytest.approx(p)
        for cls, vec in zip(proj.active, proj.eigenvectors):
            member = labels == cls
            assert vec[member] == pytest.approx(p[member])
            assert vec[~member] == pytest.approx(np.zeros(int((~member).sum())))
            assert proj.matrix @ vec == pytest.approx(vec)


def test_projection_eigenvalues_zero_or_one():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        labels = rng.integers(1, 4, size=n)
        p = rng.dirichlet(np.ones(n) * 3)
        p = np.maximum(p, 1e-3)
        p /= p.sum()
        proj = build_projection(p, _affiliation(labels, 3))
        eigvals = np.linalg.eigvalsh(proj.rescaled)
        rounded = np.round(eigvals)
        assert eigvals == pytest.approx(rounded, abs=1e-10)
        assert int(rounded.sum()) == proj.rank


def test_factorization_identity_three(three_example, three_affiliation):
    counts, model, _ = three_example
    reduced = reduce_with_affiliation(counts, three_affiliation)
    residuals = verify_factorization(model, reduced)
    assert residuals.factorization < 1e-15
    assert residuals.input_fixed < 1e-15
    assert residuals.output_marginal < 1e-15
    assert residuals.max() < 1e-15


def test_factorization_identity_random():
    """Gathering then projecting reproduces the reduced transition exactly."""
    rng = np.random.default_rng(71)
    for _ in range(60):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.8)
        model = estimate(counts)
        r = int(rng.integers(1, 5))
        labels = rng.integers(1, r + 1, size=counts.shape[1])
        reduced = reduce_with_affiliation(counts, _affiliation(labels, r))
        assert verify_factorization(model, reduced).max() < 1e-12


def test_pythagoras_interval(interval_example, interval_affiliation):
    counts, model, _ = interval_example
    reduced = reduce_with_affiliation(counts, interval_affiliation)
    lhs, rhs = pythagoras_check(model, reduced)
    assert lhs == pytest.approx(27.0, abs=1e-9)
    assert rhs == pytest.approx(27.0, abs=1e-9)


def test_pythagoras_random():
    rng = np.random.default_rng(73)
    for _ in range(60):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.8)
        model = estimate(counts)
        r = int(rng.integers(1, 5))
        labels = rng.integers(1, r + 1, size=counts.shape[1])
        reduced = reduce_with_affiliation(counts, _affiliation(labels, r))
        lhs, rhs = pythagoras_check(model, reduced)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_pythagoras_shape_mismatch(three_example, interval_example, interval_affiliation):
    """A reduction of another model's shape is refused."""
    counts, _, _ = interval_example
    reduced = reduce_with_affiliation(counts, interval_affiliation)
    with pytest.raises(ValueError):
        pythagoras_check(three_example[1], reduced)


def test_frobenius_orthogonality_random():
    """The residual is Frobenius-orthogonal to anything supported on the
    projected subspace, which is the geometric content of the gap identity."""
    rng = np.random.default_rng(79)
    counts = random_counts(rng, 7, 9, density=0.9)
    model = estimate(counts)
    labels = rng.integers(1, 4, size=9)
    reduced = reduce_with_affiliation(counts, _affiliation(labels, 3))
    proj = build_projection(model.input_dist, reduced.affiliation)
    residual = model.rescaled - rescale(reduced.approx, model.input_dist, model.output_dist)
    for _ in range(50):
        arbitrary = rng.standard_normal((7, 9))
        assert abs(np.sum(residual * (arbitrary @ proj.rescaled))) < 1e-9


def test_projected_transition_is_best_approximation():
    """Among transition kernels constant on the classes, the gathered factor
    minimizes the rescaled Frobenius gap."""
    rng = np.random.default_rng(83)
    counts = random_counts(rng, 6, 8, density=0.9)
    model = estimate(counts)
    labels = rng.integers(1, 4, size=8)
    reduced = reduce_with_affiliation(counts, _affiliation(labels, 3))
    reduced_rescaled = rescale(reduced.approx, model.input_dist, model.output_dist)
    best = np.sum((model.rescaled - reduced_rescaled) ** 2)
    scale = np.sqrt(model.input_dist)[None, :] / np.sqrt(model.output_dist)[:, None]
    for _ in range(100):
        factor = rng.random((6, 3))
        factor /= factor.sum(axis=0)
        rival = factor[:, labels - 1] * scale
        rival_gap = np.sum((model.rescaled - rival) ** 2)
        assert best <= rival_gap + 1e-12


def test_dominance_three(three_example, three_affiliation):
    counts, model, _ = three_example
    proj = build_projection(model.input_dist, three_affiliation)
    pairs = singular_value_dominance(model.rescaled, proj.rescaled)
    top = [(round(a, 9), round(b, 9)) for a, b in pairs[:4]]
    assert top == [(1.0, 1.0), (1.0, 1.0), (0.6, 0.6), (0.0, 0.0)]


def test_dominance_interval(interval_example, interval_affiliation):
    counts, model, _ = interval_example
    proj = build_projection(model.input_dist, interval_affiliation)
    pairs = singular_value_dominance(model.rescaled, proj.rescaled)
    # the default grouping keeps three perfectly coherent directions and
    # annihilates the other 27 unit directions
    assert [round(a, 9) for a, _ in pairs[:3]] == [1.0, 1.0, 1.0]
    assert all(a <= 1e-10 for a, _ in pairs[3:])
    assert all(round(b, 9) == 1.0 for _, b in pairs[:30])


def test_dominance_random():
    rng = np.random.default_rng(89)
    for _ in range(40):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.8)
        model = estimate(counts)
        r = int(rng.integers(1, 5))
        labels = rng.integers(1, r + 1, size=counts.shape[1])
        proj = build_projection(model.input_dist, _affiliation(labels, r))
        for projected, original in singular_value_dominance(model.rescaled, proj.rescaled):
            assert projected <= original + 1e-9


def test_dominance_matches_reduced_spectrum():
    """Projecting the rescaled transition gives exactly the reduced spectrum."""
    rng = np.random.default_rng(97)
    counts = random_counts(rng, 8, 10, density=0.9)
    model = estimate(counts)
    labels = rng.integers(1, 4, size=10)
    reduced = reduce_with_affiliation(counts, _affiliation(labels, 3))
    proj = build_projection(model.input_dist, reduced.affiliation)
    via_projection = np.linalg.svd(model.rescaled @ proj.rescaled, compute_uv=False)
    reduced_rescaled = rescale(reduced.approx, model.input_dist, model.output_dist)
    direct = np.linalg.svd(reduced_rescaled, compute_uv=False)
    assert via_projection == pytest.approx(direct, abs=1e-12)


def test_projection_rescaled_spectrum_is_binary():
    p = np.array([0.25, 0.25, 0.25, 0.25])
    proj = build_projection(p, _affiliation([2, 1, 2, 1], 2))
    sigma = np.linalg.svd(proj.rescaled, compute_uv=False)
    assert sigma == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-12)
