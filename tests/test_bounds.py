import math

import numpy as np
import pytest

from cohsets.bounds import (
    balancedness,
    bound_constants,
    coherence_lower_bound,
    deviation_coefficient,
    frobenius_kl_bound,
    pinsker_l2,
    weighted_balancedness,
)
from cohsets.dbmr import (
    ReducedModel,
    reduce_with_affiliation,
)
from cohsets.model import Partition, estimate, rescale
from tests.conftest import random_counts
from tests.dense_reference import dense, log_likelihood_dense


def test_balancedness_examples():
    assert balancedness(np.array([1.0, 1.0, 1.0, 1.0])) == 1.0
    assert balancedness(np.array([1.0, 0.0, 0.0, 0.0])) == 0.25
    assert balancedness(np.array([2.0, -1.0, 1.0])) == pytest.approx(2 / 3)
    assert balancedness(np.zeros(5)) == 1.0


def test_balancedness_validation():
    with pytest.raises(ValueError):
        balancedness(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        balancedness(np.array([]))


def test_balancedness_range():
    rng = np.random.default_rng(101)
    for _ in range(200):
        x = rng.standard_normal(rng.integers(1, 20))
        value = balancedness(x)
        assert 0.0 < value <= 1.0 + 1e-15


def test_weighted_balancedness_examples():
    x = np.array([0.5, 0.0, 0.5])
    weights = np.array([0.25, 0.5, 0.25])
    assert weighted_balancedness(x, weights) == pytest.approx(0.5)
    assert weighted_balancedness(np.zeros(3), weights) == 1.0
    # uniform weights 1/m reduce to m times the plain kind
    y = np.array([2.0, -1.0, 1.0])
    uniform = np.full(3, 1 / 3)
    assert weighted_balancedness(y, uniform) == pytest.approx(3 * (1 / 3) * balancedness(y))


def test_weighted_balancedness_validation():
    with pytest.raises(ValueError):
        weighted_balancedness(np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        weighted_balancedness(np.ones(2), np.array([1.0, 0.0]))


def test_weighted_dominates_scaled_plain():
    """Weighted balancedness is at least size times min weight times plain."""
    rng = np.random.default_rng(103)
    for _ in range(100):
        m = int(rng.integers(1, 15))
        x = rng.standard_normal(m)
        w = rng.random(m) + 0.05
        assert weighted_balancedness(x, w) >= m * w.min() * balancedness(x) - 1e-12


def test_deviation_coefficient_examples():
    u = np.array([0.4, 0.6])
    v = np.array([0.2, 0.8])
    assert deviation_coefficient(u, v) == pytest.approx(1 / 3)
    assert deviation_coefficient(u, u) == 0.0
    # deviation on a vanishing entry is infinite
    assert deviation_coefficient(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == np.inf
    # zero over zero contributes nothing
    assert deviation_coefficient(np.array([0.5, 0.0, 0.5]), np.array([0.3, 0.0, 0.7])) \
        == pytest.approx((2 / 3) * (0.2 / 0.5))


def test_bound_constants_three_default(three_example, three_affiliation):
    counts, model, _ = three_example
    reduced = reduce_with_affiliation(counts, three_affiliation)
    constants = bound_constants(reduced)
    # the reduction is exact, so the difference balancedness is maximal
    assert constants.kappa_diff == 0.5
    assert constants.kappa_col == pytest.approx(0.15625, abs=1e-15)
    assert constants.kappa_prior == pytest.approx(0.005)
    assert constants.kappa_post == 0.5
    assert constants.kappa_post_tag == "q1"
    assert constants.col_usable
    assert np.max(constants.deviations) == 0.0


def test_bound_constants_interval_default(interval_example, interval_affiliation):
    counts, model, _ = interval_example
    reduced = reduce_with_affiliation(counts, interval_affiliation)
    constants = bound_constants(reduced)
    assert constants.kappa_diff == pytest.approx(1 / 30, abs=1e-12)
    # the reduction spreads mass onto unobserved outputs of every column
    assert constants.kappa_col == -np.inf
    assert not constants.col_usable
    assert constants.kappa_post == pytest.approx(1 / 30, abs=1e-12)
    assert constants.kappa_post_tag == "q1"
    assert constants.kappa_prior == pytest.approx(1 / 180, abs=1e-15)


def test_bound_constants_post_dominates_prior_random():
    rng = np.random.default_rng(107)
    for _ in range(60):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.8)
        model = estimate(counts)
        r = int(rng.integers(1, 5))
        labels = rng.integers(1, r + 1, size=counts.shape[1])
        reduced = reduce_with_affiliation(
            counts, Partition(labels=labels, n_clusters=r)
        )
        constants = bound_constants(reduced)
        assert constants.kappa_post >= constants.kappa_prior - 1e-12
        assert constants.kappa_post == max(constants.kappa_diff, constants.kappa_col)
        half_min = 0.5 * model.output_dist.min()
        assert constants.kappa_prior == pytest.approx(half_min)


def _bound_constants_by_column(model, reduced):
    """(kappa_diff, kappa_col, deviations) column by column through the helpers."""
    P, L, q = dense(model.matrix), reduced.approx, model.output_dist
    n = P.shape[1]
    diff_terms, col_terms, deviations = np.empty(n), np.empty(n), np.empty(n)
    zero_tol = 32.0 * np.finfo(np.float64).eps
    for j in range(n):
        diff = P[:, j] - L[:, j]
        if np.abs(diff).max() <= zero_tol:
            diff_terms[j], deviations[j] = 1.0, 0.0
        else:
            diff_terms[j] = weighted_balancedness(diff, q)
            deviations[j] = deviation_coefficient(P[:, j], L[:, j])
        with np.errstate(invalid="ignore"):
            col_terms[j] = weighted_balancedness(P[:, j], q) * (1.0 - deviations[j])
    return 0.5 * diff_terms.min(), 0.5 * col_terms.min(), deviations


def _assert_matches_columns(model, reduced):
    constants = bound_constants(reduced)
    kappa_diff, kappa_col, deviations = _bound_constants_by_column(model, reduced)
    np.testing.assert_allclose(constants.kappa_diff, kappa_diff, rtol=1e-12, atol=0)
    np.testing.assert_allclose(constants.kappa_col, kappa_col, rtol=1e-12, atol=0)
    np.testing.assert_allclose(constants.deviations, deviations, rtol=1e-12, atol=0)
    return constants


def test_bound_constants_match_column_helpers_random():
    rng = np.random.default_rng(113)
    for trial in range(80):
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        counts = random_counts(rng, m, n, density=0.6 if trial % 2 else 1.0)
        model = estimate(counts)
        # singleton states reproduce every column, so every column snaps
        r = n if trial % 5 == 0 else int(rng.integers(1, n + 1))
        labels = np.arange(1, n + 1) if r == n else rng.integers(1, r + 1, size=n)
        reduced = reduce_with_affiliation(
            counts, Partition(labels=labels, n_clusters=r)
        )
        _assert_matches_columns(model, reduced)


def test_bound_constants_match_column_helpers_interval(interval_example,
                                                       interval_affiliation):
    counts, model, _ = interval_example
    reduced = reduce_with_affiliation(counts, interval_affiliation)
    constants = _assert_matches_columns(model, reduced)
    assert constants.kappa_diff == pytest.approx(1 / 30, abs=1e-12)
    assert constants.kappa_col == -np.inf


def test_chain_three_default(three_example, three_affiliation):
    counts, model, _ = three_example
    reduced = reduce_with_affiliation(counts, three_affiliation)
    report = frobenius_kl_bound(reduced)
    assert report.kappa_value == 0.5
    assert report.frob_gap_sq < 1e-12
    assert report.kl_form == pytest.approx(0.0, abs=1e-12)
    assert report.likelihood_form == pytest.approx(0.0, abs=1e-9)
    full_norm = float(np.sum(dense(model.rescaled) ** 2))
    assert report.coherence_bound == pytest.approx(full_norm, abs=1e-9)
    assert full_norm == pytest.approx(2.36, abs=1e-9)


def test_chain_interval_default(interval_example, interval_affiliation):
    counts, _, _ = interval_example
    reduced = reduce_with_affiliation(counts, interval_affiliation)
    report = frobenius_kl_bound(reduced, kappa_choice="q1")
    assert report.kappa_value == pytest.approx(1 / 30, abs=1e-12)
    assert report.frob_gap_sq == pytest.approx(27.0, abs=1e-9)
    assert report.kl_form == pytest.approx(30 * math.log(10), abs=1e-9)
    assert report.likelihood_form == pytest.approx(report.kl_form, abs=1e-6)
    assert report.frob_gap_sq <= report.kl_form


def test_chain_kappa_choices(interval_example, interval_affiliation):
    counts, _, _ = interval_example
    reduced = reduce_with_affiliation(counts, interval_affiliation)
    post = frobenius_kl_bound(reduced, kappa_choice="post")
    prior = frobenius_kl_bound(reduced, kappa_choice="pr")
    assert post.kappa_tag == "q1"
    assert prior.kappa_value == pytest.approx(1 / 180)
    # the prior constant is smaller, so its bound is looser
    assert prior.kl_form >= post.kl_form
    assert prior.frob_gap_sq <= prior.kl_form
    with pytest.raises(ValueError):
        frobenius_kl_bound(reduced, kappa_choice="mystery")


def test_chain_degenerate_kappa(interval_example, interval_affiliation):
    counts, _, _ = interval_example
    reduced = reduce_with_affiliation(counts, interval_affiliation)
    report = frobenius_kl_bound(reduced, kappa_choice="q2")
    assert report.kappa_value == -np.inf
    assert report.kl_form == np.inf
    assert report.likelihood_form == np.inf
    assert report.coherence_bound == -np.inf


def test_chain_random_partitions():
    rng = np.random.default_rng(109)
    for _ in range(60):
        counts = random_counts(rng, rng.integers(2, 10), rng.integers(2, 10), density=0.8)
        r = int(rng.integers(1, 5))
        labels = rng.integers(1, r + 1, size=counts.shape[1])
        reduced = reduce_with_affiliation(
            counts, Partition(labels=labels, n_clusters=r)
        )
        report = frobenius_kl_bound(reduced)
        if report.kappa_value > 0 and np.isfinite(report.kl_form):
            assert report.frob_gap_sq <= report.kl_form + 1e-9
            assert report.likelihood_form == pytest.approx(
                report.kl_form, rel=1e-9, abs=1e-9
            )
        payload = report.to_dict()
        assert payload["kappa_choice"] == "post"
        assert payload["frob_gap_sq"] == report.frob_gap_sq


def test_chain_support_violation_is_infinite(three_example):
    counts, _, _ = three_example
    affiliation = Partition(labels=np.ones(100, dtype=int), n_clusters=1)
    factor = np.zeros((100, 1))
    factor[0, 0] = 1.0
    broken = ReducedModel(counts=counts, factor=factor, affiliation=affiliation)
    report = frobenius_kl_bound(broken)
    assert report.kl_form == np.inf
    assert report.likelihood_form == np.inf
    assert report.coherence_bound == -np.inf


def test_coherence_lower_bound_three(three_example, three_affiliation):
    counts, model, _ = three_example
    reduced = reduce_with_affiliation(counts, three_affiliation)
    bound = coherence_lower_bound(reduced, 0.5)
    # exact reduction: the bound collapses to the full squared norm
    assert bound == pytest.approx(2.36, abs=1e-9)
    reduced_rescaled = rescale(reduced.approx, model.input_dist, model.output_dist)
    sigma = np.linalg.svd(reduced_rescaled, compute_uv=False)
    assert np.sum(sigma[:3]) >= bound - 1e-9


def test_coherence_lower_bound_interval(interval_example, interval_affiliation):
    counts, model, _ = interval_example
    reduced = reduce_with_affiliation(counts, interval_affiliation)
    bound = coherence_lower_bound(reduced, 1 / 30)
    assert bound == pytest.approx(30 - 30 * math.log(10), abs=1e-6)
    reduced_rescaled = rescale(reduced.approx, model.input_dist, model.output_dist)
    sigma = np.linalg.svd(reduced_rescaled, compute_uv=False)
    assert np.sum(sigma[:3]) == pytest.approx(3.0, abs=1e-9)
    assert np.sum(sigma[:3]) >= bound


def test_coherence_lower_bound_validation(three_example, three_affiliation):
    counts, _, _ = three_example
    reduced = reduce_with_affiliation(counts, three_affiliation)
    with pytest.raises(ValueError):
        coherence_lower_bound(reduced, 0.0)


def test_coherence_lower_bound_random():
    """The likelihood-drop bound never exceeds the reduced degree of coherence."""
    rng = np.random.default_rng(113)
    for _ in range(40):
        counts = random_counts(rng, rng.integers(3, 10), rng.integers(3, 10), density=0.9)
        model = estimate(counts)
        r = int(rng.integers(1, 4))
        labels = rng.integers(1, r + 1, size=counts.shape[1])
        reduced = reduce_with_affiliation(
            counts, Partition(labels=labels, n_clusters=r)
        )
        constants = bound_constants(reduced)
        if constants.kappa_post <= 0:
            continue
        bound = coherence_lower_bound(reduced, constants.kappa_post)
        reduced_rescaled = rescale(reduced.approx, model.input_dist, model.output_dist)
        sigma = np.linalg.svd(reduced_rescaled, compute_uv=False)
        assert np.sum(sigma[:r]) >= bound - 1e-9


def test_pinsker_two_point_hand_values():
    u = np.array([0.75, 0.25])
    v = np.array([0.5, 0.5])
    weights = np.array([0.5, 0.5])
    kl = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    (a, oka), (b, okb), (c, okc), (d, okd) = pinsker_l2(u, v, weights)
    assert oka and okb and okc and okd
    assert a == pytest.approx(kl)
    assert b == pytest.approx(2 * kl)
    assert c == pytest.approx(4.5 * kl)
    assert d == pytest.approx(9 * kl)
    assert a >= float(np.sum((u - v) ** 2))
    assert b >= float(np.sum((u - v) ** 2 / weights))


def test_pinsker_inapplicable_when_support_grows():
    u = np.array([1.0, 0.0])
    v = np.array([0.5, 0.5])
    (a, oka), (b, okb), (c, okc), (d, okd) = pinsker_l2(u, v, np.array([0.5, 0.5]))
    assert oka and okb
    assert not okc and not okd
    assert a == pytest.approx(math.log(2))
    assert a >= 0.5


def test_pinsker_bounds_hold_random():
    rng = np.random.default_rng(127)
    for _ in range(300):
        m = int(rng.integers(2, 12))
        u = rng.dirichlet(np.ones(m))
        v = rng.dirichlet(np.ones(m))
        weights = rng.random(m) + 0.1
        sq = float(np.sum((u - v) ** 2))
        weighted_sq = float(np.sum((u - v) ** 2 / weights))
        (a, _), (b, _), (c, okc), (d, okd) = pinsker_l2(u, v, weights)
        assert a >= sq - 1e-12
        assert b >= weighted_sq - 1e-12
        if okc:
            assert c >= sq - 1e-12
        if okd:
            assert d >= weighted_sq - 1e-12
        # classical scalar comparison: total variation form of the bound
        kl = float(np.sum(u * np.log(u / v)))
        assert float(np.abs(u - v).sum()) ** 2 <= 2 * kl + 1e-12


def test_log_expansion_inequality():
    """log(1 + x) stays below its cubic truncation on all of x > -1."""
    rng = np.random.default_rng(131)
    x = np.concatenate([
        rng.uniform(-0.999, 8.0, size=10_000),
        np.array([-0.999999, -0.5, -1e-12, 0.0, 1e-12, 0.5, 1.0, 100.0]),
    ])
    cubic = x - x**2 / 2 + x**3 / 3
    assert np.all(np.log1p(x) <= cubic + 1e-15)


def test_chain_matches_likelihood_identity(three_example, three_affiliation):
    """The likelihood form of the bound is the raw likelihood drop rescaled."""
    counts, model, _ = three_example
    labels = np.where(np.arange(100) < 50, 1, 2)
    reduced = reduce_with_affiliation(
        counts, Partition(labels=labels, n_clusters=2)
    )
    report = frobenius_kl_bound(reduced)
    full = log_likelihood_dense(counts, dense(model.matrix))
    merged = log_likelihood_dense(counts, reduced.approx)
    expected = (full - merged) / (report.kappa_value * counts.total)
    assert report.likelihood_form == pytest.approx(expected, rel=1e-12)
    assert report.frob_gap_sq <= report.kl_form + 1e-9
