"""End-to-end acceptance checks for both pipelines and their guarantees.

Each test covers one hard requirement: recovery values on the two categorical
examples, structural identities on randomized instances, distance-bound
validity, integrator accuracy on the gyre flow, and restart bimodality.
"""

import math
import time

import numpy as np
import pytest

from cohsets import _accel
from cohsets.bounds import frobenius_kl_bound
from cohsets.dbmr import (
    ml_factors,
    multi_start,
    reduce_with_affiliation,
    reduced_singular_values,
)
from cohsets.generators import (
    GyreConfig,
    advect,
    gen_double_gyre,
    gen_interval_map,
    gen_three_coherent,
)
from cohsets.model import Partition, estimate, ingest_pairs, prune_empty
from cohsets.projection import pythagoras_check, verify_factorization
from cohsets.svd import classical_pipeline
from tests.conftest import random_counts
from tests.dense_reference import (
    approx_dense,
    build_projection,
    dense,
    log_likelihood_dense,
    pinsker_l2,
    rescale_dense,
    truncate_reference,
)


def test_three_set_classical_spectrum_and_reduction(three_example):
    counts, model, partition = three_example
    start = time.perf_counter()
    result = classical_pipeline(counts, rank=3, seed=0)
    sigma = result.factorization.singular_values
    assert sigma[0] == pytest.approx(1.0, abs=1e-9)
    assert sigma[1] == pytest.approx(1.0, abs=1e-9)
    assert sigma[2] == pytest.approx(0.6, abs=1e-9)
    reduced = truncate_reference(result.factorization, 3, model.input_dist, model.output_dist)
    assert np.abs(reduced - dense(model.matrix)).max() <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS three-set classical: sigma=({sigma[0]:.9f}, {sigma[1]:.9f}, "
          f"{sigma[2]:.9f}), reduction residual "
          f"{np.abs(reduced - dense(model.matrix)).max():.2e}, {elapsed:.2f}s")


def test_three_set_alternating_best_of_100(three_example):
    counts, model, _ = three_example
    start = time.perf_counter()
    best, best_run, traces = multi_start(counts, 3, runs=100, seed=0)
    objective = traces[best_run].objectives[-1]
    assert objective == pytest.approx(-0.954e5, abs=0.001e5)
    gap = dense(model.rescaled) - rescale_dense(
        approx_dense(best), model.input_dist, model.output_dist)
    gap_sq = float(np.sum(gap * gap))
    assert gap_sq <= 1e-12
    report = frobenius_kl_bound(best)
    assert abs(report["kl_form"]) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS three-set best-of-100: objective {objective:.2f}, "
          f"gap_sq {gap_sq:.2e}, kl mid term {report['kl_form']:.2e}, {elapsed:.2f}s")


def test_interval_map_quantities(interval_example, interval_affiliation):
    counts, model, _ = interval_example
    start = time.perf_counter()
    sigma = np.linalg.svd(dense(model.rescaled), compute_uv=False)
    assert sigma[1] == pytest.approx(1.0, abs=1e-9)
    assert sigma[2] == pytest.approx(1.0, abs=1e-9)

    best, best_run, traces = multi_start(counts, 3, runs=100, seed=0)
    best_rescaled = rescale_dense(approx_dense(best), model.input_dist, model.output_dist)
    best_sigma = np.linalg.svd(best_rescaled, compute_uv=False)
    coherence = float(best_sigma[:3].sum())
    assert coherence == pytest.approx(3.0, abs=1e-9)

    default = reduce_with_affiliation(counts, interval_affiliation)
    gap = dense(model.rescaled) - rescale_dense(
        approx_dense(default), model.input_dist, model.output_dist)
    assert float(np.sum(gap * gap)) == pytest.approx(27.0, abs=1e-6)
    report = frobenius_kl_bound(default)
    assert report["kappa_value"] == pytest.approx(1 / 30, abs=1e-9)
    default_objective = default.log_likelihood
    assert default_objective == pytest.approx(-0.2755e5, abs=5.0)
    reference = log_likelihood_dense(counts, dense(model.matrix))
    assert reference == pytest.approx(-0.0890e5, abs=5.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS interval map: sigma2={sigma[1]:.9f} sigma3={sigma[2]:.9f}, "
          f"best C3={coherence:.9f}, gap_sq 27, kappa {report['kappa_value']:.6f}, "
          f"default ll {default_objective:.2f}, reference {reference:.2f}, "
          f"{elapsed:.2f}s")


def _perturbed_instance_checks(dataset, rank, seed):
    counts, _, _ = prune_empty(ingest_pairs(dataset))
    model = estimate(counts)
    best, best_run, traces = multi_start(counts, rank, runs=3, seed=seed)
    sigma_full = np.linalg.svd(dense(model.rescaled), compute_uv=False)
    sigma_reduced = reduced_singular_values(
        model, best.factor[np.newaxis], best.affiliation.labels[np.newaxis]
    )[0]
    assert np.all(sigma_reduced <= sigma_full[: sigma_reduced.size] + 1e-9)
    for choice in ("pr", "post"):
        report = frobenius_kl_bound(best, kappa_choice=choice)
        assert report["kappa_value"] > 0.0
        assert np.isfinite(report["kl_form"])
        assert report["frob_gap_sq"] <= report["kl_form"] + 1e-9
    reference = log_likelihood_dense(counts, dense(model.matrix))
    assert traces[best_run].objectives[-1] <= reference + 1e-9
    for trace in traces:
        assert np.all(np.diff(trace.objectives) >= 0.0)
    return float(sigma_full[1])


def test_perturbed_instances_keep_structural_guarantees():
    three_sigma2 = []
    for seed in range(1, 21):
        dataset, _ = gen_three_coherent(epsilon=10, seed=seed)
        three_sigma2.append(_perturbed_instance_checks(dataset, 3, seed))
    for seed in range(1, 21):
        dataset, _ = gen_interval_map(epsilon=1, seed=seed)
        _perturbed_instance_checks(dataset, 3, seed)
    # diagnostic only: window-10 noise should leave sigma2 in a known band
    in_band = sum(0.6 <= value <= 0.85 for value in three_sigma2)
    print(f"PASS perturbed instances: 40 instances hold all guarantees; "
          f"three-set sigma2 in [0.6, 0.85] for {in_band}/20 "
          f"(range {min(three_sigma2):.3f}..{max(three_sigma2):.3f}, diagnostic)")


def test_randomized_structural_suite():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    instances = 200
    for _ in range(instances):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 11))
        counts = random_counts(rng, m, n, density=0.8)
        model = estimate(counts)
        r = int(rng.integers(1, min(n, 5) + 1))
        labels = rng.integers(1, r + 1, size=n)
        affiliation = Partition(labels=labels, n_clusters=r)
        reduced = reduce_with_affiliation(counts, affiliation)
        proj = build_projection(model.input_dist, affiliation)

        sym = proj.rescaled
        assert np.abs(sym - sym.T).max() <= 1e-10
        assert np.abs(sym @ sym - sym).max() <= 1e-10
        stack = reduced.factor[np.newaxis], labels[np.newaxis]
        residuals = verify_factorization(counts, *stack)
        assert residuals["factorization"][0] <= 1e-12
        assert residuals["output_marginal"][0] <= 1e-12
        lhs, rhs = reduced.frob_gap_sq, pythagoras_check(counts, *stack)[0][0]
        assert abs(lhs - rhs) <= 1e-10

        scale = np.sqrt(model.input_dist)[None, :] / np.sqrt(model.output_dist)[:, None]
        for _ in range(100):
            rival = rng.random((m, r))
            rival /= rival.sum(axis=0)
            rival_gap = np.sum((dense(model.rescaled) - rival[:, labels - 1] * scale) ** 2)
            assert lhs <= rival_gap + 1e-12
        residual = dense(model.rescaled) - rescale_dense(
            approx_dense(reduced), model.input_dist, model.output_dist)
        for _ in range(5):
            arbitrary = rng.standard_normal((m, n))
            assert abs(np.sum(residual * (arbitrary @ sym))) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS structural suite: {instances} instances, {elapsed:.2f}s")


def test_kl_distance_bound_suite():
    rng = np.random.default_rng(515)
    start = time.perf_counter()
    for _ in range(1000):
        m = int(rng.integers(2, 12))
        u = rng.dirichlet(np.ones(m) * rng.uniform(0.5, 3.0))
        v = rng.dirichlet(np.ones(m) * rng.uniform(0.5, 3.0))
        weights = rng.random(m) + 0.05
        sq = float(np.sum((u - v) ** 2))
        weighted_sq = float(np.sum((u - v) ** 2 / weights))
        (a, _), (b, _), (c, okc), (d, okd) = pinsker_l2(u, v, weights)
        assert a >= sq - 1e-12
        assert b >= weighted_sq - 1e-12
        if okc:
            assert c >= sq - 1e-12
        if okd:
            assert d >= weighted_sq - 1e-12
        kl = float(np.sum(u * np.log(u / v)))
        assert float(np.abs(u - v).sum()) ** 2 <= 2 * kl + 1e-12
    x = np.concatenate([
        rng.uniform(-0.9999, 10.0, size=10_000),
        np.array([-0.99999, -1e-9, 0.0, 1e-9, 1000.0]),
    ])
    assert np.all(np.log1p(x) <= x - x**2 / 2 + x**3 / 3 + 1e-15)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS distance bounds: 1000 triples, 10005 expansion samples, "
          f"{elapsed:.2f}s")


@pytest.mark.slow
def test_double_gyre_dataset_and_integrator():
    start = time.perf_counter()
    config = GyreConfig()
    dataset, metadata = gen_double_gyre(config)
    assert dataset.size == 204800
    for values in (dataset.inputs, dataset.outputs):
        assert values.min() >= 1
        assert values.max() <= 2048

    rng = np.random.default_rng(626)
    x = rng.uniform(0.05, 1.95, 100)
    y = rng.uniform(0.05, 0.95, 100)
    ends = {}
    for step in (0.02, 0.01, 0.005):
        ends[step] = advect(x, y, GyreConfig(t_end=2.0, step=step))
    coarse = np.hypot(ends[0.02][0] - ends[0.01][0], ends[0.02][1] - ends[0.01][1])
    fine = np.hypot(ends[0.01][0] - ends[0.005][0], ends[0.01][1] - ends[0.005][1])
    factor = float(coarse.max() / fine.max())
    assert 12.0 <= factor <= 20.0

    def velocity(x, y, t):
        return _accel.velocity_arrays(x, y, t, config.amplitude, config.delta, config.omega)

    h = 1e-5
    for t in (0.0, 0.9, 17.3):
        du_dx = (velocity(x + h, y, t)[0] - velocity(x - h, y, t)[0]) / (2 * h)
        dv_dy = (velocity(x, y + h, t)[1] - velocity(x, y - h, t)[1]) / (2 * h)
        assert np.abs(du_dx + dv_dy).max() <= 1e-6

    x_lo, x_hi, y_lo, y_hi = metadata["input_range"]
    assert 0.0 <= x_lo and x_hi <= 2.0 and 0.0 <= y_lo and y_hi <= 1.0
    x_lo, x_hi, y_lo, y_hi = metadata["output_range"]
    assert 0.0 <= x_lo and x_hi <= 2.0 and 0.0 <= y_lo and y_hi <= 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS double gyre: 204800 records, halving factor {factor:.2f}, "
          f"divergence-free, all labeled points inside the domain, {elapsed:.1f}s")


def test_three_set_restart_bimodality(three_example):
    counts, model, _ = three_example
    _, _, traces = multi_start(counts, 3, runs=100, seed=0)
    labels = np.stack([t.labels for t in traces])
    sigma = reduced_singular_values(model, ml_factors(counts, labels - 1, 3)[1], labels)
    assert sigma[:, 1] == pytest.approx(np.ones(100), abs=1e-9)
    sigma3 = sigma[:, 2]
    near_six = np.abs(sigma3 - 0.6) < 0.1
    near_zero = sigma3 < 0.1
    assert near_six.any()
    assert near_zero.any()
    assert np.all(near_six | near_zero)
    fraction = float(near_six.mean())
    assert 0.3 <= fraction <= 0.9
    print(f"PASS restart bimodality: sigma2 = 1 on all 100 runs, "
          f"sigma3 near 0.6 on {near_six.sum()}/100, near 0 on "
          f"{near_zero.sum()}/100")
