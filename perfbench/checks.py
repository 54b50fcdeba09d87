"""Output checks computed apart from the program, with plain numpy.

Every check takes the benchmark's own count matrix (outputs along rows,
inputs along columns, built by the benchmark from the pairs) and a report the
program produced, and raises ``CheckFailed`` when a value disagrees with the
benchmark's own computation or breaks a property the method must have.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# Relative tolerance for likelihoods and norms recomputed here; both sides sum
# the same terms in a different order, so agreement is far tighter than this.
REL_TOL = 1e-9
# Absolute slack for inequalities that may hold with equality.
SLACK = 1e-9


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * (1.0 + max(abs(a), abs(b)))


def count_matrix(inputs: np.ndarray, outputs: np.ndarray, n: int, m: int) -> np.ndarray:
    """Dense (m, n) counts with N[i, j] = #records with output i+1 and input j+1."""
    counts = np.zeros((m, n), dtype=np.float64)
    np.add.at(counts, (np.asarray(outputs) - 1, np.asarray(inputs) - 1), 1.0)
    return counts


def prune(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop empty rows and columns; returns (pruned, kept 0-based columns)."""
    rows = np.nonzero(counts.sum(axis=1) > 0)[0]
    cols = np.nonzero(counts.sum(axis=0) > 0)[0]
    return counts[np.ix_(rows, cols)], cols


def full_log_likelihood(counts: np.ndarray) -> float:
    """Sum of N_ij log(N_ij / N_.j) over observed entries."""
    col = counts.sum(axis=0)
    i, j = np.nonzero(counts)
    values = counts[i, j]
    return float(np.sum(values * np.log(values / col[j])))


def grouped_factor(counts: np.ndarray, labels: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts summed per latent state and the maximum-likelihood factor.

    Latent states without inputs get the uniform column, as the method does.
    """
    labels0 = np.asarray(labels, dtype=np.int64) - 1
    grouped = np.zeros((counts.shape[0], rank))
    for k in range(rank):
        grouped[:, k] = counts[:, labels0 == k].sum(axis=1)
    totals = grouped.sum(axis=0)
    factor = np.full_like(grouped, 1.0 / counts.shape[0])
    active = totals > 0
    factor[:, active] = grouped[:, active] / totals[active]
    return grouped, factor


def relaxed_log_likelihood(counts: np.ndarray, labels: np.ndarray, rank: int) -> float:
    """Sum over latent states of G_ik log F_ik for the labels' own factor."""
    grouped, factor = grouped_factor(counts, labels, rank)
    seen = grouped > 0
    return float(np.sum(grouped[seen] * np.log(factor[seen])))


def check_fixed_point(counts: np.ndarray, labels: np.ndarray, rank: int) -> None:
    """Each input's label must score as high as any latent state (ties allowed)."""
    _, factor = grouped_factor(counts, labels, rank)
    scores = np.empty((rank, counts.shape[1]))
    for k in range(rank):
        support = factor[:, k] > 0
        scores[k] = np.log(factor[support, k]) @ counts[support]
        scores[k, (counts[~support] > 0).any(axis=0)] = -np.inf
    labels0 = np.asarray(labels, dtype=np.int64) - 1
    own = scores[labels0, np.arange(counts.shape[1])]
    best = scores.max(axis=0)
    slack = REL_TOL * (1.0 + np.abs(best))
    bad = np.nonzero(own < best - slack)[0]
    expect(bad.size == 0,
           f"labels are not a fixed point of the affiliation update at {bad.size} inputs")


def marginals(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    total = counts.sum()
    return counts.sum(axis=0) / total, counts.sum(axis=1) / total


def rescaled_norms(counts: np.ndarray, labels: np.ndarray, rank: int) -> tuple[float, float]:
    """(|P~|^2, |L~|^2) for the estimated matrix and the labels' reduction.

    P~_ij = P_ij sqrt(p_j / q_i); L replaces column j of P by the factor
    column of its latent state.
    """
    p, q = marginals(counts)
    P = counts / counts.sum(axis=0)
    weight = p[np.newaxis, :] / q[:, np.newaxis]
    _, factor = grouped_factor(counts, labels, rank)
    L = factor[:, np.asarray(labels, dtype=np.int64) - 1]
    return float(np.sum(P * P * weight)), float(np.sum(L * L * weight))


def check_bound(counts: np.ndarray, labels: np.ndarray, rank: int, bound: dict) -> None:
    """Pythagoras identity, gap <= KL form, and kappa_post >= min(q) / 2."""
    full_sq, reduced_sq = rescaled_norms(counts, labels, rank)
    gap = bound["frob_gap_sq"]
    expect(abs(gap - (full_sq - reduced_sq)) <= 1e-8 * (1.0 + full_sq),
           f"squared gap {gap} != |P~|^2 - |L~|^2 = {full_sq - reduced_sq}")
    expect(gap <= bound["kl_form"] + SLACK,
           f"squared gap {gap} exceeds the KL form {bound['kl_form']}")
    _, q = marginals(counts)
    expect(bound["kappa_post"] >= 0.5 * q.min() - 1e-12,
           f"kappa_post {bound['kappa_post']} below min(q)/2 = {0.5 * q.min()}")


def check_spectrum(singular_values: dict, rank: int) -> None:
    full = np.asarray(singular_values["full"])
    reduced = np.asarray(singular_values["reduced"])
    expect(abs(full[0] - 1.0) <= SLACK, f"sigma_1 of the rescaled matrix is {full[0]}, not 1")
    expect(bool(np.all(reduced <= full + SLACK)),
           f"a reduced singular value exceeds the full one: {reduced} vs {full}")
    expect(singular_values["reduced_coherence"] <= rank + SLACK,
           f"reduced coherence {singular_values['reduced_coherence']} exceeds rank {rank}")


def check_compare(counts: np.ndarray, report: dict, rank: int) -> float:
    """Check a compare report against ``counts``; returns the DBMR likelihood gap.

    ``counts`` must already be pruned the way the program prunes (empty rows
    and columns dropped, order kept).
    """
    expect(list(counts.shape) == [report["dataset"]["n_outputs"], report["dataset"]["n_inputs"]],
           f"report shape {report['dataset']} != counts shape {counts.shape}")
    likelihoods = report["likelihoods"]
    reference = full_log_likelihood(counts)
    expect(close(likelihoods["reference"], reference),
           f"full-model log-likelihood {likelihoods['reference']} != {reference}")
    for name in ("svd", "dbmr", "default"):
        value = likelihoods.get(name)
        if value is not None:
            expect(value <= reference + SLACK * (1.0 + abs(reference)),
                   f"{name} log-likelihood {value} exceeds the full model's {reference}")
    labels = np.asarray(report["partitions"]["dbmr_input"])
    dbmr = relaxed_log_likelihood(counts, labels, rank)
    expect(close(likelihoods["dbmr"], dbmr),
           f"DBMR objective {likelihoods['dbmr']} != recomputed {dbmr}")
    check_fixed_point(counts, labels, rank)
    check_spectrum(report["singular_values"], rank)
    check_bound(counts, labels, rank, report["bound"])
    return reference - dbmr


def check_three_coherent_at_zero(report: dict) -> None:
    full = report["singular_values"]["full"][:3]
    expect(np.allclose(full, [1.0, 1.0, 0.6], atol=SLACK),
           f"three-coherent spectrum {full} != (1, 1, 0.6)")


def check_interval_map_at_zero(report: dict) -> None:
    """Published values of the interval map.

    The squared gap 27 and kappa 1/30 belong to the default partition; they
    are checked on the DBMR result whenever the restarts reached that
    partition's likelihood, which is the optimum at epsilon 0.
    """
    full = report["singular_values"]["full"][:3]
    expect(np.allclose(full, [1.0, 1.0, 1.0], atol=SLACK),
           f"interval-map spectrum {full} != (1, 1, 1)")
    likelihoods = report["likelihoods"]
    if close(likelihoods["dbmr"], likelihoods["default"]):
        bound = report["bound"]
        expect(abs(bound["frob_gap_sq"] - 27.0) <= 1e-6,
               f"interval-map squared gap {bound['frob_gap_sq']} != 27")
        expect(abs(bound["kappa_value"] - 1.0 / 30.0) <= SLACK,
               f"interval-map kappa {bound['kappa_value']} != 1/30")


def parse_pairs(data: bytes) -> tuple[int, int, np.ndarray]:
    """Parse pairs-file bytes; returns (n, m, records as an (S, 2) array)."""
    head, _, body = data.partition(b"\n")
    fields = dict(tok.split(b"=") for tok in head.lstrip(b"#").split())
    n, m = int(fields[b"n"]), int(fields[b"m"])
    if body.startswith(b"x,y\n"):
        body = body[4:]
    values = np.array(body.replace(b",", b" ").split(), dtype=np.int64)
    return n, m, values.reshape(-1, 2)


def check_ppm(data: bytes, width: int, height: int) -> None:
    parts = data.split(b"\n", 3)
    expect(parts[0] == b"P6" and parts[2] == b"255", "not a binary PPM with maxval 255")
    size = [int(v) for v in parts[1].split()]
    expect(size == [width, height], f"PPM size {size} != [{width}, {height}]")
    expect(len(parts[3]) == 3 * width * height, "PPM pixel data has the wrong length")


def check_trace_rows(path) -> int:
    """Objectives never decrease within a run; returns the number of rows."""
    last: dict[str, float] = {}
    rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            objective = float(row["objective"])
            previous = last.get(row["run"], -math.inf)
            expect(objective >= previous,
                   f"run {row['run']} objective fell from {previous} to {objective}")
            last[row["run"]] = objective
            rows += 1
    return rows


def check_bounds_output(counts: np.ndarray, labels: np.ndarray, payload: dict) -> None:
    """Check a ``bounds`` report for the fixed partition ``labels``."""
    rank = int(labels.max())
    check_bound(counts, labels, rank, payload["bound"])
    pyth = payload["pythagoras"]
    expect(abs(pyth["gap_sq"] - pyth["norm_difference"]) <= 1e-8 * (1.0 + abs(pyth["gap_sq"])),
           f"Pythagoras identity fails: {pyth}")
    residuals = payload["factorization_residuals"]
    expect(max(residuals.values()) <= 1e-9, f"factorization residuals too large: {residuals}")
