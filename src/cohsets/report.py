"""Experiment drivers producing JSON reports, CSV tables, and PPM images.

The compare experiment runs both identification pipelines on one dataset and
collects spectra, likelihoods, the bound chain, and partitions. The multirun
experiment records every restart of the alternating ascent, optionally with
per-iterate traces. The bounds experiment reports the bound chain and the
projection identities of a fixed partition. Each checks the reductions it
reports, raising ``FloatingPointError`` when a paper identity fails beyond
rounding. Reports are plain dicts of JSON-safe values, serialized canonically.
"""

from __future__ import annotations

import csv
import logging
from pathlib import Path

import numpy as np

from .bounds import frobenius_kl_bound
from .dbmr import (
    ml_factors,
    multi_start,
    output_partition,
    reduce_with_affiliation,
    reduced_singular_values,
    spectrum_depth,
)
from .model import CountMatrix, Partition, as_csc
from .projection import pythagoras_check, verify_factorization
from .seeding import mix_seed
from .svd import ROW_BLOCK_ENTRIES, classical_pipeline, full_svd, product_blocks, reduced_min_entry
from .svd import truncated_factors

logger = logging.getLogger(__name__)

_PALETTE = np.array(
    [
        (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
        (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
        (188, 189, 34), (23, 190, 207), (174, 199, 232), (255, 187, 120),
    ],
    dtype=np.uint8,
)

# Images are drawn only for matrices of at most this many entries (4096 x
# 4096), which caps a PPM file at 3 bytes an entry, 48 MiB; the 2048 x 2048
# double-gyre default stays under the limit.
MAX_IMAGE_CELLS = 2**24


def check_image_shape(shape: tuple[int, int]) -> None:
    """Refuse to draw a matrix of more than ``MAX_IMAGE_CELLS`` entries."""
    m, n = shape
    if m * n > MAX_IMAGE_CELLS:
        raise ValueError(
            f"a {m} x {n} matrix has more than {MAX_IMAGE_CELLS} entries, too many to "
            "draw; run compare with --no-images for the report alone"
        )


def render_matrix_image(
    matrix,
    path: str | Path,
    input_partition: Partition | None = None,
    output_partition: Partition | None = None,
) -> None:
    """Write a binary PPM heat map with optional partition strips.

    Magnitudes map linearly to darkness; negative entries render in red.
    The left column colors the output partition, the bottom row the input
    partition; absent strips stay white. The canvas is (rows+1, cols+1).
    ``matrix`` is a CSC matrix (see ``model.as_csc``) or a pair (A, B) of
    factors standing for A @ B.T, of at most ``MAX_IMAGE_CELLS`` entries,
    drawn in blocks of ``svd.ROW_BLOCK_ENTRIES`` entries: never whole.
    """
    pair = isinstance(matrix, tuple)
    if not pair:
        matrix = as_csc(matrix, np.float64)
    m, n = (matrix[0].shape[0], matrix[1].shape[0]) if pair else matrix.shape
    if m * n == 0:
        raise ValueError("matrix must be a nonempty 2-d array")
    check_image_shape((m, n))
    if input_partition is not None and input_partition.size != n:
        raise ValueError(f"input partition covers {input_partition.size} of {n} columns")
    if output_partition is not None and output_partition.size != m:
        raise ValueError(f"output partition covers {output_partition.size} of {m} rows")
    if pair:
        scale = max(np.abs(block).max() for block in product_blocks(*matrix))
        blocks = product_blocks(*matrix)
    else:
        scale = np.abs(matrix.data).max(initial=0.0)
        blocks = matrix.row_blocks(ROW_BLOCK_ENTRIES)
    # The largest magnitude is finite only when every entry is.
    if not np.isfinite(scale):
        raise ValueError("matrix must have finite entries")
    scale = float(scale) or 1.0
    with open(path, "wb") as fh:
        fh.write(f"P6\n{n + 1} {m + 1}\n255\n".encode("ascii"))
        start = 0
        for block in blocks:
            stop = start + len(block)
            shade = (255.0 * (1.0 - np.clip(np.abs(block) / scale, 0.0, 1.0))).astype(np.uint8)
            canvas = np.full((len(block), n + 1, 3), 255, dtype=np.uint8)
            canvas[:, 1:] = np.stack((shade,) * 3, axis=-1)  # faster than broadcasting
            canvas[:, 1:, 0][block < 0.0] = 255
            if output_partition is not None:
                canvas[:, 0] = _PALETTE[(output_partition.labels[start:stop] - 1) % len(_PALETTE)]
            fh.write(canvas)
            start = stop
        bottom = np.full((n + 1, 3), 255, dtype=np.uint8)
        if input_partition is not None:
            bottom[1:] = _PALETTE[(input_partition.labels - 1) % len(_PALETTE)]
        fh.write(bottom)


def write_csv(path: str | Path, rows: list[dict]) -> None:
    """Write ``rows`` (nonempty, of Python scalars) under the first row's keys."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def compare_experiment(
    counts: CountMatrix,
    rank: int,
    runs: int,
    seed: int = 0,
    max_steps: int = 500,
    tol: float = 0.0,
    default_labels: np.ndarray | None = None,
    provenance: dict | None = None,
) -> tuple[dict, dict]:
    """Run both pipelines and assemble a comparison report.

    ``default_labels`` (length n, 1-based, aligned with the pruned columns)
    adds a reference reduction, with as many latent states as its largest
    label, to the likelihood table. Returns the report dict plus an artifact
    dict with the matrices and partitions for rendering.
    """
    model = counts.model
    classical = classical_pipeline(counts, rank, seed=mix_seed(seed, 1))
    best, best_run, traces = multi_start(
        counts, rank, runs=runs, max_steps=max_steps, seed=mix_seed(seed, 2), tol=tol
    )
    dbmr_out = output_partition(best)

    reference = counts.full_log_likelihood
    dbmr_objective = float(traces[best_run].objectives[-1])
    svd_reduced = reduce_with_affiliation(counts, classical.input_partition)
    bound = frobenius_kl_bound(best, kappa_choice="post")
    _check_identities(counts, np.stack([best.factor, svd_reduced.factor]),
                     np.stack([best.affiliation.labels, svd_reduced.affiliation.labels]),
                     direct_gap=bound["frob_gap_sq"])
    default_objective = None
    if default_labels is not None:
        partition = Partition(labels=default_labels, n_clusters=int(np.max(default_labels)))
        default = reduce_with_affiliation(counts, partition)
        _check_identities(counts, default.factor[np.newaxis],
                          default.affiliation.labels[np.newaxis])
        default_objective = default.log_likelihood
    for name, value in (("svd", svd_reduced.log_likelihood), ("dbmr", dbmr_objective),
                        ("default", default_objective)):
        if value is not None:
            _check_below_full(name, value, reference)

    # The classical factorization holds the leading ``depth`` values above the
    # rank cutoff; the report pads the cut ones with zeros.
    computed = classical.factorization.singular_values
    depth = spectrum_depth(rank, min(model.shape))
    sigma_full = np.concatenate([computed, np.zeros(depth - computed.size)])
    sigma_reduced = reduced_singular_values(
        model, best.factor[np.newaxis], best.affiliation.labels[np.newaxis]
    )[0]
    _check_dominance(sigma_reduced[np.newaxis], sigma_full)

    report = {
        "dataset": {
            "n_inputs": int(model.shape[1]),
            "n_outputs": int(model.shape[0]),
            "total": int(counts.total),
        },
        "provenance": dict(provenance or {}) | {
            "rank": int(rank),
            "runs": int(runs),
            "seed": int(seed),
            "max_steps": int(max_steps),
            "tol": float(tol),
        },
        "singular_values": {
            "full": sigma_full.tolist(),
            "reduced": sigma_reduced.tolist(),
            "full_sigma2": float(sigma_full[1]) if sigma_full.size > 1 else None,
            "full_sigma3": float(sigma_full[2]) if sigma_full.size > 2 else None,
            "reduced_sigma2": float(sigma_reduced[1]) if sigma_reduced.size > 1 else None,
            "reduced_sigma3": float(sigma_reduced[2]) if sigma_reduced.size > 2 else None,
            "full_coherence": float(sigma_full[:rank].sum()),
            "reduced_coherence": float(sigma_reduced[:rank].sum()),
        },
        "likelihoods": {
            "reference": reference,
            "svd": svd_reduced.log_likelihood,
            "dbmr": dbmr_objective,
            "default": default_objective,
        },
        "bound": bound,
        "partitions": {
            "classical_input": classical.input_partition.labels.tolist(),
            "classical_output": classical.output_partition.labels.tolist(),
            "dbmr_input": best.affiliation.labels.tolist(),
            "dbmr_output": dbmr_out.labels.tolist(),
            "default_input": default_labels.tolist() if default_labels is not None else None,
        },
        "classical": {
            "coherence_objective": float(classical.coherence),
            "reduced_min_entry": reduced_min_entry(
                classical.factorization, rank, model.input_dist, model.output_dist
            ),
        },
        "diagnostics": _count_diagnostics(counts, traces) | {
            "svd_path": classical.factorization.path,
            "svd_values_cut": classical.factorization.values_cut,
            "kmeans_repairs": int(classical.kmeans_repairs),
            "dbmr_best_run": int(best_run),
            "dbmr_best_iterations": int(traces[best_run].iterations),
            "dbmr_converged_runs": int(sum(t.converged for t in traces)),
            "dbmr_inactive_latent": list(best.inactive),
        },
    }
    artifacts = {
        "model": model,
        "classical": classical,
        "rank": int(rank),
        "reduced": best,
        "dbmr_output_partition": dbmr_out,
    }
    return report, artifacts


def _check_below_full(name: str, value: float, reference: float) -> None:
    """A reduction is a projection of the full model, so its likelihood is at
    most the full model's ``reference``; exceeding it is a numerical failure."""
    if value > reference + 1e-9:
        raise FloatingPointError(
            f"reduced likelihood ({name}) {value} exceeds the full model's {reference}"
        )


def _check_dominance(reduced: np.ndarray, full: np.ndarray) -> None:
    """A reduction projects the full model, so none of its singular values
    grows: each row of ``reduced`` exceeding the ``full`` values by more than
    1e-9 (1 + sigma_1) is a numerical failure."""
    grown = ~(reduced <= full + 1e-9 * (1.0 + full[0])).all(axis=1)
    if grown.any():
        raise FloatingPointError(
            f"reduced singular values {reduced[grown.argmax()].tolist()} exceed the full "
            f"model's {full.tolist()}"
        )


def _check_identities(counts: CountMatrix, factors, labels, direct_gap: float | None = None):
    """Factorization residuals and Pythagoras terms of reductions stacked as
    ``projection`` takes them. A residual above 1e-9, or a ``direct_gap`` (the
    first one's squared gap summed directly) off its Pythagoras form by more
    than 1e-9 (1 + gap), is a numerical failure."""
    residuals = verify_factorization(counts, factors, labels)
    worst = max(float(values.max()) for values in residuals.values())
    if not worst <= 1e-9:
        raise FloatingPointError(f"factorization residuals reach {worst}")
    gaps, norms = pythagoras_check(counts, factors, labels)
    if direct_gap is not None and not abs(direct_gap - gaps[0]) <= 1e-9 * (1.0 + direct_gap):
        raise FloatingPointError(
            f"squared gap {direct_gap} differs from the norm difference {gaps[0]}")
    return residuals, gaps, norms


def _count_diagnostics(counts: CountMatrix, traces) -> dict:
    """Count storage the DBMR kernels ran on, the restarts that stopped on an
    objective dip, and the update pairs of all restarts."""
    return {
        "count_storage": counts.storage,
        "count_nonzeros": counts.nonzeros,
        "dbmr_dipped_runs": int(sum(t.dipped for t in traces)),
        "dbmr_update_pairs": int(sum(t.iterations for t in traces)),
    }


def render_compare_images(artifacts: dict, base: str | Path) -> list[str]:
    """Write the estimated, truncated, and reduced matrices next to ``base``,
    P from its nonzeros and the others from their factors; the reduction's
    second factor is the one-hot labels, so its product is exact."""
    base = Path(base)
    if base.suffix == ".json":
        base = base.with_suffix("")
    model, classical, reduced = (artifacts[key] for key in ("model", "classical", "reduced"))
    dbmr_parts = (reduced.affiliation, artifacts["dbmr_output_partition"])
    one_hot = np.eye(reduced.n_latent)[reduced.affiliation.labels - 1]
    paths = []
    for suffix, matrix, parts in (
        ("P", model.matrix, dbmr_parts),
        ("svd", truncated_factors(classical.factorization, artifacts["rank"],
                                  model.input_dist, model.output_dist),
         (classical.input_partition, classical.output_partition)),
        ("dbmr", (reduced.factor, one_hot), dbmr_parts),
    ):
        paths.append(str(base.with_name(base.name + f".{suffix}.ppm")))
        render_matrix_image(matrix, paths[-1], *parts)
    return paths


def multirun_experiment(
    counts: CountMatrix,
    rank: int,
    runs: int,
    seed: int = 0,
    max_steps: int = 500,
    tol: float = 0.0,
    trace: bool = False,
) -> tuple[dict, list[dict], list[dict]]:
    """Restart the alternating ascent ``runs`` times and tabulate every run.

    Returns (summary, run rows, trace rows). The restarts are those of
    ``multi_start`` with the same seed, so the best run is its best run.
    Trace rows are produced only when ``trace`` is set; they carry per-iterate
    objective, squared gap, squared approximation norm, and degree of coherence.
    The identities, gaps and spectra of all iterates with ``trace``, else of
    the final reductions, come from one stacked call each, and every listed
    spectrum is checked against the full model's leading values. A run whose
    final objective exceeds the full model's likelihood is a numerical failure.
    """
    model = counts.model
    _, best_run, traces = multi_start(
        counts, rank, runs=runs, max_steps=max_steps, seed=seed, tol=tol, snapshots=trace
    )
    labels = np.concatenate([t.label_snapshots if trace else [t.labels] for t in traces])
    _, factors = ml_factors(counts, labels - 1, rank)
    _, gaps, norms = _check_identities(counts, factors, labels)
    sigma = reduced_singular_values(model, factors, labels)
    computed = full_svd(model.rescaled, sigma.shape[1]).singular_values
    _check_dominance(sigma, np.concatenate([computed, np.zeros(sigma.shape[1] - computed.size)]))
    coherence = sigma[:, :rank].sum(axis=1)
    # A run's final reduction is its last iterate, the last of its rows.
    lasts = np.cumsum([t.objectives.size if trace else 1 for t in traces]) - 1
    run_rows: list[dict] = []
    for run, (run_trace, last) in enumerate(zip(traces, lasts.tolist())):
        objective = float(run_trace.objectives[-1])
        _check_below_full(f"run {run}", objective, counts.full_log_likelihood)
        row = {
            "run": run,
            "objective": objective,
            "frob_gap_sq": float(gaps[last]),
            "coherence": float(coherence[last]),
            "converged": int(run_trace.converged),
            "iterations": run_trace.iterations,
        }
        for k, value in enumerate(sigma[last].tolist()):
            row[f"sigma_{k + 1}"] = value
        run_rows.append(row)
    trace_rows: list[dict] = []
    if trace:
        step_values = zip(gaps.tolist(), norms.tolist(), coherence.tolist())
        for run, run_trace in enumerate(traces):
            for step, objective in enumerate(run_trace.objectives.tolist()):
                trace_rows.append(
                    dict(zip(TRACE_FIELDS, (run, step, objective, *next(step_values))))
                )
    best_row = run_rows[best_run]
    summary = {
        "rank": int(rank),
        "runs": int(runs),
        "seed": int(seed),
        "max_steps": int(max_steps),
        "tol": float(tol),
        "best_run": int(best_run),
        "best_objective": best_row["objective"],
        "best": best_row,
        "run_table": run_rows,
        "diagnostics": _count_diagnostics(counts, traces) | {
            "dbmr_inactive_runs": int(sum(np.unique(t.labels).size < rank for t in traces)),
        },
    }
    return summary, run_rows, trace_rows


TRACE_FIELDS = ["run", "step", "objective", "frob_gap_sq", "approx_norm_sq", "coherence"]


def bounds_experiment(counts: CountMatrix, partition: Partition, kappa_choice: str) -> dict:
    """Reduce with the fixed input ``partition`` and report its bound chain,
    factorization residuals and Pythagoras pair (direct gap, norm difference)."""
    reduced = reduce_with_affiliation(counts, partition)
    bound = frobenius_kl_bound(reduced, kappa_choice=kappa_choice)
    residuals, gaps, _ = _check_identities(
        counts, reduced.factor[np.newaxis], partition.labels[np.newaxis],
        direct_gap=bound["frob_gap_sq"])
    return {
        "bound": bound,
        "factorization_residuals": {key: float(values[0]) for key, values in residuals.items()},
        "pythagoras": {"gap_sq": bound["frob_gap_sq"], "norm_difference": float(gaps[0])},
    }
