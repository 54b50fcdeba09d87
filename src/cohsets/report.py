"""Experiment drivers producing JSON reports, CSV tables, and PPM images.

The compare experiment runs both identification pipelines on one dataset and
collects spectra, likelihoods, the bound chain, and partitions. The multirun
experiment records every restart of the alternating ascent, optionally with
per-iterate traces. Reports are plain dicts of JSON-safe values so they
serialize canonically.
"""

from __future__ import annotations

import csv
import logging
from pathlib import Path

import numpy as np
from scipy import sparse

from .bounds import frobenius_kl_bound
from .dbmr import (
    ReducedModel,
    multi_start,
    output_partition,
    reduce_with_affiliation,
    reduced_singular_values,
)
from .model import CountMatrix, Partition
from .seeding import mix_seed
from .svd import classical_pipeline, reduced_min_entry, spectrum_depth, truncate

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
# 4096). Drawing one builds its m x n float64 matrix and several m x n
# temporaries, about 0.5 GB at this size, and the PPM holds 3 bytes per
# entry; the 2048 x 2048 double-gyre default stays under the limit.
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
    matrix: np.ndarray,
    path: str | Path,
    input_partition: Partition | None = None,
    output_partition: Partition | None = None,
) -> None:
    """Write a binary PPM heat map with optional partition strips.

    Magnitudes map linearly to darkness; negative entries render in red.
    The left column colors the output partition, the bottom row the input
    partition; absent strips stay white. The canvas is (rows+1, cols+1).
    ``matrix`` is a dense array or a scipy sparse matrix of at most
    ``MAX_IMAGE_CELLS`` entries.
    """
    if not sparse.issparse(matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or 0 in matrix.shape:
        raise ValueError("matrix must be a nonempty 2-d array")
    check_image_shape(matrix.shape)
    if sparse.issparse(matrix):
        matrix = matrix.toarray()
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must have finite entries")
    m, n = matrix.shape
    if input_partition is not None and input_partition.size != n:
        raise ValueError(f"input partition covers {input_partition.size} of {n} columns")
    if output_partition is not None and output_partition.size != m:
        raise ValueError(f"output partition covers {output_partition.size} of {m} rows")
    scale = float(np.abs(matrix).max())
    if scale == 0.0:
        scale = 1.0
    shade = (255.0 * (1.0 - np.clip(np.abs(matrix) / scale, 0.0, 1.0))).astype(np.uint8)
    pixels = np.repeat(shade[:, :, np.newaxis], 3, axis=2)
    pixels[matrix < 0.0, 0] = 255
    canvas = np.full((m + 1, n + 1, 3), 255, dtype=np.uint8)
    canvas[:m, 1:] = pixels
    if output_partition is not None:
        canvas[:m, 0] = _PALETTE[(output_partition.labels - 1) % len(_PALETTE)]
    if input_partition is not None:
        canvas[m, 1:] = _PALETTE[(input_partition.labels - 1) % len(_PALETTE)]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{n + 1} {m + 1}\n255\n".encode("ascii"))
        fh.write(canvas.tobytes())


def write_csv(path: str | Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _cell(row.get(key)) for key in fieldnames})


def _cell(value):
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _float_list(values) -> list[float]:
    return [float(v) for v in values]


def _int_list(values) -> list[int]:
    return [int(v) for v in values]


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
    svd_objective = reduce_with_affiliation(counts, classical.input_partition).log_likelihood
    default_objective = None
    if default_labels is not None:
        default_objective = reduce_with_affiliation(
            counts, Partition(labels=default_labels, n_clusters=int(np.max(default_labels)))
        ).log_likelihood
    for name, value in (("svd", svd_objective), ("dbmr", dbmr_objective),
                        ("default", default_objective)):
        if value is not None and value > reference + 1e-9:
            raise FloatingPointError(
                f"reduced likelihood ({name}) {value} exceeds the full model's {reference}"
            )

    # The classical factorization holds the leading ``depth`` values above the
    # rank cutoff; the report pads the cut ones with zeros.
    computed = classical.factorization.singular_values
    depth = spectrum_depth(rank, min(model.shape))
    sigma_full = np.concatenate([computed, np.zeros(depth - computed.size)])
    sigma_reduced = reduced_singular_values(best)
    # The reduction projects the full model, so no singular value grows.
    if not (sigma_reduced[:depth] <= sigma_full[:depth] + 1e-9 * (1.0 + sigma_full[0])).all():
        raise FloatingPointError(
            f"reduced singular values {sigma_reduced[:depth].tolist()} exceed the full "
            f"model's {sigma_full[:depth].tolist()}"
        )
    bound = frobenius_kl_bound(best, kappa_choice="post")

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
            "full": _float_list(sigma_full[:depth]),
            "reduced": _float_list(sigma_reduced[:depth]),
            "full_sigma2": float(sigma_full[1]) if sigma_full.size > 1 else None,
            "full_sigma3": float(sigma_full[2]) if sigma_full.size > 2 else None,
            "reduced_sigma2": float(sigma_reduced[1]) if sigma_reduced.size > 1 else None,
            "reduced_sigma3": float(sigma_reduced[2]) if sigma_reduced.size > 2 else None,
            "full_coherence": float(sigma_full[:rank].sum()),
            "reduced_coherence": float(sigma_reduced[:rank].sum()),
        },
        "likelihoods": {
            "reference": reference,
            "svd": svd_objective,
            "dbmr": dbmr_objective,
            "default": default_objective,
        },
        "bound": bound.to_dict(),
        "partitions": {
            "classical_input": _int_list(classical.input_partition.labels),
            "classical_output": _int_list(classical.output_partition.labels),
            "dbmr_input": _int_list(best.affiliation.labels),
            "dbmr_output": _int_list(dbmr_out.labels),
            "default_input": (
                _int_list(default_labels) if default_labels is not None else None
            ),
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
            "dbmr_inactive_latent": _int_list(best.inactive),
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


def _count_diagnostics(counts: CountMatrix, traces) -> dict:
    """Count storage the DBMR kernels ran on, the columns they scored -inf,
    and the update pairs of all restarts."""
    return {
        "count_storage": counts.storage,
        "count_nonzeros": counts.nonzeros,
        "dbmr_sunk_columns": int(sum(t.sunk_columns for t in traces)),
        "dbmr_update_pairs": int(sum(t.iterations for t in traces)),
    }


def render_compare_images(artifacts: dict, base: str | Path) -> list[str]:
    """Write the estimated, truncated, and reduced matrices next to ``base``;
    the m x n truncated matrix is built here, for its image only."""
    base = Path(base)
    if base.suffix == ".json":
        base = base.with_suffix("")
    model = artifacts["model"]
    classical = artifacts["classical"]
    reduced = artifacts["reduced"]
    dbmr_parts = (reduced.affiliation, artifacts["dbmr_output_partition"])
    paths = []
    for suffix, matrix, parts in (
        ("P", model.matrix, dbmr_parts),
        ("svd", truncate(classical.factorization, artifacts["rank"],
                         model.input_dist, model.output_dist),
         (classical.input_partition, classical.output_partition)),
        ("dbmr", reduced.approx, dbmr_parts),
    ):
        path = base.with_name(base.name + f".{suffix}.ppm")
        render_matrix_image(matrix, path, input_partition=parts[0], output_partition=parts[1])
        paths.append(str(path))
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
    """
    model = counts.model
    _, best_run, traces = multi_start(
        counts, rank, runs=runs, max_steps=max_steps, seed=seed, tol=tol, snapshots=trace
    )
    depth = spectrum_depth(rank, min(model.shape))
    run_rows: list[dict] = []
    trace_rows: list[dict] = []

    def spectrum(factor: np.ndarray, labels: np.ndarray) -> np.ndarray:
        affiliation = Partition(labels=labels, n_clusters=rank)
        return reduced_singular_values(ReducedModel(counts, factor, affiliation))

    for run, run_trace in enumerate(traces):
        sigma = spectrum(run_trace.factor, run_trace.labels)
        row = {
            "run": run,
            "objective": float(run_trace.objectives[-1]),
            "frob_gap_sq": float(run_trace.frob_gap_sq[-1]),
            "coherence": float(sigma[:rank].sum()),
            "converged": int(run_trace.converged),
            "iterations": run_trace.iterations,
        }
        for k in range(depth):
            row[f"sigma_{k + 1}"] = float(sigma[k])
        run_rows.append(row)
        if trace:
            for step in run_trace.steps:
                step_sigma = spectrum(step.factor, step.labels)
                trace_rows.append(
                    {
                        "run": run,
                        "step": step.index,
                        "objective": step.objective,
                        "frob_gap_sq": step.frob_gap_sq,
                        "approx_norm_sq": step.approx_norm_sq,
                        "coherence": float(step_sigma[:rank].sum()),
                    }
                )
    best_row = run_rows[best_run]
    summary = {
        "rank": int(rank),
        "runs": int(runs),
        "seed": int(seed),
        "max_steps": int(max_steps),
        "tol": float(tol),
        "best_run": int(best_run),
        "best_objective": float(best_row["objective"]),
        "best": {k: _json_value(v) for k, v in best_row.items()},
        "run_table": [{k: _json_value(v) for k, v in row.items()} for row in run_rows],
        "diagnostics": _count_diagnostics(counts, traces),
    }
    return summary, run_rows, trace_rows


def _json_value(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def run_table_fields(rank: int, size: int) -> list[str]:
    depth = spectrum_depth(rank, size)
    return [
        "run", "objective", "frob_gap_sq", "coherence", "converged", "iterations",
    ] + [f"sigma_{k + 1}" for k in range(depth)]


TRACE_FIELDS = ["run", "step", "objective", "frob_gap_sq", "approx_norm_sq", "coherence"]
