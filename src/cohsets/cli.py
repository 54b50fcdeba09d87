"""Command-line interface.

Subcommands: ``generate`` writes a pairs file from a named example;
``compare`` runs both identification pipelines and writes a JSON report plus
PPM images; ``multirun`` tabulates every restart of the alternating ascent;
``bounds`` evaluates the Frobenius-KL bound chain for a fixed partition;
``render`` draws the estimated transition matrix.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .bounds import frobenius_kl_bound
from .dbmr import output_partition as derive_output_partition, reduce_with_affiliation
from .generators import GyreConfig, gen_double_gyre, gen_interval_map, gen_three_coherent
from .model import Partition, count_occurring
from .projection import pythagoras_check, verify_factorization
from .report import (
    TRACE_FIELDS,
    compare_experiment,
    multirun_experiment,
    render_compare_images,
    render_matrix_image,
    run_table_fields,
    write_csv,
)

logger = logging.getLogger(__name__)

# Categorical examples: generator of (dataset, default partition) by name.
_CATEGORICAL = {"three-coherent": gen_three_coherent, "interval-map": gen_interval_map}
_EXAMPLES = (*_CATEGORICAL, "double-gyre")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohsets",
        description="Coherent-set identification in discrete transition data",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("data", nargs="?", help="pairs or counts file (omit with --example)")
    data.add_argument("--example", choices=_EXAMPLES, help="generate this example instead")
    data.add_argument("--epsilon", type=int, default=0,
                      help="window half-width for categorical noise (default 0)")
    data.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    gyre = data.add_argument_group("double-gyre overrides")
    gyre.add_argument("--A", type=float, default=0.25, dest="amplitude")
    gyre.add_argument("--delta", type=float, default=0.25)
    gyre.add_argument("--omega", type=float, default=2.0 * np.pi)
    gyre.add_argument("--t0", type=float, default=0.0)
    gyre.add_argument("--t1", type=float, default=40.0)
    gyre.add_argument("--step", type=float, default=0.01)
    gyre.add_argument("--rho", type=float, default=1.0 / 32.0)
    gyre.add_argument("--points-per-box", type=int, default=100)

    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--rank", type=int, default=3, help="latent states / truncation rank")
    fit.add_argument("--runs", type=int, default=100, help="random restarts (default 100)")
    fit.add_argument("--hmax", type=int, default=500, help="update-pair cap per run")
    fit.add_argument("--tol", type=float, default=0.0,
                     help="objective stall tolerance (default 0: exact equality)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[data], help="write a pairs file")
    p_gen.add_argument("--out", required=True, help="output pairs file")
    p_gen.set_defaults(func=cmd_generate)

    p_cmp = sub.add_parser("compare", parents=[data, fit],
                           help="run both pipelines and report")
    p_cmp.add_argument("--out", default="report.json", help="report path (default report.json)")
    p_cmp.add_argument("--no-images", action="store_true", help="skip PPM rendering")
    p_cmp.set_defaults(func=cmd_compare)

    p_multi = sub.add_parser("multirun", parents=[data, fit],
                             help="tabulate every alternating-ascent restart")
    p_multi.add_argument("--trace", action="store_true", help="write per-iterate rows")
    p_multi.add_argument("--out", default="multirun", help="output base name")
    p_multi.set_defaults(func=cmd_multirun)

    p_bounds = sub.add_parser("bounds", parents=[data],
                              help="evaluate the Frobenius-KL bound chain")
    p_bounds.add_argument("labels", nargs="?", help="labels file fixing the input partition")
    p_bounds.add_argument("--kappa", choices=("post", "pr", "q1", "q2"), default="post")
    p_bounds.add_argument("--out", help="write the report here instead of stdout")
    p_bounds.set_defaults(func=cmd_bounds)

    p_render = sub.add_parser("render", parents=[data],
                              help="draw the estimated transition matrix")
    p_render.add_argument("--labels", help="labels file for the partition strips")
    p_render.add_argument("--out", required=True, help="output PPM path")
    p_render.set_defaults(func=cmd_render)
    return parser


def _gyre_config(args) -> GyreConfig:
    return GyreConfig(
        amplitude=args.amplitude, delta=args.delta, omega=args.omega,
        t_start=args.t0, t_end=args.t1, step=args.step,
        rho=args.rho, points_per_box=args.points_per_box, seed=args.seed,
    )


def _generate(args):
    """Build (dataset, default labels or None, metadata) for --example."""
    if args.example not in _CATEGORICAL:
        dataset, meta = gen_double_gyre(_gyre_config(args))
        return dataset, None, meta
    dataset, partition = _CATEGORICAL[args.example](epsilon=args.epsilon, seed=args.seed)
    meta = {"example": args.example, "epsilon": args.epsilon, "seed": args.seed,
            "default_labels": [int(v) for v in partition.labels],
            "n_latent": partition.n_clusters}
    return dataset, partition.labels, meta


def _records(dataset):
    """Declared (m, n) and the 0-based (row, column) entry of each record."""
    return (dataset.n_outputs, dataset.n_inputs), (dataset.outputs - 1, dataset.inputs - 1)


def _load_file(path: str):
    """Declared shape, entries, default labels and provenance of a pairs or
    counts file, sniffing the format from the first byte."""
    target = Path(path)
    if not target.exists():
        raise ValueError(f"no such file: {path}")
    with open(target, "r", encoding="utf-8") as fh:
        head = fh.readline().lstrip()
    if head.startswith("#"):
        shape, entries = _records(dataio.read_pairs(target))
    else:
        shape, *entries = dataio.read_count_entries(target)
    labels = None
    sidecar = target.with_name(target.name + ".meta.json")
    if sidecar.exists():
        meta = dataio.read_json(sidecar)
        if meta.get("default_labels") is not None:
            labels = np.asarray(meta["default_labels"], dtype=np.int64)
    else:
        meta = {}
    return shape, entries, labels, {"source": str(path), **{
        k: meta[k] for k in ("example", "epsilon", "seed") if k in meta
    }}


def _resolve(args):
    """Return (pruned counts, row_map, col_map, pruned default labels, provenance,
    original shape); only the categories that occur are counted."""
    if args.data is not None:
        original_shape, entries, labels, provenance = _load_file(args.data)
    elif args.example is not None:
        dataset, labels, meta = _generate(args)
        original_shape, entries = _records(dataset)
        provenance = {"source": args.example,
                      **{k: meta[k] for k in ("example", "epsilon", "seed") if k in meta}}
    else:
        raise ValueError("provide a data file or --example")
    pruned, row_map, col_map = count_occurring(*entries)
    if labels is not None:
        if labels.size != original_shape[1]:
            raise ValueError(
                f"default labels cover {labels.size} of {original_shape[1]} inputs"
            )
        labels = labels[col_map - 1]
    return pruned, row_map, col_map, labels, provenance, original_shape


def _input_partition(path, col_map: np.ndarray, original_n: int, default_labels):
    """Partition of the kept inputs from the labels file at ``path``, else from
    the example's default labels; None when there are neither.

    A labels file covers either all original or only the kept inputs.
    """
    if path is None:
        if default_labels is None:
            return None
        return Partition(labels=default_labels, n_clusters=int(default_labels.max()))
    raw, n_latent = dataio.read_labels(path)
    if raw.size == original_n:
        raw = raw[col_map - 1]
    elif raw.size != col_map.size:
        raise ValueError(
            f"labels file covers {raw.size} inputs, expected {original_n} "
            f"(or {col_map.size} after pruning)"
        )
    return Partition(labels=raw, n_clusters=n_latent)


def cmd_generate(args) -> int:
    if args.example is None:
        raise ValueError("generate requires --example")
    dataset, _, meta = _generate(args)
    dataio.write_pairs(args.out, dataset)
    dataio.write_json(Path(args.out).with_name(Path(args.out).name + ".meta.json"), meta)
    print(f"wrote {dataset.size} records over {dataset.n_inputs} -> "
          f"{dataset.n_outputs} categories to {args.out}")
    return 0


def cmd_compare(args) -> int:
    counts, row_map, col_map, labels, provenance, _ = _resolve(args)
    report, artifacts = compare_experiment(
        counts, rank=args.rank, runs=args.runs, seed=args.seed,
        max_steps=args.hmax, tol=args.tol, default_labels=labels,
        provenance=provenance,
    )
    report["dataset"]["kept_inputs"] = [int(v) for v in col_map]
    report["dataset"]["kept_outputs"] = [int(v) for v in row_map]
    out = Path(args.out)
    if not args.no_images:
        report["images"] = render_compare_images(artifacts, out)
    dataio.write_json(out, report)
    likelihoods = report["likelihoods"]
    print(f"wrote {out}")
    print(f"log-likelihood reference={likelihoods['reference']:.1f} "
          f"svd={likelihoods['svd']:.1f} dbmr={likelihoods['dbmr']:.1f}")
    print(f"coherence full={report['singular_values']['full_coherence']:.4f} "
          f"reduced={report['singular_values']['reduced_coherence']:.4f}")
    return 0


def cmd_multirun(args) -> int:
    counts, _, _, _, provenance, _ = _resolve(args)
    summary, run_rows, trace_rows = multirun_experiment(
        counts, rank=args.rank, runs=args.runs, seed=args.seed,
        max_steps=args.hmax, tol=args.tol, trace=args.trace,
    )
    summary["provenance"] = provenance
    base = Path(args.out)
    json_path = base.with_name(base.name + ".json")
    runs_path = base.with_name(base.name + ".runs.csv")
    dataio.write_json(json_path, summary)
    write_csv(runs_path, run_table_fields(args.rank, min(counts.shape)), run_rows)
    written = [str(json_path), str(runs_path)]
    if args.trace:
        trace_path = base.with_name(base.name + ".trace.csv")
        write_csv(trace_path, TRACE_FIELDS, trace_rows)
        written.append(str(trace_path))
    print(f"best run {summary['best_run']} objective {summary['best_objective']:.4f}")
    print("wrote " + " ".join(written))
    return 0


def cmd_bounds(args) -> int:
    counts, _, col_map, default_labels, provenance, original_shape = _resolve(args)
    partition = _input_partition(args.labels, col_map, original_shape[1], default_labels)
    if partition is None:
        raise ValueError("bounds requires a labels file or an example with default labels")
    reduced = reduce_with_affiliation(counts, partition)
    bound = frobenius_kl_bound(counts, reduced, kappa_choice=args.kappa)
    residuals = verify_factorization(counts.model, reduced)
    lhs, rhs = pythagoras_check(counts.model, reduced)
    payload = {
        "provenance": provenance,
        "bound": bound.to_dict(),
        "factorization_residuals": {
            "factorization": residuals.factorization,
            "input_fixed": residuals.input_fixed,
            "output_marginal": residuals.output_marginal,
        },
        "pythagoras": {"gap_sq": lhs, "norm_difference": rhs},
    }
    text = dataio.canonical_json(payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_render(args) -> int:
    counts, _, col_map, default_labels, _, original_shape = _resolve(args)
    input_partition = _input_partition(args.labels, col_map, original_shape[1], default_labels)
    output_strip = None
    if input_partition is not None:
        output_strip = derive_output_partition(reduce_with_affiliation(counts, input_partition))
    render_matrix_image(
        counts.model.matrix, args.out,
        input_partition=input_partition, output_partition=output_strip,
    )
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    if args.verbose:
        # the package logs its anomalies at DEBUG
        logging.getLogger("cohsets").setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
