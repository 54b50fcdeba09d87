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
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import dataio, dbmr
from .dbmr import output_partition as derive_output_partition, reduce_with_affiliation
from .generators import GyreConfig, gen_double_gyre, gen_interval_map, gen_three_coherent
from .model import PairDataset, Partition, count_occurring
from .report import (
    bounds_experiment,
    check_image_shape,
    compare_experiment,
    multirun_experiment,
    render_compare_images,
    render_matrix_image,
    write_csv,
)

logger = logging.getLogger(__name__)

# Categorical examples: generator of (dataset, default partition) by name.
_CATEGORICAL = {"three-coherent": gen_three_coherent, "interval-map": gen_interval_map}
_EXAMPLES = (*_CATEGORICAL, "double-gyre")
# The double-gyre overrides: flag, GyreConfig field (its default applies when
# the flag is absent) and type. Only --example double-gyre reads them.
_GYRE_FLAGS = (
    ("--A", "amplitude", float), ("--delta", "delta", float), ("--omega", "omega", float),
    ("--t0", "t_start", float), ("--t1", "t_end", float), ("--step", "step", float),
    ("--rho", "rho", float), ("--points-per-box", "points_per_box", int),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohsets",
        description="Coherent-set identification in discrete transition data",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("data", nargs="?", help="pairs or counts file (omit with --example)")
    data.add_argument("--example", choices=_EXAMPLES, help="generate this example instead")
    # --epsilon, --seed and the gyre overrides are left out of the namespace
    # when absent, so that a given one the input never reads can be refused.
    data.add_argument("--epsilon", type=int, default=argparse.SUPPRESS,
                      help="window half-width for categorical noise (default 0)")
    data.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                      help="master seed (default 0)")
    gyre = data.add_argument_group("double-gyre overrides")
    for flag, field, kind in _GYRE_FLAGS:
        gyre.add_argument(flag, type=kind, dest=field, default=argparse.SUPPRESS,
                          help=f"default {getattr(GyreConfig, field):g}")

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
    # argparse takes -1e-3 or -inf for an option; read them as values, as -1 is.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def _refuse_unread_flags(args) -> None:
    """Refuse a --seed or --epsilon out of range, a data file given with
    --example, and the flags the chosen input never reads: --epsilon except
    with a categorical example, the gyre overrides except with --example
    double-gyre, and --seed where nothing draws: outside compare and
    multirun, with a data file or a categorical example at epsilon 0."""
    # Sub-seeds mix the seed modulo 2**64; a category plus an epsilon shift
    # stays in int64.
    ranges = {"seed": (2**64 - 1, "2**64 - 1"), "epsilon": (2**62, "2**62")}
    for flag, (high, shown) in ranges.items():
        if not 0 <= getattr(args, flag, 0) <= high:
            raise ValueError(f"--{flag} must lie in [0, {shown}], not {getattr(args, flag)}")
    if args.data is not None and args.example is not None:
        if args.command != "bounds" or args.labels is not None:
            raise ValueError("give a data file or --example, not both")
        # bounds [DATA] [LABELS]: with --example the lone positional is the labels file
        args.data, args.labels = None, args.data
    if args.data is None and args.example is None:
        return
    unread = []
    if hasattr(args, "epsilon") and args.example not in _CATEGORICAL:
        unread.append("--epsilon")
    if args.example != "double-gyre":
        unread += [flag for flag, field, _ in _GYRE_FLAGS if hasattr(args, field)]
    draws = args.command in ("compare", "multirun") or args.example == "double-gyre" or (
        args.example in _CATEGORICAL and getattr(args, "epsilon", 0) != 0)
    if hasattr(args, "seed") and not draws:
        unread.append("--seed")
    if unread:
        source = "a data file" if args.data is not None else f"--example {args.example}"
        if args.example in _CATEGORICAL and "--seed" in unread:
            source += " at epsilon 0"
        verb = "is" if len(unread) == 1 else "are"
        raise ValueError(f"{', '.join(unread)} {verb} not read with {source}")


def _generate(args):
    """Build (dataset, metadata) for --example; the metadata of a categorical
    example holds its default labels."""
    seed = getattr(args, "seed", 0)
    if args.example not in _CATEGORICAL:
        overrides = {field: getattr(args, field) for _, field, _ in _GYRE_FLAGS
                     if hasattr(args, field)}
        return gen_double_gyre(GyreConfig(seed=seed, **overrides))
    epsilon = getattr(args, "epsilon", 0)
    dataset, partition = _CATEGORICAL[args.example](epsilon=epsilon, seed=seed)
    meta = {"example": args.example, "epsilon": epsilon, "seed": seed,
            "default_labels": [int(v) for v in partition.labels],
            "n_latent": partition.n_clusters}
    return dataset, meta


def _read_file(path: str):
    """The records (a ``PairDataset``) or entries (as ``read_count_entries``
    gives them) of a pairs or counts file, sniffing the format from the first
    byte, and the metadata of its sidecar, if any."""
    target = Path(path)
    if not target.exists():
        raise ValueError(f"no such file: {path}")
    with open(target, "r", encoding="utf-8", errors="surrogateescape") as fh:
        head = fh.readline().lstrip()
    start = time.perf_counter()
    if head.startswith("#"):
        data = dataio.read_pairs(target)
        kind, unit, size = "pairs", "records", data.size
    else:
        data = dataio.read_count_entries(target)
        kind, unit, size = "counts", "entries", data[1].size
    logger.info("read %s file %s: %d %s, %.1f MB in %.3f s", kind, path, size, unit,
                target.stat().st_size / 1e6, time.perf_counter() - start)
    sidecar = target.with_name(target.name + ".meta.json")
    return data, dataio.read_json(sidecar) if sidecar.exists() else {}


def _resolve(args):
    """Return (pruned counts, row_map, col_map, provenance, input_partition);
    only the categories that occur are counted. ``input_partition(labels_path)``,
    called where a partition is read, returns the labels file's partition, else
    that of the example's or the sidecar's default labels (with as many latent
    states as its largest kept label), else None. Either labels cover all
    declared inputs or only the kept ones.
    """
    if args.data is not None:
        source, (data, meta) = args.data, _read_file(args.data)
    elif args.example is not None:
        source, (data, meta) = args.example, _generate(args)
    else:
        raise ValueError("provide a data file or --example")
    if isinstance(data, PairDataset):
        data = (data.n_outputs, data.n_inputs), data.outputs - 1, data.inputs - 1
    (_, n_inputs), *entries = data
    counts, row_map, col_map = count_occurring(*entries)
    provenance = {"source": source,
                  **{k: meta[k] for k in ("example", "epsilon", "seed") if k in meta}}

    def input_partition(labels_path=None) -> Partition | None:
        if labels_path is not None:
            what, (labels, n_latent) = "labels file covers", dataio.read_labels(labels_path)
        elif meta.get("default_labels") is not None:
            what, n_latent = "default labels cover", None
            labels = np.asarray(meta["default_labels"], dtype=np.int64)
        else:
            return None
        if labels.size == n_inputs:
            labels = labels[col_map - 1]
        elif labels.size != col_map.size:
            raise ValueError(f"{what} {labels.size} inputs, expected {n_inputs} "
                             f"(or {col_map.size} after pruning)")
        n_latent = n_latent or int(labels.max())
        # A factor of the partition is m x r and its one-hot labels n x r.
        if n_latent * sum(counts.shape) > dbmr.MAX_STACK_ENTRIES:
            raise ValueError(f"{labels_path or 'the default labels'}: {n_latent} latent states "
                             f"on a {counts.shape[0]} x {counts.shape[1]} matrix exceed the cap "
                             f"of 2**26 entries of rank x (m + n)")
        return Partition(labels=labels, n_clusters=n_latent)

    return counts, row_map, col_map, provenance, input_partition


def cmd_generate(args) -> int:
    if args.example is None:
        raise ValueError("generate requires --example")
    dataset, meta = _generate(args)
    dataio.write_pairs(args.out, dataset)
    dataio.write_json(Path(args.out).with_name(Path(args.out).name + ".meta.json"), meta)
    print(f"wrote {dataset.size} records over {dataset.n_inputs} -> "
          f"{dataset.n_outputs} categories to {args.out}")
    return 0


def cmd_compare(args) -> int:
    counts, row_map, col_map, provenance, input_partition = _resolve(args)
    partition = input_partition()
    if not args.no_images:
        check_image_shape(counts.shape)
    report, artifacts = compare_experiment(
        counts, rank=args.rank, runs=args.runs, seed=getattr(args, "seed", 0),
        max_steps=args.hmax, tol=args.tol,
        default_labels=None if partition is None else partition.labels,
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
    counts, _, _, provenance, _ = _resolve(args)
    summary, run_rows, trace_rows = multirun_experiment(
        counts, rank=args.rank, runs=args.runs, seed=getattr(args, "seed", 0),
        max_steps=args.hmax, tol=args.tol, trace=args.trace,
    )
    summary["provenance"] = provenance
    base = Path(args.out)
    json_path = base.with_name(base.name + ".json")
    runs_path = base.with_name(base.name + ".runs.csv")
    dataio.write_json(json_path, summary)
    write_csv(runs_path, run_rows)
    written = [str(json_path), str(runs_path)]
    if args.trace:
        trace_path = base.with_name(base.name + ".trace.csv")
        write_csv(trace_path, trace_rows)
        written.append(str(trace_path))
    print(f"best run {summary['best_run']} objective {summary['best_objective']:.4f}")
    print("wrote " + " ".join(written))
    return 0


def cmd_bounds(args) -> int:
    counts, _, _, provenance, input_partition = _resolve(args)
    partition = input_partition(args.labels)
    if partition is None:
        raise ValueError("bounds requires a labels file or an example with default labels")
    payload = bounds_experiment(counts, partition, args.kappa)
    payload["provenance"] = provenance
    text = dataio.canonical_json(payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_render(args) -> int:
    counts, _, _, _, input_partition = _resolve(args)
    partition = input_partition(args.labels)
    check_image_shape(counts.shape)
    output_strip = None
    if partition is not None:
        output_strip = derive_output_partition(reduce_with_affiliation(counts, partition))
    render_matrix_image(counts.model.matrix, args.out, partition, output_strip)
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
        _refuse_unread_flags(args)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
