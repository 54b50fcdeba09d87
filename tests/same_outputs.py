"""Run one command set against two source trees and list the outputs that differ.

Usage::

    python tests/same_outputs.py SRC_A SRC_B [NAME ...]

Each tree's commands run as ``python -m cohsets`` with ``PYTHONPATH`` set to
that tree, in a temporary directory of its own, writing every output under a
relative path. Each directory first gets the same inputs: a labels file for
the three-coherent example, a seeded 300 x 300 block pairs file of 10^5
records with its labels file, and the counts of those records as a counts
file. The tool formats every input itself, so both trees read the same
bytes. The exit code and the standard output and error of each
command are kept as ``NAME.log`` next to its files. Every command that exits
nonzero, and every file present on one side only or whose bytes differ, is
printed; the exit code is 1 if there is any, else 0. ``NAME`` arguments run
only those commands (default: all).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# A labels file over the three-coherent example's 100 inputs, for render.
LABELS = "# r=4\n" + "".join(f"{j % 4 + 1}\n" for j in range(100))

GYRE = ["--example", "double-gyre", "--t1", "2", "--points-per-box", "10"]

COMMANDS = {
    "compare-three": ["compare", "--example", "three-coherent", "--epsilon", "3",
                      "--runs", "20", "--out", "three.json"],
    "compare-gyre": ["compare", *GYRE, "--runs", "5", "--out", "gyre.json"],
    # one-column points, so k-means means one coordinate per cluster
    "compare-rank1": ["compare", "--example", "three-coherent", "--epsilon", "3", "--rank", "1",
                      "--runs", "10", "--out", "rank1.json"],
    # sparse storage: the snapshot factors derive from the labels on that path
    "multirun-gyre": ["multirun", *GYRE, "--runs", "5", "--trace", "--out", "multi-gyre"],
    # exact window: factors with zero entries, so many scores are -inf
    "compare-interval": ["compare", "--example", "interval-map", "--epsilon", "0",
                         "--runs", "20", "--out", "interval.json"],
    "multirun": ["multirun", "--example", "three-coherent", "--runs", "10", "--trace",
                 "--out", "multi"],
    # without --trace at rank 2, so the spectra are padded with zeros
    "multirun-finals": ["multirun", "--example", "three-coherent", "--rank", "2",
                        "--runs", "10", "--out", "multi-finals"],
    # more latent states than the 90 inputs, so the spectra are cut at 90
    "multirun-wide": ["multirun", "--example", "interval-map", "--rank", "96", "--runs", "4",
                      "--trace", "--out", "multi-wide"],
    **{f"bounds-{kappa}": ["bounds", "--example", "interval-map", "--kappa", kappa,
                           "--out", f"bounds-{kappa}.json"]
       for kappa in ("post", "pr", "q1", "q2")},
    "render": ["render", "--example", "three-coherent", "--labels", "labels.txt",
               "--out", "render.ppm"],
    # sparse P drawn across 64 row blocks
    "render-gyre": ["render", *GYRE, "--out", "render-gyre.ppm"],
    "generate": ["generate", *GYRE, "--out", "gyre.csv"],
    "compare-pairs": ["compare", "pairs.csv", "--rank", "4", "--runs", "10",
                      "--out", "pairs.json"],
    "multirun-pairs": ["multirun", "pairs.csv", "--rank", "4", "--runs", "5", "--trace",
                       "--out", "pairs-multi"],
    "bounds-pairs": ["bounds", "pairs.csv", "pairs-labels.txt", "--out", "pairs-bounds.json"],
    "compare-counts": ["compare", "counts.txt", "--rank", "4", "--runs", "10",
                       "--out", "counts.json"],
}


def write_block_pairs(workdir: Path, n: int = 300, blocks: int = 4,
                      records: int = 100_000, leak: float = 0.25) -> None:
    """A seeded pairs file over n x n categories in ``blocks`` diagonal
    blocks: an output leaves its input's block with probability ``leak``.
    Written next to it, the labels file of the blocks and the counts file of
    the records, one ``i j count`` line per positive count in row-major
    order. This is the benchmark's pairs-file regime: a nearly full 300 x
    300 count matrix, stored dense and factorized by ARPACK."""
    rng = np.random.default_rng(20231)
    size = n // blocks
    inputs = rng.integers(0, n, records)
    inside = inputs // size * size + rng.integers(0, size, records)
    outputs = np.where(rng.random(records) < leak, rng.integers(0, n, records), inside)
    body = "".join(f"{x},{y}\n" for x, y in zip((inputs + 1).tolist(), (outputs + 1).tolist()))
    (workdir / "pairs.csv").write_text(f"# n={n} m={n}\nx,y\n{body}", encoding="utf-8")
    labels = "".join(f"{j // size + 1}\n" for j in range(n))
    (workdir / "pairs-labels.txt").write_text(f"# r={blocks}\n{labels}", encoding="utf-8")
    counts = np.bincount(outputs * n + inputs, minlength=n * n).reshape(n, n)
    entries = "".join(f"{i + 1} {j + 1} {counts[i, j]}\n" for i, j in zip(*np.nonzero(counts)))
    (workdir / "counts.txt").write_text(f"{n} {n} {records}\n{entries}", encoding="utf-8")


def run_commands(tree: Path, workdir: Path, names) -> list[str]:
    """Run the named commands with ``tree`` on the import path, in ``workdir``;
    returns those that exited nonzero."""
    (workdir / "labels.txt").write_text(LABELS, encoding="utf-8")
    write_block_pairs(workdir)
    env = dict(os.environ, PYTHONPATH=str(tree.resolve()))
    failed = []
    for name in names:
        result = subprocess.run(
            [sys.executable, "-m", "cohsets", *COMMANDS[name]],
            cwd=workdir, env=env, capture_output=True, text=True,
        )
        (workdir / f"{name}.log").write_text(
            f"exit {result.returncode}\n{result.stdout}{result.stderr}", encoding="utf-8"
        )
        if result.returncode != 0:
            failed.append(f"{name} (exit {result.returncode}) with {tree}")
    return failed


def differing_files(dir_a: Path, dir_b: Path) -> list[str]:
    """Relative paths present on one side only or with different bytes, sorted."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    return sorted(
        str(rel) for rel in files_a | files_b
        if rel not in files_a or rel not in files_b
        or (dir_a / rel).read_bytes() != (dir_b / rel).read_bytes()
    )


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees, names = [Path(arg) for arg in argv[:2]], argv[2:] or list(COMMANDS)
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        print(f"unknown commands {unknown}; choose from {list(COMMANDS)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / side for side in ("a", "b")]
        failed = []
        for tree, workdir in zip(trees, dirs):
            workdir.mkdir()
            failed += run_commands(tree, workdir, names)
        differ = differing_files(*dirs)
        compared = sum(1 for p in dirs[0].rglob("*") if p.is_file())
    for line in [f"failed: {entry}" for entry in failed] + [f"differs: {rel}" for rel in differ]:
        print(line)
    if failed or differ:
        return 1
    print(f"no difference in {compared} files from {len(names)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
