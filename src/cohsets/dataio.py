"""Text formats for pair data, count matrices, label vectors, and JSON sidecars.

Pairs file::

    # n=<n> m=<m>
    x,y
    3,5
    ...

The ``x,y`` header line is optional on input and always written on output.
Count file: a ``<m> <n> <S>`` line followed by one ``i j count`` line per
nonzero entry.  Labels file: an optional ``# r=<r>`` preamble followed by one
1-based integer label per line.  All category indices are 1-based.
"""

from __future__ import annotations

import io
import json
import re
import warnings
from pathlib import Path

import numpy as np

from .model import CountMatrix, PairDataset

_PAIRS_PREAMBLE = re.compile(r"^#\s*n=(\d+)\s+m=(\d+)\s*$")
_LABELS_PREAMBLE = re.compile(r"^#\s*r=(\d+)\s*$")
# Records per formatted block of write_pairs.
_PAIRS_CHUNK = 1 << 16


def write_pairs(path: str | Path, dataset: PairDataset) -> None:
    """Write records in ``_PAIRS_CHUNK``-record blocks, one format call per block."""
    table = np.column_stack([dataset.inputs, dataset.outputs])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={dataset.n_inputs} m={dataset.n_outputs}\nx,y\n")
        for start in range(0, len(table), _PAIRS_CHUNK):
            block = table[start : start + _PAIRS_CHUNK]
            fh.write("%d,%d\n" * len(block) % tuple(block.ravel().tolist()))


def read_pairs(path: str | Path) -> PairDataset:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        match = _PAIRS_PREAMBLE.match(first.strip())
        if match is None:
            raise ValueError(f"{path}: expected preamble '# n=<n> m=<m>', got {first.strip()!r}")
        n, m = int(match.group(1)), int(match.group(2))
        pos = fh.tell()
        second = fh.readline()
        if second.strip().lower() != "x,y":
            fh.seek(pos)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # empty body is reported below
                table = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed record line ({exc})") from exc
    if table.size == 0:
        raise ValueError(f"{path}: no records")
    if table.shape[1] != 2:
        raise ValueError(f"{path}: expected two comma-separated fields per record")
    return PairDataset(inputs=table[:, 0], outputs=table[:, 1], n_inputs=n, n_outputs=m)


def write_counts(path: str | Path, counts: CountMatrix) -> None:
    m, n = counts.shape
    rows, cols = np.nonzero(counts.counts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n} {counts.total}\n")
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {counts.counts[i, j]}\n")


def read_counts(path: str | Path) -> CountMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().split()
        if len(first) != 3:
            raise ValueError(f"{path}: expected first line '<m> <n> <S>'")
        try:
            m, n, total = (int(tok) for tok in first)
        except ValueError as exc:
            raise ValueError(f"{path}: non-integer header field ({exc})") from exc
        body = fh.read()
    table = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2)
    counts = np.zeros((m, n), dtype=np.int64)
    if table.size:
        if table.shape[1] != 3:
            raise ValueError(f"{path}: expected 'i j count' lines")
        i, j, c = table[:, 0], table[:, 1], table[:, 2]
        if (i < 1).any() or (i > m).any() or (j < 1).any() or (j > n).any():
            raise ValueError(f"{path}: entry index outside declared {m} x {n} shape")
        if (c < 0).any():
            raise ValueError(f"{path}: negative count")
        np.add.at(counts, (i - 1, j - 1), c)
    if int(counts.sum()) != total:
        raise ValueError(f"{path}: entries sum to {int(counts.sum())}, header declares {total}")
    return CountMatrix(counts=counts, total=total)


def write_labels(path: str | Path, labels: np.ndarray, n_labels: int) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# r={n_labels}\n")
        for value in labels:
            fh.write(f"{value}\n")


def read_labels(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a label vector; returns (labels, r).

    Without an ``# r=`` preamble, r defaults to the largest label present.
    """
    declared = None
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            match = _LABELS_PREAMBLE.match(text)
            if match is not None:
                declared = int(match.group(1))
                continue
            if text.startswith("#"):
                continue
            try:
                values.append(int(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not an integer label: {text!r}") from exc
    if not values:
        raise ValueError(f"{path}: no labels")
    labels = np.asarray(values, dtype=np.int64)
    n_labels = declared if declared is not None else int(labels.max())
    if (labels < 1).any() or (labels > n_labels).any():
        raise ValueError(f"{path}: labels must lie in [1, {n_labels}]")
    return labels, n_labels


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def canonical_json(payload: dict) -> str:
    """Serialize with sorted keys and fixed layout so reports round-trip byte-identically."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
