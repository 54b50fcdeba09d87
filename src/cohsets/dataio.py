"""Text formats for pair data, count matrices, label vectors, and JSON sidecars.

Pairs file::

    # n=<n> m=<m>
    x,y
    3,5
    ...

The ``x,y`` header line is optional on input (in any letter case) and always
written on output.  Count file: a ``<m> <n> <S>`` line followed by one
``i j count`` line per nonzero entry.  Labels file: an optional ``# r=<r>``
preamble followed by one 1-based integer label per line.  All category
indices are 1-based.

Accepted input grammar of the pairs and count bodies: LF or CRLF line ends,
blank lines, spaces around each field, and ``#`` comments, on a line of their
own or after the fields (``2,2 # note``).  Every other line must hold exactly
the format's integer fields (two comma-separated for pairs, three
whitespace-separated for counts); a float, an empty field, letters or a wrong
field count raise ``ValueError``.

Bodies are parsed by ``np.loadtxt`` from the path, and rows are written by
formatting whole blocks of digits in numpy.
"""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import numpy as np

from .model import CountMatrix, PairDataset, count_entries

_PAIRS_PREAMBLE = re.compile(r"^#\s*n=(\d+)\s+m=(\d+)\s*$")
_LABELS_PREAMBLE = re.compile(r"^#\s*r=(\d+)\s*$")
# Rows per formatted block of the writers; bounds the memory of one block.
_PAIRS_CHUNK = 1 << 16


def _format_rows(table: np.ndarray, sep: str = " ") -> bytes:
    """ASCII lines of a nonempty, nonnegative integer table, fields joined by
    ``sep``.

    Builds the characters of every field as ``width + 1`` slots: the decimal
    digits right-aligned, NUL in the leading slots, then ``sep`` or the line
    end; dropping the NULs leaves the lines.
    """
    width = len(str(int(table.max())))
    chars = np.empty((*table.shape, width + 1), dtype=np.uint8)
    chars[:, :-1, width] = ord(sep)
    chars[:, -1, width] = ord("\n")
    rest = table
    for place in range(width - 1, -1, -1):
        quot = rest // 10
        digit = (rest - quot * 10 + ord("0")).astype(np.uint8)
        if place < width - 1:  # the ones digit shows even for 0
            digit *= rest > 0
        chars[:, :, place] = digit
        rest = quot
    flat = chars.ravel()
    return flat[flat != 0].tobytes()


def _write_table(fh, table: np.ndarray, sep: str = " ") -> None:
    """Write ``table``'s rows in ``_PAIRS_CHUNK``-row blocks."""
    for start in range(0, len(table), _PAIRS_CHUNK):
        fh.write(_format_rows(table[start : start + _PAIRS_CHUNK], sep))


def write_pairs(path: str | Path, dataset: PairDataset) -> None:
    table = np.column_stack([dataset.inputs, dataset.outputs])
    with open(path, "wb") as fh:
        fh.write(f"# n={dataset.n_inputs} m={dataset.n_outputs}\nx,y\n".encode())
        _write_table(fh, table, ",")


def _load_body(path: str | Path, **kwargs) -> np.ndarray:
    """Integer rows of a file's body; an empty body gives an empty table,
    which the callers report, so numpy's warning about it is muted."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, dtype=np.int64, ndmin=2, encoding="utf-8", **kwargs)


def read_pairs(path: str | Path) -> PairDataset:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        match = _PAIRS_PREAMBLE.match(first.strip())
        if match is None:
            raise ValueError(f"{path}: expected preamble '# n=<n> m=<m>', got {first.strip()!r}")
        n, m = int(match.group(1)), int(match.group(2))
        header = fh.readline().strip().lower() == "x,y"
    try:
        table = _load_body(path, delimiter=",", skiprows=2 if header else 1)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed record line ({exc})") from exc
    if table.size == 0:
        raise ValueError(f"{path}: no records")
    if table.shape[1] != 2:
        raise ValueError(f"{path}: expected two comma-separated fields per record")
    return PairDataset(inputs=table[:, 0], outputs=table[:, 1], n_inputs=n, n_outputs=m)


def write_counts(path: str | Path, counts: CountMatrix) -> None:
    m, n = counts.shape
    # Lines go in row-major order.
    entries = counts.counts.tocsr().tocoo()
    with open(path, "wb") as fh:
        fh.write(f"{m} {n} {counts.total}\n".encode())
        _write_table(fh, np.column_stack([entries.row + 1, entries.col + 1, entries.data]))


def read_count_entries(path: str | Path) -> tuple:
    """Declared (m, n) and the 0-based row, 0-based column and count of each
    positive entry, checked against the header; allocates nothing of m x n."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().split()
    if len(first) != 3:
        raise ValueError(f"{path}: expected first line '<m> <n> <S>'")
    try:
        m, n, total = (int(tok) for tok in first)
    except ValueError as exc:
        raise ValueError(f"{path}: non-integer header field ({exc})") from exc
    table = _load_body(path, skiprows=1)
    if table.size == 0:
        table = table.reshape(0, 3)
    if table.shape[1] != 3:
        raise ValueError(f"{path}: expected 'i j count' lines")
    i, j, c = table[:, 0], table[:, 1], table[:, 2]
    if (i < 1).any() or (i > m).any() or (j < 1).any() or (j > n).any():
        raise ValueError(f"{path}: entry index outside declared {m} x {n} shape")
    if (c < 0).any():
        raise ValueError(f"{path}: negative count")
    if int(c.sum()) != total:
        raise ValueError(f"{path}: entries sum to {int(c.sum())}, header declares {total}")
    positive = c > 0
    return (m, n), i[positive] - 1, j[positive] - 1, c[positive]


def read_counts(path: str | Path) -> CountMatrix:
    return count_entries(*read_count_entries(path))


def write_labels(path: str | Path, labels: np.ndarray, n_labels: int) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    if (labels < 0).any():
        raise ValueError("labels must be nonnegative")
    with open(path, "wb") as fh:
        fh.write(f"# r={n_labels}\n".encode())
        _write_table(fh, labels[:, None])


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
