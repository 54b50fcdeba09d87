"""Text formats for pair data, count matrices, label vectors, and JSON sidecars.

Pairs file::

    # n=<n> m=<m>
    x,y
    3,5
    ...

The ``x,y`` header line is optional on input (in any letter case) and always
written on output.  Count file: a ``<m> <n> <S>`` line followed by one
``i j count`` line per nonzero entry.  Labels file: an optional ``# r=<r>``
first line followed by one 1-based integer label per line.  All category
indices are 1-based.

Accepted input grammar of the pairs, count and label bodies: LF or CRLF line
ends, blank lines (also of only whitespace), spaces around each field, and
``#`` comments, on a line of their own or after the fields (``2,2 # note``).
Every other line must hold exactly the format's integer fields (two
comma-separated for pairs, three whitespace-separated for counts, one for
labels); a float, an empty field, letters, a byte that is not UTF-8 or a
wrong field count raise ``ValueError``, reported with the file line of the
first malformed line.  Comments may hold any bytes.

A body as the writers emit it (fields of 1 to 18 digits joined by the
format's one separator, LF after every line) is parsed by numpy in blocks of
about 64 KiB; every other body is parsed by ``np.loadtxt`` from the path.
Rows are written by formatting whole blocks of digits in numpy.
"""

from __future__ import annotations

import bisect
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
# Bytes per parsed block of the readers; a block and its temporaries stay in cache.
_BLOCK_BYTES = 1 << 16
# Digits of the longest field the block reader parses; 18 always fit in int64.
_DIGITS = 18
_PLACES = 10 ** np.arange(_DIGITS, dtype=np.int64)


def _format_rows(table: np.ndarray, sep: str = " "):
    """ASCII lines of a nonempty, nonnegative integer table, fields joined by
    ``sep``, yielded in blocks of ``_PAIRS_CHUNK`` rows.

    Each candidate value is formatted once, as an item of ``width + 1``
    bytes: its decimal digits right-aligned after NULs, then ``sep``. The
    candidates are 0..max when that range is at most a few times the rows,
    else the table's distinct values. A block gathers one item per field,
    ends each row with a line end and drops the NULs.
    """
    top = int(table.max())
    width = len(str(top))
    if top < 4 * len(table):
        values, index = np.arange(top + 1), table
    else:
        values, index = np.unique(table, return_inverse=True)
    chars = np.zeros((values.size, width + 1), dtype=np.uint8)
    chars[:, width] = ord(sep)
    rest = values
    for place in range(width - 1, -1, -1):  # the ones digit shows even for 0
        chars[:, place] = np.where((rest > 0) | (place == width - 1), rest % 10 + ord("0"), 0)
        rest = rest // 10
    items = chars.view(np.dtype((np.void, width + 1)))[:, 0]
    index = index.reshape(table.shape)
    for start in range(0, len(table), _PAIRS_CHUNK):
        lines = items[index[start : start + _PAIRS_CHUNK]].view(np.uint8)
        lines[:, -1] = ord("\n")
        yield lines[lines != 0].tobytes()


def write_pairs(path: str | Path, dataset: PairDataset) -> None:
    table = np.column_stack([dataset.inputs, dataset.outputs])
    with open(path, "wb") as fh:
        fh.write(f"# n={dataset.n_inputs} m={dataset.n_outputs}\nx,y\n".encode())
        fh.writelines(_format_rows(table, ","))


def _loadtxt(source, **kwargs) -> np.ndarray:
    """Integer rows of a path or of a list of lines; an empty body gives an
    empty table, which the callers report, so numpy's warning about it is
    muted."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, dtype=np.int64, ndmin=2, encoding="utf-8", **kwargs)


def _read_blocks(path: str | Path, skiprows: int, fields: int, sep: int) -> np.ndarray | None:
    """Integer rows of the lines of ``path`` after the first ``skiprows``,
    if each of those lines is ``fields`` fields of 1 to ``_DIGITS`` ASCII
    digits joined by the byte ``sep`` and ended by LF, as the writers emit
    them; else None, before any value is returned.

    The body is cut into blocks of about ``_BLOCK_BYTES`` that end at a line
    end, so that a block and its temporaries stay in cache. Each block is
    checked and parsed into its rows of one table, with contiguous columns,
    which is allocated once the first block has passed: a body that is not
    as the writers emit it is mostly declined in its first block.
    """
    data = Path(path).read_bytes()
    start = 0
    for _ in range(skiprows):
        start = data.find(b"\n", start) + 1 or len(data)
    # Fewer lines than ``skiprows`` leave no body; a lone CR ends a skipped
    # line for numpy but not here.
    if start == len(data) or data[-1] != ord("\n") or data.find(b"\r", 0, start) >= 0:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    table, row = None, 0
    while start < len(data):
        stop = data.rfind(b"\n", start, start + _BLOCK_BYTES)
        stop = (stop if stop >= 0 else data.find(b"\n", start)) + 1
        block, start = buf[start:stop], stop
        # Every byte is a digit or a separator, and the separators of each
        # line are ``fields - 1`` times ``sep`` and then LF.
        if block.max() > ord("9"):
            return None
        ends = np.flatnonzero(block < ord("0"))
        if ends.size % fields:
            return None
        marks = block[ends].reshape(-1, fields)
        if not ((marks[:, -1] == ord("\n")).all() and (marks[:, :-1] == sep).all()):
            return None
        widths = np.diff(ends, prepend=-1) - 1
        widest = int(widths.max())
        if widths.min() < 1 or widest > _DIGITS:
            return None
        # Each field adds its digit ``place`` places left of its end, scaled in
        # int64 whatever numpy's promotion rules; where the field is narrower,
        # the byte read there belongs to another field and is masked out.
        at = ends - 1
        values = block[at].astype(np.int64)
        values -= ord("0")
        for place in range(1, widest):
            at -= 1
            digit = block[at] - np.uint8(ord("0"))
            digit *= widths > place
            values += np.multiply(digit, _PLACES[place], dtype=np.int64)
        if table is None:
            # Every LF from here on ends one row; numpy counts them faster
            # than ``bytes.count``.
            rows = sum(np.count_nonzero(buf[k : k + _BLOCK_BYTES] == ord("\n"))
                       for k in range(stop - block.size, len(data), _BLOCK_BYTES))
            table = np.empty((rows, fields), dtype=np.int64, order="F")
        table[row : row + len(marks)] = values.reshape(-1, fields)
        row += len(marks)
    return table


def _load_body(path: str | Path, skiprows: int, fields: int, what: str,
               delimiter: str | None = None) -> np.ndarray:
    """Integer rows of the lines of ``path`` after the first ``skiprows``.

    A body as the writers emit it is read by ``_read_blocks``; any other
    goes to ``np.loadtxt``, split at ``delimiter`` (whitespace by default).
    With a delimiter, numpy reads a line of only whitespace (and comment) as
    one empty field, though the grammar counts it blank; when numpy rejects
    the body, such lines are blanked and the body is read again.

    A body still rejected is reported by the file line of its first malformed
    ``what``: the last line of the shortest run of body lines that numpy
    rejects or reads with other than ``fields`` fields a row. The lines are
    decoded with ``surrogateescape``, so a byte that is not UTF-8 is a
    character no field parses, and one in a comment is dropped with the
    comment. The search parses a logarithmic number of such runs, and only
    on this error path.
    """
    table = _read_blocks(path, skiprows, fields, ord(delimiter or " "))
    if table is not None:
        return table
    try:
        return _loadtxt(path, skiprows=skiprows, delimiter=delimiter)
    except ValueError as exc:
        error = exc
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()
    lines = [line if line.split("#", 1)[0].strip() else "\n" for line in lines]
    try:
        return _loadtxt(lines[skiprows:], delimiter=delimiter)
    except ValueError:
        pass

    def malformed(end: int) -> bool:
        try:
            table = _loadtxt(lines[skiprows:end], delimiter=delimiter)
        except ValueError:
            return True
        return table.size > 0 and table.shape[1] != fields

    end = bisect.bisect_left(range(len(lines)), True, skiprows + 1, len(lines), key=malformed)
    raise ValueError(f"{path}: line {end}: malformed {what} {lines[end - 1].rstrip()!r}") from error


def read_pairs(path: str | Path) -> PairDataset:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
        match = _PAIRS_PREAMBLE.match(first.strip())
        if match is None:
            raise ValueError(f"{path}: expected preamble '# n=<n> m=<m>', got {first.strip()!r}")
        n, m = int(match.group(1)), int(match.group(2))
        header = fh.readline().strip().lower() == "x,y"
    table = _load_body(path, 2 if header else 1, 2, "record", delimiter=",")
    if table.size == 0:
        raise ValueError(f"{path}: no records")
    if table.shape[1] != 2:
        raise ValueError(f"{path}: expected two comma-separated fields per record")
    return PairDataset(inputs=table[:, 0], outputs=table[:, 1], n_inputs=n, n_outputs=m)


def write_counts(path: str | Path, counts: CountMatrix) -> None:
    m, n = counts.shape
    # Lines go in row-major order: a stable sort of the column-major entries
    # by row keeps the columns increasing within each row.
    rows, cols = counts.support
    order = np.argsort(rows, kind="stable")
    with open(path, "wb") as fh:
        fh.write(f"{m} {n} {counts.total}\n".encode())
        fh.writelines(_format_rows(np.column_stack([rows[order] + 1, cols[order] + 1,
                                                    counts.counts.data[order]])))


def read_count_entries(path: str | Path) -> tuple:
    """Declared (m, n) and the 0-based row, 0-based column and count of each
    positive entry, checked against the header; allocates nothing of m x n."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline().split()
    if len(first) != 3:
        raise ValueError(f"{path}: expected first line '<m> <n> <S>'")
    try:
        m, n, total = (int(tok) for tok in first)
    except ValueError as exc:
        raise ValueError(f"{path}: non-integer header field ({exc})") from exc
    table = _load_body(path, 1, 3, "entry")
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
        fh.writelines(_format_rows(labels[:, None]))


def read_labels(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a label vector; returns (labels, r).

    A first line ``# r=<r>`` declares r; without it, r is the largest label.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        match = _LABELS_PREAMBLE.match(fh.readline().strip())
    table = _load_body(path, 0 if match is None else 1, 1, "label")
    if table.size == 0:
        raise ValueError(f"{path}: no labels")
    if table.shape[1] != 1:
        raise ValueError(f"{path}: expected one label per line")
    labels = table[:, 0]
    n_labels = int(match.group(1)) if match is not None else int(labels.max())
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
