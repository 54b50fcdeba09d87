import ast
import contextlib
import io
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsets import cli, dataio
from cohsets.cli import main
from cohsets.generators import gen_interval_map, gen_three_coherent
from cohsets.model import CountMatrix, PairDataset, ingest_pairs
from tests.conftest import random_counts
from tests.dense_reference import (
    dense,
    read_pairs_handle_reference,
    write_counts_lines_reference,
    write_labels_lines_reference,
)


def test_pairs_roundtrip(tmp_path):
    dataset, _ = gen_interval_map()
    path = tmp_path / "pairs.csv"
    dataio.write_pairs(path, dataset)
    back = dataio.read_pairs(path)
    assert np.array_equal(back.inputs, dataset.inputs)
    assert np.array_equal(back.outputs, dataset.outputs)
    assert back.n_inputs == dataset.n_inputs
    assert back.n_outputs == dataset.n_outputs


def _savetxt_bytes(path, dataset):
    np.savetxt(
        path, np.column_stack([dataset.inputs, dataset.outputs]), fmt="%d",
        delimiter=",", header=f"# n={dataset.n_inputs} m={dataset.n_outputs}\nx,y",
        comments="",
    )
    return path.read_bytes()


def _random_pairs(size):
    rng = np.random.default_rng(size)
    return rng.integers(1, 1001, size=size), rng.integers(1, 13, size=size)


# Every digit width from 1 to 19: 10^k and 10^k - 1 up to 10^18.
_WIDTHS = np.sort(np.concatenate([10 ** np.arange(19), 10 ** np.arange(1, 19) - 1]))
# Repeated values over a range far wider than the rows, so the writer formats
# the table's distinct values and not 0..max; the blocks of 7 rows share them.
_WIDE = np.random.default_rng(5).choice([1, 9, 10**6, 123456789, 10**12, 10**15 - 1], 60)


@pytest.mark.parametrize("chunk, inputs, outputs", [
    pytest.param(1 << 16, *_random_pairs(57), id="65536-57"),
    pytest.param(7, *_random_pairs(50), id="7-50"),
    pytest.param(5, *_random_pairs(35), id="5-35"),
    pytest.param(5, *_random_pairs(1), id="5-1"),
    pytest.param(4, _WIDTHS, _WIDTHS[::-1], id="up-to-1e18"),
    pytest.param(1 << 16, np.array([7, 10, 9, 99, 100, 1, 12345, 5]),
                 np.array([3, 3, 1000, 2, 999, 10, 1, 7]), id="width-changes-in-block"),
    pytest.param(1 << 16, np.array([3]), np.array([42]), id="one-record"),
    pytest.param(4, np.arange(1, 10), np.arange(9, 0, -1), id="single-digit"),
    pytest.param(7, _WIDE, _WIDE[::-1], id="wide-range"),
])
def test_write_pairs_matches_savetxt_bytes(tmp_path, monkeypatch, chunk, inputs, outputs):
    monkeypatch.setattr(dataio, "_PAIRS_CHUNK", chunk)
    dataset = PairDataset(inputs=inputs, outputs=outputs,
                          n_inputs=int(inputs.max()), n_outputs=int(outputs.max()))
    path = tmp_path / "pairs.csv"
    dataio.write_pairs(path, dataset)
    assert path.read_bytes() == _savetxt_bytes(tmp_path / "reference.csv", dataset)


def test_pairs_header_line_is_optional(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("# n=4 m=3\n2,1\n4,3\n", encoding="utf-8")
    dataset = dataio.read_pairs(path)
    assert dataset.inputs.tolist() == [2, 4]
    assert dataset.outputs.tolist() == [1, 3]
    assert (dataset.n_inputs, dataset.n_outputs) == (4, 3)


def test_pairs_malformed(tmp_path):
    missing_preamble = tmp_path / "a.csv"
    missing_preamble.write_text("x,y\n1,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="preamble"):
        dataio.read_pairs(missing_preamble)
    bad_record = tmp_path / "b.csv"
    bad_record.write_text("# n=2 m=2\nx,y\n1,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed record"):
        dataio.read_pairs(bad_record)
    empty = tmp_path / "c.csv"
    empty.write_text("# n=2 m=2\nx,y\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no records"):
        dataio.read_pairs(empty)
    wide = tmp_path / "d.csv"
    wide.write_text("# n=2 m=2\n1,1,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="two comma-separated fields"):
        dataio.read_pairs(wide)


def _grammar_pairs(draw) -> str:
    """A pairs file over a 9 x 9 preamble: records with spaces around
    their fields and trailing comments, blank and comment lines, and in half
    the files one malformed line."""
    field = st.integers(1, 9).map(str)
    pad = st.sampled_from(["", " ", "  ", "\t"])
    record = st.builds(lambda a, b, p, q, note: f"{p}{a}{q},{p}{b}{q}{note}",
                       field, field, pad, pad, st.sampled_from(["", " # c", "#c", "  # 1,2"]))
    line = st.one_of(record, record, record, st.sampled_from(["", "   ", "\t", "# note", "  # note"]))
    header = draw(st.one_of(st.just(None), st.sampled_from(["x", "X"]).flatmap(
        lambda x: st.sampled_from(["y", "Y"]).map(lambda y: f"{x},{y}"))))
    body = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        malformed = st.sampled_from(["1,2,3", "1,", ",2", "1.5,2", "a,2", "1,b", "x,y", "1;2"])
        body.insert(draw(st.integers(0, len(body))), draw(malformed))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["# n=9 m=9", *([header] if header else []), *body, *[""] * draw(st.integers(0, 2))]
    return end.join(lines) + draw(st.sampled_from(["", end]))


# What a body as the writers emit it is changed by to be read by np.loadtxt.
_ONE_BYTE = [b"\r", b" ", b"#", b"+", b"-", b"\xff", "empty field", "no final LF"]


def _pairs_file(draw) -> tuple[bytes, str, int | None]:
    """A pairs file, the kind of its body and the lines before the body.

    Half the bodies are as the writers emit them, over a 120 x 120 preamble
    (some fields with a leading zero), and a quarter are such
    a body changed by one byte of ``_ONE_BYTE``, an emptied field or a
    dropped final LF. The other quarter are drawn by ``_grammar_pairs``."""
    kind = draw(st.sampled_from(["canonical", "canonical", "one byte", "grammar"]))
    if kind == "grammar":
        return _grammar_pairs(draw).encode(), kind, None
    value = st.integers(1, 120)
    field = st.one_of(value.map(str), value.map(lambda v: f"0{v}"))
    records = draw(st.lists(st.tuples(field, field), min_size=1, max_size=12))
    head = f"# n=120 m=120\n{draw(st.sampled_from(['', 'x,y', 'X,Y']))}\n".replace("\n\n", "\n")
    body = "".join(f"{a},{b}\n" for a, b in records).encode()
    if kind == "one byte":
        change = draw(st.sampled_from(_ONE_BYTE))
        if change == "no final LF":
            body = body[:-1]
        elif change == "empty field":
            start, stop = draw(st.sampled_from([m.span() for m in re.finditer(rb"\d+", body)]))
            body = body[:start] + body[stop:]
        else:
            at = draw(st.integers(0, len(body)))
            body = body[:at] + change + body[at:]
    return head.encode() + body, kind, head.count("\n")


def _read_outcome(reader, path):
    try:
        dataset = reader(path)
    except ValueError as exc:
        return str(exc)
    return dataset.inputs.tolist(), dataset.outputs.tolist(), dataset.n_inputs, dataset.n_outputs


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_read_pairs_grammar_matches_handle_reader(data):
    """read_pairs accepts exactly what loadtxt on the open handle accepts,
    with the same arrays or the same error, except that a body loadtxt
    rejects is reported by the file line and text of its malformed line: the
    first line through which the file no longer reads as two-field records.
    A body as the writers emit it is read by the block reader, at any block
    size, and one changed by a byte is not. The CLI exits 2 on every rejected
    file without a traceback."""
    content, kind, skiprows = _pairs_file(data.draw)
    block = data.draw(st.sampled_from([5, 7, 16, dataio._BLOCK_BYTES]))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dataio, "_BLOCK_BYTES", block):
        path = Path(tmp) / "pairs.csv"
        path.write_bytes(content)
        if skiprows is not None:
            table = dataio._read_blocks(path, skiprows, 2, ord(","))
            assert (table is not None) == (kind == "canonical")
        outcome = _read_outcome(dataio.read_pairs, path)
        expected = _read_outcome(read_pairs_handle_reference, path)
        if isinstance(expected, str) and "malformed record line" in expected:
            pattern = rf"{re.escape(str(path))}: line (\d+): malformed record (.*)"
            line, text = re.fullmatch(pattern, outcome).groups()
            lines = content.decode("utf-8", "surrogateescape").splitlines()
            assert text == repr(lines[int(line) - 1].rstrip())
            head = Path(tmp) / "head.csv"
            for end, rejected in ((int(line) - 1, False), (int(line), True)):
                head.write_bytes(("\n".join(lines[:end]) + "\n").encode("utf-8", "surrogateescape"))
                head_outcome = _read_outcome(read_pairs_handle_reference, head)
                assert (isinstance(head_outcome, str) and any(
                    reason in head_outcome for reason in ("malformed", "two comma-separated")
                )) == rejected
        else:
            assert outcome == expected
        if isinstance(outcome, str):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(["render", str(path), "--out", str(Path(tmp) / "m.ppm")])
            assert code == 2
            assert stderr.getvalue() == f"error: {outcome}\n"


def _no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt ran on a body the writers emit")


@pytest.mark.parametrize("block", [dataio._BLOCK_BYTES, 7, 5], ids=str)
@pytest.mark.parametrize("values", [
    pytest.param(_WIDTHS[_WIDTHS < 10**18], id="widths-1-to-18"),
    pytest.param(np.random.default_rng(3).integers(1, 301, 400), id="random"),
    pytest.param(np.array([42]), id="one-record"),
])
def test_written_files_read_through_the_blocks(tmp_path, monkeypatch, block, values):
    """What write_pairs, write_counts and write_labels emit reads through the
    block reader at any block size, to the table np.loadtxt reads; the
    columns of a pairs table are views of one table, not copies."""
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", block)
    top = int(values.max())
    pairs, counts, labels = (tmp_path / name for name in ("p.csv", "c.txt", "l.txt"))
    dataio.write_pairs(pairs, PairDataset(inputs=values, outputs=values[::-1],
                                          n_inputs=top, n_outputs=top))
    dataio.write_counts(counts, CountMatrix(counts=values[:, None], total=int(values.sum())))
    dataio.write_labels(labels, values, top)
    expected = {path: np.loadtxt(path, dtype=np.int64, ndmin=2, skiprows=skip, delimiter=delimiter)
                for path, skip, delimiter in ((pairs, 2, ","), (counts, 1, None), (labels, 1, None))}
    monkeypatch.setattr(dataio, "_loadtxt", _no_loadtxt)
    dataset = dataio.read_pairs(pairs)
    assert np.array_equal(np.column_stack([dataset.inputs, dataset.outputs]), expected[pairs])
    assert dataset.inputs.base is dataset.outputs.base is not None
    shape, rows, cols, weights = dataio.read_count_entries(counts)
    assert shape == (values.size, 1)
    assert np.array_equal(np.column_stack([rows + 1, cols + 1, weights]), expected[counts])
    read, r = dataio.read_labels(labels)
    assert np.array_equal(read, expected[labels][:, 0]) and r == top


@pytest.mark.parametrize("block", [dataio._BLOCK_BYTES, 7, 5], ids=str)
def test_block_reader_reads_leading_zeros(tmp_path, monkeypatch, block):
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", block)
    path = tmp_path / "zeros.csv"
    path.write_bytes(b"# n=1000 m=1000\n007,0100\n000000000000000001,1\n0999,000000000000000042\n")
    expected = np.loadtxt(path, dtype=np.int64, ndmin=2, skiprows=1, delimiter=",")
    monkeypatch.setattr(dataio, "_loadtxt", _no_loadtxt)
    dataset = dataio.read_pairs(path)
    assert np.array_equal(np.column_stack([dataset.inputs, dataset.outputs]), expected)
    assert dataset.inputs.tolist() == [7, 1, 999]


@pytest.mark.parametrize("body", [
    b"1,2\r\n", b" 1,2\n", b"1 ,2\n", b"1,2 \n", b"1,\t2\n", b"1,2#c\n", b"#c\n1,2\n",
    b"+1,2\n", b"1,-2\n", b"1,2\n\n3,4\n", b"1,\n", b",2\n", b"1,2", b"1,2\n3,4",
    b"1,1000000000000000000\n", b"1,2\xff\n", b"1,\xc3\xa9\n", b"1;2\n", b"1,2,3\n", b"1\n",
], ids=repr)
def test_block_reader_declines_every_other_body(tmp_path, body):
    """A body that is not fields of 1 to 18 digits joined by the separator and
    ended by LF is left to np.loadtxt, whatever it reads to."""
    path = tmp_path / "pairs.csv"
    path.write_bytes(b"# n=9 m=9\n" + body)
    assert dataio._read_blocks(path, 1, 2, ord(",")) is None


def test_block_reader_declines_a_19_digit_field(tmp_path, monkeypatch):
    """``_WIDTHS`` written whole holds 10^18, a 19-digit field: np.loadtxt
    reads those files, to the same values."""
    top = int(_WIDTHS.max())
    pairs, labels = tmp_path / "p.csv", tmp_path / "l.txt"
    dataio.write_pairs(pairs, PairDataset(inputs=_WIDTHS, outputs=_WIDTHS[::-1],
                                          n_inputs=top, n_outputs=top))
    dataio.write_labels(labels, _WIDTHS, top)
    assert dataio._read_blocks(pairs, 2, 2, ord(",")) is None
    assert dataio._read_blocks(labels, 1, 1, ord(" ")) is None
    dataset = dataio.read_pairs(pairs)
    assert dataset.inputs.tolist() == _WIDTHS.tolist()
    assert dataio.read_labels(labels)[0].tolist() == _WIDTHS.tolist()


@pytest.mark.parametrize("name, content, message", [
    ("body.csv", b"# n=3 m=3\nx,y\n1,2\n\xff\xfe,3\n", r"line 4: malformed record '\udcff\udcfe,3'"),
    ("preamble.csv", b"# n=3 m=3\xff\nx,y\n1,2\n",
     r"expected preamble '# n=<n> m=<m>', got '# n=3 m=3\udcff'"),
    ("body.txt", b"3 3 2\n1 1 1\n1 \xe9 1\n", r"line 3: malformed entry '1 \udce9 1'"),
    ("header.txt", b"\xff 3 2\n1 1 1\n",
     r"non-integer header field (invalid literal for int() with base 10: '\udcff')"),
], ids=lambda value: value if isinstance(value, str) and "." in value else "")
def test_cli_bytes_that_are_not_utf8_name_the_file_line(tmp_path, capsys, name, content, message):
    """A pairs or counts file with bytes that are not UTF-8 exits 2 and names
    the file and the line, or the preamble that does not parse."""
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["compare", str(path), "--rank", "2", "--runs", "2", "--no-images",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_bytes_that_are_not_utf8_in_a_comment_are_ignored(tmp_path):
    pairs, counts = tmp_path / "p.csv", tmp_path / "c.txt"
    pairs.write_bytes(b"# n=2 m=2\n1,1 # caf\xe9\n# \xff\n2,2\n")
    counts.write_bytes(b"2 2 2\n1 1 1 # caf\xe9\n2 2 1\n")
    dataset = dataio.read_pairs(pairs)
    assert dataset.inputs.tolist() == [1, 2] and dataset.outputs.tolist() == [1, 2]
    assert [a.tolist() for a in dataio.read_count_entries(counts)[1:]] == [[0, 1], [0, 1], [1, 1]]


def test_cli_label_bytes_that_are_not_utf8_name_the_file_line(tmp_path, capsys):
    pairs, labels = tmp_path / "p.csv", tmp_path / "l.txt"
    pairs.write_bytes(b"# n=2 m=2\n1,1\n2,2\n")
    labels.write_bytes(b"# r=2\n1\n\xff\n")
    assert main(["bounds", str(pairs), str(labels), "--out", str(tmp_path / "b.json")]) == 2
    assert capsys.readouterr().err == f"error: {labels}: line 3: malformed label '\\udcff'\n"


def test_cli_whitespace_only_pairs_line_is_blank(tmp_path):
    """A line of only spaces in a pairs body reads as a blank line: the file
    renders to the same bytes as the file without it."""
    spaced, plain = tmp_path / "spaced.csv", tmp_path / "plain.csv"
    spaced.write_text("# n=2 m=2\n1,1\n   \n2,2\n", encoding="utf-8")
    plain.write_text("# n=2 m=2\n1,1\n2,2\n", encoding="utf-8")
    for path in (spaced, plain):
        assert main(["render", str(path), "--out", str(path.with_suffix(".ppm"))]) == 0
    assert spaced.with_suffix(".ppm").read_bytes() == plain.with_suffix(".ppm").read_bytes()


def test_counts_roundtrip(tmp_path):
    rng = np.random.default_rng(163)
    for index in range(10):
        counts = random_counts(rng, rng.integers(2, 9), rng.integers(2, 9), density=0.5)
        path = tmp_path / f"counts{index}.txt"
        dataio.write_counts(path, counts)
        back = dataio.read_counts(path)
        assert np.array_equal(dense(back), dense(counts))
        assert back.total == counts.total


def test_counts_duplicate_entries_accumulate(tmp_path):
    path = tmp_path / "dups.txt"
    path.write_text("2 2 7\n1 1 3\n1 1 2\n2 2 2\n", encoding="utf-8")
    counts = dataio.read_counts(path)
    assert dense(counts).tolist() == [[5, 0], [0, 2]]


def test_cli_empty_counts_body_writes_only_the_error(tmp_path):
    """A counts file with a header and no entries exits 2, and stderr holds
    only the error line, no warning from the parser."""
    counts_path = tmp_path / "empty.txt"
    counts_path.write_text("3 3 0\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "cohsets", "compare", str(counts_path), "--no-images",
         "--out", str(tmp_path / "empty.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr == "error: empty model: all counts are zero\n"


def test_cli_malformed_counts_entry_names_the_file_line(tmp_path):
    """A counts entry that does not parse exits 2 with one stderr line that
    names the file and the line of the entry."""
    counts_path = tmp_path / "bad.txt"
    counts_path.write_text("3 3 1\n1 1 x\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "cohsets", "compare", str(counts_path), "--no-images",
         "--out", str(tmp_path / "bad.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr == f"error: {counts_path}: line 2: malformed entry '1 1 x'\n"


def test_counts_malformed(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("2 2\n1 1 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="<m> <n> <S>"):
        dataio.read_counts(bad_header)
    bad_sum = tmp_path / "b.txt"
    bad_sum.write_text("2 2 9\n1 1 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header declares 9"):
        dataio.read_counts(bad_sum)
    out_of_range = tmp_path / "c.txt"
    out_of_range.write_text("2 2 4\n3 1 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="outside declared"):
        dataio.read_counts(out_of_range)
    negative = tmp_path / "d.txt"
    negative.write_text("2 2 0\n1 1 -1\n1 2 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="negative count"):
        dataio.read_counts(negative)


def test_count_and_label_writers_match_line_formatting(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_PAIRS_CHUNK", 5)
    rng = np.random.default_rng(11)
    for index in range(6):
        counts = random_counts(rng, rng.integers(1, 14), rng.integers(1, 14), density=0.6)
        dataio.write_counts(tmp_path / "counts.txt", counts)
        write_counts_lines_reference(tmp_path / "reference.txt", counts)
        assert (tmp_path / "counts.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()
    big = CountMatrix(counts=np.array([[0, 10**15], [7, 0]]), total=10**15 + 7)
    dataio.write_counts(tmp_path / "counts.txt", big)
    write_counts_lines_reference(tmp_path / "reference.txt", big)
    assert (tmp_path / "counts.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()
    for labels in ([1], [3, 1, 2], rng.integers(1, 12, size=23), [9, 10, 100, 1, 1000],
                   [0], [10, 0, 7, 0]):
        dataio.write_labels(tmp_path / "labels.txt", labels, 1000)
        write_labels_lines_reference(tmp_path / "reference.txt", labels, 1000)
        assert (tmp_path / "labels.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()
    with pytest.raises(ValueError, match="nonnegative"):
        dataio.write_labels(tmp_path / "labels.txt", [1, -2], 2)


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.txt"
    dataio.write_labels(path, np.array([2, 1, 3, 3]), 4)
    labels, r = dataio.read_labels(path)
    assert labels.tolist() == [2, 1, 3, 3]
    assert r == 4


def test_labels_preamble_optional(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("2\n1\n2\n", encoding="utf-8")
    labels, r = dataio.read_labels(path)
    assert labels.tolist() == [2, 1, 2]
    assert r == 2


def test_labels_malformed(tmp_path):
    not_int = tmp_path / "a.txt"
    not_int.write_text("1\ntwo\n", encoding="utf-8")
    with pytest.raises(ValueError, match="a.txt: line 2: malformed label 'two'"):
        dataio.read_labels(not_int)
    two_fields = tmp_path / "d.txt"
    two_fields.write_text("1 2\n2 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="one label per line"):
        dataio.read_labels(two_fields)
    out_of_range = tmp_path / "b.txt"
    out_of_range.write_text("# r=2\n3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        dataio.read_labels(out_of_range)
    empty = tmp_path / "c.txt"
    empty.write_text("# r=2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no labels"):
        dataio.read_labels(empty)


def test_labels_preamble_is_the_first_line_only(tmp_path):
    """``# r=<r>`` declares r on the first line only; later it is a comment."""
    path = tmp_path / "late.txt"
    path.write_text("1\n2\n# r=5\n", encoding="utf-8")
    assert dataio.read_labels(path)[1] == 2
    path.write_text("# r=5\n1\n2\n", encoding="utf-8")
    assert dataio.read_labels(path)[1] == 5


def _body(fields: list[str], end: str) -> str:
    """Lines of ``fields`` between blank, whitespace-only and comment lines,
    with a trailing comment on every other field line."""
    fillers = ["", "   ", "# own line", "\t"]
    lines = list(fillers)
    for index, text in enumerate(fields):
        lines += [f" {text} # tail" if index % 2 else text, fillers[index % 4]]
    return end.join(lines) + end


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_pairs_counts_and_labels_share_one_body_grammar(tmp_path, end):
    """One body written as a pairs, a counts and a labels file reads to the
    same numbers through each reader."""
    values = [3, 1, 2, 2, 4, 1]
    pairs, counts, labels = (tmp_path / name for name in ("p.csv", "c.txt", "l.txt"))
    pairs.write_bytes(("# n=4 m=4" + end + _body([f"{v},{v}" for v in values], end)).encode())
    counts.write_bytes(
        (f"4 4 {len(values)}" + end + _body([f"{v} {v} 1" for v in values], end)).encode()
    )
    labels.write_bytes(("# r=4" + end + _body([str(v) for v in values], end)).encode())
    dataset = dataio.read_pairs(pairs)
    _, rows, cols, weights = dataio.read_count_entries(counts)
    read, r = dataio.read_labels(labels)
    assert dataset.inputs.tolist() == dataset.outputs.tolist() == values
    assert (rows + 1).tolist() == (cols + 1).tolist() == values
    assert weights.tolist() == [1] * len(values)
    assert read.tolist() == values and r == 4


def test_cli_malformed_label_names_the_file_line(tmp_path):
    """A label that does not parse makes ``bounds`` exit 2 with one stderr
    line that names the file and the line of the label."""
    pairs_path, labels_path = tmp_path / "data.csv", tmp_path / "labels.txt"
    dataio.write_pairs(pairs_path, gen_three_coherent()[0])
    labels_path.write_text("# r=3\n1 # first\n\n2.5\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "cohsets", "bounds", str(pairs_path), str(labels_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr == f"error: {labels_path}: line 4: malformed label '2.5'\n"


def test_canonical_json_is_stable(tmp_path):
    payload = {"b": [1.5, float("inf")], "a": {"z": 1, "y": None}}
    path = tmp_path / "x.json"
    dataio.write_json(path, payload)
    text = path.read_text(encoding="utf-8")
    assert text == dataio.canonical_json(payload)
    assert dataio.canonical_json(dataio.read_json(path)) == text


def test_cli_generate_and_reload(tmp_path, capsys):
    out = tmp_path / "three.csv"
    assert main(["generate", "--example", "three-coherent", "--out", str(out)]) == 0
    assert "25000 records" in capsys.readouterr().out
    dataset = dataio.read_pairs(out)
    reference, _ = gen_three_coherent()
    assert np.array_equal(dataset.inputs, reference.inputs)
    meta = dataio.read_json(tmp_path / "three.csv.meta.json")
    assert meta["example"] == "three-coherent"
    assert len(meta["default_labels"]) == 100


def test_cli_generate_requires_example(tmp_path):
    assert main(["generate", "--out", str(tmp_path / "x.csv")]) == 2


def test_cli_refuses_a_gyre_sample_above_the_point_cap(tmp_path, capsys, monkeypatch):
    """At zero steps the point-step cap passes any sample; the point cap
    refuses 2048 x 40 000 points with exit 2 before any is drawn."""
    monkeypatch.setattr(cli, "gen_double_gyre", lambda config: pytest.fail("sample drawn"))
    assert main(["generate", "--example", "double-gyre", "--t1", "0", "--points-per-box",
                 "40000", "--out", str(tmp_path / "gyre.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: 81920000 points exceed the cap of 16777216 sampled points\n")
    assert not any(tmp_path.iterdir())


def test_cli_compare_deterministic_bytes(tmp_path):
    first_dir = tmp_path / "a"
    second_dir = tmp_path / "b"
    first_dir.mkdir()
    second_dir.mkdir()
    argv = ["compare", "--example", "three-coherent", "--runs", "8", "--out"]
    assert main(argv + [str(first_dir / "report.json")]) == 0
    assert main(argv + [str(second_dir / "report.json")]) == 0
    first = dataio.read_json(first_dir / "report.json")
    second = dataio.read_json(second_dir / "report.json")
    # reports agree except for the directories baked into the image paths
    first_images = first.pop("images")
    second_images = second.pop("images")
    assert dataio.canonical_json(first) == dataio.canonical_json(second)
    for one, two in zip(sorted(first_images), sorted(second_images)):
        assert open(one, "rb").read() == open(two, "rb").read()
    for key in ("dataset", "singular_values", "likelihoods", "bound",
                "partitions", "classical", "diagnostics"):
        assert key in first
    assert first["singular_values"]["full_sigma2"] == pytest.approx(1.0, abs=1e-9)
    # serialization is canonical: parse and re-serialize reproduces the bytes
    full = dataio.read_json(first_dir / "report.json")
    assert dataio.canonical_json(full).encode() == (first_dir / "report.json").read_bytes()


def test_cli_compare_writes_images(tmp_path):
    out = tmp_path / "report.json"
    assert main(["compare", "--example", "three-coherent", "--runs", "4",
                 "--out", str(out)]) == 0
    report = dataio.read_json(out)
    assert sorted(report["images"]) == [
        str(tmp_path / "report.P.ppm"),
        str(tmp_path / "report.dbmr.ppm"),
        str(tmp_path / "report.svd.ppm"),
    ]
    for image in report["images"]:
        head = open(image, "rb").read(15)
        assert head == b"P6\n101 101\n255\n"


def test_cli_compare_no_images(tmp_path):
    out = tmp_path / "report.json"
    assert main(["compare", "--example", "interval-map", "--runs", "3",
                 "--no-images", "--out", str(out)]) == 0
    report = dataio.read_json(out)
    assert "images" not in report
    assert report["likelihoods"]["default"] == pytest.approx(-27549.70, abs=0.01)


def test_cli_compare_rank_below_default_classes(tmp_path):
    # the three-coherent default partition has three classes; rank 2 must
    # still reduce with it rather than reject its labels
    out = tmp_path / "report.json"
    assert main(["compare", "--example", "three-coherent", "--rank", "2",
                 "--runs", "5", "--no-images", "--out", str(out)]) == 0
    report = dataio.read_json(out)
    assert report["likelihoods"]["default"] is not None
    assert report["likelihoods"]["default"] <= report["likelihoods"]["reference"] + 1e-9
    assert len(report["singular_values"]["full"]) == 3


def test_cli_compare_reads_files(tmp_path):
    pairs_path = tmp_path / "data.csv"
    dataset, _ = gen_interval_map()
    dataio.write_pairs(pairs_path, dataset)
    counts_path = tmp_path / "data.txt"
    dataio.write_counts(counts_path, ingest_pairs(dataset))
    for source in (pairs_path, counts_path):
        out = tmp_path / (source.stem + ".json")
        assert main(["compare", str(source), "--runs", "2", "--no-images",
                     "--out", str(out)]) == 0
        report = dataio.read_json(out)
        assert report["provenance"]["source"] == str(source)
        assert report["dataset"]["n_inputs"] == 90


def test_cli_multirun_tables(tmp_path, capsys):
    base = tmp_path / "runs"
    assert main(["multirun", "--example", "interval-map", "--runs", "5",
                 "--trace", "--out", str(base)]) == 0
    assert "best run" in capsys.readouterr().out
    summary = dataio.read_json(tmp_path / "runs.json")
    assert summary["runs"] == 5
    assert 0 <= summary["best_run"] < 5
    runs_lines = (tmp_path / "runs.runs.csv").read_text().strip().splitlines()
    assert len(runs_lines) == 6
    assert runs_lines[0].startswith("run,objective,frob_gap_sq,coherence,converged,iterations")
    trace_lines = (tmp_path / "runs.trace.csv").read_text().strip().splitlines()
    assert trace_lines[0].split(",")[:3] == ["run", "step", "objective"]
    by_run = {}
    for line in trace_lines[1:]:
        fields = line.split(",")
        by_run.setdefault(int(fields[0]), []).append(float(fields[2]))
        assert by_run[int(fields[0])] == sorted(by_run[int(fields[0])])
    assert set(by_run) == set(range(5))


README = Path(__file__).resolve().parents[1] / "README.md"
COMPARE_KEYS = {"bound", "classical", "dataset", "diagnostics", "images", "likelihoods",
                "partitions", "provenance", "singular_values"}
FIT_OPTIONS = {"rank", "runs", "seed", "max_steps", "tol"}
EXAMPLE_PROVENANCE = {"source", "example", "epsilon", "seed"}
MULTIRUN_KEYS = FIT_OPTIONS | {"best_run", "best_objective", "best", "run_table",
                               "provenance", "diagnostics"}
GYRE_META_KEYS = {"example", "amplitude", "delta", "omega", "t_start", "t_end", "step", "nx",
                  "ny", "points_per_box", "rho", "seed", "sample_size", "clamped_endpoints",
                  "max_boundary_drift", "input_range", "output_range"}
BOUND_KEYS = {"kappa_diff", "kappa_col", "kappa_prior", "kappa_post", "kappa_post_tag",
              "col_usable", "max_deviation", "kappa_choice", "kappa_value", "kappa_tag",
              "frob_gap_sq", "kl_form", "likelihood_form", "coherence_bound"}
BOUNDS_KEYS = {"provenance", "bound", "factorization_residuals", "pythagoras"}
RESIDUAL_KEYS = {"factorization", "input_fixed", "output_marginal"}
PYTHAGORAS_KEYS = {"gap_sq", "norm_difference"}
RUNS_COLUMNS = {"run", "objective", "frob_gap_sq", "coherence", "converged", "iterations"}
TRACE_COLUMNS = {"run", "step", "objective", "frob_gap_sq", "approx_norm_sq", "coherence"}


def _csv_columns(path):
    """The header of a CSV file, with its ``sigma_<k>`` columns checked to run
    ``sigma_1``, ``sigma_2``, ... and named by that pattern once."""
    header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
    sigma = [column for column in header if re.fullmatch(r"sigma_\d+", column)]
    assert sigma == [f"sigma_{k}" for k in range(1, len(sigma) + 1)]
    return {column for column in header if column not in sigma} | ({"sigma_<k>"} if sigma else set())


def test_output_keys_match_the_readme_schema(tmp_path):
    """The compare report (top level, provenance and bound), the multirun
    summary and CSV headers, the bounds payload and its sections, and the
    double-gyre sidecar hold exactly the keys the README's report schema
    names: a key it does not document fails here."""
    schema = README.read_text(encoding="utf-8").split("## Report schema\n", 1)[1]
    documented = set(re.findall(r"`(\w+|sigma_<k>)`", schema.split("\n## ", 1)[0]))
    example = ["--example", "three-coherent", "--runs", "2"]
    assert main(["compare", *example, "--out", str(tmp_path / "report.json")]) == 0
    assert main(["multirun", *example, "--trace", "--out", str(tmp_path / "runs")]) == 0
    assert main(["bounds", "--example", "three-coherent", "--out", str(tmp_path / "bounds.json")]) == 0
    assert main(["generate", "--example", "double-gyre", "--t1", "0.1", "--points-per-box", "1",
                 "--out", str(tmp_path / "gyre.csv")]) == 0
    report = dataio.read_json(tmp_path / "report.json")
    summary = dataio.read_json(tmp_path / "runs.json")
    bounds = dataio.read_json(tmp_path / "bounds.json")
    outputs = {
        "compare": (report, COMPARE_KEYS),
        "compare provenance": (report["provenance"], EXAMPLE_PROVENANCE | FIT_OPTIONS),
        "compare bound": (report["bound"], BOUND_KEYS),
        "multirun": (summary, MULTIRUN_KEYS),
        "multirun provenance": (summary["provenance"], EXAMPLE_PROVENANCE),
        "runs.csv": (_csv_columns(tmp_path / "runs.runs.csv"), RUNS_COLUMNS | {"sigma_<k>"}),
        "trace.csv": (_csv_columns(tmp_path / "runs.trace.csv"), TRACE_COLUMNS),
        "bounds": (bounds, BOUNDS_KEYS),
        "bounds provenance": (bounds["provenance"], EXAMPLE_PROVENANCE),
        "bounds bound": (bounds["bound"], BOUND_KEYS),
        "bounds factorization_residuals": (bounds["factorization_residuals"], RESIDUAL_KEYS),
        "bounds pythagoras": (bounds["pythagoras"], PYTHAGORAS_KEYS),
        "double-gyre sidecar": (dataio.read_json(tmp_path / "gyre.csv.meta.json"), GYRE_META_KEYS),
    }
    for name, (output, keys) in outputs.items():
        assert set(output) == keys, name
        assert keys <= documented, (name, keys - documented)


def test_readme_python_quick_start_prints_its_commented_values(capsys):
    """The README's Python quick start runs, and each printed value rounds to
    its comment at two decimals."""
    quick_start = README.read_text(encoding="utf-8").split("## Quick start\n", 1)[1]
    code = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    capsys.readouterr()
    checks = re.findall(r"^print\((.+)\)\s+# (?:about )?(.+)$", code, re.MULTILINE)
    assert len(checks) == 2
    for expression, comment in checks:
        value = np.asarray(eval(expression, namespace), dtype=np.float64)
        assert np.round(value, 2).tolist() == ast.literal_eval(comment), expression


def _compare_provenance(tmp_path, flag, value):
    out = tmp_path / "report.json"
    assert main(["compare", "--example", "three-coherent", "--runs", "2", "--no-images",
                 flag, value, "--out", str(out)]) == 0
    return dataio.read_json(out)["provenance"]


def _gyre_sidecar(tmp_path, flag, value):
    out = tmp_path / "gyre.csv"
    assert main(["generate", "--example", "double-gyre", "--t1", "1", "--points-per-box", "1",
                 flag, value, "--out", str(out)]) == 0
    return dataio.read_json(tmp_path / "gyre.csv.meta.json")


def _render_strips(tmp_path, flag, value):
    """Whether the input and output strips of a render of a file without a
    sidecar hold any colored pixel, with and without ``flag``."""
    data, labels = tmp_path / "data.csv", tmp_path / "labels.txt"
    dataset, _ = gen_three_coherent()
    dataio.write_pairs(data, dataset)
    dataio.write_labels(labels, np.arange(100) % 4 + 1, 4)
    colored = {}
    for name, extra in (("bare", []), ("labels", [flag, str(labels)])):
        out = tmp_path / f"{name}.ppm"
        assert main(["render", str(data), *extra, "--out", str(out)]) == 0
        pixels = np.frombuffer(out.read_bytes()[15:], dtype=np.uint8).reshape(101, 101, 3)
        colored[name] = bool((pixels[:100, 0] != 255).any() and (pixels[100, 1:] != 255).any())
    return colored


_FLAG_CASES = [
    (_compare_provenance, "--epsilon", "2", "epsilon", 2),
    (_compare_provenance, "--hmax", "7", "max_steps", 7),
    (_compare_provenance, "--tol", "0.5", "tol", 0.5),
    (_gyre_sidecar, "--A", "0.2", "amplitude", 0.2),
    (_gyre_sidecar, "--delta", "0.1", "delta", 0.1),
    (_gyre_sidecar, "--omega", "3.0", "omega", 3.0),
    (_gyre_sidecar, "--t0", "0.5", "t_start", 0.5),
    (_gyre_sidecar, "--step", "0.05", "step", 0.05),
    (_gyre_sidecar, "--rho", "0.04", "rho", 0.04),
    (_gyre_sidecar, "--seed", "4", "seed", 4),
    (_render_strips, "--labels", None, "labels", True),
]


@pytest.mark.parametrize("read, flag, value, key, expected", _FLAG_CASES,
                         ids=[case[1][2:] for case in _FLAG_CASES])
def test_cli_flags_reach_where_they_are_recorded(tmp_path, read, flag, value, key, expected):
    """Each flag no other test sets shows up where its command records it;
    ``render --labels`` colors the strips of a file that has no sidecar."""
    recorded = read(tmp_path, flag, value)
    assert recorded[key] == expected
    if read is _render_strips:
        assert recorded["bare"] is False


_UNREAD_CASES = [
    (["generate", "--example", "double-gyre", "--epsilon", "3"],
     "--epsilon is not read with --example double-gyre"),
    (["generate", "--example", "three-coherent", "--rho", "0.5", "--A", "9"],
     "--A, --rho are not read with --example three-coherent"),
    (["compare", "DATA", "--t1", "2"], "--t1 is not read with a data file"),
    (["bounds", "DATA", "--epsilon", "0"], "--epsilon is not read with a data file"),
    (["render", "DATA", "--points-per-box", "4", "--omega", "1"],
     "--omega, --points-per-box are not read with a data file"),
    (["multirun", "DATA", "--example", "interval-map"],
     "give a data file or --example, not both"),
    (["generate", "--example", "three-coherent", "--seed", "9"],
     "--seed is not read with --example three-coherent at epsilon 0"),
    (["bounds", "DATA", "--seed", "7"], "--seed is not read with a data file"),
    (["bounds", "--example", "interval-map", "--epsilon", "0", "--seed", "7"],
     "--seed is not read with --example interval-map at epsilon 0"),
    (["render", "DATA", "--seed", "7"], "--seed is not read with a data file"),
    (["render", "--example", "three-coherent", "--A", "1", "--seed", "7"],
     "--A, --seed are not read with --example three-coherent at epsilon 0"),
]


@pytest.mark.parametrize("argv, message", _UNREAD_CASES,
                         ids=["gyre-epsilon", "categorical-gyre", "file-t1", "file-epsilon",
                              "file-gyre", "file-example", "generate-categorical-seed",
                              "bounds-file-seed", "bounds-categorical-seed", "render-file-seed",
                              "render-categorical-seed"])
def test_cli_refuses_flags_the_input_never_reads(tmp_path, capsys, argv, message):
    """Exit 2 with one line naming the flags, and write nothing."""
    data = tmp_path / "data.csv"
    dataio.write_pairs(data, gen_three_coherent()[0])
    argv = [str(data) if arg == "DATA" else arg for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["data.csv"]


def test_cli_bounds_stdout(capsys):
    import json

    assert main(["bounds", "--example", "interval-map"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"]["kappa_value"] == pytest.approx(1 / 30, abs=1e-12)
    assert payload["bound"]["frob_gap_sq"] == pytest.approx(27.0, abs=1e-9)
    assert payload["pythagoras"]["gap_sq"] == pytest.approx(27.0, abs=1e-9)
    assert payload["factorization_residuals"]["factorization"] < 1e-12


def test_cli_bounds_labels_file(tmp_path):
    pairs_path = tmp_path / "data.csv"
    dataset, _ = gen_three_coherent()
    dataio.write_pairs(pairs_path, dataset)
    labels_path = tmp_path / "labels.txt"
    dataio.write_labels(labels_path, np.repeat([1, 2, 3], [25, 25, 50]), 3)
    out = tmp_path / "bound.json"
    assert main(["bounds", str(pairs_path), str(labels_path),
                 "--kappa", "q2", "--out", str(out)]) == 0
    payload = dataio.read_json(out)
    assert payload["bound"]["kappa_choice"] == "q2"
    assert payload["bound"]["kappa_value"] == pytest.approx(0.15625, abs=1e-12)


def test_cli_sidecar_labels_cover_all_or_the_kept_inputs(tmp_path):
    """Default labels from a sidecar follow the labels file's rule: they cover
    every declared input or only the kept ones, and the two give one report."""
    dataset = PairDataset(inputs=np.array([1, 1, 2, 3, 3, 5]),
                          outputs=np.array([1, 2, 2, 3, 1, 3]), n_inputs=5, n_outputs=3)
    reports = []
    for name, labels in (("all", [1, 1, 2, 2, 2]), ("kept", [1, 1, 2, 2]), ("neither", [1, 2])):
        pairs_path = tmp_path / f"{name}.csv"
        dataio.write_pairs(pairs_path, dataset)
        dataio.write_json(tmp_path / f"{name}.csv.meta.json", {"default_labels": labels})
        out = tmp_path / f"{name}.json"
        code = main(["bounds", str(pairs_path), "--out", str(out)])
        if name == "neither":
            assert code == 2
        else:
            assert code == 0
            payload = dataio.read_json(out)
            reports.append((payload["bound"], payload["factorization_residuals"]))
    assert reports[0] == reports[1]


def test_cli_multirun_does_not_read_sidecar_labels(tmp_path, capsys):
    """Sidecar default labels that cover neither all nor the kept inputs stop
    compare, which reads them, and not multirun, which does not."""
    dataset = PairDataset(inputs=np.array([1, 1, 2, 3, 3, 5]),
                          outputs=np.array([1, 2, 2, 3, 1, 5]), n_inputs=5, n_outputs=5)
    pairs_path = tmp_path / "data.csv"
    dataio.write_pairs(pairs_path, dataset)
    dataio.write_json(tmp_path / "data.csv.meta.json", {"default_labels": [1, 2]})
    assert main(["multirun", str(pairs_path), "--rank", "2", "--runs", "3",
                 "--out", str(tmp_path / "multi")]) == 0
    assert (tmp_path / "multi.runs.csv").exists()
    capsys.readouterr()
    assert main(["compare", str(pairs_path), "--rank", "2", "--runs", "3", "--no-images",
                 "--out", str(tmp_path / "compare.json")]) == 2
    assert capsys.readouterr().err == (
        "error: default labels cover 2 inputs, expected 5 (or 4 after pruning)\n")


_NON_FINITE_CASES = [
    ["compare", "--example", "three-coherent", "--runs", "2", "--no-images", "--tol", "nan"],
    ["multirun", "--example", "three-coherent", "--runs", "2", "--tol", "nan"],
    *(["generate", "--example", "double-gyre", flag, value] for flag, value in (
        ("--A", "nan"), ("--delta", "nan"), ("--omega", "nan"), ("--t1", "inf"),
        ("--t0", "nan"), ("--step", "nan"))),
]


@pytest.mark.parametrize("argv", _NON_FINITE_CASES,
                         ids=["compare-tol", "multirun-tol", "A", "delta", "omega", "t1", "t0",
                              "step"])
def test_cli_refuses_non_finite_numbers(tmp_path, argv):
    """A NaN or infinite number is refused: exit 2 with one error line and
    nothing else on stderr, no traceback and no warning."""
    result = subprocess.run(
        [sys.executable, "-m", "cohsets", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert re.fullmatch(r"error: [^\n]*(nan|inf)\n", result.stderr), result.stderr


def test_cli_reads_a_negative_value_in_exponent_form(tmp_path):
    """--t0 -1e-3 runs as --t0=-1e-3 does: argparse alone takes a token that
    starts with - for an option unless it looks like -1 or -0.5."""
    for name, t0 in (("spaced", ["--t0", "-1e-3"]), ("attached", ["--t0=-1e-3"])):
        assert main(["generate", "--example", "double-gyre", *t0, "--t1", "0.009",
                     "--points-per-box", "1", "--out", str(tmp_path / f"{name}.csv")]) == 0
    for suffix in (".csv", ".csv.meta.json"):
        spaced, attached = (tmp_path / f"{name}{suffix}" for name in ("spaced", "attached"))
        assert spaced.read_bytes() == attached.read_bytes()


@pytest.mark.parametrize("command", ["compare", "multirun"])
def test_cli_negative_infinite_tol_reaches_the_tol_check(tmp_path, capsys, command):
    """--tol -inf exits 2 with the tolerance check's own line, not with
    argparse's 'expected one argument'."""
    assert main([command, "--example", "three-coherent", "--runs", "2", "--tol", "-inf",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: tol must be nonnegative, not -inf\n"


def test_cli_seed_is_read_where_something_draws(tmp_path):
    """A categorical example at positive epsilon draws its noise from --seed."""
    records = {}
    for seed in ("0", "3"):
        out = tmp_path / f"seed{seed}.csv"
        assert main(["generate", "--example", "three-coherent", "--epsilon", "1",
                     "--seed", seed, "--out", str(out)]) == 0
        assert dataio.read_json(tmp_path / f"seed{seed}.csv.meta.json")["seed"] == int(seed)
        records[seed] = out.read_bytes()
    assert records["0"] != records["3"]


def test_cli_bounds_requires_labels(tmp_path):
    pairs_path = tmp_path / "data.csv"
    dataset, _ = gen_three_coherent()
    dataio.write_pairs(pairs_path, dataset)
    assert main(["bounds", str(pairs_path)]) == 2


def test_cli_render(tmp_path):
    out = tmp_path / "matrix.ppm"
    assert main(["render", "--example", "three-coherent", "--out", str(out)]) == 0
    assert out.read_bytes()[:15] == b"P6\n101 101\n255\n"
    bare = tmp_path / "bare.ppm"
    pairs_path = tmp_path / "data.csv"
    dataset, _ = gen_interval_map()
    dataio.write_pairs(pairs_path, dataset)
    assert main(["render", str(pairs_path), "--out", str(bare)]) == 0
    assert bare.read_bytes()[:13] == b"P6\n91 91\n255\n"


def test_cli_exit_codes(tmp_path):
    assert main(["compare", str(tmp_path / "missing.csv")]) == 2
    assert main(["compare", "--example", "three-coherent", "--rank", "0",
                 "--runs", "1", "--no-images", "--out", str(tmp_path / "r.json")]) == 2
    assert main(["bounds", "--example", "three-coherent",
                 "--out", str(tmp_path / "nope" / "deep.json")]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", "--example", "unknown"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_cli_compare_refuses_rank_zero_before_factorizing(tmp_path, capsys, monkeypatch):
    from cohsets import svd

    monkeypatch.setattr(svd, "full_svd", lambda *args, **kwargs: pytest.fail("factorized"))
    assert main(["compare", "--example", "three-coherent", "--rank", "0", "--runs", "1",
                 "--no-images", "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: rank must be positive, got 0\n"


def test_cli_compare_exits_3_when_a_singular_value_grows(tmp_path, capsys, monkeypatch):
    """A reduced singular value above the full one is a numerical failure."""
    from cohsets import report

    spectrum = report.reduced_singular_values
    monkeypatch.setattr(report, "reduced_singular_values", lambda *args: spectrum(*args) + 1e-6)
    out = tmp_path / "r.json"
    assert main(["compare", "--example", "three-coherent", "--runs", "2",
                 "--no-images", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: reduced singular values")
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--trace"]], ids=["finals", "trace"])
def test_cli_multirun_exits_3_when_a_singular_value_grows(tmp_path, capsys, monkeypatch, flags):
    """multirun checks every row of its spectra, each final reduction's or,
    with --trace, each iterate's, against the full model's leading values:
    one inflated row is a numerical failure."""
    from cohsets import report

    spectrum = report.reduced_singular_values

    def inflated(*args):
        sigma = spectrum(*args)
        sigma[-1] += 1e-6
        return sigma

    monkeypatch.setattr(report, "reduced_singular_values", inflated)
    base = tmp_path / "runs"
    assert main(["multirun", "--example", "three-coherent", "--runs", "3", *flags,
                 "--out", str(base)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: reduced singular values")
    assert list(tmp_path.iterdir()) == []


def test_cli_multirun_exits_3_when_a_run_beats_the_full_model(tmp_path, capsys, monkeypatch):
    """A restart whose final objective exceeds the full model's likelihood
    is a numerical failure: a reduction is a projection of the full model."""
    import dataclasses

    from cohsets import report

    ascend = report.multi_start

    def raised(counts, *args, **kwargs):
        best, best_run, traces = ascend(counts, *args, **kwargs)
        lifted = counts.full_log_likelihood + 1e-6 - traces[-1].objectives[-1]
        traces[-1] = dataclasses.replace(traces[-1], objectives=traces[-1].objectives + lifted)
        return best, best_run, traces

    monkeypatch.setattr(report, "multi_start", raised)
    base = tmp_path / "runs"
    assert main(["multirun", "--example", "three-coherent", "--runs", "3",
                 "--out", str(base)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: reduced likelihood (run 2)")
    assert not (tmp_path / "runs.json").exists()


def test_cli_bounds_exits_3_when_pythagoras_fails(capsys, monkeypatch):
    from cohsets import report

    check = report.pythagoras_check
    monkeypatch.setattr(report, "pythagoras_check",
                        lambda *stack: (check(*stack)[0] + 1e-6, check(*stack)[1]))
    assert main(["bounds", "--example", "interval-map"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: squared gap")


def test_cli_bounds_exits_3_when_the_factorization_fails(capsys, monkeypatch):
    from cohsets import report

    verify = report.verify_factorization
    monkeypatch.setattr(report, "verify_factorization",
                        lambda *stack: verify(*stack) | {"input_fixed": np.array([1e-6])})
    assert main(["bounds", "--example", "interval-map"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: factorization residuals")


def _raise_residuals(monkeypatch, of_stack):
    """Make the factorization residuals of each stack whose row count
    satisfies ``of_stack`` read 1e-6, above the identities' tolerance."""
    from cohsets import report

    verify = report.verify_factorization

    def raised(counts, factors, labels):
        residuals = verify(counts, factors, labels)
        if of_stack(len(factors)):
            residuals["factorization"] = np.full(len(factors), 1e-6)
        return residuals

    monkeypatch.setattr(report, "verify_factorization", raised)


@pytest.mark.parametrize("rows", [2, 1], ids=["svd-and-dbmr", "default"])
def test_cli_compare_exits_3_when_a_reduction_misses_the_fixed_point(tmp_path, capsys,
                                                                     monkeypatch, rows):
    """compare checks its svd and dbmr reductions as one stack of two and the
    default partition's as a stack of one."""
    _raise_residuals(monkeypatch, lambda size: size == rows)
    out = tmp_path / "report.json"
    assert main(["compare", "--example", "three-coherent", "--runs", "3", "--no-images",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: factorization residuals")
    assert not out.exists()


def test_cli_compare_exits_3_when_pythagoras_fails(tmp_path, capsys, monkeypatch):
    """compare holds the bound chain's direct gap of the best reduction
    against its Pythagoras form."""
    from cohsets import report

    check = report.pythagoras_check
    monkeypatch.setattr(report, "pythagoras_check",
                        lambda *stack: (check(*stack)[0] + 1e-6, check(*stack)[1]))
    out = tmp_path / "report.json"
    assert main(["compare", "--example", "three-coherent", "--epsilon", "3", "--runs", "3",
                 "--no-images", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: squared gap")
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--trace"]], ids=["finals", "trace"])
def test_cli_multirun_exits_3_when_a_reduction_misses_the_fixed_point(tmp_path, capsys,
                                                                      monkeypatch, flags):
    """multirun checks its 3 final reductions as one stack or, with --trace,
    every iterate, finals included, as one stack of more rows: each run takes
    at least its initial iterate and one update."""
    _raise_residuals(monkeypatch, (lambda size: size > 3) if flags else (lambda size: size == 3))
    base = tmp_path / "runs"
    assert main(["multirun", "--example", "three-coherent", "--runs", "3", *flags,
                 "--out", str(base)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: factorization residuals")
    assert list(tmp_path.iterdir()) == []


def _degenerate_sources(tmp_path):
    """(name, source arguments, rank, labels file or None) of the degenerate inputs."""
    single = tmp_path / "single.csv"
    single.write_text("# n=1 m=1\n1,1\n1,1\n", encoding="utf-8")
    declared = tmp_path / "declared.csv"
    declared.write_text("# n=1000000 m=1000000\n1,1\n500000,2\n1000000,1000000\n",
                        encoding="utf-8")
    single_labels, declared_labels, wide_labels = (
        tmp_path / f"{name}.labels.txt" for name in ("single", "declared", "wide"))
    dataio.write_labels(single_labels, np.ones(1, dtype=int), 1)
    dataio.write_labels(declared_labels, np.array([1, 2, 2]), 2)
    # 96 latent states over the interval map's 90 inputs: six stay empty
    dataio.write_labels(wide_labels, np.arange(1, 91), 96)
    return [
        ("exact-fit", ["--example", "three-coherent"], 3, None),
        ("single-category", [str(single)], 1, single_labels),
        ("rank-above-n", ["--example", "interval-map"], 96, wide_labels),
        ("declared-wide", [str(declared)], 2, declared_labels),
    ]


def test_cli_degenerate_inputs_pass_every_identity(tmp_path, capsys, monkeypatch):
    """On each degenerate input compare, multirun --trace and bounds exit 0
    with every reduction they report checked, or exit 2 with one error line."""
    from cohsets import report

    verify, checked = report.verify_factorization, []

    def counted(counts, factors, labels):
        checked.append(len(factors))
        return verify(counts, factors, labels)

    monkeypatch.setattr(report, "verify_factorization", counted)
    outcomes = {}
    for name, source, rank, labels in _degenerate_sources(tmp_path):
        out = tmp_path / name
        commands = {
            "compare": ["compare", *source, "--rank", str(rank), "--runs", "3", "--no-images",
                        "--out", str(out.with_suffix(".json"))],
            "multirun": ["multirun", *source, "--rank", str(rank), "--runs", "3", "--trace",
                         "--out", str(out)],
            "bounds": ["bounds", *source, *([str(labels)] if labels else []),
                       "--out", str(out.with_suffix(".bounds.json"))],
        }
        for command, argv in commands.items():
            checked.clear()
            code = main(argv)
            err = capsys.readouterr().err
            outcomes[name, command] = code
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
                continue
            assert (code, err) == (0, ""), (name, command, err)
            if command == "compare":
                has_default = dataio.read_json(out.with_suffix(".json"))["likelihoods"]["default"]
                assert checked == ([2] if has_default is None else [2, 1]), (name, checked)
            elif command == "multirun":
                trace_csv = out.with_name(name + ".trace.csv").read_text(encoding="utf-8")
                trace_rows = len(trace_csv.splitlines()) - 1
                assert checked == [trace_rows], (name, checked)
            else:
                assert checked == [1], (name, checked)
    # only compare at a rank above the inputs' 90 is refused
    assert [key for key, code in outcomes.items() if code] == [("rank-above-n", "compare")]


def test_cli_compare_bytes_do_not_depend_on_blas_threads(tmp_path):
    """One and two BLAS threads write the same report bytes."""
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.json"
        subprocess.run(
            [sys.executable, "-m", "cohsets", "compare", "--example", "three-coherent",
             "--epsilon", "3", "--runs", "5", "--no-images", "--out", str(out)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), capture_output=True, check=True,
        )
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_cli_bounds_reads_a_lone_positional_with_example_as_labels(tmp_path, capsys):
    """bounds [DATA] [LABELS]: with --example the one positional is the labels file."""
    labels_path = tmp_path / "labels.txt"
    dataio.write_labels(labels_path, np.repeat([1, 2, 3, 4], 25), 4)
    pairs_path = tmp_path / "data.csv"
    dataio.write_pairs(pairs_path, gen_three_coherent()[0])
    reports = []
    for source in (["--example", "three-coherent"], [str(pairs_path)]):
        out = tmp_path / f"bounds{len(reports)}.json"
        assert main(["bounds", *source, str(labels_path), "--out", str(out)]) == 0
        payload = dataio.read_json(out)
        del payload["provenance"]
        reports.append(payload)
    assert reports[0] == reports[1]
    # 100 inputs in four classes of 25, not the example's default three classes
    assert reports[0]["bound"]["frob_gap_sq"] > 0.0
    capsys.readouterr()
    assert main(["bounds", "--example", "three-coherent", str(pairs_path),
                 str(labels_path)]) == 2
    assert capsys.readouterr().err == "error: give a data file or --example, not both\n"


@pytest.mark.parametrize("flags", [["--t1", "1e300"], ["--step", "1e-300"]], ids=["t1", "step"])
def test_cli_refuses_gyre_requests_above_the_point_step_cap(tmp_path, capsys, monkeypatch,
                                                            flags):
    """About 10^302 RK4 steps are refused with exit 2 and one line, before
    anything is integrated."""
    from cohsets import _accel

    def integrate(*args):
        raise AssertionError("advected")

    monkeypatch.setattr(_accel, "advect_rk4", integrate)
    assert main(["generate", "--example", "double-gyre", *flags, "--points-per-box", "1",
                 "--out", str(tmp_path / "gyre.csv")]) == 2
    assert re.fullmatch(r"error: [^\n]* point-steps\n", capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_cli_module_entry_point(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "cohsets", "render", "--example", "interval-map",
         "--out", str(tmp_path / "m.ppm")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "m.ppm").exists()


def test_cli_mismatched_labels_width(tmp_path):
    pairs_path = tmp_path / "data.csv"
    dataset, _ = gen_three_coherent()
    dataio.write_pairs(pairs_path, dataset)
    labels_path = tmp_path / "labels.txt"
    dataio.write_labels(labels_path, np.ones(7, dtype=int), 1)
    assert main(["bounds", str(pairs_path), str(labels_path)]) == 2


def _cli_capped(args, cap=2 << 30):
    """Run the CLI in a child process capped at ``cap`` bytes of address space."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, "-m", "cohsets", *args], capture_output=True, text=True,
        preexec_fn=limit, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), timeout=300,
    )


def test_cli_declared_shape_is_not_allocated(tmp_path):
    """Files that declare 10^6 x 10^6 categories but hold three records are
    counted over the categories that occur: the capped child exits 0, or 2
    with a message, never with a traceback."""
    pairs_path = tmp_path / "wide.csv"
    pairs_path.write_text("# n=1000000 m=1000000\nx,y\n1,1\n500000,2\n1000000,1000000\n",
                          encoding="utf-8")
    counts_path = tmp_path / "wide.txt"
    counts_path.write_text("1000000 1000000 3\n1 1 1\n2 500000 1\n1000000 1000000 1\n",
                           encoding="utf-8")
    for source in (pairs_path, counts_path):
        result = _cli_capped(["compare", str(source), "--rank", "1", "--runs", "2",
                              "--no-images", "--out", str(tmp_path / "wide.json")])
        assert result.returncode == 0 or (
            result.returncode == 2 and "Traceback" not in result.stderr
        ), result.stderr


def _occurring_pairs(path, categories, records):
    """Write a pairs file in which all ``categories`` inputs and outputs occur."""
    rng = np.random.default_rng(categories)
    inputs, outputs = (rng.permutation(np.arange(records) % categories) + 1 for _ in range(2))
    dataio.write_pairs(path, PairDataset(inputs=inputs, outputs=outputs,
                                         n_inputs=categories, n_outputs=categories))


def test_cli_refuses_images_of_a_huge_shape(tmp_path, monkeypatch):
    """Above ``report.MAX_IMAGE_CELLS`` entries, compare without --no-images
    and render exit 2 with a message naming --no-images, before any pipeline
    runs."""
    pairs_path = tmp_path / "wide.csv"
    _occurring_pairs(pairs_path, 4097, 4097)
    monkeypatch.setattr(cli, "compare_experiment", lambda *args, **kwargs: pytest.fail("ran"))
    monkeypatch.setattr(cli, "reduce_with_affiliation", lambda *args: pytest.fail("ran"))
    for args in (["compare", str(pairs_path), "--out", str(tmp_path / "r.json")],
                 ["render", str(pairs_path), "--out", str(tmp_path / "m.ppm")]):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(args) == 2
        assert "--no-images" in stderr.getvalue()
    assert not any(tmp_path.glob("*.json")) and not any(tmp_path.glob("*.ppm"))


@pytest.mark.slow
def test_cli_compare_memory_follows_the_records(tmp_path):
    """100 000 records whose 20 000 inputs and outputs all occur: compare
    --no-images runs under a 3 GiB address-space cap, where the dense
    20 000 x 20 000 counts alone would take 3.2 GB; with images it exits 2
    with a message and no traceback."""
    pairs_path = tmp_path / "wide.csv"
    _occurring_pairs(pairs_path, 20_000, 100_000)
    args = ["compare", str(pairs_path), "--runs", "5", "--out", str(tmp_path / "wide.json")]
    result = _cli_capped([*args, "--no-images"], cap=3 << 30)
    assert result.returncode == 0, result.stderr
    assert dataio.read_json(tmp_path / "wide.json")["diagnostics"]["count_nonzeros"] > 90_000
    result = _cli_capped(args, cap=3 << 30)
    assert result.returncode == 2, result.stderr
    assert "--no-images" in result.stderr and "Traceback" not in result.stderr


def test_cli_counts_file_keeps_occurring_categories(tmp_path):
    """Zero entries and unused categories of a counts file are pruned, as
    ``prune_empty`` prunes the dense matrix."""
    counts_path = tmp_path / "sparse.txt"
    counts_path.write_text("5 6 12\n1 2 4\n4 2 3\n4 5 5\n2 3 0\n", encoding="utf-8")
    out = tmp_path / "sparse.json"
    assert main(["compare", str(counts_path), "--rank", "1", "--runs", "2",
                 "--no-images", "--out", str(out)]) == 0
    dataset = dataio.read_json(out)["dataset"]
    assert dataset["kept_outputs"] == [1, 4]
    assert dataset["kept_inputs"] == [2, 5]


def test_cli_verbose_logs_anomalies(tmp_path):
    """--verbose shows the package's DEBUG anomalies, here an inactive latent state."""
    pairs_path = tmp_path / "data.csv"
    dataio.write_pairs(pairs_path, gen_three_coherent()[0])
    labels_path = tmp_path / "labels.txt"
    dataio.write_labels(labels_path, np.repeat([1, 2, 3], [25, 25, 50]), 4)
    for flags, logged in ((["--verbose"], True), ([], False)):
        result = subprocess.run(
            [sys.executable, "-m", "cohsets", *flags, "bounds", str(pairs_path),
             str(labels_path), "--out", str(tmp_path / "bounds.json")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert ("inactive latent states (4,)" in result.stderr) == logged


def test_cli_verbose_logs_each_read(tmp_path):
    """--verbose logs one INFO line per data file read; the report bytes are
    the same with and without it, and without it stderr stays empty."""
    pairs_path = tmp_path / "data.csv"
    dataio.write_pairs(pairs_path, gen_three_coherent()[0])
    labels_path = tmp_path / "labels.txt"
    dataio.write_labels(labels_path, np.repeat([1, 2, 3], [25, 25, 50]), 3)
    counts_path = tmp_path / "counts.txt"
    counts_path.write_text("5 6 12\n1 2 4\n4 2 3\n4 5 5\n2 3 0\n", encoding="utf-8")
    runs = {
        r"read pairs file \S+: 25000 records, 0\.\d MB in \d+\.\d{3} s": (
            "bounds", str(pairs_path), str(labels_path)),
        r"read counts file \S+: 3 entries, 0\.0 MB in \d+\.\d{3} s": (
            "compare", str(counts_path), "--rank", "1", "--runs", "2", "--no-images"),
    }
    for pattern, command in runs.items():
        reports = []
        for flags in (["--verbose"], []):
            out = tmp_path / f"report{len(reports)}.json"
            result = subprocess.run(
                [sys.executable, "-m", "cohsets", *flags, *command, "--out", str(out)],
                capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            reads = [line for line in result.stderr.splitlines() if " read " in line]
            if flags:
                assert len(reads) == 1 and re.fullmatch(f"INFO cohsets.cli: {pattern}", reads[0])
            else:
                assert result.stderr == ""
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def test_cli_refuses_a_negative_or_wide_seed_before_anything_runs(tmp_path, capsys):
    """A seed outside [0, 2**64 - 1] is refused with one line on every path:
    the sub-seeds mix it modulo 2**64, so -1 stood for 2**64 - 1 on some
    paths, and a categorical example's noise refused it in numpy's words."""
    out = str(tmp_path / "out")
    for argv in (["compare", "--example", "three-coherent", "--epsilon", "2", "--runs", "2"],
                 ["compare", "--example", "three-coherent", "--runs", "2"],
                 ["generate", "--example", "three-coherent", "--epsilon", "2"],
                 ["generate", "--example", "double-gyre", "--t1", "0.01",
                  "--points-per-box", "1"],
                 ["multirun", "--example", "interval-map", "--runs", "2"],
                 ["bounds", "--example", "interval-map"]):
        for seed in ("-1", str(2**64)):
            assert main([*argv, "--seed", seed, "--out", out]) == 2
            assert capsys.readouterr().err == (
                f"error: --seed must lie in [0, 2**64 - 1], not {seed}\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_refuses_an_epsilon_outside_its_range_naming_the_flag(tmp_path, capsys):
    """An epsilon whose window would leave int64 is refused with one line that
    names --epsilon, not with numpy's bounds error."""
    for epsilon in ("99999999999999999999", "-1"):
        assert main(["generate", "--example", "three-coherent", "--epsilon", epsilon,
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: --epsilon must lie in [0, 2**62], not {epsilon}\n")


@pytest.mark.parametrize("flags", [["--runs", "1" + "0" * 30], ["--rank", str(2**40)]],
                         ids=["runs", "rank"])
def test_cli_refuses_restart_stacks_above_the_cap(tmp_path, capsys, flags):
    """Restarts whose stacked factors would outgrow memory are refused with
    one line before any restart runs."""
    assert main(["multirun", "--example", "three-coherent", *flags, "--out",
                 str(tmp_path / "multi")]) == 2
    assert re.fullmatch(r"error: \d+ restarts of \d+ latent states on a 100 x 100 matrix "
                        r"exceed the cap of 2\*\*26 entries of runs x rank x \(m \+ n\)\n",
                        capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bounds", "render"])
def test_cli_refuses_labels_declaring_more_states_than_the_cap(tmp_path, capsys, command):
    """A labels file's declared r sizes the m x r factor that bounds and
    render derive; a huge one is refused with one line naming the file
    before anything of that size is allocated."""
    labels = tmp_path / "labels.txt"
    labels.write_text(f"# r={10**12}\n" + "1\n" * 100, encoding="utf-8")
    flags = (["--labels", str(labels), "--out", str(tmp_path / "out.ppm")]
             if command == "render" else [str(labels)])
    assert main([command, "--example", "three-coherent", *flags]) == 2
    assert capsys.readouterr().err == (
        f"error: {labels}: {10**12} latent states on a 100 x 100 matrix exceed the cap "
        f"of 2**26 entries of rank x (m + n)\n")
    assert sorted(tmp_path.iterdir()) == [labels]


def test_cli_gyre_overflow_is_a_numerical_failure(tmp_path, capsys):
    """An amplitude that overflows the RK4 stages exits 3 with one line and no
    warning, instead of binning NaN endpoints into boxes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", "--example", "double-gyre", "--t1", "0.1",
                     "--points-per-box", "1", "--A", "1e300",
                     "--out", str(tmp_path / "gyre.csv")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: the RK4 stages overflowed; lower the amplitude or the span\n")


def test_cli_refuses_a_step_longer_than_the_span(tmp_path, capsys):
    """A step of 1e300 over the default span of 40 is no integer multiple; it
    used to round to zero steps and integrate nothing."""
    assert main(["generate", "--example", "double-gyre", "--step", "1e300",
                 "--points-per-box", "1", "--out", str(tmp_path / "gyre.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: t_end - t_start must be an integer multiple of step\n")


def test_cli_counts_dipped_runs(tmp_path, monkeypatch):
    """A dip forced into one restart's second update step shows in the
    dbmr_dipped_runs of compare and multirun."""
    from cohsets import dbmr

    likelihoods = dbmr._log_likelihoods
    calls = []

    def dipping(grouped, log_factor, **kwargs):
        sums = likelihoods(grouped, log_factor, **kwargs)
        calls.append(len(sums))
        if len(calls) == 3:  # the initial iterates, then two update steps
            sums[0] = -np.inf
        return sums

    monkeypatch.setattr(dbmr, "_log_likelihoods", dipping)
    for command, path in (("compare", "report.json"), ("multirun", "multi")):
        calls.clear()
        extra = ["--no-images"] if command == "compare" else []
        assert main([command, "--example", "three-coherent", "--runs", "4", *extra,
                     "--out", str(tmp_path / path)]) == 0
        summary = dataio.read_json(tmp_path / (path if command == "compare" else "multi.json"))
        assert summary["diagnostics"]["dbmr_dipped_runs"] == 1


def test_cli_multirun_counts_runs_with_inactive_states(tmp_path):
    """96 latent states on the interval map's 90 inputs leave states empty in
    every run; at rank 3 no run does."""
    for rank, inactive in (("96", 4), ("3", 0)):
        assert main(["multirun", "--example", "interval-map", "--rank", rank, "--runs", "4",
                     "--out", str(tmp_path / "multi")]) == 0
        assert dataio.read_json(tmp_path / "multi.json")["diagnostics"][
            "dbmr_inactive_runs"] == inactive


# Values every drawn flag may take: boundaries, non-numbers and huge ones.
_FUZZ_VALUES = ["0", "-1", "-1e-3", "1", "2", "nan", "inf", "-inf", "1e300", str(2**40),
                "1" + "0" * 30]
_FUZZ_FLAGS = {
    "generate": ["--epsilon", "--seed", "--A", "--delta", "--omega", "--t0", "--t1", "--step",
                 "--rho", "--points-per-box"],
    "compare": ["--epsilon", "--seed", "--rank", "--runs", "--hmax", "--tol"],
    "multirun": ["--epsilon", "--seed", "--rank", "--runs", "--hmax", "--tol"],
    "bounds": ["--epsilon", "--seed"],
    "render": ["--epsilon", "--seed"],
}
# One RK4 step of 2048 points; the gyre source runs with generate only.
_TINY_GYRE = ["--example", "double-gyre", "--t1", "0.01", "--points-per-box", "1"]
_FUZZ_CASE_SECONDS = 10.0


def _fuzz_body(draw, kind):
    """A tiny pairs, counts or labels body over at most 3 x 3 categories,
    possibly without a single record."""
    n, m, size = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 5))
    if kind == "pairs":
        lines = [f"# n={n} m={m}", *(f"{draw(st.integers(1, n))},{draw(st.integers(1, m))}"
                                     for _ in range(size))]
    elif kind == "counts":
        entries = [(draw(st.integers(1, m)), draw(st.integers(1, n)), draw(st.integers(0, 3)))
                   for _ in range(size)]
        lines = [f"{m} {n} {sum(c for *_, c in entries)}", *(f"{i} {j} {c}" for i, j, c in entries)]
    else:
        lines = [f"# r={n}", *(str(draw(st.integers(1, n))) for _ in range(size))]
    return "\n".join(lines) + "\n"


@st.composite
def _argument_lists(draw):
    """(argv with the placeholders DATA and LABELS, the bodies to write there)."""
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    sources = ["three-coherent", "interval-map", "pairs", "counts", "labels"]
    source = draw(st.sampled_from(sources + (["double-gyre"] if command == "generate" else [])))
    bodies = {}
    if source == "double-gyre":
        argv = [command, *_TINY_GYRE]
    elif source in ("three-coherent", "interval-map"):
        argv = [command, "--example", source]
    else:
        argv, bodies["DATA"] = [command, "DATA"], _fuzz_body(draw, source)
    if command in ("bounds", "render") and draw(st.booleans()):
        bodies["LABELS"] = _fuzz_body(draw, "labels")
        argv += ["LABELS"] if command == "bounds" else ["--labels", "LABELS"]
    for flag in draw(st.lists(st.sampled_from(_FUZZ_FLAGS[command]), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(_FUZZ_VALUES))]
    if command in ("compare", "multirun") and "--runs" not in argv:
        argv += ["--runs", "3"]
    argv += {"compare": ["--no-images"], "multirun": ["--trace"]}.get(command, [])
    return argv + ["--out", "OUT"], bodies


def _run_fuzz_case(argv):
    """Exit code, stdout, stderr, warnings and seconds of one in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), caught, time.perf_counter() - start


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_argument_lists())
def test_cli_keeps_its_contract_on_drawn_argument_lists(case):
    """Any argument list of a subcommand, a source (an example or a tiny,
    possibly empty pairs, counts or labels body) and flags at 0, negative,
    NaN, infinite and huge values exits 0, 2 or 3 within its time budget,
    with no traceback and no warning; exit 2 writes exactly one error line,
    and an exit 0 run, repeated, writes the same bytes."""
    template, bodies = case
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        paths = {"OUT": str(workdir / "out")}
        for name, body in bodies.items():
            paths[name] = str(workdir / name.lower())
            Path(paths[name]).write_text(body, encoding="utf-8")
        argv = [paths.get(arg, arg) for arg in template]
        code, out, err, caught, seconds = _run_fuzz_case(argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err and not caught, (argv, err, caught)
        assert seconds < _FUZZ_CASE_SECONDS, (argv, seconds)
        if code == 2:
            assert len([line for line in err.splitlines() if "error:" in line]) == 1, (argv, err)
        if code != 0:
            return
        assert err == "", (argv, err)
        written = {p: p.read_bytes() for p in workdir.iterdir()}
        assert _run_fuzz_case(argv)[:3] == (0, out, "")
        assert {p: p.read_bytes() for p in workdir.iterdir()} == written, argv
