import contextlib
import io
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohsets import dataio
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


def _pairs_body(draw):
    """A pairs-file body over a 9 x 9 preamble: records with spaces around
    their fields and trailing comments, blank and comment lines, and in half
    the bodies one malformed line."""
    field = st.integers(1, 9).map(str)
    pad = st.sampled_from(["", " ", "  ", "\t"])
    record = st.builds(lambda a, b, p, q, note: f"{p}{a}{q},{p}{b}{q}{note}",
                       field, field, pad, pad, st.sampled_from(["", " # c", "#c", "  # 1,2"]))
    line = st.one_of(record, record, record, st.sampled_from(["", "   ", "# note"]))
    header = draw(st.one_of(st.just(None), st.sampled_from(["x", "X"]).flatmap(
        lambda x: st.sampled_from(["y", "Y"]).map(lambda y: f"{x},{y}"))))
    body = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        malformed = st.sampled_from(["1,2,3", "1,", ",2", "1.5,2", "a,2", "1,b", "x,y", "1;2"])
        body.insert(draw(st.integers(0, len(body))), draw(malformed))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["# n=9 m=9", *([header] if header else []), *body, *[""] * draw(st.integers(0, 2))]
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _read_outcome(reader, path):
    try:
        dataset = reader(path)
    except ValueError as exc:
        return str(exc)
    return dataset.inputs.tolist(), dataset.outputs.tolist(), dataset.n_inputs, dataset.n_outputs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_read_pairs_grammar_matches_handle_reader(data):
    """read_pairs accepts exactly what loadtxt on the open handle accepts,
    with the same arrays or the same error, and the CLI exits 2 on every
    rejected file without a traceback."""
    body = _pairs_body(data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.csv"
        path.write_bytes(body.encode())
        outcome = _read_outcome(dataio.read_pairs, path)
        assert outcome == _read_outcome(read_pairs_handle_reference, path)
        if isinstance(outcome, str):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(["render", str(path), "--out", str(Path(tmp) / "m.ppm")])
            assert code == 2
            assert stderr.getvalue() == f"error: {outcome}\n"


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
    for labels in ([1], [3, 1, 2], rng.integers(1, 12, size=23), [9, 10, 100, 1, 1000]):
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
    with pytest.raises(ValueError, match="a.txt:2"):
        dataio.read_labels(not_int)
    out_of_range = tmp_path / "b.txt"
    out_of_range.write_text("# r=2\n3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        dataio.read_labels(out_of_range)
    empty = tmp_path / "c.txt"
    empty.write_text("# r=2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no labels"):
        dataio.read_labels(empty)


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


def test_output_keys_match_the_readme_schema(tmp_path):
    """The compare report (top level and provenance), the multirun summary and
    the double-gyre sidecar hold exactly the keys the README's report schema
    names: a key it does not document fails here."""
    schema = README.read_text(encoding="utf-8").split("## Report schema\n", 1)[1]
    documented = set(re.findall(r"`(\w+)`", schema.split("\n## ", 1)[0]))
    example = ["--example", "three-coherent", "--runs", "2"]
    assert main(["compare", *example, "--out", str(tmp_path / "report.json")]) == 0
    assert main(["multirun", *example, "--out", str(tmp_path / "runs")]) == 0
    assert main(["generate", "--example", "double-gyre", "--t1", "0.1", "--points-per-box", "1",
                 "--out", str(tmp_path / "gyre.csv")]) == 0
    report = dataio.read_json(tmp_path / "report.json")
    summary = dataio.read_json(tmp_path / "runs.json")
    outputs = {
        "compare": (report, COMPARE_KEYS),
        "compare provenance": (report["provenance"], EXAMPLE_PROVENANCE | FIT_OPTIONS),
        "multirun": (summary, MULTIRUN_KEYS),
        "multirun provenance": (summary["provenance"], EXAMPLE_PROVENANCE),
        "double-gyre sidecar": (dataio.read_json(tmp_path / "gyre.csv.meta.json"), GYRE_META_KEYS),
    }
    for name, (output, keys) in outputs.items():
        assert set(output) == keys, name
        assert keys <= documented, (name, keys - documented)


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
    monkeypatch.setattr(report, "reduced_singular_values", lambda reduced: spectrum(reduced) + 1e-6)
    out = tmp_path / "r.json"
    assert main(["compare", "--example", "three-coherent", "--runs", "2",
                 "--no-images", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: reduced singular values")
    assert not out.exists()


def test_cli_bounds_exits_3_when_pythagoras_fails(capsys, monkeypatch):
    from cohsets import cli

    check = cli.pythagoras_check
    monkeypatch.setattr(cli, "pythagoras_check", lambda reduced: (check(reduced)[0] + 1e-6, check(reduced)[1]))
    assert main(["bounds", "--example", "interval-map"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: squared gap")


def test_cli_bounds_exits_3_when_the_factorization_fails(capsys, monkeypatch):
    import dataclasses

    from cohsets import cli

    verify = cli.verify_factorization
    monkeypatch.setattr(cli, "verify_factorization",
                        lambda reduced: dataclasses.replace(verify(reduced), input_fixed=1e-6))
    assert main(["bounds", "--example", "interval-map"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: factorization residuals")


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
    from cohsets import cli

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
