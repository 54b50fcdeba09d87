import numpy as np
import pytest

from cohsets import dataio
from cohsets.cli import main
from cohsets.generators import gen_interval_map, gen_three_coherent
from cohsets.model import CountMatrix, PairDataset, ingest_pairs
from tests.conftest import random_counts


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


@pytest.mark.parametrize("chunk, size", [(1 << 16, 57), (7, 50), (5, 35), (5, 1)])
def test_write_pairs_matches_savetxt_bytes(tmp_path, monkeypatch, chunk, size):
    monkeypatch.setattr(dataio, "_PAIRS_CHUNK", chunk)
    rng = np.random.default_rng(size)
    dataset = PairDataset(
        inputs=rng.integers(1, 1001, size=size), outputs=rng.integers(1, 13, size=size),
        n_inputs=1000, n_outputs=12,
    )
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


def test_counts_roundtrip(tmp_path):
    rng = np.random.default_rng(163)
    for index in range(10):
        counts = random_counts(rng, rng.integers(2, 9), rng.integers(2, 9), density=0.5)
        path = tmp_path / f"counts{index}.txt"
        dataio.write_counts(path, counts)
        back = dataio.read_counts(path)
        assert np.array_equal(back.counts, counts.counts)
        assert back.total == counts.total


def test_counts_duplicate_entries_accumulate(tmp_path):
    path = tmp_path / "dups.txt"
    path.write_text("2 2 7\n1 1 3\n1 1 2\n2 2 2\n", encoding="utf-8")
    counts = dataio.read_counts(path)
    assert counts.counts.tolist() == [[5, 0], [0, 2]]


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
