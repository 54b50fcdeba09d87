"""Self-check of the benchmark's output checks, then every workload at tiny size.

    python3 perfbench/selfcheck.py

Run from the repository root. Part one feeds the checks a 4 x 4 instance
solved by hand (two separable blocks) and requires that the correct report
passes and that each corrupted report fails for its own reason. Part two runs
one round of every workload with tiny inputs and checks every output. Exits
0 when everything holds.
"""

from __future__ import annotations

import copy
import math
import sys
import time
from pathlib import Path

import numpy as np

import checks

ROOT = Path.cwd()

# Outputs along rows. Inputs 1, 2 form one block, inputs 3, 4 the other.
HAND_COUNTS = np.array([[3, 1, 0, 0], [1, 3, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]], dtype=float)
# By hand: the full model's columns are (3/4, 1/4), (1/4, 3/4), (1/2, 1/2) twice,
# so its log-likelihood is 6 log(3/4) + 2 log(1/4) + 8 log(1/2) = 6 log 3 - 24 log 2.
HAND_REFERENCE = 6 * math.log(3) - 24 * math.log(2)
# Labels (1, 1, 2, 2) give factor columns (1/2, 1/2, 0, 0) and (0, 0, 1/2, 1/2):
# 16 records each of probability 1/2.
HAND_LABELS = [1, 1, 2, 2]
HAND_REDUCED = -16 * math.log(2)
# Both marginals are uniform, so the rescaled matrix is the transition matrix:
# blocks [[3/4, 1/4], [1/4, 3/4]] (singular values 1, 1/2) and [[1/2, 1/2]] * 2
# (1, 0). |P~|^2 = 9/4, |L~|^2 = 2, so the squared gap is 1/4.
HAND_REPORT = {
    "dataset": {"n_inputs": 4, "n_outputs": 4},
    "likelihoods": {"reference": HAND_REFERENCE, "svd": HAND_REDUCED,
                    "dbmr": HAND_REDUCED, "default": None},
    "partitions": {"dbmr_input": HAND_LABELS},
    "singular_values": {"full": [1.0, 1.0, 0.5], "reduced": [1.0, 1.0, 0.0],
                        "reduced_coherence": 2.0},
    # kappa 1/4; KL form = (reference - reduced) / (kappa * 16).
    "bound": {"frob_gap_sq": 0.25, "kappa_post": 0.25, "kappa_value": 0.25,
              "kl_form": (HAND_REFERENCE - HAND_REDUCED) / 4.0},
}


def corrupted(path: str, value):
    report = copy.deepcopy(HAND_REPORT)
    *parents, key = path.split(".")
    node = report
    for part in parents:
        node = node[part]
    node[key] = value
    return report


def must_fail(label: str, fn, reason: str) -> None:
    try:
        fn()
    except checks.CheckFailed as exc:
        if reason not in str(exc):
            raise AssertionError(f"{label}: failed for another reason: {exc}") from exc
        print(f"ok   rejects {label}")
        return
    raise AssertionError(f"{label}: the checks accepted it")


def check_hand_instance() -> None:
    counts = HAND_COUNTS
    assert checks.close(checks.full_log_likelihood(counts), HAND_REFERENCE)
    assert checks.close(checks.relaxed_log_likelihood(counts, np.array(HAND_LABELS), 2), HAND_REDUCED)
    full_sq, reduced_sq = checks.rescaled_norms(counts, np.array(HAND_LABELS), 2)
    assert checks.close(full_sq, 2.25) and checks.close(reduced_sq, 2.0)
    gap = checks.check_compare(counts, HAND_REPORT, 2)
    assert checks.close(gap, HAND_REFERENCE - HAND_REDUCED)
    print("ok   accepts the hand-solved report")

    compare = lambda report: checks.check_compare(counts, report, 2)  # noqa: E731
    must_fail("a wrong full-model likelihood",
              lambda: compare(corrupted("likelihoods.reference", HAND_REFERENCE + 0.5)),
              "full-model log-likelihood")
    must_fail("a wrong DBMR likelihood",
              lambda: compare(corrupted("likelihoods.dbmr", HAND_REDUCED - 0.5)),
              "DBMR objective")
    must_fail("a reduced likelihood above the full model's",
              lambda: compare(corrupted("likelihoods.svd", HAND_REFERENCE + 1.0)),
              "exceeds the full model")
    # Labels (1, 1, 1, 2) with their own correct likelihood: input 3 scores
    # 4 log(1/6) on state 1 but 4 log(1/2) on state 2, so it would move.
    other = [1, 1, 1, 2]
    relabelled = corrupted("partitions.dbmr_input", other)
    relabelled["likelihoods"]["dbmr"] = checks.relaxed_log_likelihood(counts, np.array(other), 2)
    relabelled["likelihoods"]["svd"] = relabelled["likelihoods"]["dbmr"]
    must_fail("labels that are not a fixed point", lambda: compare(relabelled), "fixed point")
    must_fail("sigma_1 other than 1",
              lambda: compare(corrupted("singular_values.full", [1.2, 1.0, 0.5])), "sigma_1")
    must_fail("a reduced singular value above the full one",
              lambda: compare(corrupted("singular_values.reduced", [1.0, 1.0, 0.7])),
              "exceeds the full one")
    must_fail("reduced coherence above the rank",
              lambda: compare(corrupted("singular_values.reduced_coherence", 2.5)), "exceeds rank")
    must_fail("a squared gap off the Pythagoras identity",
              lambda: compare(corrupted("bound.frob_gap_sq", 0.3)), "|P~|^2 - |L~|^2")
    must_fail("a squared gap above the KL form",
              lambda: compare(corrupted("bound.kl_form", 0.2)), "exceeds the KL form")
    must_fail("kappa_post below min(q)/2",
              lambda: compare(corrupted("bound.kappa_post", 0.1)), "kappa_post")
    must_fail("a three-coherent spectrum other than (1, 1, 0.6)",
              lambda: checks.check_three_coherent_at_zero(HAND_REPORT), "three-coherent")
    interval = corrupted("singular_values.full", [1.0, 1.0, 1.0])
    interval["likelihoods"]["default"] = HAND_REDUCED
    must_fail("an interval-map squared gap other than 27",
              lambda: checks.check_interval_map_at_zero(interval), "squared gap")

    data = b"# n=4 m=4\nx,y\n1,2\n4,3\n"
    n, m, table = checks.parse_pairs(data)
    assert (n, m) == (4, 4) and table.tolist() == [[1, 2], [4, 3]]
    ppm = b"P6\n5 5\n255\n" + bytes(75)
    checks.check_ppm(ppm, 5, 5)
    must_fail("a PPM of the wrong size", lambda: checks.check_ppm(ppm, 5, 4), "PPM size")
    workdir = ROOT / ".perfbench-out" / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    rows = workdir / "trace.csv"
    rows.write_text("run,step,objective\n0,0,-5.0\n0,1,-4.0\n1,0,-6.0\n1,1,-6.5\n", encoding="utf-8")
    must_fail("a trace whose objective falls", lambda: checks.check_trace_rows(rows), "fell")
    rows.unlink()

    # The program on the same instance must pass and reproduce the hand values.
    from cohsets.model import CountMatrix
    from cohsets.report import compare_experiment

    report, _ = compare_experiment(
        CountMatrix(counts=HAND_COUNTS.astype(np.int64), total=16), 2, 10, seed=0)
    checks.check_compare(counts, report, 2)
    assert checks.close(report["likelihoods"]["reference"], HAND_REFERENCE)
    assert np.allclose(report["singular_values"]["full"], [1.0, 1.0, 0.5], atol=1e-12)
    assert checks.close(report["bound"]["frob_gap_sq"], 0.25)
    print("ok   the program reproduces the hand-solved values")


def quick_workloads() -> None:
    import workloads

    for name, build in workloads.WORKLOADS.items():
        start = time.perf_counter()
        workload = build(1, True, ROOT / ".perfbench-out" / "selfcheck" / name)
        gap = records = 0
        for request in workload.requests:
            output = request.run()
            request_gap, request_records = request.check(output)
            gap += request_gap
            records += request_records
        assert gap > 0, f"{name}: likelihood gap is not positive"
        print(f"ok   {name}: {len(workload.requests)} requests, gap/record "
              f"{gap / records:.5f}, {time.perf_counter() - start:.1f} s")


def main() -> int:
    src = ROOT / "src"
    if not (src / "cohsets" / "__init__.py").is_file():
        print(f"error: no cohsets package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    check_hand_instance()
    quick_workloads()
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
