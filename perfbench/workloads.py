"""The three workloads: inputs made from the benchmark seed, requests, checks.

A workload is one round of requests that every run repeats whole. The inputs
of a round depend only on the seed, so a round's likelihood gap repeats
exactly; ``quick`` shrinks every input so all workloads run in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from cohsets import cli, dataio, generators, model, report

RANK = 3


@dataclass
class Request:
    name: str
    run: Callable[[], Any]
    # Checks the output of ``run``; returns (likelihood gap in nats, records).
    check: Callable[[Any], tuple[float, int]]


@dataclass
class Workload:
    requests: list[Request]
    # A run goes on past --seconds until it has at least this many requests,
    # so that every run has enough samples for its latency percentiles.
    min_requests: int
    # Untimed rounds before the first timed one.
    warmup_rounds: int
    # Power of the calibration speed factor applied to this workload's times:
    # how strongly its speed follows the calibration kernel's when the
    # machine speeds up or slows down, measured over repeated runs.
    speed_elasticity: float
    description: dict


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------- paper-batch

def three_coherent_pattern() -> np.ndarray:
    """The paper's three-set count pattern (outputs along rows)."""
    counts = np.zeros((100, 100), dtype=np.int64)
    counts[:25, :25] = 8
    counts[25:50, 25:50] = 8
    counts[:25, 25:50] = 2
    counts[25:50, :25] = 2
    counts[50:, 50:] = 5
    return counts


def interval_map_pattern() -> np.ndarray:
    """The paper's interval map: input 30b+c goes to outputs 30(b+1)+(3c+i) mod 30."""
    counts = np.zeros((90, 90), dtype=np.int64)
    for b in range(3):
        for c in range(30):
            for i in range(3):
                counts[30 * ((b + 1) % 3) + (3 * c + i) % 30, 30 * b + c] += 30
    return counts


def _noisy_records(pattern: np.ndarray, epsilon: int, rng: np.random.Generator):
    """Records of ``pattern`` with both coordinates moved uniformly within
    a modular window of half-width ``epsilon``; 1-based (inputs, outputs)."""
    m, n = pattern.shape
    out_idx, in_idx = np.nonzero(pattern)
    reps = pattern[out_idx, in_idx]
    inputs = np.repeat(in_idx, reps)
    outputs = np.repeat(out_idx, reps)
    if epsilon:
        inputs = (inputs + rng.integers(-epsilon, epsilon + 1, inputs.size)) % n
        outputs = (outputs + rng.integers(-epsilon, epsilon + 1, outputs.size)) % m
    return inputs + 1, outputs + 1


def _compare_in_memory(dataset, default_labels, rank, runs, seed):
    counts = model.ingest_pairs(dataset)
    pruned, _, col_map = model.prune_empty(counts)
    labels = None if default_labels is None else default_labels[col_map - 1]
    result, _ = report.compare_experiment(
        pruned, rank, runs, seed=seed, default_labels=labels
    )
    return result


def paper_batch(seed: int, quick: bool, out_dir: Path) -> Workload:
    items = [("three-coherent", e) for e in range(11)] + [("interval-map", e) for e in (0, 1)]
    runs = 100
    if quick:
        items = [("three-coherent", 0), ("three-coherent", 4), ("interval-map", 0)]
        runs = 10
    rng = _rng(seed, 1)
    requests = []
    for index, (example, epsilon) in enumerate(items):
        pattern = three_coherent_pattern() if example == "three-coherent" else interval_map_pattern()
        block = [25, 25, 50] if example == "three-coherent" else [30, 30, 30]
        labels = np.repeat([1, 2, 3], block)
        m, n = pattern.shape
        inputs, outputs = _noisy_records(pattern, epsilon, rng)
        dataset = model.PairDataset(inputs=inputs, outputs=outputs, n_inputs=n, n_outputs=m)
        own, _ = checks.prune(checks.count_matrix(inputs, outputs, n, m))
        program_seed = seed * 1000 + index

        def run(dataset=dataset, labels=labels, program_seed=program_seed):
            return _compare_in_memory(dataset, labels, RANK, runs, program_seed)

        def check(result, own=own, example=example, epsilon=epsilon, records=inputs.size):
            gap = checks.check_compare(own, result, RANK)
            if epsilon == 0 and example == "three-coherent":
                checks.check_three_coherent_at_zero(result)
            if epsilon == 0 and example == "interval-map":
                checks.check_interval_map_at_zero(result)
            return gap, records

        requests.append(Request(f"{example}/eps={epsilon}", run, check))
    return Workload(
        requests=requests,
        min_requests=3 if quick else 200,
        warmup_rounds=1,
        speed_elasticity=1.0,
        description={"requests": [r.name for r in requests], "rank": RANK, "restarts": runs},
    )


# ------------------------------------------------------------------ gyre-flow

def gyre_flow(seed: int, quick: bool, out_dir: Path) -> Workload:
    if quick:
        grid = {"nx": 16, "ny": 8, "points_per_box": 4, "t_end": 0.5}
        runs = 2
    else:
        grid = {"nx": 64, "ny": 32, "points_per_box": 10, "t_end": 2.0}
        runs = 5
    requests = []
    for index in range(2):
        config = generators.GyreConfig(seed=seed * 1000 + index, **grid)
        program_seed = seed * 1000 + index

        def run(config=config, program_seed=program_seed):
            dataset, _ = generators.gen_double_gyre(config)
            return dataset, _compare_in_memory(dataset, None, RANK, runs, program_seed)

        def check(output, config=config):
            dataset, result = output
            _check_gyre_dataset(dataset, config)
            own, _ = checks.prune(checks.count_matrix(
                dataset.inputs, dataset.outputs, dataset.n_inputs, dataset.n_outputs))
            return checks.check_compare(own, result, RANK), dataset.size

        requests.append(Request(f"gyre/seed={config.seed}", run, check))
    return Workload(
        requests=requests,
        min_requests=2,
        warmup_rounds=0,
        # Large dense factorizations swing about 0.4 times as much as the
        # cache-sized calibration kernel.
        speed_elasticity=0.4,
        description={"grid": grid, "restarts": runs, "rank": RANK},
    )


def _check_gyre_dataset(dataset, config) -> None:
    """Each box seeds its own points; labelling noise of half-width rho (one
    box at the default) moves a start point by at most one box."""
    checks.expect(dataset.size == config.nx * config.ny * config.points_per_box,
                  f"gyre sample has {dataset.size} records")
    home = np.repeat(np.arange(config.nx * config.ny), config.points_per_box)
    box = dataset.inputs - 1
    reach_x = int(np.ceil(config.rho / config.box_width))
    reach_y = int(np.ceil(config.rho / config.box_height))
    checks.expect(bool(np.all(np.abs(box % config.nx - home % config.nx) <= reach_x)
                       & np.all(np.abs(box // config.nx - home // config.nx) <= reach_y)),
                  "a gyre start box lies farther from its seeding box than the noise allows")


# ----------------------------------------------------------------- pairs-file

def _block_records(rng, n, blocks, records, leak):
    """Inputs uniform over n categories; an output stays in its input's block
    with probability 1 - leak and is uniform over all categories otherwise."""
    size = n // blocks
    inputs = rng.integers(0, n, records)
    block = np.minimum(inputs // size, blocks - 1)
    inside = block * size + rng.integers(0, size, records)
    outputs = np.where(rng.random(records) < leak, rng.integers(0, n, records), inside)
    labels = np.minimum(np.arange(n) // size, blocks - 1) + 1
    return inputs + 1, outputs + 1, labels


def pairs_file(seed: int, quick: bool, out_dir: Path) -> Workload:
    if quick:
        n, blocks, records, runs, multiruns = 40, 4, 20_000, 4, 3
    else:
        n, blocks, records, runs, multiruns = 300, 4, 1_000_000, 100, 40
    inputs, outputs, labels = _block_records(_rng(seed, 3), n, blocks, records, leak=0.25)
    dataset = model.PairDataset(inputs=inputs, outputs=outputs, n_inputs=n, n_outputs=n)
    own, kept = checks.prune(checks.count_matrix(inputs, outputs, n, n))
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = out_dir / "pairs.csv"
    labels_path = out_dir / "labels.txt"
    labels_path.write_text(f"# r={blocks}\n" + "".join(f"{v}\n" for v in labels), encoding="utf-8")
    compare_json = out_dir / "compare.json"
    multi_base = out_dir / "multirun"
    bounds_json = out_dir / "bounds.json"
    program_seed = str(seed)
    verified = {}

    def run():
        dataio.write_pairs(pairs, dataset)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(["compare", str(pairs), "--rank", str(blocks), "--runs", str(runs),
                                   "--seed", program_seed, "--out", str(compare_json)]))
            codes.append(cli.main(["multirun", str(pairs), "--rank", str(blocks),
                                   "--runs", str(multiruns), "--seed", program_seed,
                                   "--trace", "--out", str(multi_base)]))
            codes.append(cli.main(["bounds", str(pairs), str(labels_path),
                                   "--out", str(bounds_json)]))
        if any(codes):
            raise RuntimeError(f"cli exit codes {codes}")

    def check(_):
        data = pairs.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if verified.get("digest") != digest:
            file_n, file_m, table = checks.parse_pairs(data)
            checks.expect((file_n, file_m) == (n, n), f"pairs header n={file_n} m={file_m}")
            checks.expect(np.array_equal(table[:, 0], inputs) and np.array_equal(table[:, 1], outputs),
                          "pairs read back differ from the pairs written")
            verified["digest"] = digest
        result = json.loads(compare_json.read_text(encoding="utf-8"))
        gap = checks.check_compare(own, result, blocks)
        for image in result["images"]:
            checks.check_ppm(Path(image).read_bytes(), own.shape[1] + 1, own.shape[0] + 1)
        summary = json.loads(multi_base.with_name("multirun.json").read_text(encoding="utf-8"))
        objectives = [row["objective"] for row in summary["run_table"]]
        checks.expect(len(objectives) == multiruns, f"{len(objectives)} multirun rows")
        checks.expect(summary["best_objective"] == max(objectives), "best run is not the best")
        checks.expect(summary["best_objective"] <= result["likelihoods"]["reference"] + 1e-6,
                      "multirun objective exceeds the full model's likelihood")
        checks.check_trace_rows(multi_base.with_name("multirun.trace.csv"))
        bounds = json.loads(bounds_json.read_text(encoding="utf-8"))
        checks.check_bounds_output(own, labels[kept], bounds)
        for path in [pairs, compare_json, bounds_json, *map(Path, result["images"]),
                     *out_dir.glob("multirun.*")]:
            path.unlink()
        return gap, records

    return Workload(
        requests=[Request("pairs-file", run, check)],
        min_requests=2,
        warmup_rounds=0,
        speed_elasticity=1.0,
        description={"categories": n, "blocks": blocks, "records": records, "leak": 0.25,
                     "compare_restarts": runs, "multirun_restarts": multiruns},
    )


WORKLOADS = {"paper-batch": paper_batch, "gyre-flow": gyre_flow, "pairs-file": pairs_file}
