"""End-to-end benchmark of cohsets: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its src/. The
run first times several fresh interpreters becoming ready to serve (set-up),
then sends the workload's requests one after another, each only when the
previous one has returned, and checks every output. Times are scaled to a
reference machine speed (see calibration.py). With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and prints the per-layer metrics plus the tracing overhead. The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: on a small shared machine a second thread adds more
# run-to-run spread than speed. Set before numpy loads in this process and
# inherited by the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import calibration  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
# Seconds of requests per calibration point.
CALIBRATION_EVERY_S = 1.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-batch", "gyre-flow", "pairs-file"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe(command: list[str], env) -> tuple[float, str]:
    """Wall time until a fresh interpreter prints its first line, and the line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *command], stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
    finally:
        proc.stdout.close()
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe {command} exited with code {code}")
    return wall, line


def measure_setup(probes: int) -> tuple[list[float], list[float], list[float]]:
    """Set-up of ``probes`` fresh interpreters.

    Returns (ready times at reference speed, import times at reference speed,
    ready times as measured). Each set-up sits between two baseline
    interpreters (see calibration.IMPORT_BASELINE), whose mean time gives the
    machine's speed at that moment for this kind of work. One set-up runs
    first and is discarded: it pays for a cold file cache.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ready = [str(HERE / "ready.py")]
    baseline = ["-c", calibration.IMPORT_BASELINE + "; print('ready', flush=True)"]
    _probe(ready, env)
    before, _ = _probe(baseline, env)
    scaled, imports, measured = [], [], []
    for _ in range(probes):
        wall, line = _probe(ready, env)
        after, _ = _probe(baseline, env)
        factor = calibration.IMPORT_REFERENCE_S / ((before + after) / 2)
        scaled.append(wall * factor)
        imports.append(float(line.split()[0]) * factor)
        measured.append(wall)
        before = after
    return scaled, imports, measured


class Run:
    """Requests sent so far: counts, latencies, and the likelihood gaps of a round."""

    def __init__(self, workload, speed) -> None:
        self.workload = workload
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.latencies: list[float] = []
        # Index of the first calibration batch after each request.
        self.batch_after: list[int] = []
        self.gaps = None
        self._since_batch = 0.0
        speed.batch()

    def round(self, tracer=None) -> float:
        """Send each request of one round; returns the round's summed latency."""
        busy = 0.0
        gaps = []
        for request in self.workload.requests:
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = request.run()
                else:
                    output = tracer.request(self.attempted, request.run)
            except Exception as exc:  # a failed request is counted, never fatal
                self.failed += 1
                print(f"request {request.name} failed: {exc!r}", file=sys.stderr)
                continue
            latency = time.perf_counter() - start
            busy += latency
            self.latencies.append(latency)
            self.batch_after.append(len(self.speed.batches))
            # One calibration point per CALIBRATION_EVERY_S of requests, so a
            # long request is matched by as many points as many short ones.
            self._since_batch += latency
            if self._since_batch >= CALIBRATION_EVERY_S:
                points = int(self._since_batch // CALIBRATION_EVERY_S)
                self.speed.batch(points)
                self._since_batch -= points * CALIBRATION_EVERY_S
            try:
                gaps.append(request.check(output))
            except Exception as exc:  # a malformed output fails its check too
                self.correct = False
                print(f"request {request.name}: check failed: {exc!r}", file=sys.stderr)
        # Rounds repeat the same inputs, so the likelihood gaps must repeat too.
        if self.gaps is None:
            self.gaps = gaps
        elif len(gaps) != len(self.gaps) or not all(
            checks.close(a[0], b[0]) for a, b in zip(gaps, self.gaps)
        ):
            self.correct = False
            print("a repeated round gave different likelihood gaps", file=sys.stderr)
        return busy

    def scaled_latencies(self) -> list[float]:
        """Latencies at reference speed; call after a final calibration batch."""
        power = self.workload.speed_elasticity
        return [latency * self.speed.factor_around(index) ** power
                for latency, index in zip(self.latencies, self.batch_after)]


def timed_run(workload, seconds: float, speed) -> Run:
    for _ in range(workload.warmup_rounds):
        Run(workload, speed).round()
    run = Run(workload, speed)
    start = time.perf_counter()
    while True:
        run.round()
        if (time.perf_counter() - start >= seconds
                and len(run.latencies) >= workload.min_requests):
            break
    speed.batch()
    return run


def traced_run(workload, seconds: float, tracer, speed) -> tuple[Run, float]:
    """Alternate untraced and traced rounds; returns (run, overhead in %)."""
    for _ in range(workload.warmup_rounds):
        Run(workload, speed).round()
    run = Run(workload, speed)
    busy = {False: [], True: []}
    start = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
            try:
                busy[True].append(run.round(tracer))
            finally:
                tracer.uninstall()
        else:
            busy[False].append(run.round())
        traced = not traced
        if time.perf_counter() - start >= seconds and busy[True] and not traced:
            break
    speed.batch()
    overhead = statistics.mean(busy[True]) / statistics.mean(busy[False]) - 1.0
    return run, 100.0 * overhead


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohsets" / "__init__.py").is_file():
        print(f"error: no cohsets package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports cohsets, compiling its bytecode in a fresh checkout

    setup_walls, setup_imports, setup_measured = measure_setup(SETUP_PROBES)
    speed = calibration.Calibration()
    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    workload = workloads.WORKLOADS[args.workload](args.seed, False, run_dir)

    if args.trace:
        tracer = tracing.Tracer()
        origin = time.perf_counter()
        run, overhead = traced_run(workload, args.seconds, tracer, speed)
        factor = speed.factor_overall() ** workload.speed_elasticity
        metrics = {name: {"value": value * factor if unit == "s" else
                          value / factor if unit.endswith("/s") else value, "unit": unit}
                   for name, value in tracing.layer_metrics(tracer.spans).items()
                   for unit in [tracing.unit(name)]}
        metrics["setup.import_s"] = {"value": statistics.median(setup_imports), "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        run = timed_run(workload, args.seconds, speed)
        latencies = run.scaled_latencies()
        gaps = run.gaps
        metrics = {
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_p95_s": {"value": statistics.quantiles(
                latencies, n=20, method="inclusive")[18], "unit": "s"},
            "requests_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "loglik_gap_per_record": {"value": sum(g for g, _ in gaps) / sum(r for _, r in gaps),
                                      "unit": "nat"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        }
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  measured_latencies=run.latencies, batch_after=run.batch_after,
                  setup_measured=setup_measured, calibration_batches=speed.batches,
                  inputs=workload.description)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / f"{name}.spans.jsonl", origin)
        (trace_dir / f"{name}.layers.json").write_text(json.dumps(detail, indent=2),
                                                       encoding="utf-8")
    (OUT / f"result-{name}.json").write_text(json.dumps(detail, indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
