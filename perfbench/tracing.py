"""Spans around calls into the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function under every name a cohsets
module binds it to, so a call is caught at the name its caller looks up
(``dbmr`` calls its own ``latent_scores`` binding, ``cli`` its own
``compare_experiment``) and spans nest. Spans stay in memory until
``write_spans``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# span name -> (module, attribute, work extractor or None). A work extractor
# maps (args, result) to the quantity a per-layer rate divides by.
TRACED = {
    "_accel.advect_rk4": ("cohsets._accel", "advect_rk4",
                          lambda args, result: args[0].shape[0] * args[3]),
    "_accel.latent_scores": ("cohsets._accel", "latent_scores",
                             lambda args, result: 8 * (args[0].size + args[1].size + result.size)),
    "_accel.group_sums": ("cohsets._accel", "group_sums",
                          lambda args, result: 8 * (args[0].size + args[1].size + result.size)),
    "dbmr.multi_start": ("cohsets.dbmr", "multi_start", None),
    "dbmr.dbmr_run": ("cohsets.dbmr", "dbmr_run",
                      lambda args, result: result[1].iterations),
    "svd.full_svd": ("cohsets.svd", "full_svd", None),
    "svd.kmeans": ("cohsets.svd", "kmeans", None),
    "svd.match_partitions": ("cohsets.svd", "match_partitions", None),
    "svd.classical_pipeline": ("cohsets.svd", "classical_pipeline", None),
    "model.estimate": ("cohsets.model", "estimate", None),
    "model.ingest_pairs": ("cohsets.model", "ingest_pairs", None),
    "model.prune_empty": ("cohsets.model", "prune_empty", None),
    "bounds.frobenius_kl_bound": ("cohsets.bounds", "frobenius_kl_bound", None),
    "bounds.bound_constants": ("cohsets.bounds", "bound_constants", None),
    "projection.verify_factorization": ("cohsets.projection", "verify_factorization", None),
    "projection.pythagoras_check": ("cohsets.projection", "pythagoras_check", None),
    "dataio.write_pairs": ("cohsets.dataio", "write_pairs",
                           lambda args, result: os.path.getsize(args[0])),
    "dataio.read_pairs": ("cohsets.dataio", "read_pairs",
                          lambda args, result: os.path.getsize(args[0])),
    "dataio.write_json": ("cohsets.dataio", "write_json", None),
    "generators.gen_double_gyre": ("cohsets.generators", "gen_double_gyre", None),
    "report.compare_experiment": ("cohsets.report", "compare_experiment", None),
    "report.multirun_experiment": ("cohsets.report", "multirun_experiment", None),
    "report.render_matrix_image": ("cohsets.report", "render_matrix_image", None),
    "report.write_csv": ("cohsets.report", "write_csv", None),
    "cli.main": ("cohsets.cli", "main", None),
}

REQUEST = "request"


class Tracer:
    """Records (id, parent, request, name, start, end, work) per traced call."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack = [-1]
        self._request = -1
        self._patched: list[tuple] = []

    def install(self) -> None:
        for name, (module_name, attr, work) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, work)
            for module_key, module in list(sys.modules.items()):
                if module is None or not (module_key == "cohsets" or module_key.startswith("cohsets.")):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self._patched.append((module, binding, original))

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self._request, name, start, end, 0)
            if work is not None:
                spans[sid] = (sid, parent, self._request, name, start, end, work(args, result))
            return result

        return wrapper

    def request(self, request_id: int, fn):
        """Run ``fn`` as request ``request_id`` under a root span; returns its result."""
        self._request = request_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, -1, request_id, REQUEST, start, end, 0)
            self._request = -1

    def write_spans(self, path, origin: float) -> None:
        """One JSON object per line; times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end, amount in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": request, "name": name,
                    "start": round(start - origin, 7), "end": round(end - origin, 7),
                    "work": amount,
                }) + "\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-request means of the per-layer metrics over the traced requests."""
    duration = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    child_time = defaultdict(float)
    self_time = defaultdict(float)
    requests = set()
    for sid, parent, request, name, start, end, amount in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for sid, parent, request, name, start, end, amount in spans:
        if name == REQUEST:
            requests.add(request)
        duration[name] += end - start
        calls[name] += 1
        work[name] += amount
        self_time[name] += end - start - child_time[sid]
    per = 1.0 / max(len(requests), 1)

    def seconds(name):
        return duration[name] * per

    def rate(numerator, name):
        return numerator / duration[name] if duration[name] > 0 else 0.0

    return {
        "accel.advect_rk4_s": seconds("_accel.advect_rk4"),
        "accel.advect_point_steps_per_s": rate(work["_accel.advect_rk4"], "_accel.advect_rk4"),
        "accel.latent_scores_s": seconds("_accel.latent_scores"),
        "accel.latent_scores_calls": calls["_accel.latent_scores"] * per,
        "accel.latent_scores_computed_mb": work["_accel.latent_scores"] * per / 1e6,
        "accel.group_sums_s": seconds("_accel.group_sums"),
        "accel.group_sums_calls": calls["_accel.group_sums"] * per,
        "accel.group_sums_computed_mb": work["_accel.group_sums"] * per / 1e6,
        "dbmr.multi_start_s": seconds("dbmr.multi_start"),
        "dbmr.iterations": work["dbmr.dbmr_run"] * per,
        "dbmr.iteration_s": duration["dbmr.dbmr_run"] / work["dbmr.dbmr_run"]
        if work["dbmr.dbmr_run"] else 0.0,
        "svd.full_svd_s": seconds("svd.full_svd"),
        "svd.kmeans_s": seconds("svd.kmeans"),
        "svd.match_partitions_s": seconds("svd.match_partitions"),
        "svd.classical_pipeline_s": seconds("svd.classical_pipeline"),
        "report.compare_experiment_self_s": self_time["report.compare_experiment"] * per,
        "model.estimate_calls": calls["model.estimate"] * per,
        "model.estimate_s": seconds("model.estimate"),
        "model.ingest_pairs_s": seconds("model.ingest_pairs"),
        "model.prune_empty_s": seconds("model.prune_empty"),
        "bounds.frobenius_kl_bound_s": seconds("bounds.frobenius_kl_bound"),
        "bounds.bound_constants_s": seconds("bounds.bound_constants"),
        "projection.verify_factorization_s": seconds("projection.verify_factorization"),
        "projection.pythagoras_check_s": seconds("projection.pythagoras_check"),
        "dataio.write_pairs_s": seconds("dataio.write_pairs"),
        "dataio.write_pairs_mb_per_s": rate(work["dataio.write_pairs"] / 1e6, "dataio.write_pairs"),
        "dataio.read_pairs_s": seconds("dataio.read_pairs"),
        "dataio.read_pairs_mb_per_s": rate(work["dataio.read_pairs"] / 1e6, "dataio.read_pairs"),
        "dataio.write_json_s": seconds("dataio.write_json"),
        "generators.gen_double_gyre_s": seconds("generators.gen_double_gyre"),
        "report.multirun_experiment_s": seconds("report.multirun_experiment"),
        "report.render_matrix_image_s": seconds("report.render_matrix_image"),
        "report.write_csv_s": seconds("report.write_csv"),
        "cli.main_self_s": self_time["cli.main"] * per,
        "trace.request_s": seconds(REQUEST),
        "trace.spans_per_request": (len(spans) - len(requests)) * per,
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    for suffix, label in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_mb", "MB"),
                          ("_pct", "%"), ("_s", "s")):
        if name.endswith(suffix):
            return label
    return "count"
