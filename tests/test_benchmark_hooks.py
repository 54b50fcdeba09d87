"""The benchmark's hooks into the program resolve.

``perfbench/tracing.py`` wraps the functions its ``TRACED`` table names,
``perfbench/ready.py`` calls ``cohsets._accel.warmup``, and
``benchmarks/bench_kernels.py`` imports names from ``cohsets`` and from
``tests/dense_reference.py``. A renamed or removed function would break those
runs without failing any other test.
"""

import importlib.util
from pathlib import Path

import numpy as np

import cohsets
from cohsets.model import CountMatrix

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, path):
    """The module at ``path``, executed without calling its ``main``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("perfbench_tracing", PERFBENCH / "tracing.py")


def test_traced_names_resolve():
    for name, (module_name, attr, _) in _tracing().TRACED.items():
        assert callable(getattr(importlib.import_module(module_name), attr, None)), name


def test_kernel_benchmark_imports_resolve():
    assert callable(_load("bench_kernels", ROOT / "benchmarks" / "bench_kernels.py").main)


def test_ready_probe_warmup_exists():
    assert "cohsets._accel.warmup()" in (PERFBENCH / "ready.py").read_text(encoding="utf-8")
    assert callable(cohsets._accel.warmup)


def test_cached_model_fires_the_traced_estimate():
    """CountMatrix.model estimates through the module binding the tracer wraps."""
    tracer = _tracing().Tracer()
    counts = CountMatrix(counts=np.array([[3, 1], [1, 2]]), total=7)
    tracer.install()
    try:
        tracer.request(1, lambda: counts.model)
    finally:
        tracer.uninstall()
    assert [span[3] for span in tracer.spans].count("model.estimate") == 1
