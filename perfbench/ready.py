"""Set-up probe: a fresh interpreter imports cohsets and warms its kernels.

run.py starts this file with PYTHONPATH pointing at the checkout's src/ and
times it until the line below arrives. The line carries the import time and
the warm-up time measured inside the interpreter, in seconds.
"""

import time

start = time.perf_counter()
import cohsets  # noqa: E402

imported = time.perf_counter()
cohsets._accel.warmup()
ready = time.perf_counter()
print(f"{imported - start!r} {ready - imported!r}", flush=True)
