"""Helpers shared by the benchmark's orchestrator and its worker processes.

Nothing here imports :mod:`repro`: the orchestrator stays a light client
process, and each worker imports the package itself, so its import time is
part of the set-up it measures.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: The benchmark's own directory and the checkout root it runs from.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch directory for sockets, span dumps and server logs (gitignored).
#: Relative to the checkout root, so unix-socket paths stay short.
RUN_DIR = Path(".perfbench-run")

#: Fresh start-ups per run whose median is ``setup_s``.
SETUP_SAMPLES = 5

#: Seconds one :func:`calibrate` block takes at the reference speed.
CALIBRATION_REF_S = 0.005

#: Marker a worker prints once its warm-up op is done (ends set-up).
READY = "PERFBENCH-READY"
#: Prefix of the one JSON result line a worker prints before exiting.
RESULT = "PERFBENCH-RESULT "


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


_CAL_ARRAYS: tuple | None = None


def calibrate() -> float:
    """Seconds taken by one fixed block of interpreter and NumPy work.

    On a shared 2-vCPU host, speed drifts by up to 2x between minutes (its
    neighbours' load), and the workloads slow down with it.  The benchmark
    runs this block next to the work it times -- after every op, and after
    every set-up -- and reports that work at the reference speed::

        reference seconds = wall seconds * CALIBRATION_REF_S / block seconds

    The block mixes what the workloads do: interpreter loops with string
    hashing and dict stores, small vector maths and random gathers over
    half a megabyte.  It owns all its data (about 1 MB, so it barely moves
    ``peak_rss_mb``), holds no objects the collector has to traverse and
    runs with the collector paused, so the measured program's heap does not
    change its cost.
    """
    import numpy as np

    global _CAL_ARRAYS
    if _CAL_ARRAYS is None:
        rng = np.random.default_rng(12345)
        _CAL_ARRAYS = (rng.standard_normal(1 << 16), rng.permutation(1 << 16))
    data, index = _CAL_ARRAYS
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = 0.0
        for i in range(6000):
            table[hash("k" + str(i)) & 0x3FFF] = i * 1.5
            acc += (i % 13) * 0.5
        vec = np.arange(8192, dtype=np.float64)
        for _ in range(12):
            vec = np.sqrt(vec * 1.0001 + 1.0)
        for _ in range(4):
            data.take(index).sum()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def at_reference(wall_s: float, cal_s: float) -> float:
    """``wall_s`` seconds of work, re-expressed at the reference speed."""
    return wall_s * CALIBRATION_REF_S / cal_s


def setup_calibration() -> float:
    """Median of three :func:`calibrate` blocks, run right after a set-up."""
    return median([calibrate() for _ in range(3)])


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    """Environment of a child process: ``src/`` first on the import path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def spawn_worker(script: str, args: list[str]) -> subprocess.Popen:
    """Start ``python3 perfbench/<script> args...`` from the checkout root."""
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )


def emit_result(payload: dict) -> None:
    """Worker side: print the result line the orchestrator parses."""
    print(RESULT + json.dumps(payload), flush=True)


def fingerprint() -> dict:
    """Machine and package facts that every result is recorded with.

    Runs inside a worker (it imports :mod:`repro` to ask which backends
    ``auto`` resolves to).
    """
    import numpy

    from repro.simulator._compiled import HAVE_NUMBA
    from repro.simulator.analytical.grid import resolve_grid_backend
    from repro.simulator.replay_backend import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": bool(HAVE_NUMBA),
        "grid_backend": resolve_grid_backend("auto").name,
        "replay_backend": resolve_backend("auto").name,
    }


class WorkerError(RuntimeError):
    """A worker process exited abnormally or printed no result."""


def read_worker(proc: subprocess.Popen) -> tuple[float | None, dict]:
    """Collect a worker's output: (``perf_counter`` at READY, result).

    ``READY`` is stamped when its line arrives, so a set-up interval runs
    from just before the spawn (the caller's stamp) to this read.
    """
    ready_at = None
    result = None
    assert proc.stdout is not None
    for line in proc.stdout:
        if line.startswith(READY) and ready_at is None:
            ready_at = time.perf_counter()
        elif line.startswith(RESULT):
            result = json.loads(line[len(RESULT):])
    proc.wait()
    if proc.returncode != 0 or result is None:
        raise WorkerError(
            f"worker exited with code {proc.returncode}"
            + ("" if result is not None else " without a result")
        )
    return ready_at, result
