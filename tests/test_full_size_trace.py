"""Full-size paper layers trace and replay within a bounded footprint.

VGG-16 conv1_1 (3 -> 64 channels, 224x224) at the Figs. 1-2 configuration
(512 b / 1 MB) under Direct (0.44M memory rows, 11.5M counted vector and
scalar instructions) and the two im2col+GEMM kernels (0.91M and 1.10M
memory rows), and, as slow tests, conv1_2 (64 -> 64 channels) under
Direct (5.36M memory rows, 121M events) and GEMM-3 (11.2M memory rows).
Each traced run happens in a child process so that its peak RSS is its
own, not the test runner's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.registry import get_algorithm
from repro.isa.machine import VectorMachine
from repro.nn.models import vgg16_conv_specs

#: Bound, in MB per algorithm, on what tracing and replaying conv1_1 adds
#: to the traced child's peak RSS above its footprint before generation
#: (interpreter, NumPy, the input tensors and the replay backend, Numba
#: included where installed).  The trace keeps per-row columns for memory
#: rows only, and replay expands at most ``REPLAY_CHUNK_ROWS`` of them at a
#: time.  Measured over three runs each, on a 38 MB starting footprint:
#: Direct 62-64 MB, GEMM-3 71-74 MB, GEMM-6 96-97 MB (with the whole
#: layer's line stream expanded at once: 91, 199 and 241 MB).
PEAK_RSS_MB = {"direct": 100, "im2col_gemm3": 120, "im2col_gemm6": 150}

#: The same for conv1_2: measured Direct 309 MB, GEMM-3 596 MB on a 73 MB
#: starting footprint (with the whole line stream at once: 917 and
#: 2,672 MB).
CONV1_2_PEAK_RSS_MB = {"direct": 500, "im2col_gemm3": 800}

_CHILD = """
import json, resource, sys
import numpy as np
from repro.algorithms.registry import get_algorithm
from repro.isa.machine import VectorMachine
from repro.isa.trace import InstructionTrace
from repro.nn.models import vgg16_conv_specs
from repro.simulator.hwconfig import HardwareConfig
from repro.simulator.timing import TraceTimingModel

def peak_mb():
    # VmHWM is this address space's own peak: Linux carries ru_maxrss
    # over exec, so that would include the forking test process's RSS
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024

spec = vgg16_conv_specs()[int(sys.argv[2])]
rng = np.random.default_rng(0)
x = rng.standard_normal((spec.ic, spec.ih, spec.iw)).astype(np.float32)
w = rng.standard_normal((spec.oc, spec.ic, spec.kh, spec.kw)).astype(np.float32)
hw = HardwareConfig.paper2_rvv(512, 1.0)
# replay one row first, so a compiled backend is loaded before the
# starting footprint is read
warm = InstructionTrace()
warm.emit_memory("vle", 0, 4, 16, 4, False)
TraceTimingModel(hw).run(warm)
start_peak = peak_mb()
machine = VectorMachine(512)
get_algorithm(sys.argv[1]).run_vectorized(spec, x, w, machine)
generated_peak = peak_mb()
res = TraceTimingModel(hw).run(machine.trace, flush=True)

print(json.dumps({
    "vector_instrs": res.vector_instrs,
    "memory_instrs": res.memory_instrs,
    "scalar_instrs": res.scalar_instrs,
    "cycles": res.cycles,
    "events": len(machine.trace),
    "start_peak_rss_mb": start_peak,
    "generated_peak_rss_mb": generated_peak,
    "peak_rss_mb": peak_mb(),
}))
"""


def _traced_child(algorithm: str, layer: int = 0) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, algorithm, str(layer)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _added_rss_mb(traced: dict) -> float:
    return traced["peak_rss_mb"] - traced["start_peak_rss_mb"]


def _check_traces_at_full_size(algorithm: str) -> None:
    spec = vgg16_conv_specs()[0]
    assert (spec.ic, spec.oc, spec.ih, spec.iw) == (3, 64, 224, 224)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((spec.ic, spec.ih, spec.iw)).astype(np.float32)
    w = rng.standard_normal((spec.oc, spec.ic, spec.kh, spec.kw)).astype(np.float32)
    counted = VectorMachine(512, trace="counts")
    get_algorithm(algorithm).run_vectorized(spec, x, w, counted)
    stats = counted.trace.stats

    traced = _traced_child(algorithm)
    assert traced["vector_instrs"] == stats.vector_instrs
    assert traced["memory_instrs"] == stats.memory_instrs
    assert traced["scalar_instrs"] == stats.scalar_instrs
    assert traced["events"] > stats.vector_instrs + stats.memory_instrs
    assert traced["cycles"] > 0
    assert _added_rss_mb(traced) < PEAK_RSS_MB[algorithm], traced


def test_vgg16_conv1_1_direct_traces_at_full_size():
    _check_traces_at_full_size("direct")


@pytest.mark.parametrize("algorithm", ["im2col_gemm3", "im2col_gemm6"])
def test_vgg16_conv1_1_gemm_traces_at_full_size(algorithm):
    _check_traces_at_full_size(algorithm)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["direct", "im2col_gemm3"])
def test_vgg16_conv1_2_replay_stays_within_the_trace_footprint(algorithm):
    traced = _traced_child(algorithm, layer=1)
    assert traced["memory_instrs"] > 0 and traced["cycles"] > 0
    assert _added_rss_mb(traced) < CONV1_2_PEAK_RSS_MB[algorithm], traced
    # replay's temporaries follow the chunk, so they stay within the
    # footprint that generating the trace already reached
    assert traced["peak_rss_mb"] <= 1.05 * traced["generated_peak_rss_mb"], traced
