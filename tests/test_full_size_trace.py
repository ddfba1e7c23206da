"""Full-size paper layers trace and replay within a bounded footprint.

VGG-16 conv1_1 (3 -> 64 channels, 224x224) at the Figs. 1-2 configuration
(512 b / 1 MB) under Direct (0.44M memory rows, 11.5M counted vector and
scalar instructions) and the two im2col+GEMM kernels (0.91M and 1.10M
memory rows).  Each traced run happens in a child process so that its
peak RSS is its own, not the test runner's.
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

#: Peak RSS bound of the traced child, in MB, per algorithm.  The trace
#: keeps per-row columns for memory rows only; most of the peak is the
#: interpreter, NumPy, the tensors and replay's line stream.  Measured
#: peaks over three runs each: Direct 128-130 MB (one row per instruction
#: needed ~510 MB), GEMM-3 235 MB, GEMM-6 279-283 MB.
PEAK_RSS_MB = {"direct": 300, "im2col_gemm3": 360, "im2col_gemm6": 420}

_CHILD = """
import json, resource, sys
import numpy as np
from repro.algorithms.registry import get_algorithm
from repro.isa.machine import VectorMachine
from repro.nn.models import vgg16_conv_specs
from repro.simulator.hwconfig import HardwareConfig
from repro.simulator.timing import TraceTimingModel

spec = vgg16_conv_specs()[0]
rng = np.random.default_rng(0)
x = rng.standard_normal((spec.ic, spec.ih, spec.iw)).astype(np.float32)
w = rng.standard_normal((spec.oc, spec.ic, spec.kh, spec.kw)).astype(np.float32)
machine = VectorMachine(512)
get_algorithm(sys.argv[1]).run_vectorized(spec, x, w, machine)
res = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0)).run(
    machine.trace, flush=True
)

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

print(json.dumps({
    "vector_instrs": res.vector_instrs,
    "memory_instrs": res.memory_instrs,
    "scalar_instrs": res.scalar_instrs,
    "cycles": res.cycles,
    "events": len(machine.trace),
    "peak_rss_mb": peak_mb(),
}))
"""


def _traced_child(algorithm: str) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, algorithm],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


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
    assert traced["peak_rss_mb"] < PEAK_RSS_MB[algorithm], traced


def test_vgg16_conv1_1_direct_traces_at_full_size():
    _check_traces_at_full_size("direct")


@pytest.mark.parametrize("algorithm", ["im2col_gemm3", "im2col_gemm6"])
def test_vgg16_conv1_1_gemm_traces_at_full_size(algorithm):
    _check_traces_at_full_size(algorithm)
