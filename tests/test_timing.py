"""Tests for the trace-driven timing engine."""

import numpy as np
import pytest

from repro.isa import VectorMachine
from repro.isa.trace import InstructionTrace
from repro.simulator.hwconfig import HardwareConfig
from repro.simulator.timing import TraceTimingModel
from tests.trace_oracle import MemoryOp, ScalarOp, emit


def saxpy_trace(vlen_bits: int, n: int = 4096) -> InstructionTrace:
    """Build a SAXPY trace on a machine of the given vector length."""
    m = VectorMachine(vlen_bits)
    x = m.alloc_from("x", np.arange(n, dtype=np.float32))
    y = m.alloc_from("y", np.ones(n, dtype=np.float32))
    i = 0
    while i < n:
        gvl = m.vsetvl(n - i)
        m.vload(0, y, i)
        m.vload(1, x, i)
        m.vfmacc_vf(0, 2.0, 1)
        m.vstore(0, y, i)
        i += gvl
    return m.trace


class TestTraceTiming:
    def test_nonzero_cycles(self):
        model = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0))
        res = model.run(saxpy_trace(512))
        assert res.cycles > 0
        assert res.vector_instrs > 0 and res.memory_instrs > 0

    def test_longer_vectors_fewer_cycles(self):
        """Integrated datapath scales with VL: SAXPY speeds up."""
        short = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0)).run(
            saxpy_trace(512)
        )
        long = TraceTimingModel(HardwareConfig.paper2_rvv(4096, 1.0)).run(
            saxpy_trace(4096)
        )
        assert long.cycles < short.cycles

    def test_warm_cache_faster_than_cold(self):
        model = TraceTimingModel(HardwareConfig.paper2_rvv(512, 4.0))
        trace = saxpy_trace(512, n=2048)  # 8KB x2: fits L1/L2
        cold = model.run(trace, flush=True)
        warm = model.run(trace)
        assert warm.cycles < cold.cycles
        assert warm.l2_misses < cold.l2_misses

    def test_scalar_ops_cost_one_cycle_each(self):
        model = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0))
        trace = InstructionTrace()
        emit(trace, ScalarOp("s", 100))
        res = model.run(trace)
        assert res.scalar_cycles == 100

    def test_strided_slower_than_unit(self):
        cfg = HardwareConfig.paper2_rvv(512, 1.0)
        unit = InstructionTrace()
        strided = InstructionTrace()
        for i in range(64):
            emit(unit, MemoryOp("vle", i * 64, 4, 16, 4, is_store=False))
            emit(strided, MemoryOp("vlse", i * 64, 4, 16, 4 * 64, is_store=False))
        u = TraceTimingModel(cfg).run(unit)
        s = TraceTimingModel(cfg).run(strided)
        assert s.cycles > u.cycles

    def test_prefetch_reduces_memory_cycles(self):
        base = HardwareConfig.paper2_rvv(512, 1.0)
        pf = base.with_(software_prefetch=True)
        trace = saxpy_trace(512, n=8192)
        cold = TraceTimingModel(base).run(trace, flush=True)
        fast = TraceTimingModel(pf).run(trace, flush=True)
        assert fast.memory_cycles < cold.memory_cycles

    def test_out_of_order_overlap(self):
        base = HardwareConfig.paper2_rvv(512, 1.0)
        ooo = base.with_(out_of_order=True)
        trace = saxpy_trace(512, n=2048)
        in_order = TraceTimingModel(base).run(trace, flush=True)
        out_order = TraceTimingModel(ooo).run(trace, flush=True)
        assert out_order.cycles < in_order.cycles

    def test_reset_cold_caches(self):
        model = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0))
        trace = saxpy_trace(512, n=1024)
        first = model.run(trace)
        model.reset()
        again = model.run(trace)
        assert again.l2_misses == first.l2_misses

    def test_unknown_event_rejected(self):
        """Unknown events never reach replay: ``emit`` refuses them and
        ``run`` refuses anything but an :class:`InstructionTrace`."""
        from repro.errors import SimulationError

        with pytest.raises(TypeError):
            emit(InstructionTrace(), "bogus")
        model = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0))
        with pytest.raises(SimulationError):
            model.run(["bogus"])

    def test_reset_rebuilds_dram_model(self):
        """reset() must restore the config's DRAM model, not keep a stale one."""
        from repro.simulator.memory import DramModel

        cfg = HardwareConfig.paper2_rvv(512, 1.0)
        model = TraceTimingModel(cfg)
        model.dram = DramModel(bytes_per_cycle=0.5, latency_cycles=9999)
        model.reset()
        assert model.dram == DramModel.from_config(cfg)
        # and timing after reset matches a fresh model's
        trace = saxpy_trace(512, n=1024)
        assert model.run(trace) == TraceTimingModel(cfg).run(trace)

    def test_counts_mode_trace_rejected_by_both_engines(self):
        from repro.errors import SimulationError

        model = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0))
        trace = InstructionTrace(mode="counts")
        emit(trace, ScalarOp("s", 1))
        with pytest.raises(SimulationError, match="'counts' mode"):
            model.run(trace)


class TestKernelLevelTiming:
    """Trace timing on the real vectorized kernels (small shapes)."""

    def test_gemm3_faster_than_scalar_equivalent(self, small_spec, small_tensors):
        from repro.algorithms import get_algorithm

        x, w = small_tensors
        cfg = HardwareConfig.paper2_rvv(512, 1.0)
        m = VectorMachine(512, trace=True)
        get_algorithm("im2col_gemm3").run_vectorized(small_spec, x, w, m)
        res = TraceTimingModel(cfg).run(m.trace)
        # a scalar implementation costs >= 2 instructions per MAC
        assert res.cycles < 2 * small_spec.macs

    def test_vectorized_kernels_report_high_avg_vl(self, small_spec, small_tensors):
        from repro.algorithms import get_algorithm

        x, w = small_tensors
        m = VectorMachine(512, trace=False)
        get_algorithm("im2col_gemm3").run_vectorized(small_spec, x, w, m)
        # the paper's Table III: optimized kernels nearly saturate the VL
        assert m.trace.stats.average_vl() > 8
