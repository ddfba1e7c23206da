"""Tests for the vector ISA substrate: types, registers, machine, trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IsaError, RegisterError, VectorLengthError
from repro.isa import (
    E8,
    E16,
    E32,
    E64,
    EpiIntrinsics,
    InstructionTrace,
    VectorMachine,
    VectorRegisterFile,
)
from repro.isa.types import element_type_for_bits, grant_vl, validate_vlen_bits
from tests.trace_oracle import (
    MemoryOp,
    ScalarOp,
    VectorOp,
    emit,
    line_addresses,
    memory_ops,
)


class TestTypes:
    def test_element_widths(self):
        assert E8.bytes == 1 and E16.bytes == 2 and E32.bytes == 4 and E64.bytes == 8

    def test_lookup_by_bits(self):
        assert element_type_for_bits(32) is E32
        with pytest.raises(IsaError, match="unsupported SEW"):
            element_type_for_bits(12)

    @pytest.mark.parametrize("vlen", [64, 512, 2048, 16384])
    def test_validate_vlen_accepts(self, vlen):
        validate_vlen_bits(vlen)

    @pytest.mark.parametrize("vlen", [0, 100, 32, 32768, -512])
    def test_validate_vlen_rejects(self, vlen):
        with pytest.raises(VectorLengthError):
            validate_vlen_bits(vlen)

    def test_grant_vl_caps_at_vlmax(self):
        assert grant_vl(100, E32, 512) == 16
        assert grant_vl(10, E32, 512) == 10
        assert grant_vl(0, E32, 512) == 0

    def test_grant_vl_depends_on_sew(self):
        assert grant_vl(1000, E64, 512) == 8
        assert grant_vl(1000, E8, 512) == 64

    def test_grant_vl_negative(self):
        with pytest.raises(VectorLengthError):
            grant_vl(-1, E32, 512)

    @given(req=st.integers(0, 10**6), vlen=st.sampled_from([128, 512, 4096, 16384]))
    @settings(max_examples=50)
    def test_grant_vl_properties(self, req, vlen):
        """vsetvl grant: never exceeds request or VLMAX; monotone in request."""
        got = grant_vl(req, E32, vlen)
        assert 0 <= got <= min(req, vlen // 32)
        assert grant_vl(req + 1, E32, vlen) >= got


class TestRegisterFile:
    def test_has_32_registers(self):
        rf = VectorRegisterFile(512)
        assert rf.num_regs == 32
        assert rf.vlen_bytes == 64

    def test_write_read_roundtrip(self):
        rf = VectorRegisterFile(512)
        data = np.arange(16, dtype=np.float32)
        rf.write(3, E32, data)
        np.testing.assert_array_equal(rf.read(3, E32, 16), data)

    def test_tail_undisturbed(self):
        rf = VectorRegisterFile(512)
        rf.write(0, E32, np.full(16, 7.0, dtype=np.float32))
        rf.write(0, E32, np.full(4, 1.0, dtype=np.float32))
        out = rf.read(0, E32, 16)
        assert (out[:4] == 1.0).all() and (out[4:] == 7.0).all()

    def test_sew_punning(self):
        rf = VectorRegisterFile(512)
        rf.write(1, E32, np.ones(16, dtype=np.float32))
        raw = rf.view(1, E8)
        assert raw.size == 64  # same bytes reinterpreted

    def test_bad_register_index(self):
        rf = VectorRegisterFile(512)
        with pytest.raises(RegisterError):
            rf.read(32, E32, 1)
        with pytest.raises(RegisterError):
            rf.view(-1, E32)

    def test_overlong_write_rejected(self):
        rf = VectorRegisterFile(128)
        with pytest.raises(RegisterError):
            rf.write(0, E32, np.zeros(5, dtype=np.float32))

    def test_clear(self):
        rf = VectorRegisterFile(128)
        rf.write(0, E32, np.ones(4, dtype=np.float32))
        rf.clear()
        assert (rf.read(0, E32, 4) == 0).all()


class TestMachine:
    def test_vsetvl_sets_state(self):
        m = VectorMachine(512)
        assert m.vsetvl(100) == 16
        assert m.vl == 16
        assert m.vsetvl(5) == 5

    def test_alloc_and_addresses(self):
        m = VectorMachine(512)
        a = m.alloc("a", 10)
        b = m.alloc("b", 10)
        assert a.base % 64 == 0 and b.base % 64 == 0
        assert b.base >= a.base + a.nbytes
        assert a.addr(3) == a.base + 12

    def test_alloc_duplicate_name(self):
        m = VectorMachine(512)
        m.alloc("a", 4)
        with pytest.raises(IsaError, match="already allocated"):
            m.alloc("a", 4)

    def test_buffer_lookup(self):
        m = VectorMachine(512)
        buf = m.alloc("x", 4)
        assert m.buffer("x") is buf
        with pytest.raises(IsaError, match="no buffer"):
            m.buffer("missing")

    def test_load_store_roundtrip(self):
        m = VectorMachine(512)
        src = m.alloc_from("src", np.arange(20, dtype=np.float32))
        dst = m.alloc("dst", 20)
        m.vsetvl(16)
        m.vload(0, src, 2)
        m.vstore(0, dst, 0)
        np.testing.assert_array_equal(dst.array[:16], np.arange(2, 18))

    def test_load_overrun_rejected(self):
        m = VectorMachine(512)
        src = m.alloc("src", 10)
        m.vsetvl(16)
        with pytest.raises(IsaError, match="overruns"):
            m.vload(0, src, 0)

    def test_batched_overrun_rejected(self):
        """The multi-row copy checks every row it touches (the GEMM
        kernels' operand checks are in test_trace_equivalence.py)."""
        m = VectorMachine(512)
        src = m.alloc("src", 64)
        dst = m.alloc("dst", 64)
        m.vsetvl(16)
        with pytest.raises(IsaError, match="overruns"):
            m.vcopy_strips(src, [0, 8], dst, [0, 50], 16)
        with pytest.raises(IsaError, match="overruns"):  # strided row below 0
            m.vcopy_strips(src, [40, 20], dst, [0, 16], 8, src_stride=-3)
        assert len(m.trace) == 1  # only the vsetvl: nothing half-recorded

    def test_strided_ops(self):
        m = VectorMachine(512)
        src = m.alloc_from("src", np.arange(64, dtype=np.float32))
        dst = m.alloc("dst", 64)
        m.vsetvl(8)
        m.vload_strided(1, src, 0, 4)
        np.testing.assert_array_equal(m.reg_values(1), np.arange(0, 32, 4))
        m.vstore_strided(1, dst, 0, 2)
        np.testing.assert_array_equal(dst.array[0:16:2], np.arange(0, 32, 4))

    def test_gather_scatter(self):
        m = VectorMachine(512)
        src = m.alloc_from("src", np.arange(32, dtype=np.float32))
        dst = m.alloc("dst", 32)
        m.vsetvl(4)
        idx = np.array([3, 1, 20, 7])
        m.vgather(2, src, idx)
        np.testing.assert_array_equal(m.reg_values(2), [3, 1, 20, 7])
        m.vscatter(2, dst, np.array([0, 2, 4, 6]))
        np.testing.assert_array_equal(dst.array[[0, 2, 4, 6]], [3, 1, 20, 7])

    def test_indexed_ops_check_their_offsets(self):
        """A gather/scatter needs ``vl`` offsets, all inside the buffer: a
        negative one would wrap to the buffer's end while the trace records
        an address before it, and a short list would move fewer elements
        than the trace counts."""
        m = VectorMachine(512)
        buf = m.alloc_from("buf", np.arange(8, dtype=np.float32))
        m.vsetvl(4)
        for offsets, message in (
            ([0, 1, 2, -1], r"offsets \[-1, 2\] outside buffer 'buf'"),
            ([-2, 1, 2, 3], r"offsets \[-2, 3\] outside buffer 'buf'"),
            ([0, 8, 2, 3], r"offsets \[0, 8\] outside buffer 'buf'"),
            ([0, 1], r"of 4 elements got 2 offsets for buffer 'buf'"),
        ):
            with pytest.raises(IsaError, match=message):
                m.vgather(1, buf, np.array(offsets))
            with pytest.raises(IsaError, match=message):
                m.vscatter(1, buf, np.array(offsets))
        assert np.array_equal(buf.array, np.arange(8))
        assert len(m.trace) == 1  # only the vsetvl: nothing recorded
        assert m.trace.stats.memory_instrs == 0
        # extra offsets past vl are ignored, as before
        m.vgather(1, buf, np.array([7, 0, 6, 1, 99]))
        assert memory_ops(m.trace)[-1].indices == (28, 0, 24, 4)

    def test_strided_ops_check_their_range(self):
        """Every strided element must lie inside the buffer: a negative
        index would wrap to the buffer's end while the trace records an
        address before it."""
        m = VectorMachine(512)
        buf = m.alloc_from("buf", np.arange(8, dtype=np.float32))
        m.vsetvl(4)
        for op, offset, stride, message in (
            (m.vload_strided, 0, -1, r"vload_strided elements \[-3, 0\]"),
            (m.vload_strided, 6, 2, r"vload_strided elements \[6, 12\]"),
            (m.vstore_strided, 5, 1, r"vstore_strided elements \[5, 8\]"),
            (m.vstore_strided, 1, -1, r"vstore_strided elements \[-2, 1\]"),
        ):
            with pytest.raises(IsaError, match=message + " outside buffer 'buf'"):
                op(1, buf, offset, stride)
        for op in (m.vload, m.vstore):  # unit stride below 0
            with pytest.raises(IsaError, match="at offset -8 overruns buffer 'buf'"):
                op(1, buf, -8)
        assert np.array_equal(buf.array, np.arange(8))
        assert len(m.trace) == 1  # only the vsetvl: nothing recorded
        # a negative stride that stays inside is fine
        m.vload_strided(1, buf, 7, -2)
        np.testing.assert_array_equal(m.reg_values(1), [7, 5, 3, 1])
        op = memory_ops(m.trace)[-1]
        assert (op.base, op.stride) == (buf.addr(7), -8)

    def test_memory_ops_need_sew_wide_buffers(self):
        """The trace records SEW-wide elements, so a buffer of another
        width would be traced at addresses that disagree with the data."""
        m = VectorMachine(512)
        wide = m.alloc_from("wide", np.arange(16, dtype=np.float64))
        m.vsetvl(4)
        calls = {
            "vload": lambda: m.vload(1, wide, 2),
            "vstore": lambda: m.vstore(1, wide, 2),
            "vload_strided": lambda: m.vload_strided(1, wide, 0, 2),
            "vstore_strided": lambda: m.vstore_strided(1, wide, 0, 2),
            "vgather": lambda: m.vgather(1, wide, np.arange(4)),
            "vscatter": lambda: m.vscatter(1, wide, np.arange(4)),
        }
        for op, call in calls.items():
            with pytest.raises(
                IsaError, match=f"{op} at SEW=32 on buffer 'wide' of 8-byte"
            ):
                call()
        narrow = m.alloc("narrow", 16)
        for src, dst in ((wide, narrow), (narrow, wide)):
            with pytest.raises(IsaError, match="vcopy_strips at SEW=32"):
                m.vcopy_strips(src, 0, dst, 0, 8)
        assert np.array_equal(wide.array, np.arange(16))
        assert len(m.trace) == 1  # only the vsetvl: nothing recorded
        # at a matching SEW the same load moves and records 8-byte elements
        m.vsetvl(4, E64)
        m.vload(1, wide, 2)
        np.testing.assert_array_equal(m.reg_values(1), [2, 3, 4, 5])
        op = memory_ops(m.trace)[-1]
        assert (op.base, op.elem_bytes, op.stride) == (wide.base + 16, 8, 8)
        with pytest.raises(IsaError, match="vload at SEW=64 on buffer 'narrow'"):
            m.vload(1, narrow, 0)

    def test_arithmetic_semantics(self):
        m = VectorMachine(256)
        m.vsetvl(8)
        a = m.alloc_from("a", np.arange(8, dtype=np.float32))
        b = m.alloc_from("b", np.full(8, 2.0, dtype=np.float32))
        m.vload(1, a, 0)
        m.vload(2, b, 0)
        m.vfadd(3, 1, 2)
        np.testing.assert_array_equal(m.reg_values(3), np.arange(8) + 2)
        m.vfsub(3, 1, 2)
        np.testing.assert_array_equal(m.reg_values(3), np.arange(8) - 2)
        m.vfmul(3, 1, 2)
        np.testing.assert_array_equal(m.reg_values(3), np.arange(8) * 2)
        m.vfmax(3, 1, 2)
        np.testing.assert_array_equal(m.reg_values(3), np.maximum(np.arange(8), 2))

    def test_fmacc_accumulates(self):
        m = VectorMachine(256)
        m.vsetvl(8)
        m.vbroadcast(0, 1.0)
        m.vbroadcast(1, 3.0)
        m.vbroadcast(2, 10.0)
        m.vfmacc(2, 0, 1)  # 10 + 1*3
        np.testing.assert_array_equal(m.reg_values(2), np.full(8, 13.0))
        m.vfmacc_vf(2, 2.0, 1)  # 13 + 2*3
        np.testing.assert_array_equal(m.reg_values(2), np.full(8, 19.0))

    def test_vfmul_vf_and_vmv(self):
        m = VectorMachine(256)
        m.vsetvl(4)
        m.vbroadcast(1, 3.0)
        m.vfmul_vf(2, 2.0, 1)
        np.testing.assert_array_equal(m.reg_values(2), np.full(4, 6.0))
        m.vmv(3, 2)
        np.testing.assert_array_equal(m.reg_values(3), np.full(4, 6.0))

    def test_vredsum(self):
        m = VectorMachine(512)
        m.vsetvl(16)
        buf = m.alloc_from("x", np.arange(16, dtype=np.float32))
        m.vload(0, buf, 0)
        assert m.vredsum(0) == float(np.arange(16).sum())

    def test_scalar_accounting(self):
        m = VectorMachine(512)
        m.scalar(5)
        assert m.trace.stats.scalar_instrs == 5
        with pytest.raises(IsaError):
            m.scalar(-1)

    def test_trace_statistics(self):
        m = VectorMachine(512)
        m.vsetvl(16)
        buf = m.alloc("x", 16)
        m.vload(0, buf, 0)
        m.vfadd(1, 0, 0)
        m.vstore(1, buf, 0)
        s = m.trace.stats
        assert s.vector_instrs == 1
        assert s.memory_instrs == 2
        assert s.load_bytes == 64 and s.store_bytes == 64
        assert s.average_vl() == 16

    def test_trace_disabled_keeps_stats(self):
        m = VectorMachine(512, trace=False)
        m.vsetvl(8)
        m.vbroadcast(0, 1.0)
        assert len(m.trace) == 0
        assert m.trace.stats.vector_instrs == 1


class TestTraceEvents:
    def test_touched_lines_unit_stride(self):
        op = MemoryOp("vle", 0, 4, 32, 4, is_store=False)
        assert line_addresses(op, 64).tolist() == [0, 64]

    def test_touched_lines_strided_touches_each_line(self):
        op = MemoryOp("vlse", 0, 4, 4, 128, is_store=False)
        assert line_addresses(op, 64).tolist() == [0, 128, 256, 384]

    def test_touched_lines_indexed(self):
        op = MemoryOp("vluxei", 0, 4, 3, 0, False, indices=(0, 4, 200))
        assert line_addresses(op, 64).tolist() == [0, 192]

    def test_zero_vl(self):
        op = MemoryOp("vle", 0, 4, 0, 4, is_store=False)
        assert line_addresses(op, 64).tolist() == []

    def test_trace_rejects_unknown_event(self):
        trace = InstructionTrace()
        with pytest.raises(TypeError):
            emit(trace, "nonsense")

    def test_trace_clear(self):
        trace = InstructionTrace()
        emit(trace, VectorOp("vfadd", 8, 32))
        emit(trace, ScalarOp("s", 2))
        trace.clear()
        assert len(trace) == 0 and trace.stats.total_instrs == 0


class TestIntrinsicsFacade:
    def test_saxpy(self):
        m = VectorMachine(512)
        epi = EpiIntrinsics(m)
        n = 50
        x = m.alloc_from("x", np.arange(n, dtype=np.float32))
        y = m.alloc_from("y", np.ones(n, dtype=np.float32))
        i = 0
        while i < n:
            gvl = epi.vsetvl_e32(n - i)
            epi.vload(0, y, i)
            epi.vload(1, x, i)
            epi.vfmacc_vf(0, 2.0, 1)
            epi.vstore(0, y, i)
            i += gvl
        np.testing.assert_allclose(y.array, 1.0 + 2.0 * np.arange(n))

    def test_dot_product(self):
        m = VectorMachine(256)
        epi = EpiIntrinsics(m)
        a = m.alloc_from("a", np.arange(8, dtype=np.float32))
        b = m.alloc_from("b", np.arange(8, dtype=np.float32))
        epi.vsetvl_e32(8)
        epi.vload(0, a, 0)
        epi.vload(1, b, 0)
        epi.vfmul(2, 0, 1)
        assert epi.vredsum(2) == float((np.arange(8) ** 2).sum())

    def test_vsetvlmax(self):
        m = VectorMachine(1024)
        epi = EpiIntrinsics(m)
        assert epi.vsetvlmax() == 32
