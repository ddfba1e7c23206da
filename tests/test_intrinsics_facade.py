"""Coverage of the EPI intrinsics façade (all spellings exercised)."""

import numpy as np
import pytest

from repro.isa import EpiIntrinsics, VectorMachine
from repro.isa.types import E64


@pytest.fixture
def epi():
    return EpiIntrinsics(VectorMachine(512, trace=True))


class TestFacadeCompleteness:
    def test_strided_spellings(self, epi):
        m = epi.m
        src = m.alloc_from("x", np.arange(32, dtype=np.float32))
        dst = m.alloc("y", 32)
        epi.vsetvl_e32(8)
        epi.vload_strided(0, src, 0, 4)
        epi.vstore_strided(0, dst, 0, 2)
        np.testing.assert_array_equal(dst.array[0:16:2], np.arange(0, 32, 4))

    def test_indexed_spellings(self, epi):
        m = epi.m
        src = m.alloc_from("x", np.arange(16, dtype=np.float32))
        dst = m.alloc("y", 16)
        epi.vsetvl_e32(4)
        epi.vload_indexed(1, src, np.array([5, 1, 9, 3]))
        epi.vstore_indexed(1, dst, np.array([0, 1, 2, 3]))
        np.testing.assert_array_equal(dst.array[:4], [5, 1, 9, 3])

    def test_arith_spellings(self, epi):
        epi.vsetvl_e32(8)
        epi.vbroadcast(0, 2.0)
        epi.vbroadcast(1, 3.0)
        epi.vfadd(2, 0, 1)
        epi.vfsub(3, 1, 0)
        epi.vfmul(4, 0, 1)
        epi.vfmacc(4, 0, 1)  # 6 + 6 = 12
        epi.vfmul_vf(5, 10.0, 0)
        m = epi.m
        np.testing.assert_array_equal(m.reg_values(2), np.full(8, 5.0))
        np.testing.assert_array_equal(m.reg_values(3), np.full(8, 1.0))
        np.testing.assert_array_equal(m.reg_values(4), np.full(8, 12.0))
        np.testing.assert_array_equal(m.reg_values(5), np.full(8, 20.0))

    def test_e64_spelling(self, epi):
        assert epi.vsetvl_e64(1000) == 8  # 512 bits / 64
        assert epi.m.sew is E64

    def test_trace_records_facade_calls(self, epi):
        src = epi.m.alloc_from("x", np.ones(8, dtype=np.float32))
        epi.vsetvl_e32(8)
        epi.vload(0, src, 0)
        epi.vredsum(0)
        trace = epi.m.trace
        assert [trace.op_names[op] for op in trace.columns().op] == ["vle"]
        assert trace.vector_counts == {("vredsum", 8, 32): 1}
        assert trace.scalar_counts == {"vsetvl": 1}
