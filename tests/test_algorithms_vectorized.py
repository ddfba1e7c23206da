"""Intrinsics-level kernels: correctness on the vector machine + trace shape."""

import numpy as np
import pytest

from repro.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.algorithms.gemm_kernels import (
    UNROLL,
    gemm3_vectorized,
    gemm6_vectorized,
    gemm_naive,
)
from repro.algorithms.im2col import im2col, im2col_vectorized
from repro.isa import VectorMachine
from repro.nn.layer import ConvSpec
from repro.nn.reference import conv2d_reference
from tests.trace_oracle import memory_ops


def random_case(rng, **dims):
    spec = ConvSpec(**dims)
    x = rng.standard_normal((spec.ic, spec.ih, spec.iw)).astype(np.float32)
    w = (0.3 * rng.standard_normal(
        (spec.oc, spec.ic, spec.kh, spec.kw)
    )).astype(np.float32)
    return spec, x, w


class TestGemmKernels:
    @pytest.mark.parametrize("m,k,n", [(4, 5, 40), (17, 3, 33), (16, 16, 16),
                                       (1, 1, 70), (19, 7, 100)])
    @pytest.mark.parametrize("kernel", [gemm3_vectorized, gemm6_vectorized])
    def test_matches_numpy(self, rng, m, k, n, kernel):
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        machine = VectorMachine(512, trace=False)
        a_buf = machine.alloc_from("a", a)
        b_buf = machine.alloc_from("b", b)
        c_buf = machine.alloc("c", m * n)
        kernel(machine, a_buf, b_buf, c_buf, m, k, n)
        np.testing.assert_allclose(
            c_buf.array.reshape(m, n), a @ b, atol=1e-4
        )

    def test_alpha_scaling(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.float32)
        b = rng.standard_normal((4, 8)).astype(np.float32)
        machine = VectorMachine(256, trace=False)
        bufs = [machine.alloc_from("a", a), machine.alloc_from("b", b),
                machine.alloc("c", 32)]
        gemm3_vectorized(machine, *bufs, 4, 4, 8, alpha=2.0)
        np.testing.assert_allclose(bufs[2].array.reshape(4, 8), 2 * a @ b, atol=1e-4)

    def test_gemm_naive_matches(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((4, 5)).astype(np.float32)
        np.testing.assert_allclose(gemm_naive(a, b), a @ b, atol=1e-5)

    def test_unroll_is_paper_16(self):
        assert UNROLL == 16

    def test_long_vector_uses_fewer_instructions(self, rng):
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 256)).astype(np.float32)

        def count(vlen):
            m = VectorMachine(vlen, trace=False)
            gemm3_vectorized(
                m, m.alloc_from("a", a), m.alloc_from("b", b), m.alloc("c", 8 * 256),
                8, 8, 256,
            )
            return m.trace.stats.vector_instrs + m.trace.stats.memory_instrs

        assert count(2048) < count(512)


class TestIm2colVectorized:
    @pytest.mark.parametrize(
        "dims",
        [dict(ic=2, oc=1, ih=7, iw=9, kh=3, kw=3),
         dict(ic=3, oc=1, ih=8, iw=8, kh=3, kw=3, stride=2),
         dict(ic=2, oc=1, ih=5, iw=5, kh=1, kw=1)],
    )
    def test_matches_functional(self, rng, dims):
        spec, x, _ = random_case(rng, **dims)
        machine = VectorMachine(512, trace=False)
        col_buf = im2col_vectorized(spec, x, machine)
        np.testing.assert_array_equal(
            col_buf.array.reshape(spec.gemm_k, spec.gemm_n), im2col(spec, x)
        )

    def test_strided_loads_for_stride2(self, rng):
        spec, x, _ = random_case(rng, ic=1, oc=1, ih=8, iw=8, kh=3, kw=3, stride=2)
        machine = VectorMachine(512, trace=True)
        im2col_vectorized(spec, x, machine)
        names = {op.name for op in memory_ops(machine.trace)}
        assert "vlse" in names


class TestVectorizedConvolutions:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_matches_reference(self, rng, name, small_spec, small_tensors):
        x, w = small_tensors
        machine = VectorMachine(512, trace=False)
        out = get_algorithm(name).run_vectorized(small_spec, x, w, machine)
        ref = conv2d_reference(small_spec, x, w)
        tol = 1e-3 if name == "winograd" else 1e-4
        np.testing.assert_allclose(out, ref, atol=tol)
        assert machine.trace.stats.total_instrs > 0

    @pytest.mark.parametrize("vlen", [256, 512, 2048])
    def test_vla_portability(self, rng, vlen, small_spec, small_tensors):
        """The same kernel runs unmodified at any vector length (VLA)."""
        x, w = small_tensors
        ref = conv2d_reference(small_spec, x, w)
        for name in ("direct", "im2col_gemm3", "winograd"):
            machine = VectorMachine(vlen, trace=False)
            out = get_algorithm(name).run_vectorized(small_spec, x, w, machine)
            np.testing.assert_allclose(out, ref, atol=2e-3)

    def test_direct_stride2_vectorized(self, rng):
        spec, x, w = random_case(rng, ic=3, oc=5, ih=10, iw=10, kh=3, kw=3, stride=2)
        machine = VectorMachine(512, trace=False)
        out = get_algorithm("direct").run_vectorized(spec, x, w, machine)
        np.testing.assert_allclose(out, conv2d_reference(spec, x, w), atol=1e-4)

    def test_winograd_intertile_many_channels(self, rng):
        """IC > channels-per-vector: multiple channel groups per tile."""
        spec, x, w = random_case(rng, ic=12, oc=6, ih=12, iw=12, kh=3, kw=3)
        machine = VectorMachine(512, trace=False)
        out = get_algorithm("winograd").run_vectorized(spec, x, w, machine)
        np.testing.assert_allclose(
            out, conv2d_reference(spec, x, w), atol=2e-3
        )

    def test_winograd_fallback_ic3(self, rng):
        """IC=3 < 4: the single-tile fallback path still computes correctly."""
        spec, x, w = random_case(rng, ic=3, oc=4, ih=9, iw=9, kh=3, kw=3)
        machine = VectorMachine(512, trace=False)
        out = get_algorithm("winograd").run_vectorized(spec, x, w, machine)
        np.testing.assert_allclose(out, conv2d_reference(spec, x, w), atol=2e-3)
