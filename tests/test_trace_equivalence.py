"""Batched fast paths vs per-op references: trace equivalence.

The batched kernels (``run_vectorized``, ``gemm*_vectorized``,
``im2col_vectorized``) must be *observationally identical* to their per-op
references in ``tests/trace_oracle.py``: bit-identical outputs, identical per-category instruction
counts (the full :class:`TraceStats`), and the same ordered memory-op
address stream — the three things the cache/timing simulators and the
experiment harnesses consume.  Event granularity (how many ``ScalarOp``
rows a given count is split across) is explicitly *not* part of the
contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import gemm_kernels as gk
from repro.algorithms.direct import DirectConv
from repro.algorithms.im2col import col2im_output, im2col_vectorized
from repro.algorithms.im2col_gemm import Im2colGemm3, Im2colGemm6
from repro.algorithms.winograd import WinogradConv
from repro.isa.machine import VectorMachine
from repro.isa.types import E32
from repro.nn.layer import ConvSpec
from tests.trace_oracle import (
    direct_perop,
    gemm3_vectorized_perop,
    gemm6_vectorized_perop,
    im2col_vectorized_perop,
    winograd_perop,
)

VLENS = [128, 256, 512]

SPEC = ConvSpec(ic=5, oc=7, ih=13, iw=11, kh=3, kw=3, stride=1, pad=1)
SPEC_S2 = ConvSpec(ic=4, oc=6, ih=9, iw=11, kh=3, kw=3, stride=2, pad=1)
SPEC_1X1 = ConvSpec(ic=6, oc=9, ih=7, iw=8, kh=1, kw=1, stride=1, pad=0)


def _tensors(spec: ConvSpec, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((spec.ic, spec.ih, spec.iw)).astype(np.float32)
    w = (
        0.3 * rng.standard_normal((spec.oc, spec.ic, spec.kh, spec.kw))
    ).astype(np.float32)
    return x, w


def _memory_stream(machine: VectorMachine):
    return [
        (e.name, e.base, e.vl, e.stride, e.is_store, e.indices)
        for e in machine.trace
        if hasattr(e, "is_store")
    ]


def _assert_equivalent(vlen: int, run_perop, run_fast):
    """Run both paths on fresh machines and diff everything observable."""
    m_ref = VectorMachine(vlen)
    y_ref = run_perop(m_ref)
    m_fast = VectorMachine(vlen)
    y_fast = run_fast(m_fast)
    # bit-identical outputs
    assert y_ref.dtype == y_fast.dtype
    assert np.array_equal(y_ref, y_fast)
    # identical per-category instruction counts (full TraceStats equality)
    assert m_ref.trace.stats == m_fast.trace.stats
    # identical ordered memory-op address stream
    assert _memory_stream(m_ref) == _memory_stream(m_fast)
    # counts mode: same outputs and statistics, no stored events
    m_counts = VectorMachine(vlen, trace="counts")
    y_counts = run_fast(m_counts)
    assert np.array_equal(y_ref, y_counts)
    assert m_counts.trace.stats == m_ref.trace.stats
    assert len(m_counts.trace) == 0


# --------------------------------------------------------------------- #
# convolution kernels
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize("spec", [SPEC, SPEC_S2], ids=["s1", "s2"])
def test_direct_batched_matches_perop(vlen, spec):
    alg = DirectConv()
    x, w = _tensors(spec)
    _assert_equivalent(
        vlen,
        lambda m: direct_perop(alg, spec, x, w, m),
        lambda m: alg.run_vectorized(spec, x, w, m),
    )


@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize(
    "spec", [SPEC, ConvSpec(ic=3, oc=5, ih=7, iw=9, kh=3, kw=3, stride=1, pad=1)],
    ids=["intertile", "scalar_fallback"],
)
def test_winograd_batched_matches_perop(vlen, spec):
    alg = WinogradConv()
    x, w = _tensors(spec)
    _assert_equivalent(
        vlen,
        lambda m: winograd_perop(alg, spec, x, w, m),
        lambda m: alg.run_vectorized(spec, x, w, m),
    )


@pytest.mark.parametrize("vlen", [128, 512])
def test_winograd_strided_batched_matches_perop(vlen):
    alg = WinogradConv(allow_strided=True)
    spec = ConvSpec(ic=4, oc=4, ih=9, iw=10, kh=3, kw=3, stride=2, pad=1)
    x, w = _tensors(spec)
    _assert_equivalent(
        vlen,
        lambda m: winograd_perop(alg, spec, x, w, m),
        lambda m: alg.run_vectorized(spec, x, w, m),
    )


@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize("spec", [SPEC, SPEC_S2], ids=["s1", "s2"])
def test_im2col_batched_matches_perop(vlen, spec):
    x, _ = _tensors(spec)
    _assert_equivalent(
        vlen,
        lambda m: im2col_vectorized_perop(spec, x, m).array.copy(),
        lambda m: im2col_vectorized(spec, x, m).array.copy(),
    )


def _im2col_gemm_perop(spec, x, w, machine, kernel_perop):
    """Per-op composition mirroring ``_Im2colGemmBase._vectorized``."""
    col_buf = im2col_vectorized_perop(spec, x, machine)
    a_buf = machine.alloc_from(
        "gemm_a", w.reshape(spec.oc, spec.gemm_k), unique=True
    )
    c_buf = machine.alloc("gemm_c", spec.gemm_m * spec.gemm_n, np.float32, unique=True)
    kernel_perop(
        machine, a_buf, col_buf, c_buf, spec.gemm_m, spec.gemm_k, spec.gemm_n
    )
    return col2im_output(spec, c_buf.array.reshape(spec.gemm_m, spec.gemm_n))


@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize("spec", [SPEC, SPEC_1X1], ids=["3x3", "1x1"])
def test_im2col_gemm3_batched_matches_perop(vlen, spec):
    alg = Im2colGemm3()
    x, w = _tensors(spec)
    _assert_equivalent(
        vlen,
        lambda m: _im2col_gemm_perop(spec, x, w, m, gemm3_vectorized_perop),
        lambda m: alg.run_vectorized(spec, x, w, m),
    )


@pytest.mark.parametrize("vlen", [128, 512])
def test_im2col_gemm6_batched_matches_perop(vlen):
    alg = Im2colGemm6()
    x, w = _tensors(SPEC)
    _assert_equivalent(
        vlen,
        lambda m: _im2col_gemm_perop(SPEC, x, w, m, gemm6_vectorized_perop),
        lambda m: alg.run_vectorized(SPEC, x, w, m),
    )


# --------------------------------------------------------------------- #
# GEMM kernels with a non-trivial alpha (the float64 scaling path)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("vlen", [128, 512])
@pytest.mark.parametrize("alpha", [1.0, 0.37, -2.5])
@pytest.mark.parametrize(
    "fast,perop",
    [
        (gk.gemm3_vectorized, gemm3_vectorized_perop),
        (gk.gemm6_vectorized, gemm6_vectorized_perop),
    ],
    ids=["gemm3", "gemm6"],
)
def test_gemm_batched_matches_perop(vlen, alpha, fast, perop):
    m, k, n = 33, 20, 70
    rng = np.random.default_rng(5)
    a = rng.standard_normal(m * k).astype(np.float32)
    b = rng.standard_normal(k * n).astype(np.float32)

    def run(kernel):
        def inner(machine):
            a_buf = machine.alloc_from("A", a)
            b_buf = machine.alloc_from("B", b)
            c_buf = machine.alloc("C", m * n)
            kernel(machine, a_buf, b_buf, c_buf, m, k, n, alpha)
            return c_buf.array.copy()

        return inner

    _assert_equivalent(vlen, run(perop), run(fast))


# --------------------------------------------------------------------- #
# batched intrinsics under LMUL register grouping
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("vlen", [128, 512])
@pytest.mark.parametrize("lmul", [1, 2, 4])
def test_seq_intrinsics_match_perop_under_lmul(vlen, lmul):
    """The ``*_seq`` intrinsics must equal their per-op unrolled runs at
    every LMUL (the kernels run at LMUL=1; the grouped path falls back to
    per-op calls internally and must stay equivalent)."""
    rng = np.random.default_rng(7)
    data = rng.standard_normal(1024).astype(np.float32)
    offsets = np.array([3, 77, 150, 400], dtype=np.int64)
    scalars = np.array([0.5, -1.25, 3.0, 0.125], dtype=np.float32)
    count, step = offsets.size, lmul

    def build():
        machine = VectorMachine(vlen)
        buf = machine.alloc_from("buf", data)
        out = machine.alloc("out", 1024)
        machine.vsetvl(37, lmul=lmul)
        return machine, buf, out

    m1, b1, o1 = build()
    for it in range(count):
        m1.vbroadcast(8 + it * step, 1.5)
    for it, off in enumerate(offsets):
        m1.vload(8 + it * step, b1, int(off))
    m1.vload(0, b1, 500)
    for it, s in enumerate(scalars):
        m1.vfmacc_vf(8 + it * step, float(s), 0)
    for it, off in enumerate(offsets):
        m1.vstore(8 + it * step, o1, int(off))

    m2, b2, o2 = build()
    m2.vbroadcast_seq(8, count, 1.5)
    m2.vload_seq(8, b2, offsets)
    m2.vload(0, b2, 500)
    m2.vfmacc_vf_seq(8, scalars, 0)
    m2.vstore_seq(8, o2, offsets)

    assert np.array_equal(o1.array, o2.array)
    assert m1.trace.stats == m2.trace.stats
    assert _memory_stream(m1) == _memory_stream(m2)
    n = m1.vl
    for it in range(count):
        assert np.array_equal(
            m1.reg_values(8 + it * step, n), m2.reg_values(8 + it * step, n)
        )


@pytest.mark.parametrize("vlen", [128, 512])
@pytest.mark.parametrize("lmul", [1, 2, 4])
@pytest.mark.parametrize("stride", [1, 3])
def test_vcopy_strips_matches_perop_under_lmul(vlen, lmul, stride):
    rng = np.random.default_rng(11)
    data = rng.standard_normal(1024).astype(np.float32)
    length = 50

    def build():
        machine = VectorMachine(vlen)
        src = machine.alloc_from("src", data)
        dst = machine.alloc("dst", 256)
        return machine, src, dst

    m1, s1, d1 = build()
    j = 0
    while j < length:
        gvl = m1.vsetvl(length - j, E32, lmul)
        if stride == 1:
            m1.vload(0, s1, 5 + j)
        else:
            m1.vload_strided(0, s1, 5 + j * stride, stride)
        m1.vstore(0, d1, 9 + j)
        j += gvl

    m2, s2, d2 = build()
    m2.vcopy_strips(s2, 5, d2, 9, length, src_stride=stride, lmul=lmul)

    assert np.array_equal(d1.array, d2.array)
    assert m1.trace.stats == m2.trace.stats
    assert _memory_stream(m1) == _memory_stream(m2)
    assert m1.vl == m2.vl
    n = m1.vl
    assert np.array_equal(m1.reg_values(0, n), m2.reg_values(0, n))


def test_direct_unique_buffer_names_no_collisions():
    """Repeated runs on one machine must never collide on buffer names
    (the old id()-truncation scheme could)."""
    alg = DirectConv()
    x, w = _tensors(SPEC)
    machine = VectorMachine(256)
    for _ in range(3):
        alg.run_vectorized(SPEC, x, w, machine)
    names = list(machine._buffers)
    assert len(names) == len(set(names))
    assert sum(1 for n in names if n.startswith("direct_y")) == 3
