"""Batched fast paths vs per-op references: trace equivalence.

The batched kernels (``run_vectorized``, ``gemm*_vectorized``,
``im2col_vectorized``) must be *observationally identical* to their per-op
references in ``tests/trace_oracle.py``: bit-identical outputs, identical
:class:`TraceStats`, identical vector and scalar instruction counts, and
the same memory ops in the same order — what the cache/timing simulators
and the experiment harnesses consume.  How many scalar rows a given count
is split across may differ from the per-op reference; against the
recorded digests below, what the trace keeps of every traced kernel must
not change at all (the repository benchmark pins each cell's event count).
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np
import pytest

from repro.algorithms import gemm_kernels as gk
from repro.algorithms.direct import DirectConv
from repro.algorithms.im2col import im2col_vectorized
from repro.algorithms.im2col_gemm import Im2colGemm3, Im2colGemm6
from repro.algorithms.winograd import WinogradConv, _emit_transform, f63
from repro.errors import IsaError
from repro.isa.machine import VectorMachine
from repro.isa.types import E32
from repro.nn.layer import ConvSpec
from tests.trace_oracle import (
    direct_perop,
    gemm3_vectorized_perop,
    gemm6_vectorized_perop,
    im2col_gemm_perop,
    im2col_vectorized_perop,
    memory_ops,
    trace_view,
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
    # the same memory ops in order, vector counts and scalar counts
    assert trace_view(m_ref.trace) == trace_view(m_fast.trace)
    # the same vector configuration (SEW, LMUL, vl) afterwards
    assert m_ref.vtype == m_fast.vtype
    # counts mode: same outputs, statistics and counts, no stored rows
    m_counts = VectorMachine(vlen, trace="counts")
    y_counts = run_fast(m_counts)
    assert np.array_equal(y_ref, y_counts)
    assert m_counts.trace.stats == m_ref.trace.stats
    assert m_counts.trace.vector_counts == m_ref.trace.vector_counts
    assert m_counts.trace.scalar_counts == m_ref.trace.scalar_counts
    assert len(m_counts.trace) == 0
    assert memory_ops(m_counts.trace) == []


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


def test_winograd_emission_checks_its_buffers():
    """The batched transforms bound-check their gathers and scratch rows as
    the per-op intrinsics do, and record nothing when a check fails."""
    bt = f63().BT.astype(np.float32)
    machine = VectorMachine(512)
    src = machine.alloc("src", 100)
    scratch = machine.alloc("scratch", 16 * 8)
    for tile_offsets in ([0, 40], [-1]):
        with pytest.raises(IsaError, match="outside buffer 'src'"):
            _emit_transform(
                machine, src, scratch, bt, 4, 4, 64, 8, np.array(tile_offsets)
            )
    short = machine.alloc("short", 16 * 7)
    with pytest.raises(IsaError, match="overrun buffer 'short'"):
        _emit_transform(machine, src, short, bt, 1, 1, 64, 8, np.array([0]))
    assert len(machine.trace) == 0


@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize("spec", [SPEC, SPEC_S2], ids=["s1", "s2"])
def test_im2col_batched_matches_perop(vlen, spec):
    x, _ = _tensors(spec)
    _assert_equivalent(
        vlen,
        lambda m: im2col_vectorized_perop(spec, x, m).array.copy(),
        lambda m: im2col_vectorized(spec, x, m).array.copy(),
    )


@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize("spec", [SPEC, SPEC_1X1], ids=["3x3", "1x1"])
def test_im2col_gemm3_batched_matches_perop(vlen, spec):
    alg = Im2colGemm3()
    x, w = _tensors(spec)
    _assert_equivalent(
        vlen,
        lambda m: im2col_gemm_perop(spec, x, w, m, gemm3_vectorized_perop),
        lambda m: alg.run_vectorized(spec, x, w, m),
    )


@pytest.mark.parametrize("vlen", [128, 512])
def test_im2col_gemm6_batched_matches_perop(vlen):
    alg = Im2colGemm6()
    x, w = _tensors(SPEC)
    _assert_equivalent(
        vlen,
        lambda m: im2col_gemm_perop(SPEC, x, w, m, gemm6_vectorized_perop),
        lambda m: alg.run_vectorized(SPEC, x, w, m),
    )


# --------------------------------------------------------------------- #
# GEMM kernels with a non-trivial alpha (the float64 scaling path)
# --------------------------------------------------------------------- #
#: 6-loop blocks small enough that the 33x20x70 GEMM below spans several
#: i, k and j blocks, each with a ragged tail
SMALL_BLOCKS = dict(block_m=5, block_n=24, block_k=7)


@pytest.mark.parametrize("vlen", [128, 512])
@pytest.mark.parametrize("alpha", [1.0, 0.37, -2.5])
@pytest.mark.parametrize(
    "fast,perop",
    [
        (gk.gemm3_vectorized, gemm3_vectorized_perop),
        (gk.gemm6_vectorized, gemm6_vectorized_perop),
        (
            partial(gk.gemm6_vectorized, **SMALL_BLOCKS),
            partial(gemm6_vectorized_perop, **SMALL_BLOCKS),
        ),
    ],
    ids=["gemm3", "gemm6", "gemm6_blocks"],
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


@pytest.mark.parametrize("fault", ["short", "wide"])
@pytest.mark.parametrize("operand", ["A", "B", "C"])
@pytest.mark.parametrize(
    "kernel", [gk.gemm3_vectorized, gk.gemm6_vectorized], ids=["gemm3", "gemm6"]
)
def test_gemm_kernels_check_operands_first(kernel, operand, fault):
    """A, B and C are checked (element width against SEW, the extent the
    kernel touches) before C is written or a row recorded: a short operand
    used to raise part-way through (or, for gemm3's A, as NumPy's
    ValueError)."""
    m, k, n = 5, 3, 20
    sizes = {"A": m * k, "B": k * n, "C": m * n}
    rng = np.random.default_rng(3)
    machine = VectorMachine(512)
    bufs = {}
    for name, size in sizes.items():
        faulty = name == operand
        data = rng.standard_normal(size - (faulty and fault == "short"))
        dtype = np.float64 if faulty and fault == "wide" else np.float32
        bufs[name] = machine.alloc_from(name, data.astype(dtype))
    c_before = bufs["C"].array.tobytes()
    if fault == "wide":
        message = f"at SEW=32 on buffer '{operand}' of 8-byte elements"
    else:
        message = f"{operand} of {sizes[operand]} elements overruns buffer '{operand}'"
    with pytest.raises(IsaError, match=message):
        kernel(machine, bufs["A"], bufs["B"], bufs["C"], m, k, n)
    assert bufs["C"].array.tobytes() == c_before
    assert len(machine.trace) == 0
    assert machine.trace.stats.total_instrs == 0


# --------------------------------------------------------------------- #
# vcopy_strips under LMUL register grouping
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("vlen", [128, 512])
@pytest.mark.parametrize("lmul", [1, 2, 4])
@pytest.mark.parametrize("stride", [1, 3])
def test_vcopy_strips_matches_perop_under_lmul(vlen, lmul, stride):
    """One multi-row ``vcopy_strips`` call equals the per-op row loop."""
    rng = np.random.default_rng(11)
    data = rng.standard_normal(1024).astype(np.float32)
    length = 50
    src_rows = np.array([5, 300, 601], dtype=np.int64)
    dst_rows = np.array([9, 70, 131], dtype=np.int64)

    def build():
        machine = VectorMachine(vlen)
        src = machine.alloc_from("src", data)
        dst = machine.alloc("dst", 256)
        return machine, src, dst

    m1, s1, d1 = build()
    for s0, d0 in zip(src_rows.tolist(), dst_rows.tolist()):
        m1.scalar(2, "row_loop")
        j = 0
        while j < length:
            gvl = m1.vsetvl(length - j, E32, lmul)
            if stride == 1:
                m1.vload(0, s1, s0 + j)
            else:
                m1.vload_strided(0, s1, s0 + j * stride, stride)
            m1.vstore(0, d1, d0 + j)
            j += gvl

    m2, s2, d2 = build()
    m2.vcopy_strips(
        s2, src_rows, d2, dst_rows, length, src_stride=stride, lmul=lmul,
        loop=("row_loop", 2),
    )

    assert np.array_equal(d1.array, d2.array)
    assert m1.trace.stats == m2.trace.stats
    assert trace_view(m1.trace) == trace_view(m2.trace)
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


# --------------------------------------------------------------------- #
# what the trace keeps, and its raw columns, for every traced kernel
# --------------------------------------------------------------------- #
#: (spec, VLEN) pairs: a strided layer at a short vector length (several
#: strips per row), and one whose 6-loop GEMM crosses all three block
#: boundaries of the default 16x512x128 tiles; then three Winograd shapes:
#: ragged input and output channel groups (6 = 4 + 2, 10 = 4 + 4 + 2),
#: fewer than 4 channels (the one-tile fallback), and one 64-wide tuple
#: strip with an 8-channel group
ROW_SPECS = {
    "s2": (ConvSpec(ic=4, oc=6, ih=9, iw=11, kh=3, kw=3, stride=2, pad=1), 128),
    "blocks": (
        ConvSpec(ic=16, oc=20, ih=24, iw=24, kh=3, kw=3, stride=1, pad=1), 512
    ),
    "ragged": (
        ConvSpec(ic=6, oc=10, ih=24, iw=24, kh=3, kw=3, stride=1, pad=1), 512
    ),
    "few_ch": (
        ConvSpec(ic=3, oc=8, ih=14, iw=14, kh=3, kw=3, stride=1, pad=1), 256
    ),
    "one_strip": (
        ConvSpec(ic=8, oc=8, ih=14, iw=14, kh=3, kw=3, stride=1, pad=1), 4096
    ),
}

TRACED_KERNELS = {
    "direct": lambda spec, x, w, m: DirectConv().run_vectorized(spec, x, w, m),
    "im2col": lambda spec, x, w, m: im2col_vectorized(spec, x, m),
    "im2col_gemm3": lambda spec, x, w, m: Im2colGemm3().run_vectorized(spec, x, w, m),
    "im2col_gemm6": lambda spec, x, w, m: Im2colGemm6().run_vectorized(spec, x, w, m),
    "winograd": lambda spec, x, w, m: WinogradConv(allow_strided=True).run_vectorized(
        spec, x, w, m
    ),
}

#: (rows, first 16 hex digits of the sha256 of the trace's view): the view
#: is :func:`tests.trace_oracle.trace_view` — each memory op's ``repr`` in
#: trace order, then the sorted vector counts and scalar counts — one item
#: per line.  The digests were recorded by projecting the decoded rows of
#: the earlier one-row-per-instruction trace the same way, so they pin the
#: same instruction streams as before.  A batching change must leave these
#: alone; only an intended change of the instruction stream may re-record
#: them, together with ``perfbench/trace_reference.json``.
ROW_DIGESTS = {
    ("s2", "direct"): (2672, "d4d865bb4dba47c4"),
    ("s2", "im2col"): (1080, "2c6b0a68c9d7943c"),
    ("s2", "im2col_gemm3"): (3784, "d1d233dc9d33a1c5"),
    ("s2", "im2col_gemm6"): (4552, "01dc1cf519186f02"),
    ("s2", "winograd"): (12064, "26ca3f10d3debedd"),
    ("blocks", "direct"): (175250, "a3d618ff7ed5c476"),
    ("blocks", "im2col"): (20736, "8c1c7413563036bf"),
    ("blocks", "im2col_gemm3"): (157068, "f58730950dc9a08e"),
    ("blocks", "im2col_gemm6"): (170512, "20062b0099a24a28"),
    ("blocks", "winograd"): (88000, "dd9aa00707d604aa"),
    ("ragged", "winograd"): (25920, "c96aebc478a96c68"),
    ("few_ch", "winograd"): (21888, "d0305f3792181f56"),
    ("one_strip", "winograd"): (4716, "3e02158ea300bd12"),
}


def _traced_run(spec_id: str, kernel: str) -> VectorMachine:
    spec, vlen = ROW_SPECS[spec_id]
    x, w = _tensors(spec)
    machine = VectorMachine(vlen)
    TRACED_KERNELS[kernel](spec, x, w, machine)
    return machine


@pytest.mark.parametrize("spec_id,kernel", sorted(ROW_DIGESTS))
def test_decoded_rows_match_recorded_digest(spec_id, kernel):
    """Op name, vl, width, base, stride, store flag and gather indices of
    every memory row, in order, and every vector and scalar count are
    unchanged."""
    trace = _traced_run(spec_id, kernel).trace
    memory, vector, scalar = trace_view(trace)
    digest = hashlib.sha256()
    for item in (*memory, *vector, *scalar):
        digest.update(repr(item).encode() + b"\n")
    assert (len(trace), digest.hexdigest()[:16]) == ROW_DIGESTS[spec_id, kernel]


@pytest.mark.parametrize("kernel", sorted(TRACED_KERNELS))
def test_columns_identical_across_runs(kernel):
    """Raw memory columns hold no uninitialised memory, so two runs give
    byte-identical columns."""
    first = _traced_run("s2", kernel).trace.columns()
    second = _traced_run("s2", kernel).trace.columns()
    for name, a, b in zip(first._fields, first, second):
        assert a.tobytes() == b.tobytes(), name
