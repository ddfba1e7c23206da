"""Hypothesis properties: the whole-kernel GEMMs == their per-op references.

``gemm3_vectorized`` and ``gemm6_vectorized`` compute C as one
whole-matrix fold over k and trace each strip-mined run with one
``emit_loop`` per strip-vl class.  On random shapes — ragged against the
unroll factor, the 6-loop blocks and VLMAX, with ``n`` below VLMAX too —
random alphas and a non-zero initial C, with signed zeros in A, B and C,
they must leave every buffer byte for byte, the statistics, the decoded
trace and ``vtype`` as the one-call-per-instruction kernels in
``tests/trace_oracle.py`` do, record the row count their docstrings
state, and give the same outputs and counts in counts mode.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import gemm_kernels as gk
from repro.isa.machine import VectorMachine
from tests.trace_oracle import (
    gemm3_vectorized_perop,
    gemm6_vectorized_perop,
    trace_view,
)

alphas = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 0.37, -2.5]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def gemm_cases(draw):
    """(vlen, m, k, n, alpha, seed): n from 1 to 3.5 VLMAX, so it is
    below, at and past VLMAX and ragged against it."""
    vlen = draw(st.sampled_from([128, 256, 512, 1024]))
    vlmax = vlen // 32
    m = draw(st.integers(1, 40))
    k = draw(st.integers(1, 14))
    n = draw(st.integers(1, 3 * vlmax + vlmax // 2))
    return vlen, m, k, n, draw(alphas), draw(st.integers(0, 2**32 - 1))


def _operands(m: int, k: int, n: int, seed: int):
    """A, B and a non-zero initial C, each with signed zeros."""
    rng = np.random.default_rng(seed)
    arrays = []
    for size in (m * k, k * n, m * n):
        values = rng.standard_normal(size).astype(np.float32)
        zeros = rng.random(size) < 0.2
        values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        arrays.append(values)
    return arrays


def _run(kernel, vlen, mode, m, k, n, alpha, seed, **knobs):
    machine = VectorMachine(vlen, trace=mode)
    a, b, c = _operands(m, k, n, seed)
    bufs = [machine.alloc_from(name, data) for name, data in zip("ABC", (a, b, c))]
    kernel(machine, *bufs, m, k, n, alpha, **knobs)
    return machine


def _assert_matches_perop(fast, perop, case, expected_rows, **knobs):
    vlen, m, k, n, alpha, seed = case
    ref = _run(perop, vlen, "full", m, k, n, alpha, seed, **knobs)
    for mode in ("full", "counts"):
        got = _run(fast, vlen, mode, m, k, n, alpha, seed, **knobs)
        # every buffer (A, B, C and the 6-loop packing buffers) byte for byte
        assert list(got._buffers) == list(ref._buffers)
        for name, buf in ref._buffers.items():
            assert got._buffers[name].array.tobytes() == buf.array.tobytes(), name
        assert got.trace.stats == ref.trace.stats
        assert got.vtype == ref.vtype
        if mode == "full":
            assert trace_view(got.trace) == trace_view(ref.trace)
            assert len(got.trace) == expected_rows
        else:
            assert got.trace.vector_counts == ref.trace.vector_counts
            assert got.trace.scalar_counts == ref.trace.scalar_counts
            assert len(got.trace) == 0


@settings(max_examples=200, deadline=None)
@given(case=gemm_cases(), unroll=st.integers(1, gk.MAX_UNROLL))
def test_gemm3_matches_perop(case, unroll):
    vlen, m, k, n = case[:4]
    strips = math.ceil(n / (vlen // 32))
    blocks = math.ceil(m / unroll)
    rows = strips * (1 + blocks * (1 + 3 * k) + m * (2 + k))
    _assert_matches_perop(
        gk.gemm3_vectorized, gemm3_vectorized_perop, case, rows, unroll=unroll
    )


@settings(max_examples=200, deadline=None)
@given(
    case=gemm_cases(),
    block_m=st.integers(1, 20),
    block_n=st.integers(1, 80),
    block_k=st.integers(1, 10),
)
def test_gemm6_matches_perop(case, block_m, block_n, block_k):
    vlen, m, k, n = case[:4]
    vlmax = vlen // 32
    rows = 0
    for j1 in range(0, n, block_n):
        jb = min(block_n, n - j1)
        for k1 in range(0, k, block_k):
            kb = min(block_k, k - k1)
            rows += kb * (2 + 2 * math.ceil(jb / vlmax))  # pack B
            for i1 in range(0, m, block_m):
                ib = min(block_m, m - i1)
                rows += ib * (2 + 2 * math.ceil(kb / vlmax))  # pack A
                rows += math.ceil(jb / vlmax) * (2 + 2 * ib + kb * (3 + ib))
    _assert_matches_perop(
        gk.gemm6_vectorized, gemm6_vectorized_perop, case, rows,
        block_m=block_m, block_n=block_n, block_k=block_k,
    )
