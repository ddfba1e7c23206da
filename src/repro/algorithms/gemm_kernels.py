"""GEMM kernels: naive, optimized 3-loop, and BLIS-like 6-loop.

These mirror the paper's Paper I pseudocode exactly:

* :func:`gemm_naive` — Fig. 1 (the Darknet baseline, ijk scalar loops);
* :func:`gemm3_vectorized` — Fig. 2: jik order, ``vsetvl`` strip-mining over
  N, loop unrolling by ``U = 16`` over M, one vector-scalar FMA per (it, k);
* :func:`gemm6_vectorized` — Fig. 3: blocking (``blockM x blockN x blockK``,
  tuned to 16 x 512 x 128 as in Paper I Table II), packing of A and B for
  contiguous inner-loop accesses, software-prefetch markers, and the same
  vectorized micro-kernel.

The traced kernels issue one machine call per register block, not one per
instruction: a C block loads and stores with ``vload_seq``/``vstore_seq``,
its whole k-loop runs as one
:meth:`~repro.isa.machine.VectorMachine.vfmacc_vf_kloop`, and each packing
block is one multi-row
:meth:`~repro.isa.machine.VectorMachine.vcopy_strips`.  Outputs and the
decoded trace equal those of the one-call-per-instruction reference in
``tests/trace_oracle.py``.

Each also has an analytical schedule builder used on full-size layers.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.errors import ConfigError, ShapeError
from repro.isa.machine import Buffer, VectorMachine
from repro.simulator.analytical.phases import DataStream, Phase
from repro.simulator.hwconfig import HardwareConfig

#: Loop-unroll factor over M (Paper I: no gain beyond 16 registers on RVV).
UNROLL = 16

#: Hard register-budget cap on the 3-loop unroll: 32 architectural vector
#: registers minus the B vector and scratch.
MAX_UNROLL = 28

#: BLIS-like block sizes (Paper I Table II optimum / Paper II §3.2).
BLOCK_M = 16
BLOCK_N = 512
BLOCK_K = 128

_DTYPE_BYTES = 4


def _check_unroll(unroll: int) -> None:
    """Validate a 3-loop unroll factor against the register file.

    ``unroll`` accumulators plus the B vector (v0) and scratch must fit the
    32 architectural vector registers.
    """
    if not 1 <= unroll <= MAX_UNROLL:
        raise ConfigError(
            f"gemm3 unroll must be in [1, {MAX_UNROLL}], got {unroll}"
        )


def _check_gemm(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"GEMM shape mismatch: {a.shape} x {b.shape}")
    return a.shape[0], a.shape[1], b.shape[1]


# --------------------------------------------------------------------- #
# functional kernels
# --------------------------------------------------------------------- #
def gemm_naive(a: np.ndarray, b: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """The Darknet baseline (Fig. 1): C = alpha * A @ B, scalar loop order.

    Functionally evaluated with NumPy (looping 10^8 times in Python would be
    pointless); the *naive* structure matters only for the timing model.
    """
    _check_gemm(a, b)
    return (alpha * (a.astype(np.float32) @ b.astype(np.float32))).astype(np.float32)


def gemm_functional(a: np.ndarray, b: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Fast functional GEMM shared by the optimized variants' ``run`` path."""
    return gemm_naive(a, b, alpha)


# --------------------------------------------------------------------- #
# intrinsics kernels
# --------------------------------------------------------------------- #
def _scale_a_rows(a: np.ndarray, m: int, k: int, alpha: float) -> np.ndarray:
    """``float32(alpha * float64(A[:m, :k]))`` — the exact scalar operand
    sequence of the per-op loop (``alpha * float(a[..])`` is a float64
    product, rounded to float32 by ``vfmacc_vf``)."""
    rows = a[: m * k].reshape(m, k).astype(np.float64)
    return (np.float64(alpha) * rows).astype(np.float32)


def gemm3_vectorized(
    machine: VectorMachine,
    a_buf: Buffer,
    b_buf: Buffer,
    c_buf: Buffer,
    m: int,
    k: int,
    n: int,
    alpha: float = 1.0,
    unroll: int = UNROLL,
) -> None:
    """Optimized 3-loop GEMM (Paper I Fig. 2) on the vector machine.

    Register map: v0 holds the B vector; v1..v``unroll`` hold the C
    accumulators of the unrolled i-block.  C is assumed zero-initialised
    (Darknet's GEMM is ``C += alpha*A*B`` with C pre-zeroed by
    ``fill_cpu``).  ``unroll`` is the schedulable knob searched by
    :mod:`repro.schedule` (default: the paper's 16).
    """
    _check_unroll(unroll)
    a_scaled = _scale_a_rows(a_buf.array, m, k, alpha)
    k_rows = np.arange(k, dtype=np.int64) * n
    j = 0
    while j < n:
        gvl = machine.vsetvl(n - j)
        for i0 in range(0, m, unroll):
            u = min(unroll, m - i0)
            machine.scalar(2, "loop_i")
            rows = (i0 + np.arange(u, dtype=np.int64)) * n + j
            machine.vload_seq(1, c_buf, rows)
            machine.vfmacc_vf_kloop(
                1, a_scaled[i0 : i0 + u], 0, b_buf, k_rows + j, ("loop_k", 2)
            )
            machine.vstore_seq(1, c_buf, rows)
        j += gvl


def _pack_b_block(
    machine: VectorMachine,
    b_buf: Buffer,
    packed: Buffer,
    k0: int,
    kb: int,
    j0: int,
    jb: int,
    n: int,
) -> None:
    """Pack B[k0:k0+kb, j0:j0+jb] row-major into ``packed`` (one call)."""
    rows = np.arange(kb, dtype=np.int64)
    machine.vcopy_strips(
        b_buf, (k0 + rows) * n + j0, packed, rows * jb, jb, loop=("pack_b_loop", 2)
    )


def _pack_a_block(
    machine: VectorMachine,
    a_buf: Buffer,
    packed: Buffer,
    i0: int,
    ib: int,
    k0: int,
    kb: int,
    k: int,
) -> None:
    """Pack A[i0:i0+ib, k0:k0+kb] row-major into ``packed`` (one call)."""
    rows = np.arange(ib, dtype=np.int64)
    machine.vcopy_strips(
        a_buf, (i0 + rows) * k + k0, packed, rows * kb, kb, loop=("pack_a_loop", 2)
    )


def gemm6_vectorized(
    machine: VectorMachine,
    a_buf: Buffer,
    b_buf: Buffer,
    c_buf: Buffer,
    m: int,
    k: int,
    n: int,
    alpha: float = 1.0,
    block_m: int = BLOCK_M,
    block_n: int = BLOCK_N,
    block_k: int = BLOCK_K,
) -> None:
    """BLIS-like 6-loop GEMM (Paper I Fig. 3) on the vector machine.

    Prefetch intents are recorded as named scalar markers — the RVV toolchain
    of the paper ignores them (no Zicbop) and so does the decoupled timing
    model; platforms with prefetch benefit through the latency model instead.
    """
    packed_b = machine.alloc("packB", block_k * block_n, np.float32, unique=True)
    packed_a = machine.alloc("packA", block_m * block_k, np.float32, unique=True)
    for j1 in range(0, n, block_n):
        jb = min(block_n, n - j1)
        for k1 in range(0, k, block_k):
            kb = min(block_k, k - k1)
            k_rows = np.arange(kb, dtype=np.int64) * jb
            with obs.span("gemm6.pack_b", cat="kernel"):
                _pack_b_block(machine, b_buf, packed_b, k1, kb, j1, jb, n)
            for i1 in range(0, m, block_m):
                ib = min(block_m, m - i1)
                with obs.span("gemm6.pack_a", cat="kernel"):
                    _pack_a_block(machine, a_buf, packed_a, i1, ib, k1, kb, k)
                pa_scaled = _scale_a_rows(packed_a.array, ib, kb, alpha)
                j = 0
                while j < jb:
                    gvl = machine.vsetvl(jb - j)
                    machine.scalar(3, "prefetch_c")
                    rows = (i1 + np.arange(ib, dtype=np.int64)) * n + j1 + j
                    machine.vload_seq(1, c_buf, rows)
                    machine.vfmacc_vf_kloop(
                        1, pa_scaled, 0, packed_b, k_rows + j, ("prefetch_ab", 2)
                    )
                    machine.vstore_seq(1, c_buf, rows)
                    j += gvl


# --------------------------------------------------------------------- #
# analytical schedules
# --------------------------------------------------------------------- #
def gemm3_phase(
    m: int,
    k: int,
    n: int,
    hw: HardwareConfig,
    b_name: str = "col",
    unroll: int = UNROLL,
) -> Phase:
    """Analytical cost of the 3-loop GEMM macro-kernel.

    The load-bearing interaction: the reuse window of the B (column-matrix)
    slice between unrolled i-blocks is ``K * gvl`` elements — it *grows with
    the vector length*, so longer vectors raise the L2 miss rate exactly as
    the paper's Table III reports.  ``unroll`` is the schedulable i-block
    unroll factor (default: the paper's 16); the LMUL register-budget cap
    below applies on top of it.
    """
    _check_unroll(unroll)
    vle = hw.vlmax_f32
    nj = math.ceil(n / vle)
    active = n / nj
    # LMUL register grouping shrinks the architectural register count from
    # 32 to 32/LMUL groups, strangling the unroll (the accumulators of
    # Paper I Fig. 2 need one group each) and with it the B reuse per load
    unroll = max(1, min(unroll, 32 // getattr(hw, "lmul", 1) - 4))
    mb = math.ceil(m / unroll)
    fma = float(nj * k * m)
    b_loads = float(nj * k * mb)
    c_ops = 2.0 * nj * m
    b_bytes = float(k * n * _DTYPE_BYTES)
    return Phase(
        name="gemm3",
        vector_ops=fma,
        vector_active=active,
        vmem_ops=b_loads + c_ops,
        vmem_active=active,
        scalar_ops=fma + 2.0 * nj * mb * k,
        streams=(
            DataStream(
                # A elements feed the vector-scalar FMAs through scalar
                # loads: a thrashing A panel stalls the in-order front end
                "A_weights",
                bytes=float(m * k * _DTYPE_BYTES),
                passes=float(nj),
                reuse_ws=float(m * k * _DTYPE_BYTES),
                scalar_access=True,
            ),
            DataStream(
                # the column matrix was just produced by im2col (or is the
                # previous layer's output for 1x1 convolutions)
                b_name,
                bytes=b_bytes,
                passes=float(mb),
                reuse_ws=float(k * vle * _DTYPE_BYTES),
                resident_source=True,
            ),
            DataStream("C_read", bytes=float(m * n * _DTYPE_BYTES), passes=1.0),
            DataStream(
                "C_write", bytes=float(m * n * _DTYPE_BYTES), passes=1.0, is_write=True
            ),
        ),
    )


def gemm6_phases(
    m: int,
    k: int,
    n: int,
    hw: HardwareConfig,
    b_name: str = "col",
    block_m: int = BLOCK_M,
    block_n: int = BLOCK_N,
    block_k: int = BLOCK_K,
) -> list[Phase]:
    """Analytical cost of the 6-loop GEMM (packing + blocked macro-kernel).

    Block sizes are fixed at the paper's tuned 16x512x128 (chosen for a 1 MB
    L2): the packed-B block (256 KB) stays L2-resident, A panels stay
    L1-resident, and C is re-streamed once per K-block.
    """
    vle = hw.vlmax_f32
    nb = math.ceil(n / block_n)
    kbk = math.ceil(k / block_k)
    mb = math.ceil(m / block_m)

    # inner j-strips, tail-aware: full j1-blocks plus the ragged last block
    full_blocks, tail = divmod(n, block_n)
    total_strips = full_blocks * math.ceil(block_n / vle)
    if tail:
        total_strips += math.ceil(tail / vle)
    active = n / total_strips

    fma = float(total_strips * k * m)
    b_inner_loads = float(total_strips * k * mb)
    # C loads+stores happen per (strip, i-row) for every K-block pass
    c_ops = 2.0 * total_strips * m

    pack_b_vmem = 2.0 * k * n / vle + k * nb
    pack_a_vmem = 2.0 * m * k * nb / vle + m * nb * kbk

    bytes_b = float(k * n * _DTYPE_BYTES)
    bytes_a = float(m * k * _DTYPE_BYTES)
    bytes_c = float(m * n * _DTYPE_BYTES)
    packed_block_ws = float(block_k * block_n * _DTYPE_BYTES)
    c_reuse_ws = float((m + block_k) * min(n, block_n) * _DTYPE_BYTES)

    packing = Phase(
        name="gemm6_pack",
        vmem_ops=pack_b_vmem + pack_a_vmem,
        vmem_active=float(min(vle, block_n)),
        nonunit_fraction=0.1,
        scalar_ops=2.0 * (k * nb + m * nb * kbk),
        streams=(
            DataStream(b_name, bytes=bytes_b, passes=1.0, resident_source=True),
            DataStream("packedB_write", bytes=bytes_b, passes=1.0, is_write=True),
            DataStream("A_src", bytes=bytes_a, passes=float(nb), reuse_ws=bytes_a),
            DataStream(
                "packedA",
                bytes=float(block_m * block_k * _DTYPE_BYTES),
                passes=float(2 * nb * kbk * mb),
                reuse_ws=float(block_m * block_k * _DTYPE_BYTES),
                is_write=True,
            ),
        ),
    )
    kernel = Phase(
        name="gemm6_kernel",
        vector_ops=fma,
        vector_active=active,
        vmem_ops=b_inner_loads + c_ops * kbk,
        vmem_active=active,
        scalar_ops=fma + 3.0 * total_strips * mb * k,
        streams=(
            DataStream(
                "packedB_read",
                bytes=bytes_b,
                passes=float(mb),
                reuse_ws=packed_block_ws,
                resident_source=True,
            ),
            DataStream("C_read", bytes=bytes_c, passes=float(kbk), reuse_ws=c_reuse_ws),
            DataStream(
                "C_write",
                bytes=bytes_c,
                passes=float(kbk),
                reuse_ws=c_reuse_ws,
                is_write=True,
            ),
        ),
    )
    return [packing, kernel]


def gemm_naive_phase(m: int, k: int, n: int, hw: HardwareConfig) -> Phase:
    """Analytical cost of the scalar Darknet GEMM (baseline comparisons)."""
    fma_scalar = float(m) * k * n
    return Phase(
        name="gemm_naive",
        scalar_ops=4.0 * fma_scalar,
        streams=(
            DataStream("A", bytes=float(m * k * _DTYPE_BYTES), passes=1.0),
            DataStream(
                "B",
                bytes=float(k * n * _DTYPE_BYTES),
                passes=float(m),
                reuse_ws=float(k * n * _DTYPE_BYTES),
            ),
            DataStream(
                "C", bytes=float(m * n * _DTYPE_BYTES), passes=1.0, is_write=True
            ),
        ),
    )
