"""GEMM kernels: naive, optimized 3-loop, and BLIS-like 6-loop.

These mirror the paper's Paper I pseudocode exactly:

* :func:`gemm_naive` — Fig. 1 (the Darknet baseline, ijk scalar loops);
* :func:`gemm3_vectorized` — Fig. 2: jik order, ``vsetvl`` strip-mining over
  N, loop unrolling by ``U = 16`` over M, one vector-scalar FMA per (it, k);
* :func:`gemm6_vectorized` — Fig. 3: blocking (``blockM x blockN x blockK``,
  tuned to 16 x 512 x 128 as in Paper I Table II), packing of A and B for
  contiguous inner-loop accesses, software-prefetch markers, and the same
  vectorized micro-kernel.

The traced kernels run as whole kernels, as ``DirectConv.run_vectorized``
does: C is one whole-matrix fold over k (each product rounded to float32
before its add, as ``vfmacc_vf`` rounds it), and the trace is one
:meth:`~repro.isa.trace.InstructionTrace.emit_loop` per strip-vl class
(of each ``(j1, k1, i1)`` block in the 6-loop kernel) holding the scalar
and memory rows, plus one ``emit_vector`` for the FMAs; each packing
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
from repro.errors import ConfigError, IsaError, ShapeError
from repro.isa.machine import Buffer, VectorMachine
from repro.isa.trace import KIND_MEMORY, KIND_SCALAR, LoopRow
from repro.isa.types import E32, VType
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

#: The strip's ``vsetvl`` row, first in every traced strip.
_VSETVL = LoopRow(KIND_SCALAR, "vsetvl", 1)


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


def _check_operands(op: str, operands: tuple[tuple[str, Buffer, int], ...]) -> None:
    """Each ``(role, buffer, extent)`` must hold SEW-wide elements and the
    first ``extent`` elements, all the kernel touches of it."""
    for role, buf, extent in operands:
        if buf.array.itemsize != E32.bytes:
            raise IsaError(
                f"{op} at SEW=32 on buffer {buf.name!r} of "
                f"{buf.array.itemsize}-byte elements"
            )
        if extent > buf.array.size:
            raise IsaError(
                f"{op} {role} of {extent} elements overruns buffer "
                f"{buf.name!r} ({buf.array.size} elements)"
            )


def _fold_c(
    a_buf: Buffer, b_buf: Buffer, c_buf: Buffer, m: int, k: int, n: int,
    alpha: float,
) -> None:
    """``C[i, j] += a[i, kk] * B[kk, j]`` over the whole ``(m, n)`` matrix,
    one ``kk`` at a time in order, starting from C's current contents.

    ``a`` is :func:`_scale_a_rows` of A, and each product is rounded to
    float32 before its add, as ``vfmacc_vf`` does per element, so C ends
    bit-identical to the per-instruction fold.
    """
    if not (m and n and k):
        return
    a = _scale_a_rows(a_buf.array, m, k, alpha)
    b = b_buf.array[: k * n].reshape(k, n)
    c = c_buf.array[: m * n].reshape(m, n)
    product = np.empty_like(c)
    for kk in range(k):
        np.multiply(a[:, kk, None], b[kk], out=product)
        c += product


def _emit_strips(
    machine: VectorMachine,
    length: int,
    block_row: LoopRow,
    step: str,
    block_sizes: list[int],
    k: int,
    row_bases: np.ndarray,
) -> None:
    """Trace a micro-kernel strip-mined over ``length`` columns.

    Per strip of ``vl`` columns: one ``vsetvl``; then per register block of
    ``u`` C rows (``block_sizes``) the ``block_row`` scalars, ``u`` C
    loads, per k step a ``step`` row of 2, one B load, one ``a_load`` row
    of ``u`` and ``u`` ``vfmacc.vf``, then ``u`` C stores.  ``row_bases``
    holds the memory rows' byte addresses at column 0.  One ``emit_loop``
    per strip-vl class carries the scalar and memory rows, one
    ``emit_vector`` its FMAs; ``vtype`` ends as the last ``vsetvl`` leaves
    it.
    """
    elem = E32.bytes
    vlmax = machine.vlmax()
    full, tail = divmod(length, vlmax)
    classes = ((vlmax, np.arange(full, dtype=np.int64) * vlmax),) if full else ()
    if tail:
        classes += ((tail, np.array([full * vlmax], dtype=np.int64)),)
    for vl, starts in classes:
        load = LoopRow(KIND_MEMORY, "vle", vl, elem, elem)
        store = LoopRow(KIND_MEMORY, "vse", vl, elem, elem, True)
        body = [_VSETVL]
        for u in block_sizes:
            body.append(block_row)
            body += (load,) * u
            body += (
                LoopRow(KIND_SCALAR, step, 2), load, LoopRow(KIND_SCALAR, "a_load", u)
            ) * k
            body += (store,) * u
        machine.trace.emit_loop(tuple(body), row_bases + starts[:, None] * elem)
        machine.trace.emit_vector(
            "vfmacc.vf", vl, 32, starts.size * sum(block_sizes) * k
        )
        machine.vtype = VType(sew=E32, vl=vl)


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

    ``C += alpha * A @ B`` on row-major ``(m, k)``, ``(k, n)`` and
    ``(m, n)`` buffers (Darknet's GEMM, whose C ``fill_cpu`` pre-zeroes in
    a convolution).  ``unroll`` is the schedulable knob searched by
    :mod:`repro.schedule` (default: the paper's 16).

    The instructions are those of the per-op loop in
    ``tests/trace_oracle.py`` (register map: v0 holds the B vector,
    v1..v``unroll`` the C accumulators): per strip of ``vl`` columns one
    ``vsetvl``, then per i-block of ``u`` rows a ``loop_i`` row and the
    micro-kernel of :func:`_emit_strips` (``loop_k`` per k step).
    ``len(trace)`` grows by ``strips * (1 + blocks * (1 + 3k) + m * (2 + k))``:
    per strip one ``vsetvl`` row, and per block its ``loop_i`` row, two
    scalar rows per k step and its memory and vector rows.

    C is one whole-matrix fold (:func:`_fold_c`); the trace is one
    ``emit_loop`` per strip-vl class and one ``emit_vector``.  A, B and C
    are checked first (element width, extent touched), so an
    :class:`~repro.errors.IsaError` leaves C and the trace untouched.
    Vector-register contents after the call are unspecified.
    """
    _check_unroll(unroll)
    _check_operands(
        "gemm3_vectorized",
        (
            ("A", a_buf, m * k if n else 0),
            ("B", b_buf, k * n if m else 0),
            ("C", c_buf, m * n),
        ),
    )
    with obs.span("im2col_gemm3.gemm", cat="kernel"):
        _fold_c(a_buf, b_buf, c_buf, m, k, n, alpha)
    with obs.span("im2col_gemm3.emit", cat="kernel"):
        c_rows = c_buf.base + np.arange(m, dtype=np.int64) * n * E32.bytes
        b_rows = b_buf.base + np.arange(k, dtype=np.int64) * n * E32.bytes
        blocks = [c_rows[i0 : i0 + unroll] for i0 in range(0, m, unroll)]
        row_bases = np.concatenate(
            [part for c in blocks for part in (c, b_rows, c)] or [c_rows]
        )
        _emit_strips(
            machine, n, LoopRow(KIND_SCALAR, "loop_i", 2), "loop_k",
            [c.size for c in blocks], k, row_bases,
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

    ``C += alpha * A @ B`` as :func:`gemm3_vectorized`, blocked.  The
    instructions are those of the per-op loop in ``tests/trace_oracle.py``:
    per (j1, k1) block, B's block is packed row-major into ``packB`` (one
    multi-row :meth:`~repro.isa.machine.VectorMachine.vcopy_strips`: per
    row a ``pack_b_loop`` row, a ``vsetvl`` row, and a load and a store per
    strip); per i1 block, A's block is packed into ``packA`` the same way
    (``pack_a_loop``), then per strip of ``vl`` columns come one
    ``vsetvl``, one ``prefetch_c`` row and the micro-kernel of
    :func:`_emit_strips` (``prefetch_ab`` per k step) over packed B.  With
    ``s(x) = ceil(x / VLMAX)``, ``len(trace)`` grows per (j1, k1) block by
    ``kb * (2 + 2 s(jb))`` and per i1 block by ``ib * (2 + 2 s(kb)) +
    s(jb) * (2 + 2 ib + kb * (3 + ib))``: per strip a ``vsetvl`` and a
    ``prefetch_c`` row, and two scalar rows per k step beside the memory
    and vector rows.  Prefetch intents are recorded as named scalar
    markers — the RVV toolchain of the paper ignores them (no Zicbop) and
    so does the decoupled timing model; platforms with prefetch benefit
    through the latency model instead.

    C is stored and reloaded exactly between K-blocks, so it is the same
    whole-matrix fold as in :func:`gemm3_vectorized`; each (j1, k1, i1)
    block traces as one ``emit_loop`` per strip-vl class and one
    ``emit_vector``.  Operand checks and registers are as there; the
    packing buffers end holding the last packed blocks.
    """
    _check_operands(
        "gemm6_vectorized",
        (
            ("A", a_buf, m * k if n else 0),
            ("B", b_buf, k * n),
            ("C", c_buf, m * n if k else 0),
        ),
    )
    packed_b = machine.alloc("packB", block_k * block_n, np.float32, unique=True)
    packed_a = machine.alloc("packA", block_m * block_k, np.float32, unique=True)
    with obs.span("im2col_gemm6.gemm", cat="kernel"):
        _fold_c(a_buf, b_buf, c_buf, m, k, n, alpha)
    with obs.span("im2col_gemm6.emit", cat="kernel"):
        rows = np.arange(max(block_m, block_k), dtype=np.int64)
        for j1 in range(0, n, block_n):
            jb = min(block_n, n - j1)
            for k1 in range(0, k, block_k):
                kb = min(block_k, k - k1)
                with obs.span("gemm6.pack_b", cat="kernel"):
                    machine.vcopy_strips(
                        b_buf, (k1 + rows[:kb]) * n + j1, packed_b,
                        rows[:kb] * jb, jb, loop=("pack_b_loop", 2),
                    )
                b_rows = packed_b.base + rows[:kb] * jb * E32.bytes
                for i1 in range(0, m, block_m):
                    ib = min(block_m, m - i1)
                    with obs.span("gemm6.pack_a", cat="kernel"):
                        machine.vcopy_strips(
                            a_buf, (i1 + rows[:ib]) * k + k1, packed_a,
                            rows[:ib] * kb, kb, loop=("pack_a_loop", 2),
                        )
                    c_rows = c_buf.base + ((i1 + rows[:ib]) * n + j1) * E32.bytes
                    _emit_strips(
                        machine, jb, LoopRow(KIND_SCALAR, "prefetch_c", 3),
                        "prefetch_ab", [ib], kb,
                        np.concatenate((c_rows, b_rows, c_rows)),
                    )


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
