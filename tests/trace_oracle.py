"""Reference implementations for the trace side of the simulator.

``src/`` keeps one fast implementation per concept; these are the slow,
one-step-at-a-time versions the fast paths are diffed against:

* a per-access walk over the cache state of
  :class:`~repro.simulator.cache.SetAssociativeCache` and
  :class:`~repro.simulator.cache.CacheHierarchy` (write-allocate,
  write-back, true LRU with a logical clock) — what
  :mod:`repro.simulator.cache_fast` must reproduce access for access,
  LRU tick values included;
* :func:`sequential_replay` — trace timing that walks the decoded memory
  ops one at a time and adds the vector and scalar counts one instruction
  at a time, which ``TraceTimingModel.run`` must match bit for bit;
* per-op kernels — the convolution, im2col and GEMM kernels written with
  one machine call per RVV instruction, the instruction-level
  specification the batched ``run_vectorized`` / ``*_vectorized`` kernels
  must reproduce;
* the event dataclasses :class:`VectorOp`, :class:`MemoryOp` and
  :class:`ScalarOp`, :func:`emit` (records one of them, for tests that
  build traces event by event), :func:`memory_ops` (decodes a trace's
  memory rows back into :class:`MemoryOp` events, in order) and
  :func:`trace_view` (everything a trace keeps: memory ops, vector and
  scalar counts);
* :func:`line_addresses` — the cache lines of one memory op, element by
  element, which ``InstructionTrace.memory_line_stream`` must reproduce
  op by op.

Besides the equivalence tests, four benchmark gates import these (three in
``benchmarks/bench_kernels.py``, one in ``benchmarks/bench_timing_replay.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.algorithms.direct import DirectConv, _unroll_ow
from repro.algorithms.gemm_kernels import (
    BLOCK_K,
    BLOCK_M,
    BLOCK_N,
    UNROLL,
    _check_unroll,
)
from repro.algorithms.im2col import col2im_output
from repro.algorithms.winograd import (
    MIN_CHANNELS,
    PACK_ELEMS,
    PACK_SCALARS,
    TILE_ALPHA,
    TILE_M,
    TUPLE_ELEMS,
    WinogradConv,
    f63,
    tile_counts,
)
from repro.errors import SimulationError
from repro.isa.machine import Buffer, VectorMachine
from repro.isa.trace import InstructionTrace
from repro.nn.layer import ConvSpec
from repro.nn.reference import pad_input
from repro.simulator.cache import CacheHierarchy, SetAssociativeCache
from repro.simulator.timing import (
    NONUNIT_CHIME_FACTOR,
    VECTOR_ISSUE_CYCLES,
    VMEM_STARTUP_CYCLES,
    TimingResult,
    TraceTimingModel,
)


# --------------------------------------------------------------------- #
# events: trace construction and decoding
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class VectorOp:
    """A non-memory vector instruction."""

    name: str  # e.g. "vfmacc", "vfadd", "vfmv" (broadcast), "vslide"
    vl: int  # active elements
    sew_bits: int


@dataclass(frozen=True)
class MemoryOp:
    """A vector memory instruction (unit-stride, strided or indexed)."""

    name: str  # "vle", "vse", "vlse", "vsse", "vluxei", "vsuxei"
    base: int  # starting byte address
    elem_bytes: int
    vl: int  # active elements
    stride: int  # byte stride between consecutive elements
    is_store: bool
    indices: tuple[int, ...] | None = None  # byte offsets for indexed ops


@dataclass(frozen=True)
class ScalarOp:
    """A batch of ``count`` scalar instructions (loop/address bookkeeping)."""

    name: str
    count: int


TraceEvent = Union[VectorOp, MemoryOp, ScalarOp]


def emit(trace: InstructionTrace, event: TraceEvent) -> None:
    """Record one dataclass event (statistics update in counts mode too)."""
    if isinstance(event, VectorOp):
        trace.emit_vector(event.name, event.vl, event.sew_bits)
    elif isinstance(event, MemoryOp):
        trace.emit_memory(
            event.name,
            event.base,
            event.elem_bytes,
            event.vl,
            event.stride,
            event.is_store,
            event.indices,
        )
    elif isinstance(event, ScalarOp):
        trace.emit_scalar(event.name, event.count)
    else:
        raise TypeError(f"unknown trace event {event!r}")


def memory_ops(trace: InstructionTrace) -> list[MemoryOp]:
    """The trace's memory rows, decoded one by one, in trace order."""
    cols = trace.columns()
    names = trace.op_names
    g_row, g_start, g_len, offsets = trace._gather_table()
    indices = {
        int(row): tuple(offsets[start : start + length].tolist())
        for row, start, length in zip(g_row, g_start, g_len)
    }
    rows = zip(
        cols.op.tolist(), cols.base.tolist(), cols.elem_bytes.tolist(),
        cols.vl.tolist(), cols.stride.tolist(), cols.is_store.tolist(),
    )
    return [
        MemoryOp(names[op], base, elem, vl, stride, store, indices.get(i))
        for i, (op, base, elem, vl, stride, store) in enumerate(rows)
    ]


def trace_view(trace: InstructionTrace) -> tuple[list[MemoryOp], list, list]:
    """Everything a trace keeps, in plain Python values: its memory ops in
    order, and its vector and scalar counts sorted by key."""
    vector = sorted(
        (str(name), int(vl), int(sew), int(n))
        for (name, vl, sew), n in trace.vector_counts.items()
    )
    scalar = sorted((str(name), int(n)) for name, n in trace.scalar_counts.items())
    return memory_ops(trace), vector, scalar


def events_view(events) -> tuple[list[MemoryOp], list, list]:
    """:func:`trace_view` of the trace ``events`` would record."""
    vector: dict[tuple[str, int, int], int] = {}
    scalar: dict[str, int] = {}
    for e in events:
        if isinstance(e, VectorOp):
            key = (e.name, e.vl, e.sew_bits)
            vector[key] = vector.get(key, 0) + 1
        elif isinstance(e, ScalarOp):
            scalar[e.name] = scalar.get(e.name, 0) + e.count
    return (
        [e for e in events if isinstance(e, MemoryOp)],
        sorted((*key, n) for key, n in vector.items()),
        sorted(scalar.items()),
    )


def line_addresses(op: MemoryOp, line_bytes: int) -> np.ndarray:
    """Cache-line addresses ``op`` touches, in access order.

    Element ``j`` sits at ``base + stride * j`` (``base + indices[j]`` for
    an indexed op, over its whole index tuple); consecutive accesses to the
    same line collapse into one, and an op with ``vl`` 0 touches nothing.
    """
    if op.vl == 0:
        return np.empty(0, dtype=np.int64)
    if op.indices is not None:
        offsets = np.asarray(op.indices, dtype=np.int64)
    else:
        offsets = op.stride * np.arange(op.vl, dtype=np.int64)
    lines = (op.base + offsets) // line_bytes * line_bytes
    if lines.size <= 1:
        return lines
    keep = np.empty(lines.size, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return lines[keep]


# --------------------------------------------------------------------- #
# per-access cache walk
# --------------------------------------------------------------------- #
def _set_index(cache: SetAssociativeCache, line_addr: int) -> int:
    return (line_addr // cache.line_bytes) & (cache.num_sets - 1)


def cache_lookup(cache: SetAssociativeCache, line_addr: int) -> bool:
    """Probe without side effects; True if the line is resident."""
    return bool((cache._tags[_set_index(cache, line_addr)] == line_addr).any())


def resident_lines(cache: SetAssociativeCache) -> int:
    """Number of valid lines the cache holds."""
    return int((cache._tags != -1).sum())


def cache_access(
    cache: SetAssociativeCache, line_addr: int, is_store: bool
) -> tuple[bool, int | None]:
    """Access one cache line; returns ``(hit, dirty victim line or None)``."""
    if line_addr % cache.line_bytes:
        raise SimulationError(
            f"{cache.name}: access address {line_addr:#x} not line-aligned"
        )
    cache._tick += 1
    cache.stats.accesses += 1
    s = _set_index(cache, line_addr)
    tags = cache._tags[s]
    ways = np.nonzero(tags == line_addr)[0]
    if ways.size:
        way = int(ways[0])
        cache.stats.hits += 1
        cache._lru[s, way] = cache._tick
        if is_store:
            cache._dirty[s, way] = True
        return True, None
    # miss: choose victim = invalid way if any, else LRU
    cache.stats.misses += 1
    invalid = np.nonzero(tags == -1)[0]
    way = int(invalid[0]) if invalid.size else int(np.argmin(cache._lru[s]))
    victim = None
    if tags[way] != -1 and cache._dirty[s, way]:
        victim = int(tags[way])
        cache.stats.writebacks += 1
    cache._tags[s, way] = line_addr
    cache._dirty[s, way] = is_store
    cache._lru[s, way] = cache._tick
    return False, victim


def hierarchy_access_line(
    h: CacheHierarchy, line_addr: int, is_store: bool, vector: bool = True
) -> dict[str, bool | None]:
    """Access one line; returns which levels hit.

    ``None`` means the level was not probed (``l1_hit`` when a vector access
    bypassed the L1 of a decoupled unit, ``l2_hit`` on an L1 hit).
    """
    result: dict[str, bool | None] = {"l1_hit": None, "l2_hit": None}
    if vector and h.vector_at_l2:
        hit2, victim2 = cache_access(h.l2, line_addr, is_store)
        result["l2_hit"] = hit2
        if not hit2:
            h.dram_lines += 1
        if victim2 is not None:
            h.dram_writeback_lines += 1
        return result
    hit1, victim1 = cache_access(h.l1, line_addr, is_store)
    result["l1_hit"] = hit1
    if victim1 is not None:
        # dirty L1 victim written back into L2
        _, victim2 = cache_access(h.l2, victim1, True)
        if victim2 is not None:
            h.dram_writeback_lines += 1
    if not hit1:
        hit2, victim2 = cache_access(h.l2, line_addr, is_store)
        result["l2_hit"] = hit2
        if not hit2:
            h.dram_lines += 1
        if victim2 is not None:
            h.dram_writeback_lines += 1
    return result


def hierarchy_access_memop(h: CacheHierarchy, op: MemoryOp) -> tuple[int, int]:
    """Replay a whole vector memory op; returns ``(l1_misses, l2_misses)``."""
    l1_misses = l2_misses = 0
    for line in line_addresses(op, h.line_bytes):
        res = hierarchy_access_line(h, int(line), op.is_store, vector=True)
        if res["l1_hit"] is False:
            l1_misses += 1
        if res["l2_hit"] is False:
            l2_misses += 1
    return l1_misses, l2_misses


# --------------------------------------------------------------------- #
# sequential (per-event) trace replay
# --------------------------------------------------------------------- #
def sequential_replay(
    model: TraceTimingModel, trace: InstructionTrace, flush: bool = False
) -> TimingResult:
    """Time ``trace`` on ``model``'s hierarchy one instruction at a time:
    each decoded memory op in trace order, then every counted vector and
    scalar instruction."""
    if flush:
        model.hierarchy.flush()
    cfg = model.config
    dram = model.dram
    datapath = cfg.datapath_f32_per_cycle
    prefetch = cfg.software_prefetch or cfg.hardware_prefetch
    res = TimingResult()
    for event in memory_ops(trace):
        unit = event.indices is None and abs(event.stride) == event.elem_bytes
        eff_dp = datapath if unit else datapath / NONUNIT_CHIME_FACTOR
        chime = math.ceil(event.vl / max(1.0, eff_dp))
        l1_m, l2_m = hierarchy_access_memop(model.hierarchy, event)
        res.l1_misses += l1_m
        res.l2_misses += l2_m
        penalty = l1_m * cfg.l2_latency / dram.mlp
        penalty += dram.miss_penalty_cycles(l2_m, prefetch)
        if model.hierarchy.vector_at_l2:
            # decoupled VPU: every vector access pays the L2 round
            # trip (hit or miss), partially pipelined
            lines = max(1.0, event.vl * event.elem_bytes / cfg.line_bytes)
            penalty += lines * cfg.l2_latency / dram.mlp
        # line fills also consume DRAM bandwidth
        penalty = max(penalty, dram.transfer_cycles(l2_m * cfg.line_bytes))
        res.memory_cycles += VMEM_STARTUP_CYCLES + chime + penalty
        res.memory_instrs += 1
    for (_, vl, sew_bits), count in trace.vector_counts.items():
        # datapath is in f32 elements/cycle; wider SEW processes
        # proportionally fewer elements per cycle
        chime = math.ceil(vl / max(1.0, datapath * 32 / sew_bits))
        for _ in range(count):
            res.compute_cycles += max(VECTOR_ISSUE_CYCLES, chime)
            res.vector_instrs += 1
    for count in trace.scalar_counts.values():
        res.scalar_cycles += count
        res.scalar_instrs += count
    overlap = 0.6 if cfg.out_of_order else 1.0
    res.cycles = overlap * (res.compute_cycles + res.memory_cycles + res.scalar_cycles)
    return res


# --------------------------------------------------------------------- #
# per-op kernels: one machine call per RVV instruction
# --------------------------------------------------------------------- #
def direct_perop(
    alg: DirectConv,
    spec: ConvSpec,
    x: np.ndarray,
    w: np.ndarray,
    machine: VectorMachine,
) -> np.ndarray:
    """Per-op NHWC direct kernel (``DirectConv.run_vectorized``'s reference)."""
    spec.validate_input(x.shape)
    xp = pad_input(np.asarray(x, dtype=np.float32), spec.pad)
    pw = xp.shape[2]
    x_nhwc = machine.alloc_from(
        "direct_x", np.ascontiguousarray(xp.transpose(1, 2, 0)), unique=True
    )
    w_hwio = machine.alloc_from(
        "direct_w", np.ascontiguousarray(w.transpose(2, 3, 1, 0)), unique=True
    )
    out = machine.alloc("direct_y", spec.oh * spec.ow * spec.oc, np.float32, unique=True)
    ic, oc, s = spec.ic, spec.oc, spec.stride
    oh, ow = spec.oh, spec.ow
    xarr = x_nhwc.array
    for oc0 in range(0, oc, machine.vlmax()):
        gvl = machine.vsetvl(oc - oc0)
        uw = _unroll_ow(ow, alg.unroll_ow)
        for oy in range(oh):
            for ox0 in range(0, ow, uw):
                u = min(uw, ow - ox0)
                machine.scalar(3, "loop_owb")
                for it in range(u):
                    machine.vbroadcast(1 + it, 0.0)
                for c in range(ic):
                    for dh in range(spec.kh):
                        for dw in range(spec.kw):
                            machine.scalar(2, "loop_k")
                            woff = ((dh * spec.kw + dw) * ic + c) * oc + oc0
                            machine.vload(0, w_hwio, woff, vl=gvl)
                            for it in range(u):
                                iy = oy * s + dh
                                ix = (ox0 + it) * s + dw
                                machine.scalar(1, "x_load")
                                machine.vfmacc_vf(
                                    1 + it, float(xarr[(iy * pw + ix) * ic + c]), 0
                                )
                for it in range(u):
                    machine.vstore(1 + it, out, (oy * ow + ox0 + it) * oc + oc0, vl=gvl)
    result = out.array.reshape(oh, ow, oc)
    return np.ascontiguousarray(result.transpose(2, 0, 1))


def winograd_perop(
    alg: WinogradConv,
    spec: ConvSpec,
    x: np.ndarray,
    w: np.ndarray,
    machine: VectorMachine,
) -> np.ndarray:
    """Per-op inter-tile Winograd (``WinogradConv.run_vectorized``'s reference).

    Packing uses indexed gathers, both transform stages run as traced
    vector arithmetic, and a host-side transpose stands in for the
    register-permute intrinsics RVV lacks.
    """
    alg.check_applicable(spec)
    if spec.stride == 2:
        full = winograd_perop(alg, alg._unit_stride_twin(spec), x, w, machine)
        return np.ascontiguousarray(full[:, ::2, ::2][:, : spec.oh, : spec.ow])
    spec.validate_input(x.shape)
    wm = f63()
    ty, tx = tile_counts(spec)
    ntiles = ty * tx
    ic, oc = spec.ic, spec.oc
    vlmax = machine.vlmax()

    xp = pad_input(np.asarray(x, dtype=np.float32), spec.pad)
    need_h = (ty - 1) * TILE_M + TILE_ALPHA
    need_w = (tx - 1) * TILE_M + TILE_ALPHA
    xp = np.pad(
        xp,
        ((0, 0), (0, max(0, need_h - xp.shape[1])), (0, max(0, need_w - xp.shape[2]))),
    )
    src = machine.alloc_from("wg_x", xp, unique=True)
    ph, pw = xp.shape[1], xp.shape[2]

    # U and M are stored tile-major: [tile][channel][64 positions]
    u_buf = machine.alloc("wg_u", ntiles * ic * TUPLE_ELEMS, unique=True)
    m_buf = machine.alloc("wg_m", ntiles * oc * TUPLE_ELEMS, unique=True)
    v_buf = machine.alloc_from("wg_v", alg.transform_weights(spec, w), unique=True)
    scratch = machine.alloc("wg_s", vlmax * TILE_ALPHA, unique=True)

    intertile = ic >= MIN_CHANNELS
    cb = max(1, min(ic, vlmax // PACK_ELEMS)) if intertile else 1

    def _stage(mat: np.ndarray, rows_in: int, rows_out: int, vl: int) -> None:
        """Linear row combinations: out[i] = sum_j mat[i,j] * row[j].

        Rows live in scratch (packed across channels); v16.. hold the
        input rows, v8 accumulates, results return to scratch.
        """
        for j in range(rows_in):
            machine.vload(16 + j, scratch, j * vlmax, vl=vl)
        for i in range(rows_out):
            machine.vfmul_vf(8, float(mat[i, 0]), 16)
            for j in range(1, rows_in):
                if mat[i, j] != 0.0:
                    machine.vfmacc_vf(8, float(mat[i, j]), 16 + j)
            machine.vstore(8, scratch, i * vlmax, vl=vl)

    def _transform_tile_group(buf, gather_base, mat, nch, row_stride, rows):
        """Pack + two transform stages for one (tile, channel-group).

        Returns the exact transformed tiles, (nch, rows_out, rows_out),
        computed from the same packed data the instructions consumed.
        """
        vl = machine.vsetvl(nch * PACK_ELEMS * 2)
        data = np.empty((nch, rows, TILE_ALPHA), dtype=np.float32)
        for row in range(rows):
            offs = np.concatenate(
                [
                    gather_base(ch) + row * row_stride + np.arange(TILE_ALPHA)
                    for ch in range(nch)
                ]
            )
            machine.vgather(0, buf, offs, vl=min(vl, offs.size))
            machine.vstore(0, scratch, row * vlmax, vl=min(vl, offs.size))
            machine.scalar(int(PACK_SCALARS * nch), "wg_pack")
            for ch in range(nch):
                data[ch, row] = buf.array[
                    gather_base(ch) + row * row_stride + np.arange(TILE_ALPHA)
                ]
        rows_out = mat.shape[0]
        _stage(mat, rows, rows_out, vl)
        machine.scalar(2 * rows_out, "wg_transpose")
        _stage(mat, rows, rows_out, vl)
        # exact result of (mat @ d @ mat^T) per channel
        return np.einsum(
            "ij,cjk,lk->cil",
            mat.astype(np.float64),
            data.astype(np.float64),
            mat.astype(np.float64),
        ).astype(np.float32)

    # ---- input transform ----------------------------------------------- #
    for t in range(ntiles):
        tyi, txi = divmod(t, tx)
        for c0 in range(0, ic, cb):
            nch = min(cb, ic - c0)
            base_row = (tyi * TILE_M) * pw + txi * TILE_M
            u_tiles = _transform_tile_group(
                src,
                lambda ch, c0=c0, base_row=base_row: (c0 + ch) * ph * pw + base_row,
                wm.BT.astype(np.float32), nch, pw, TILE_ALPHA,
            )
            for ch in range(nch):
                off = (t * ic + c0 + ch) * TUPLE_ELEMS
                u_buf.array[off : off + TUPLE_ELEMS] = u_tiles[ch].reshape(-1)

    # ---- tuple multiplication (64 positions, strip-mined) --------------- #
    for t in range(ntiles):
        for o in range(oc):
            pos = 0
            while pos < TUPLE_ELEMS:
                vl = machine.vsetvl(TUPLE_ELEMS - pos)
                machine.vbroadcast(3, 0.0)
                for c in range(ic):
                    machine.scalar(2, "wg_tuple_loop")
                    machine.vload(1, u_buf, (t * ic + c) * TUPLE_ELEMS + pos)
                    machine.vload(2, v_buf, (o * ic + c) * TUPLE_ELEMS + pos)
                    machine.vfmacc(3, 1, 2)
                machine.vstore(3, m_buf, (t * oc + o) * TUPLE_ELEMS + pos)
                pos += vl

    # ---- output transform ----------------------------------------------- #
    cbo = max(1, min(oc, vlmax // PACK_ELEMS)) if intertile else 1
    out = np.zeros((oc, ty * TILE_M, tx * TILE_M), dtype=np.float32)
    at32 = wm.AT.astype(np.float32)
    for t in range(ntiles):
        tyi, txi = divmod(t, tx)
        for o0 in range(0, oc, cbo):
            nch = min(cbo, oc - o0)
            y_tiles = _transform_tile_group(
                m_buf,
                lambda ch, t=t, o0=o0: (t * oc + o0 + ch) * TUPLE_ELEMS,
                at32, nch, TILE_ALPHA, TILE_ALPHA,
            )
            y0, x0 = tyi * TILE_M, txi * TILE_M
            for ch in range(nch):
                out[o0 + ch, y0 : y0 + TILE_M, x0 : x0 + TILE_M] = y_tiles[ch]
    return out[:, : spec.oh, : spec.ow]


def im2col_vectorized_perop(
    spec: ConvSpec, x: np.ndarray, machine: VectorMachine
) -> Buffer:
    """Per-op reference for :func:`repro.algorithms.im2col.im2col_vectorized`."""
    spec.validate_input(x.shape)
    xp = pad_input(np.asarray(x, dtype=np.float32), spec.pad)
    src = machine.alloc_from("im2col_src", xp, unique=True)
    col = machine.alloc("im2col_col", spec.gemm_k * spec.gemm_n, np.float32, unique=True)
    ph, pw = xp.shape[1], xp.shape[2]
    ow, oh, s = spec.ow, spec.oh, spec.stride
    row = 0
    for c in range(spec.ic):
        for dh in range(spec.kh):
            for dw in range(spec.kw):
                for out_y in range(oh):
                    machine.scalar(3, "im2col_loop")
                    src_base = c * ph * pw + (out_y * s + dh) * pw + dw
                    dst_base = row * (oh * ow) + out_y * ow
                    j = 0
                    while j < ow:
                        gvl = machine.vsetvl(ow - j)
                        if s == 1:
                            machine.vload(0, src, src_base + j)
                        else:
                            machine.vload_strided(0, src, src_base + j * s, s)
                        machine.vstore(0, col, dst_base + j)
                        j += gvl
                row += 1
    return col


def gemm3_vectorized_perop(
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
    """Per-op reference for :func:`repro.algorithms.gemm_kernels.gemm3_vectorized`."""
    _check_unroll(unroll)
    a = a_buf.array
    j = 0
    while j < n:
        gvl = machine.vsetvl(n - j)
        for i0 in range(0, m, unroll):
            u = min(unroll, m - i0)
            machine.scalar(2, "loop_i")
            for it in range(u):
                machine.vload(1 + it, c_buf, (i0 + it) * n + j)
            for kk in range(k):
                machine.scalar(2, "loop_k")
                machine.vload(0, b_buf, kk * n + j)
                for it in range(u):
                    machine.scalar(1, "a_load")
                    machine.vfmacc_vf(1 + it, alpha * float(a[(i0 + it) * k + kk]), 0)
            for it in range(u):
                machine.vstore(1 + it, c_buf, (i0 + it) * n + j)
        j += gvl


def _copy_rows_perop(
    machine: VectorMachine,
    src_buf: Buffer,
    packed: Buffer,
    src0: int,
    src_pitch: int,
    rows: int,
    length: int,
    name: str,
) -> None:
    """Pack ``rows`` rows of ``length`` elements, strip-mined load/store."""
    for r in range(rows):
        machine.scalar(2, name)
        src = src0 + r * src_pitch
        dst = r * length
        jj = 0
        while jj < length:
            gvl = machine.vsetvl(length - jj)
            machine.vload(0, src_buf, src + jj)
            machine.vstore(0, packed, dst + jj)
            jj += gvl


def gemm6_vectorized_perop(
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
    """Per-op reference for :func:`repro.algorithms.gemm_kernels.gemm6_vectorized`."""
    packed_b = machine.alloc("packB", block_k * block_n, np.float32, unique=True)
    packed_a = machine.alloc("packA", block_m * block_k, np.float32, unique=True)
    for j1 in range(0, n, block_n):
        jb = min(block_n, n - j1)
        for k1 in range(0, k, block_k):
            kb = min(block_k, k - k1)
            # B[k1:k1+kb, j1:j1+jb] and A[i1:i1+ib, k1:k1+kb], row-major
            _copy_rows_perop(
                machine, b_buf, packed_b, k1 * n + j1, n, kb, jb, "pack_b_loop"
            )
            for i1 in range(0, m, block_m):
                ib = min(block_m, m - i1)
                _copy_rows_perop(
                    machine, a_buf, packed_a, i1 * k + k1, k, ib, kb, "pack_a_loop"
                )
                pa = packed_a.array
                j = 0
                while j < jb:
                    gvl = machine.vsetvl(jb - j)
                    machine.scalar(3, "prefetch_c")
                    for it in range(ib):
                        machine.vload(1 + it, c_buf, (i1 + it) * n + j1 + j)
                    for kk in range(kb):
                        machine.scalar(2, "prefetch_ab")
                        machine.vload(0, packed_b, kk * jb + j)
                        for it in range(ib):
                            machine.scalar(1, "a_load")
                            machine.vfmacc_vf(1 + it, alpha * float(pa[it * kb + kk]), 0)
                    for it in range(ib):
                        machine.vstore(1 + it, c_buf, (i1 + it) * n + j1 + j)
                    j += gvl


def im2col_gemm_perop(
    spec: ConvSpec,
    x: np.ndarray,
    w: np.ndarray,
    machine: VectorMachine,
    kernel_perop,
) -> np.ndarray:
    """Per-op im2col+GEMM, composed as ``_Im2colGemmBase._vectorized`` is;
    ``kernel_perop`` is :func:`gemm3_vectorized_perop` or
    :func:`gemm6_vectorized_perop`."""
    col_buf = im2col_vectorized_perop(spec, x, machine)
    a_buf = machine.alloc_from("gemm_a", w.reshape(spec.oc, spec.gemm_k), unique=True)
    c_buf = machine.alloc("gemm_c", spec.gemm_m * spec.gemm_n, np.float32, unique=True)
    kernel_perop(machine, a_buf, col_buf, c_buf, spec.gemm_m, spec.gemm_k, spec.gemm_n)
    return col2im_output(spec, c_buf.array.reshape(spec.gemm_m, spec.gemm_n))
