"""The Direct convolution algorithm (NHWC, vectorized over output channels).

Follows Paper II §3.2: the input and weights are transformed from NCHW to
NHWC before computation; the kernel is "naively" vectorized across channels,
then loop-reordered so the *output* channels/dimensions are outermost (the
3x improvement the paper reports over the naive order), with the loops over
OW unrolled to fill the register file and a vectorized tail loop.

Micro-kernel structure (as in oneDNN-style NHWC direct convolution):

    for oc_group (vector-width slice of OC):
      for oh, ow-block (unrolled):
        acc[uw][noc] = 0
        for ic, kh, kw:
          wvec  = weights[kh, kw, ic, oc_group]        # unit-stride load
          for each unrolled ow:  acc += x[ih, iw, ic] * wvec   # vfmacc.vf
        store acc -> out[oh, ow, oc_group]
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from repro import obs
from repro.algorithms.base import ConvAlgorithm
from repro.errors import ConfigError
from repro.isa.machine import VectorMachine
from repro.isa.trace import KIND_MEMORY, KIND_SCALAR, LoopRow
from repro.nn.layer import DTYPE_BYTES, ConvSpec
from repro.nn.reference import pad_input
from repro.simulator.analytical.cachemodel import (
    effective_l2_bytes,
    stream_dram_bytes_at,
)
from repro.simulator.analytical.calibration import DEFAULT_CALIBRATION
from repro.simulator.analytical.grid import fold
from repro.simulator.analytical.phases import DataStream, Phase
from repro.simulator.hwconfig import HardwareConfig

#: The stream fields Direct's tiling choice reads, residency's first.
_CHOICE_FIELDS = operator.attrgetter("reuse_ws", "bytes", "passes", "resident_source")

#: Register budget for output accumulators (32 regs minus weight/scratch).
_ACC_REGS = 24


def _unroll_ow(ow: int, cap: int = _ACC_REGS) -> int:
    """Unroll factor over OW, bounded by the accumulator-register budget.

    The kernel loops OC in vector-register-wide groups (outermost), so each
    unrolled output point holds one accumulator register regardless of OC.
    ``cap`` is the schedulable knob (the paper's hand-chosen value is the
    full :data:`_ACC_REGS` budget); the schedule IR searches over it.
    """
    return max(1, min(ow, cap, _ACC_REGS))


class DirectConv(ConvAlgorithm):
    """NHWC direct convolution, vectorized over OC.

    ``unroll_ow`` caps the output-row unroll factor (default: the full
    accumulator budget, the paper's hand-chosen schedule).  Non-default
    values are produced by :mod:`repro.schedule` variants; all three faces
    (functional, traced, analytical) honour the same cap.
    """

    name = "direct"
    label = "Direct"
    #: the tilings read the vector length only; the L2 size only chooses
    #: between them (:meth:`choose_candidate`)
    schedule_reads = ("vlen_bits", "lmul")

    def __init__(self, unroll_ow: int = _ACC_REGS) -> None:
        if unroll_ow < 1:
            raise ConfigError(f"unroll_ow must be >= 1, got {unroll_ow}")
        self.unroll_ow = unroll_ow

    # ------------------------------------------------------------------ #
    def run(self, spec: ConvSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Functional NHWC direct convolution.

        Transforms to NHWC, accumulates per kernel offset with the channel
        contraction innermost (the NHWC dataflow), transforms back.
        """
        spec.validate_input(x.shape)
        xp = pad_input(np.asarray(x, dtype=np.float32), spec.pad)
        x_nhwc = np.ascontiguousarray(xp.transpose(1, 2, 0))  # (H, W, IC)
        w_hwio = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # (KH, KW, IC, OC)
        oh, ow, s = spec.oh, spec.ow, spec.stride
        # Cast once up front: the per-tap astype() calls re-copied the full
        # tensors KH*KW times.
        x64 = x_nhwc.astype(np.float64)
        w64 = w_hwio.astype(np.float64)
        out = np.zeros((oh, ow, spec.oc), dtype=np.float64)
        for dh in range(spec.kh):
            for dw in range(spec.kw):
                window = x64[dh : dh + s * oh : s, dw : dw + s * ow : s, :]
                out += window @ w64[dh, dw]
        return np.ascontiguousarray(out.transpose(2, 0, 1)).astype(np.float32)

    # ------------------------------------------------------------------ #
    def run_vectorized(
        self, spec: ConvSpec, x: np.ndarray, w: np.ndarray, machine: VectorMachine
    ) -> np.ndarray:
        """Intrinsics-level NHWC direct kernel (batched fast path).

        Produces the exact observable behaviour of a one-call-per-
        instruction kernel (the reference in ``tests/trace_oracle.py``) —
        bit-identical outputs, identical instruction counts, and the same
        ordered memory rows — but computes the accumulators with
        whole-plane NumPy FMAs (one per kernel tap, preserving the per-op
        accumulation order elementwise) and traces each OC group in three
        calls: one :meth:`~repro.isa.trace.InstructionTrace.emit_loop` over
        the output rows for the memory rows and loop scalars, and one
        ``emit_vector`` each for the broadcasts and the FMAs.
        Vector-register *contents* after the call are unspecified; nothing
        the cache/timing simulators consume differs.  The trace of a
        full-size VGG-16 layer fits in memory and replays.
        """
        spec.validate_input(x.shape)
        with obs.span("direct.pack", cat="kernel"):
            xp = pad_input(np.asarray(x, dtype=np.float32), spec.pad)
            x_host = np.ascontiguousarray(xp.transpose(1, 2, 0))  # (PH, PW, IC)
            w_host = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # (KH,KW,IC,OC)
            x_nhwc = machine.alloc_from("direct_x", x_host, unique=True)
            w_hwio = machine.alloc_from("direct_w", w_host, unique=True)
            out = machine.alloc(
                "direct_y", spec.oh * spec.ow * spec.oc, np.float32, unique=True
            )
        ic, oc, s = spec.ic, spec.oc, spec.stride
        oh, ow, kh, kw = spec.oh, spec.ow, spec.kh, spec.kw
        # -- functional compute: one whole-plane FMA per kernel tap -------- #
        # Tap order (c, dh, dw) matches the per-op loop nest; float32
        # products/adds are elementwise, so every output element sees the
        # per-op rounding sequence exactly.
        with obs.span("direct.gemm", cat="kernel"):
            acc = np.zeros((oh, ow, oc), dtype=np.float32)
            for c in range(ic):
                xc = x_host[:, :, c]
                for dh in range(kh):
                    for dw in range(kw):
                        window = xc[dh : dh + s * oh : s, dw : dw + s * ow : s]
                        acc += window[:, :, None] * w_host[dh, dw, c][None, None, :]
            out.array[:] = acc.reshape(-1)
        # -- trace emission: per OC group, one loop over the output rows -- #
        # Per ow-block of u points a row issues the loop scalars, ntaps
        # weight loads and u accumulator stores; the u broadcasts and
        # u * ntaps FMAs of a block are counted per group.
        with obs.span("direct.emit", cat="kernel"):
            elem = out.array.itemsize
            # weight-load element offsets in tap order (constant per OC group)
            hw_grid = np.tile(np.arange(kh * kw, dtype=np.int64), ic)
            c_grid = np.repeat(np.arange(ic, dtype=np.int64), kh * kw)
            woffs = (hw_grid * ic + c_grid) * oc
            ntaps = woffs.size
            uw = _unroll_ow(ow, self.unroll_ow)
            blocks = [min(uw, ow - ox0) for ox0 in range(0, ow, uw)]
            is_store = np.concatenate(
                [np.repeat([False, True], [ntaps, u]) for u in blocks]
            )
            pixels = np.arange(oh * ow, dtype=np.int64).reshape(oh, ow) * oc
            bases = np.empty((oh, is_store.size), dtype=np.int64)
            trace = machine.trace
            for oc0 in range(0, oc, machine.vlmax()):
                gvl = machine.vsetvl(oc - oc0)
                load = LoopRow(KIND_MEMORY, "vle", gvl, elem, elem)
                store = LoopRow(KIND_MEMORY, "vse", gvl, elem, elem, True)
                body: list[LoopRow] = []
                for u in blocks:
                    body += (
                        LoopRow(KIND_SCALAR, "loop_owb", 3),
                        LoopRow(KIND_SCALAR, "loop_k", 2 * ntaps),
                        LoopRow(KIND_SCALAR, "x_load", u * ntaps),
                    )
                    body += [load] * ntaps + [store] * u
                bases[:, ~is_store] = np.tile(
                    w_hwio.base + (woffs + oc0) * elem, len(blocks)
                )
                bases[:, is_store] = out.base + (pixels + oc0) * elem
                trace.emit_loop(tuple(body), bases)
                trace.emit_vector("vfmv", gvl, 32, oh * ow)
                trace.emit_vector("vfmacc.vf", gvl, 32, oh * ow * ntaps)
        with obs.span("direct.unpack", cat="kernel"):
            result = out.array.reshape(oh, ow, oc)
            return np.ascontiguousarray(result.transpose(2, 0, 1))

    # ------------------------------------------------------------------ #
    def schedule(self, spec: ConvSpec, hw: HardwareConfig) -> list[Phase]:
        """Analytical schedule: layout transforms + NHWC micro-kernel.

        Key co-design interactions encoded here:

        * lane utilization is capped by OC (``active = OC / ceil(OC/VL)``) —
          Direct scales with the vector length only while OC fills it;
        * per OC-group, the weight panel (``K * group`` bytes) is re-read for
          every output row block with a reuse window that grows with the
          vector length — Direct is the algorithm that benefits most from a
          larger L2 at long vector lengths (paper §4.2.2);
        * no im2col materialization: compulsory traffic is just the tensors.
        """
        candidates = self.schedule_candidates(spec, hw)
        return candidates[self.choose_candidate(candidates, hw)]

    def schedule_candidates(
        self, spec: ConvSpec, hw: HardwareConfig
    ) -> tuple[list[Phase], ...]:
        """The schedule under each tiling: row-major, then group-major."""
        vle = hw.vlmax_f32
        ic, oc = spec.ic, spec.oc
        oh, ow = spec.oh, spec.ow
        k_taps = spec.kh * spec.kw * ic

        noc = math.ceil(oc / vle)
        active_oc = oc / noc
        uw = _unroll_ow(ow, self.unroll_ow)
        owb = math.ceil(ow / uw)

        # --- layout phase: NCHW->NHWC input + weights ---------------------- #
        # Outputs remain NHWC (the back-transform pipelines with the next
        # layer's input transform and is not charged per layer, matching the
        # paper's per-layer Direct measurements).
        in_elems = float(ic * spec.ih * spec.iw)
        out_elems = float(oc * oh * ow)
        w_elems = float(oc * k_taps)
        layout = Phase(
            name="direct_layout",
            vmem_ops=2.0 * (in_elems + w_elems) / vle,
            vmem_active=float(vle),
            nonunit_fraction=0.5,
            scalar_ops=2.0 * (spec.ih * ic),
            streams=(
                DataStream(
                    "input_nchw", bytes=in_elems * DTYPE_BYTES, passes=1.0,
                    resident_source=True,
                ),
                DataStream(
                    "input_nhwc", bytes=in_elems * DTYPE_BYTES, passes=1.0,
                    is_write=True,
                ),
                DataStream("weights_oihw", bytes=w_elems * DTYPE_BYTES, passes=1.0),
                DataStream(
                    "weights_hwio", bytes=w_elems * DTYPE_BYTES, passes=1.0,
                    is_write=True,
                ),
            ),
        )

        # --- micro-kernel phase ------------------------------------------ #
        # OC-group outermost: per group, ``uw`` accumulator registers sweep
        # the row; each (ic, kh, kw) tap loads one weight vector and issues
        # ``uw`` vector-scalar FMAs fed by scalar input loads.
        fma = float(noc * oh * owb * uw * k_taps)
        w_loads = float(noc * oh * owb * k_taps)
        out_stores = float(oh * ow * noc)
        # each FMA broadcasts one input scalar; with NHWC, spatially
        # neighbouring broadcasts are IC*4 bytes apart, so wide layers lose
        # line locality and L1-bank overlap on the scalar pipe (the saturation
        # scale of 64 channels is calibrated to the paper's Figs. 1-2)
        bcast_cost = 1.0 + min(1.0, ic / 64.0)
        scalar = bcast_cost * fma + 2.0 * noc * oh * owb * k_taps

        w_bytes = w_elems * DTYPE_BYTES
        group_w_ws = float(k_taps * min(oc, vle) * DTYPE_BYTES)
        in_bytes = in_elems * DTYPE_BYTES
        row_ws = float(spec.kh * spec.iw * ic * DTYPE_BYTES)

        # Two canonical tilings of the (oc-group, oh) loops; the optimized
        # kernel (loop reorder + blocking, Paper II §3.2) effectively picks
        # the one that re-streams the smaller tensor:
        #   row-major: rows outer — whole weight tensor swept per row, input
        #     reused at row granularity;
        #   group-major: OC-groups outer — per-group weight panel swept per
        #     row (the panel grows with the vector length: the Direct x L2
        #     co-design interaction), input re-read once per group.
        row_major = (
            DataStream("weights", bytes=w_bytes, passes=float(oh), reuse_ws=w_bytes),
            DataStream(
                "input",
                bytes=in_bytes,
                passes=max(1.0, spec.kh / spec.stride),
                reuse_ws=row_ws + group_w_ws,
                scalar_access=True,
                resident_source=True,
            ),
        )
        group_major = (
            DataStream(
                "weights", bytes=w_bytes, passes=float(oh), reuse_ws=group_w_ws
            ),
            DataStream(
                "input",
                bytes=in_bytes,
                passes=float(noc) + max(0.0, spec.kh / spec.stride - 1.0),
                reuse_ws=in_bytes,
                scalar_access=True,
                resident_source=True,
            ),
        )

        output = DataStream(
            "output", bytes=out_elems * DTYPE_BYTES, passes=1.0, is_write=True
        )
        return tuple(
            [
                layout,
                Phase(
                    name="direct_kernel",
                    vector_ops=fma,
                    vector_active=active_oc,
                    vmem_ops=w_loads + out_stores,
                    vmem_active=active_oc,
                    scalar_ops=scalar,
                    streams=tiling + (output,),
                ),
            ]
            for tiling in (row_major, group_major)
        )

    def choose_candidate(
        self, candidates: Sequence[list[Phase]], hw: HardwareConfig
    ) -> int:
        """The tiling with the least DRAM traffic at ``hw``'s L2 size.

        The cost sums the tiling's own streams (the kernel's streams less
        the shared output) under :data:`DEFAULT_CALIBRATION`; on a tie the
        first candidate wins.
        """
        cache = effective_l2_bytes(hw)
        costs = []
        for candidate in candidates:
            cost = 0.0
            for stream in candidate[-1].streams[:-1]:
                cost += stream_dram_bytes_at(stream, cache, DEFAULT_CALIBRATION)
            costs.append(cost)
        return min(range(len(costs)), key=costs.__getitem__)

    def choose_candidates(
        self,
        candidates: Sequence[Sequence[list[Phase]]],
        configs: Sequence[HardwareConfig],
        entry: np.ndarray,
        config: np.ndarray,
    ) -> np.ndarray:
        """:meth:`choose_candidate` as columns over the cells.

        Each term is the elementwise image of ``stream_dram_bytes_at``
        (Python's ``min`` and its ``<= 0`` test included), the streams of a
        tiling fold left to right, and a later tiling wins only when it
        costs strictly less, as ``min`` keeps the first of equal costs.
        """
        cache = np.array([effective_l2_bytes(hw) for hw in configs])[config]
        # (field, streams, tilings, cells) over each tiling's own streams
        # (every entry has the same tilings of the same streams); residency
        # reads the first two fields, so one pass does both
        own = [
            stream
            for entry_candidates in candidates
            for candidate in entry_candidates
            for stream in candidate[-1].streams[:-1]
        ]
        fields = (
            np.array(list(map(_CHOICE_FIELDS, own)), dtype=np.float64)
            .reshape(len(candidates), len(candidates[0]), -1, 4)
            .T.take(entry, 3)
        )
        res, res_src = _residency(fields[:2], cache)
        b, passes, resident = fields[1:]
        compulsory = b
        if DEFAULT_CALIBRATION.enable_resident_source:
            compulsory = np.where(resident, b * (1.0 - res_src), b)
        traffic = compulsory + b * (passes - 1.0) * (1.0 - res)
        costs = fold(traffic)  # (tilings, cells)
        pick = np.zeros(len(entry), dtype=np.int64)
        best = costs[0]
        for k in range(1, len(costs)):
            cheaper = costs[k] < best
            pick[cheaper] = k
            best = np.where(cheaper, costs[k], best)
        return pick


def _residency(reuse_ws: np.ndarray, cache_bytes: np.ndarray) -> np.ndarray:
    """:func:`~repro.simulator.analytical.cachemodel.residency`, elementwise
    (``cache_bytes`` broadcasts to the shape of ``reuse_ws``):
    ``min(1.0, cache / ws)`` is below 1.0 exactly where ``cache < ws``, and
    1.0 wherever ``ws <= 0``."""
    return np.divide(
        cache_bytes,
        reuse_ws,
        out=np.ones_like(reuse_ws),
        where=cache_bytes < reuse_ws,
    )
