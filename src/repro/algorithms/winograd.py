"""Winograd F(6x6, 3x3) convolution with inter-tile channel parallelism.

Reproduces the paper's NNPACK-derived Winograd kernel (Paper I §IV-B,
Paper II §3.2):

* fixed 8x8 input tiles producing 6x6 outputs — larger tiles would lose
  fp32 accuracy, so the tile size never grows with the vector length;
* **inter-tile parallelism**: to feed long vectors, the input/output
  transforms pack one 8x8 tile *per channel*, 4 elements per half-row, so a
  vector of ``VL`` bits spans ``VL/128`` channels (4 channels at 512 bits,
  16 at 2048 bits — Fig. 2.1 of the thesis); the scheme needs at least 4
  channels, which is why it degrades on 3-channel first layers;
* the tuple (element-wise tile) multiplication is vectorized over the 64
  tile positions — bounded at 64 f32 = 2048 bits, which is why Winograd
  stops scaling beyond 2048-bit vectors (Paper II §4.2.1);
* the weight transform is charged online by default (Paper II's serving
  setting) or hoisted offline (``online_weight_transform=False``, Paper I's
  inference study);
* tuple/transform memory costs depend on the ISA: ARM-SVE's zip/transpose
  intrinsics enable register blocking, RVV's missing permutes force the
  buffer+gather workaround of Paper I §VII (``HardwareConfig.isa``).

Applicability follows Paper II by default: 3x3 kernels with stride 1.
``allow_strided=True`` reproduces Paper I's stride-2 treatment (compute at
stride 1, subsample — measurably slower than im2col+GEMM).
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.algorithms.base import ConvAlgorithm
from repro.algorithms.winograd_transforms import f63
from repro.errors import IsaError
from repro.isa.machine import Buffer, VectorMachine
from repro.isa.trace import KIND_MEMORY, KIND_SCALAR, KIND_VECTOR, LoopRow
from repro.isa.types import E32, VType
from repro.nn.layer import DTYPE_BYTES, ConvSpec
from repro.nn.reference import pad_input
from repro.simulator.analytical.phases import DataStream, Phase
from repro.simulator.hwconfig import HardwareConfig

#: Output tile (m), filter taps (r), input tile (alpha).
TILE_M = 6
TILE_R = 3
TILE_ALPHA = 8
#: Tile positions in the element-wise (tuple) multiplication.
TUPLE_ELEMS = TILE_ALPHA * TILE_ALPHA  # 64 -> caps useful VL at 2048 bits
#: Elements per channel half-row in the packed inter-tile layout.
PACK_ELEMS = 4
#: Minimum channels for the inter-tile vector path.
MIN_CHANNELS = 4

#: Vector-arithmetic instruction counts of one packed transform group
#: (two buffers, two 8x8 linear-combination stages + repack arithmetic:
#: 2 stages x 2 half-buffers x 8 rows x ~8 FMAs, plus transpose shuffles).
INPUT_TRANSFORM_OPS = 280.0
OUTPUT_TRANSFORM_OPS = 230.0
#: Vector memory ops per transform group (pack + repack + store).
TRANSFORM_VMEM_OPS = 40.0
#: Scalar bookkeeping per (tile, channel) in the packing loops
#: (Paper I Fig. 4, lines 9-16).
PACK_SCALARS = 6.0
#: Tile block size amortizing transformed-weight (V) reuse in tuple GEMM.
TILE_BLOCK = 64
#: Vector memory instructions per tuple FMA (U + V loads, partially
#: amortized by the 4-element micro-blocking of the paper's scheme) on RVV,
#: where the missing permute/zip intrinsics force temporary buffers and
#: gather loads (Paper I §VII).
TUPLE_VMEM_PER_FMA = 1.6
#: On ARM-SVE the zip/transpose intrinsics enable register blocking in the
#: tuple stage: far fewer memory operations per FMA.
TUPLE_VMEM_PER_FMA_SVE = 0.6


def tile_counts(spec: ConvSpec) -> tuple[int, int]:
    """(tiles_y, tiles_x): 6x6 output tiles covering the output plane."""
    return math.ceil(spec.oh / TILE_M), math.ceil(spec.ow / TILE_M)


def _emit_transform(
    machine: VectorMachine,
    buf: Buffer,
    scratch: Buffer,
    mat: np.ndarray,
    channels: int,
    group: int,
    channel_stride: int,
    row_stride: int,
    tile_offsets: np.ndarray,
) -> None:
    """Trace rows of a packed transform, as one ``emit_loop`` over tiles.

    Per tile, per group of ``group`` channels (the last one ragged):
    ``vsetvl``; per tile row a gather of the group's packed half-rows
    (channel ``c``'s row ``r`` starts at element ``tile_offsets[t] +
    c * channel_stride + r * row_stride`` of ``buf``), its scratch store and
    the packing scalars; then the two linear-combination stages of ``mat``
    around the transpose scalars.  Leaves ``machine.vtype`` as the last
    group's ``vsetvl`` does.
    """
    vlmax = machine.vlmax()
    elem = E32.bytes
    rows_out = mat.shape[0]
    nnz = int(np.count_nonzero(mat[:, 1:TILE_ALPHA]))
    lanes = np.arange(TILE_ALPHA, dtype=np.int64)  # tile rows, and taps per row
    scratch_rows = scratch.base + lanes * vlmax * elem
    # per group: (gather, scratch store) per tile row, then both stages'
    # scratch loads and stores
    stage_bases = np.concatenate([scratch_rows, scratch_rows[:rows_out]])
    group_bases = np.concatenate([
        np.stack([np.full(TILE_ALPHA, buf.base), scratch_rows], axis=1).reshape(-1),
        stage_bases,
        stage_bases,
    ])
    starts = range(0, channels, group)
    body, offsets = (), []
    for c0 in starts:
        nch = min(group, channels - c0)
        vl = min(nch * PACK_ELEMS * 2, vlmax)
        if (TILE_ALPHA - 1) * vlmax + vl > scratch.array.size:
            raise IsaError(
                f"Winograd scratch rows of {vl} elements overrun buffer "
                f"{scratch.name!r} ({scratch.array.size} elements)"
            )
        stage = (
            (LoopRow(KIND_MEMORY, "vle", vl, elem, elem),) * TILE_ALPHA
            + (LoopRow(KIND_VECTOR, "vfmul.vf", vl, 32),) * rows_out
            + (LoopRow(KIND_VECTOR, "vfmacc.vf", vl, 32),) * nnz
            + (LoopRow(KIND_MEMORY, "vse", vl, elem, elem, True),) * rows_out
        )
        body += (
            (LoopRow(KIND_SCALAR, "vsetvl", 1),)
            + (
                LoopRow(KIND_MEMORY, "vluxei", vl, elem, indexed=True),
                LoopRow(KIND_MEMORY, "vse", vl, elem, elem, True),
                LoopRow(KIND_SCALAR, "wg_pack", int(PACK_SCALARS * nch)),
            ) * TILE_ALPHA
            + stage
            + (LoopRow(KIND_SCALAR, "wg_transpose", 2 * rows_out),)
            + stage
        )
        # tile row r gathers the group's rows r, channel by channel (8 taps
        # each), and keeps the first vl offsets
        chan = (c0 + np.arange(nch, dtype=np.int64)) * channel_stride
        row_offsets = (chan[:, None] + lanes).reshape(-1)[:vl]
        offsets.append(lanes[:, None] * row_stride + row_offsets)
    offsets = np.concatenate(offsets, axis=None)
    lo = int(tile_offsets.min()) + int(offsets.min())
    hi = int(tile_offsets.max()) + int(offsets.max())
    if lo < 0 or hi >= buf.array.size:
        raise IsaError(
            f"Winograd gather offsets [{lo}, {hi}] outside buffer "
            f"{buf.name!r} ({buf.array.size} elements)"
        )
    bases = np.tile(group_bases, len(starts))
    machine.trace.emit_loop(
        body,
        np.broadcast_to(bases, (tile_offsets.size, bases.size)),
        (tile_offsets[:, None] + offsets) * elem,
    )
    machine.vtype = VType(sew=E32, vl=vl)


class WinogradConv(ConvAlgorithm):
    """F(6x6, 3x3) Winograd with inter-tile channel vectorization.

    ``online_weight_transform`` controls whether the G g G^T weight transform
    is charged per layer execution.  Paper II's model-serving setting keeps
    weights in the framework's native layout and transforms at layer entry
    (the IC*OC-quadratic term that makes Winograd uncompetitive on deep,
    high-channel layers); Paper I's inference study hoists it offline —
    the Paper I extension experiments pass ``False``.
    """

    name = "winograd"
    label = "Winograd"
    #: vector length, the ISA (SVE's zip/transpose intrinsics) and the L1
    #: size (the tuple-multiplication spill test)
    schedule_reads = ("vlen_bits", "lmul", "isa", "l1_kib")

    def __init__(
        self,
        online_weight_transform: bool = True,
        allow_strided: bool = False,
    ) -> None:
        self.online_weight_transform = online_weight_transform
        #: Paper I evaluated stride-2 3x3 layers with Winograd by computing
        #: the stride-1 result and subsampling — ~4x wasted tile work, which
        #: is why it measured 1.4x *slower* than im2col+GEMM there.  Paper II
        #: therefore treats stride 2 as inapplicable (the default here).
        self.allow_strided = allow_strided

    # ------------------------------------------------------------------ #
    def applicability_reason(self, spec: ConvSpec) -> str | None:
        if (spec.kh, spec.kw) != (TILE_R, TILE_R):
            return f"requires 3x3 kernels, got {spec.kh}x{spec.kw}"
        if spec.stride == 2 and self.allow_strided:
            return None
        if spec.stride != 1:
            return f"requires stride 1, got {spec.stride}"
        return None

    @staticmethod
    def _unit_stride_twin(spec: ConvSpec) -> ConvSpec:
        """The stride-1 layer whose subsampled output equals ``spec``'s."""
        return ConvSpec(
            ic=spec.ic, oc=spec.oc, ih=spec.ih, iw=spec.iw,
            kh=spec.kh, kw=spec.kw, stride=1, pad=spec.pad, index=spec.index,
        )

    # ------------------------------------------------------------------ #
    # functional path
    # ------------------------------------------------------------------ #
    def transform_weights(self, spec: ConvSpec, w: np.ndarray) -> np.ndarray:
        """Offline weight transform: (OC, IC, 3, 3) -> (OC, IC, 8, 8)."""
        wm = f63()
        g = w.astype(np.float64)
        return np.einsum("ij,ocjk,lk->ocil", wm.G, g, wm.G).astype(np.float32)

    def run(self, spec: ConvSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Functional Winograd convolution (tile-batched NumPy)."""
        self.check_applicable(spec)
        if spec.stride == 2:
            full = self.run(self._unit_stride_twin(spec), x, w)
            return np.ascontiguousarray(full[:, ::2, ::2][:, : spec.oh, : spec.ow])
        spec.validate_input(x.shape)
        wm = f63()
        ty, tx = tile_counts(spec)
        # pad so the tile grid covers the input the tiles need:
        # tile (i, j) reads input rows [6i - pad, 6i - pad + 8)
        xp = pad_input(np.asarray(x, dtype=np.float32), spec.pad)
        need_h = (ty - 1) * TILE_M + TILE_ALPHA
        need_w = (tx - 1) * TILE_M + TILE_ALPHA
        xp = np.pad(
            xp, ((0, 0), (0, max(0, need_h - xp.shape[1])),
                 (0, max(0, need_w - xp.shape[2])))
        )
        # gather tiles: (ty, tx, IC, 8, 8)
        sic, sih, siw = xp.strides
        tiles = np.lib.stride_tricks.as_strided(
            xp,
            shape=(ty, tx, spec.ic, TILE_ALPHA, TILE_ALPHA),
            strides=(TILE_M * sih, TILE_M * siw, sic, sih, siw),
            writeable=False,
        ).astype(np.float64)
        # input transform U = BT d B : (ty, tx, IC, 8, 8)
        u = np.einsum("ij,yxcjk,lk->yxcil", wm.BT, tiles, wm.BT)
        # weight transform (offline for inference)
        v = self.transform_weights(spec, w).astype(np.float64)
        # tuple multiplication: M[y,x,oc] = sum_ic U[y,x,ic] * V[oc,ic]
        mmat = np.einsum("yxcij,ocij->yxoij", u, v)
        # output transform Y = AT m A : (ty, tx, OC, 6, 6)
        y = np.einsum("ij,yxojk,lk->yxoil", wm.AT, mmat, wm.AT)
        out = np.zeros(
            (spec.oc, ty * TILE_M, tx * TILE_M), dtype=np.float64
        )
        # scatter tiles back: (ty,tx,oc,6,6) -> (oc, ty*6, tx*6)
        out = (
            y.transpose(2, 0, 3, 1, 4).reshape(spec.oc, ty * TILE_M, tx * TILE_M)
        )
        return out[:, : spec.oh, : spec.ow].astype(np.float32)

    # ------------------------------------------------------------------ #
    # intrinsics path
    # ------------------------------------------------------------------ #
    def run_vectorized(
        self, spec: ConvSpec, x: np.ndarray, w: np.ndarray, machine: VectorMachine
    ) -> np.ndarray:
        """Inter-tile-parallel Winograd on the vector machine (batched).

        The paper's kernel packs half-rows (4 elements) of one 8x8 tile per
        channel into long vectors (Paper I Figs. 4-5), applies the B^T/A^T
        linear row combinations with vector-scalar FMAs, transposes,
        repeats, and strip-mines the 64-position tuple multiplication.
        Packing uses indexed gathers, and a scratch buffer stands in for
        the register-permute intrinsics RVV lacks (the paper notes the same
        limitation and uses buffers + gathers).

        This method reproduces the observable behaviour of that kernel run
        one call per instruction (the reference in
        ``tests/trace_oracle.py``) — bit-identical outputs and buffer
        contents, identical per-category instruction counts, and the same
        ordered memory-op address stream — while computing the transforms
        with whole-grid einsums (stride-tricks tile extraction, batched over
        all tiles and channels) and emitting the trace as three
        :meth:`~repro.isa.trace.InstructionTrace.emit_loop` calls: the input
        and output transforms one tile per iteration (every channel group,
        the ragged last one included, with the gathers' per-element offsets
        as one block), the tuple multiplication one (tile, output channel)
        per iteration.  Gather offsets and scratch rows are bounds-checked
        like the per-op intrinsics (:class:`~repro.errors.IsaError`), and
        ``machine.vtype`` ends as the per-op loop leaves it.  Register and
        scratch-buffer contents after the call are unspecified, as with the
        other batched kernels.
        """
        self.check_applicable(spec)
        if spec.stride == 2:
            full = self.run_vectorized(
                self._unit_stride_twin(spec), x, w, machine
            )
            return np.ascontiguousarray(
                full[:, ::2, ::2][:, : spec.oh, : spec.ow]
            )
        spec.validate_input(x.shape)
        wm = f63()
        ty, tx = tile_counts(spec)
        ntiles = ty * tx
        ic, oc = spec.ic, spec.oc
        vlmax = machine.vlmax()

        with obs.span("winograd.pack", cat="kernel"):
            xp = pad_input(np.asarray(x, dtype=np.float32), spec.pad)
            need_h = (ty - 1) * TILE_M + TILE_ALPHA
            need_w = (tx - 1) * TILE_M + TILE_ALPHA
            xp = np.pad(
                xp, ((0, 0), (0, max(0, need_h - xp.shape[1])),
                     (0, max(0, need_w - xp.shape[2])))
            )
            src = machine.alloc_from("wg_x", xp, unique=True)
            ph, pw = xp.shape[1], xp.shape[2]

            # U and M are stored tile-major: [tile][channel][64 positions]
            u_buf = machine.alloc("wg_u", ntiles * ic * TUPLE_ELEMS, unique=True)
            m_buf = machine.alloc("wg_m", ntiles * oc * TUPLE_ELEMS, unique=True)
            v_host = self.transform_weights(spec, w)  # offline, as in the paper
            v_buf = machine.alloc_from("wg_v", v_host, unique=True)
            scratch = machine.alloc("wg_s", vlmax * TILE_ALPHA, unique=True)

        intertile = ic >= MIN_CHANNELS
        cb = max(1, min(ic, vlmax // PACK_ELEMS)) if intertile else 1
        bt32 = wm.BT.astype(np.float32)
        at32 = wm.AT.astype(np.float32)

        # ---- functional compute (whole grid, per-op rounding order) ----- #
        # tiles: (ty, tx, IC, 8, 8) view of the padded input
        with obs.span("winograd.transform_in", cat="kernel"):
            sic, sih, siw = xp.strides
            tiles = np.lib.stride_tricks.as_strided(
                xp,
                shape=(ty, tx, ic, TILE_ALPHA, TILE_ALPHA),
                strides=(TILE_M * sih, TILE_M * siw, sic, sih, siw),
                writeable=False,
            ).astype(np.float64)
            # input transform: same float64 einsum the per-op group helper
            # runs, batched over (ty, tx, IC) — einsum's contraction order per
            # output element is independent of the leading batch axes, so this
            # is bit-identical to the per-group evaluation.
            bt64 = bt32.astype(np.float64)
            u_all = np.einsum(
                "ij,yxcjk,lk->yxcil", bt64, tiles, bt64
            ).astype(np.float32)
            u_buf.array[:] = u_all.reshape(-1)
        # tuple multiplication: float32 accumulation, channels in per-op order
        with obs.span("winograd.gemm", cat="kernel"):
            u3 = u_all.reshape(ntiles, ic, TUPLE_ELEMS)
            v3 = v_host.reshape(oc, ic, TUPLE_ELEMS)
            macc = np.zeros((ntiles, oc, TUPLE_ELEMS), dtype=np.float32)
            for c in range(ic):
                macc += u3[:, c, :][:, None, :] * v3[:, c, :][None, :, :]
            m_buf.array[:] = macc.reshape(-1)
        # output transform from the M buffer values
        with obs.span("winograd.transform_out", cat="kernel"):
            at64 = at32.astype(np.float64)
            m4 = macc.reshape(ntiles, oc, TILE_ALPHA, TILE_ALPHA).astype(np.float64)
            y_all = np.einsum("ij,tojk,lk->toil", at64, m4, at64).astype(np.float32)
            y_grid = y_all.reshape(ty, tx, oc, TILE_M, TILE_M)
            out = np.ascontiguousarray(
                y_grid.transpose(2, 0, 3, 1, 4).reshape(oc, ty * TILE_M, tx * TILE_M)
            )

        # ---- trace emission: one emit_loop per stage, same rows --------- #
        tiles = np.arange(ntiles, dtype=np.int64)
        tyi, txi = np.divmod(tiles, tx)
        with obs.span("winograd.emit_input", cat="kernel"):
            _emit_transform(
                machine, src, scratch, bt32, ic, cb, ph * pw, pw,
                (tyi * TILE_M) * pw + txi * TILE_M,
            )

        # tuple multiplication, per (tile, output channel): the 64 positions
        # strip-mined; per strip vsetvl, vfmv, loop scalars, the U and V
        # loads of every input channel interleaved, ic vfmacc, one M store
        with obs.span("winograd.emit_tuple", cat="kernel"):
            elem = E32.bytes
            strips = np.arange(0, TUPLE_ELEMS, vlmax, dtype=np.int64)
            body = ()
            for pos in strips.tolist():
                vl = min(TUPLE_ELEMS - pos, vlmax)
                body += (
                    (LoopRow(KIND_SCALAR, "vsetvl", 1),
                     LoopRow(KIND_VECTOR, "vfmv", vl, 32),
                     LoopRow(KIND_SCALAR, "wg_tuple_loop", 2 * ic))
                    + (LoopRow(KIND_MEMORY, "vle", vl, elem, elem),) * (2 * ic)
                    + (LoopRow(KIND_VECTOR, "vfmacc", vl, 32),) * ic
                    + (LoopRow(KIND_MEMORY, "vse", vl, elem, elem, True),)
                )
            row_bytes = TUPLE_ELEMS * elem
            c_idx = np.arange(ic, dtype=np.int64)
            o_idx = np.arange(oc, dtype=np.int64)
            u_rows = u_buf.base + (tiles[:, None] * ic + c_idx) * row_bytes
            v_rows = v_buf.base + (o_idx[:, None] * ic + c_idx) * row_bytes
            m_rows = m_buf.base + (tiles[:, None] * oc + o_idx) * row_bytes
            strip_bytes = strips * elem
            bases = np.empty((ntiles, oc, strips.size, 2 * ic + 1), dtype=np.int64)
            bases[..., 0:-1:2] = u_rows[:, None, None, :] + strip_bytes[:, None]
            bases[..., 1:-1:2] = v_rows[:, None, :] + strip_bytes[:, None]
            bases[..., -1] = m_rows[:, :, None] + strip_bytes
            machine.trace.emit_loop(body, bases.reshape(ntiles * oc, -1))

        with obs.span("winograd.emit_output", cat="kernel"):
            cbo = max(1, min(oc, vlmax // PACK_ELEMS)) if intertile else 1
            _emit_transform(
                machine, m_buf, scratch, at32, oc, cbo, TUPLE_ELEMS, TILE_ALPHA,
                tiles * oc * TUPLE_ELEMS,
            )
        return out[:, : spec.oh, : spec.ow]

    # ------------------------------------------------------------------ #
    # analytical schedule
    # ------------------------------------------------------------------ #
    def schedule(self, spec: ConvSpec, hw: HardwareConfig) -> list[Phase]:
        self.check_applicable(spec)
        if spec.stride == 2:
            # compute the full stride-1 grid (~4x the retained tiles), then
            # subsample: the structural waste behind Paper I's finding that
            # strided Winograd runs ~1.4x slower than im2col+GEMM
            twin = self._unit_stride_twin(spec)
            phases = list(self.schedule(twin, hw))
            vle2 = hw.vlmax_f32
            keep = float(spec.oc * spec.oh * spec.ow)
            phases.append(
                Phase(
                    name="wg_subsample",
                    vmem_ops=2.0 * keep / vle2,
                    vmem_active=float(vle2),
                    nonunit_fraction=0.5,
                    scalar_ops=2.0 * spec.oc * spec.oh,
                    streams=(
                        DataStream(
                            "full_output", bytes=float(twin.output_bytes),
                            passes=1.0, resident_source=True,
                        ),
                        DataStream(
                            "strided_output", bytes=keep * DTYPE_BYTES,
                            passes=1.0, is_write=True,
                        ),
                    ),
                )
            )
            return phases
        vle = hw.vlmax_f32
        sve = hw.isa == "sve"
        ic, oc = spec.ic, spec.oc
        ty, tx = tile_counts(spec)
        t = float(ty * tx)

        intertile = ic >= MIN_CHANNELS
        # effective vector width of the transform path: packed channels x 4;
        # the scalar fallback of the paper's Fig. 4 works on a single tile
        # (8-wide half-rows only)
        if intertile:
            cb = max(1, min(ic, vle // PACK_ELEMS))
            cbo = max(1, min(oc, vle // PACK_ELEMS))
        else:
            cb = cbo = 1
        groups_ic = math.ceil(ic / cb)
        groups_oc = math.ceil(oc / cbo)
        active_in = min(ic, cb) * PACK_ELEMS if intertile else PACK_ELEMS
        active_out = min(oc, cbo) * PACK_ELEMS if intertile else PACK_ELEMS

        u_bytes = t * ic * TUPLE_ELEMS * DTYPE_BYTES
        v_bytes = float(oc * ic * TUPLE_ELEMS * DTYPE_BYTES)
        m_bytes = t * oc * TUPLE_ELEMS * DTYPE_BYTES

        phases: list[Phase] = []
        if self.online_weight_transform:
            # G g G^T per (oc, ic) filter: IC*OC tile transforms — the
            # channel-quadratic cost (and the 16x-inflated V footprint to
            # write back) that penalizes high-channel layers
            wt_groups = math.ceil(ic / cb) * oc
            phases.append(
                Phase(
                    name="wg_weight_transform",
                    vector_ops=wt_groups * INPUT_TRANSFORM_OPS,
                    vector_active=float(active_in),
                    vmem_ops=wt_groups * TRANSFORM_VMEM_OPS,
                    vmem_active=float(active_in),
                    nonunit_fraction=0.5,
                    scalar_ops=PACK_SCALARS * ic * oc,
                    streams=(
                        DataStream(
                            "weights", bytes=float(spec.weight_bytes), passes=1.0
                        ),
                        DataStream("V_write", bytes=v_bytes, passes=1.0, is_write=True),
                    ),
                )
            )

        tf_nonunit = 0.2 if sve else 0.5  # SVE zips replace most gathers
        input_tf = Phase(
            name="wg_input_transform",
            vector_ops=t * groups_ic * INPUT_TRANSFORM_OPS,
            vector_active=float(active_in),
            vmem_ops=t * groups_ic * TRANSFORM_VMEM_OPS,
            vmem_active=float(active_in),
            nonunit_fraction=tf_nonunit,
            scalar_ops=PACK_SCALARS * t * ic,
            streams=(
                DataStream(
                    "input",
                    bytes=float(spec.input_bytes),
                    # 8x8 tiles advance by 6: (8/6)^2 read amplification
                    passes=(TILE_ALPHA / TILE_M) ** 2,
                    reuse_ws=float(2 * spec.iw * DTYPE_BYTES),
                    resident_source=True,
                ),
                DataStream("U_write", bytes=u_bytes, passes=1.0, is_write=True),
            ),
        )

        # tuple multiplication: vectorized over the 64 tile positions
        ntp = math.ceil(TUPLE_ELEMS / vle) if intertile else math.ceil(
            TUPLE_ELEMS / TILE_ALPHA
        )
        active_tuple = TUPLE_ELEMS / ntp
        fma = t * ic * oc * ntp
        # ~one U load and one V load per FMA: the paper's 64-position scheme
        # has no register blocking over channels (RVV lacks the permute
        # intrinsics that would enable it — Paper I §VII).  When the per-tile
        # tuple working set (U tile + M accumulators + current V rows,
        # ~64*(IC+OC)*4 bytes) overflows the L1, the re-reads are served by
        # the L2 and each load stalls longer — the high-channel penalty the
        # paper attributes Winograd's deep-layer losses to.
        if sve:
            tuple_vmem = TUPLE_VMEM_PER_FMA_SVE
        else:
            l1_spill = (
                1.0 if TUPLE_ELEMS * (ic + oc) * DTYPE_BYTES > hw.l1_bytes else 0.0
            )
            tuple_vmem = TUPLE_VMEM_PER_FMA + 0.7 * l1_spill
        tuple_mult = Phase(
            name="wg_tuple_gemm",
            vector_ops=fma,
            vector_active=float(active_tuple),
            vmem_ops=tuple_vmem * fma,
            vmem_active=float(active_tuple),
            scalar_ops=0.5 * t * ic * oc,
            streams=(
                DataStream("U_read", bytes=u_bytes, passes=1.0, resident_source=True),
                DataStream(
                    "V_weights",
                    bytes=v_bytes,
                    passes=float(max(1.0, t / TILE_BLOCK)),
                    reuse_ws=v_bytes,
                    resident_source=self.online_weight_transform,
                ),
                DataStream("M_write", bytes=m_bytes, passes=1.0, is_write=True),
            ),
        )

        output_tf = Phase(
            name="wg_output_transform",
            vector_ops=t * groups_oc * OUTPUT_TRANSFORM_OPS,
            vector_active=float(active_out),
            vmem_ops=t * groups_oc * TRANSFORM_VMEM_OPS,
            vmem_active=float(active_out),
            nonunit_fraction=tf_nonunit,
            scalar_ops=PACK_SCALARS * t * oc,
            streams=(
                DataStream("M_read", bytes=m_bytes, passes=1.0, resident_source=True),
                DataStream(
                    "output", bytes=float(spec.output_bytes), passes=1.0,
                    is_write=True,
                ),
            ),
        )
        phases.extend([input_tf, tuple_mult, output_tf])
        return phases
