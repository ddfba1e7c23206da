"""The im2col transformation (Darknet's ``im2col_cpu``).

Rearranges an (IC, IH, IW) input into a (K, N) column matrix with
``K = IC*KH*KW`` and ``N = OH*OW`` so convolution becomes a GEMM.  Provides
the functional transform (NumPy stride tricks — a zero-copy sliding-window
view followed by one gather), the intrinsics-level transform, and the
analytical-model cost of the transformation phase.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.isa.machine import Buffer, VectorMachine
from repro.nn.layer import DTYPE_BYTES, ConvSpec
from repro.nn.reference import pad_input
from repro.simulator.analytical.phases import DataStream, Phase
from repro.simulator.hwconfig import HardwareConfig


def im2col(spec: ConvSpec, x: np.ndarray) -> np.ndarray:
    """Functional im2col: (IC, IH, IW) -> (IC*KH*KW, OH*OW), row-major K."""
    spec.validate_input(x.shape)
    xp = pad_input(np.asarray(x, dtype=np.float32), spec.pad)
    ic, kh, kw, s = spec.ic, spec.kh, spec.kw, spec.stride
    oh, ow = spec.oh, spec.ow
    # sliding-window view: (IC, KH, KW, OH, OW), no copy
    sic, sih, siw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(ic, kh, kw, oh, ow),
        strides=(sic, sih, siw, s * sih, s * siw),
        writeable=False,
    )
    return windows.reshape(ic * kh * kw, oh * ow).copy()


def col2im_output(spec: ConvSpec, gemm_out: np.ndarray) -> np.ndarray:
    """Reshape a (M, N) GEMM result back to (OC, OH, OW)."""
    return np.ascontiguousarray(gemm_out.reshape(spec.oc, spec.oh, spec.ow))


def im2col_vectorized(
    spec: ConvSpec, x: np.ndarray, machine: VectorMachine
) -> Buffer:
    """Intrinsics-level im2col: strip-mined row copies into a col buffer.

    For stride 1 the per-output-row source is contiguous (unit-stride
    loads); for stride > 1 a strided load gathers every ``stride``-th
    element, matching the vectorized ``im2col`` of the paper's Darknet port.

    All ``K * OH`` output-row copies, in (channel, kh, kw, output row)
    order, are one multi-row
    :meth:`~repro.isa.machine.VectorMachine.vcopy_strips` call — outputs
    and decoded trace equal those of the one-call-per-instruction
    reference in ``tests/trace_oracle.py``.
    """
    spec.validate_input(x.shape)
    with obs.span("im2col.pack", cat="kernel"):
        xp = pad_input(np.asarray(x, dtype=np.float32), spec.pad)
        src = machine.alloc_from("im2col_src", xp, unique=True)
        col = machine.alloc(
            "im2col_col", spec.gemm_k * spec.gemm_n, np.float32, unique=True
        )
        ph, pw = xp.shape[1], xp.shape[2]
        ow, oh, s = spec.ow, spec.oh, spec.stride
        c = np.arange(spec.ic, dtype=np.int64)[:, None, None, None]
        dh = np.arange(spec.kh, dtype=np.int64)[None, :, None, None]
        dw = np.arange(spec.kw, dtype=np.int64)[None, None, :, None]
        out_y = np.arange(oh, dtype=np.int64)
        src_rows = c * ph * pw + (out_y * s + dh) * pw + dw
        dst_rows = np.arange(spec.gemm_k * oh, dtype=np.int64) * ow
        machine.vcopy_strips(
            src, src_rows.reshape(-1), col, dst_rows, ow, src_stride=s,
            loop=("im2col_loop", 3),
        )
        return col


def im2col_phase(spec: ConvSpec, hw: HardwareConfig) -> Phase:
    """Analytical cost of the im2col transformation.

    Vector work: one load + one store per VL-worth of each of the K*OH
    output-row segments; loads are strided when ``stride > 1``.  The input
    plane of each channel is re-read KH*KW times with a one-plane reuse
    window; the column matrix is written once (and re-read by the GEMM
    phase, accounted there).
    """
    vle = hw.vlmax_f32
    k, n = spec.gemm_k, spec.gemm_n
    oh, ow = spec.oh, spec.ow
    strips = max(1.0, float(math.ceil(ow / vle)))
    segments = k * oh * strips
    avg_active = ow / strips
    nonunit = 0.5 if spec.stride > 1 else 0.0
    plane_bytes = spec.ih * spec.iw * DTYPE_BYTES
    return Phase(
        name="im2col",
        vmem_ops=2.0 * segments,
        vmem_active=avg_active,
        nonunit_fraction=nonunit,
        scalar_ops=4.0 * k * oh,
        streams=(
            DataStream(
                "input",
                bytes=spec.input_bytes,
                passes=float(spec.kh * spec.kw),
                reuse_ws=plane_bytes,
                resident_source=True,
            ),
            DataStream(
                "col_matrix",
                bytes=float(k * n * DTYPE_BYTES),
                passes=1.0,
                is_write=True,
            ),
        ),
    )
