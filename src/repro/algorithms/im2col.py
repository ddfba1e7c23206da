"""The im2col transformation (Darknet's ``im2col_cpu``).

Rearranges an (IC, IH, IW) input into a (K, N) column matrix with
``K = IC*KH*KW`` and ``N = OH*OW`` so convolution becomes a GEMM.  Provides
the functional transform (NumPy stride tricks — a zero-copy sliding-window
view followed by one gather), the intrinsics-level transform, and the
analytical-model cost of the transformation phase.
"""

from __future__ import annotations

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

    Batched fast path: each output-row copy is one
    :meth:`~repro.isa.machine.VectorMachine.vcopy_strips` call — bit-identical
    results and trace to the one-call-per-instruction reference in
    ``tests/trace_oracle.py``.
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
        row = 0
        for c in range(spec.ic):
            for dh in range(spec.kh):
                for dw in range(spec.kw):
                    for out_y in range(oh):
                        machine.scalar(3, "im2col_loop")
                        src_base = c * ph * pw + (out_y * s + dh) * pw + dw
                        dst_base = row * (oh * ow) + out_y * ow
                        machine.vcopy_strips(
                            src, src_base, col, dst_base, ow, src_stride=s
                        )
                    row += 1
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
    segments = k * oh * max(1.0, np.ceil(ow / vle))
    avg_active = ow / max(1.0, np.ceil(ow / vle))
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
