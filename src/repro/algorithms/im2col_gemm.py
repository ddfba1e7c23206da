"""The im2col+GEMM convolution algorithms (3-loop and 6-loop variants).

Darknet's convolution: materialize the (K, N) column matrix with im2col,
then GEMM it against the (M, K) weight matrix.  The two variants share the
transform and differ only in the GEMM macro-kernel — the paper's central
"not all optimizations help all vector architectures" comparison.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.algorithms import gemm_kernels as gk
from repro.algorithms.base import ConvAlgorithm
from repro.algorithms.im2col import (
    col2im_output,
    im2col,
    im2col_phase,
    im2col_vectorized,
)
from repro.errors import ConfigError
from repro.isa.machine import VectorMachine
from repro.nn.layer import ConvSpec
from repro.simulator.analytical.phases import Phase
from repro.simulator.hwconfig import HardwareConfig


class _Im2colGemmBase(ConvAlgorithm):
    """Shared functional path of the im2col+GEMM variants."""

    def run(self, spec: ConvSpec, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        col = im2col(spec, x)
        a = np.ascontiguousarray(w.reshape(spec.oc, spec.gemm_k))
        return col2im_output(spec, gk.gemm_functional(a, col))

    def _vectorized(
        self,
        spec: ConvSpec,
        x: np.ndarray,
        w: np.ndarray,
        machine: VectorMachine,
        kernel,
    ) -> np.ndarray:
        col_buf = im2col_vectorized(spec, x, machine)  # spans as im2col.pack
        a_buf = machine.alloc_from(
            "gemm_a", w.reshape(spec.oc, spec.gemm_k), unique=True
        )
        c_buf = machine.alloc(
            "gemm_c", spec.gemm_m * spec.gemm_n, np.float32, unique=True
        )
        # spans as <name>.gemm (the numerics) and <name>.emit (the trace)
        kernel(
            machine, a_buf, col_buf, c_buf, spec.gemm_m, spec.gemm_k, spec.gemm_n
        )
        with obs.span(f"{self.name}.unpack", cat="kernel"):
            return col2im_output(
                spec, c_buf.array.reshape(spec.gemm_m, spec.gemm_n)
            )


def _needs_im2col(spec: ConvSpec) -> bool:
    """Darknet skips im2col for 1x1 stride-1 convolutions (B = input)."""
    return not (spec.kh == 1 and spec.kw == 1 and spec.stride == 1 and spec.pad == 0)


class Im2colGemm3(_Im2colGemmBase):
    """im2col + optimized 3-loop GEMM (Paper I Fig. 2).

    ``unroll`` is the i-block unroll factor of the macro-kernel (default:
    the paper's 16).  Non-default values are produced by
    :mod:`repro.schedule` variants; the traced and analytical faces honour
    the same factor.
    """

    name = "im2col_gemm3"
    label = "im2col+GEMM - 3 loops"
    #: vector length (``vlmax_f32``) and the LMUL register budget
    schedule_reads = ("vlen_bits", "lmul")

    def __init__(self, unroll: int = gk.UNROLL) -> None:
        gk._check_unroll(unroll)
        self.unroll = unroll

    def run_vectorized(self, spec, x, w, machine):
        def kernel(machine, a_buf, b_buf, c_buf, m, k, n):
            return gk.gemm3_vectorized(
                machine, a_buf, b_buf, c_buf, m, k, n, unroll=self.unroll
            )

        return self._vectorized(spec, x, w, machine, kernel)

    def schedule(self, spec: ConvSpec, hw: HardwareConfig) -> list[Phase]:
        gemm = gk.gemm3_phase(
            spec.gemm_m, spec.gemm_k, spec.gemm_n, hw,
            b_name="col" if _needs_im2col(spec) else "input",
            unroll=self.unroll,
        )
        if _needs_im2col(spec):
            return [im2col_phase(spec, hw), gemm]
        return [gemm]


class Im2colGemm6(_Im2colGemmBase):
    """im2col + BLIS-like 6-loop GEMM (Paper I Fig. 3).

    ``blocks`` are the BLIS-like (blockM, blockN, blockK) tile sizes
    (default: the paper's tuned 16x512x128).  Non-default values are
    produced by :mod:`repro.schedule` variants (the block grid of
    :func:`repro.schedule.templates.gemm6_block_candidates`); the traced
    and analytical faces honour the same tiles.
    """

    name = "im2col_gemm6"
    label = "im2col+GEMM - 6 loops"
    #: vector length only (``vlmax_f32``); the blocks are knobs, not L2-sized
    schedule_reads = ("vlen_bits", "lmul")

    def __init__(
        self, blocks: tuple[int, int, int] = (gk.BLOCK_M, gk.BLOCK_N, gk.BLOCK_K)
    ) -> None:
        if len(blocks) != 3 or min(blocks) < 1:
            raise ConfigError(
                f"blocks must be three positive tile sizes, got {blocks!r}"
            )
        self.blocks = (int(blocks[0]), int(blocks[1]), int(blocks[2]))

    def run_vectorized(self, spec, x, w, machine):
        bm, bn, bk = self.blocks

        def kernel(machine, a_buf, b_buf, c_buf, m, k, n):
            return gk.gemm6_vectorized(
                machine, a_buf, b_buf, c_buf, m, k, n,
                block_m=bm, block_n=bn, block_k=bk,
            )

        return self._vectorized(spec, x, w, machine, kernel)

    def schedule(self, spec: ConvSpec, hw: HardwareConfig) -> list[Phase]:
        bm, bn, bk = self.blocks
        gemm = gk.gemm6_phases(
            spec.gemm_m, spec.gemm_k, spec.gemm_n, hw,
            b_name="col" if _needs_im2col(spec) else "input",
            block_m=bm, block_n=bn, block_k=bk,
        )
        if _needs_im2col(spec):
            return [im2col_phase(spec, hw)] + gemm
        return gemm


class Im2colGemmNaive(_Im2colGemmBase):
    """im2col + scalar Darknet GEMM — the papers' baseline (not a contender)."""

    name = "im2col_gemm_naive"
    label = "im2col+GEMM - naive"

    def run_vectorized(self, spec, x, w, machine):
        # the baseline is unvectorized; run the functional path and account
        # scalar work so traces remain meaningful
        with obs.span(f"{self.name}.gemm", cat="kernel"):
            out = self.run(spec, x, w)
            machine.scalar(4 * spec.macs, "naive_gemm")
        return out

    def schedule(self, spec: ConvSpec, hw: HardwareConfig) -> list[Phase]:
        return [
            im2col_phase(spec, hw),
            gk.gemm_naive_phase(spec.gemm_m, spec.gemm_k, spec.gemm_n, hw),
        ]
