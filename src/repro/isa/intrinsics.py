"""EPI-builtin-style intrinsic names bound to a :class:`VectorMachine`.

The paper's kernels use the EPI LLVM builtins (``__builtin_epi_vsetvl``,
``__builtin_epi_vfmacc_...``) on RISC-V and ACLE intrinsics on ARM-SVE.  This
module provides a façade with those spellings so the kernel sources in
:mod:`repro.algorithms` read like the original C, which makes the
line-by-line correspondence with the paper's pseudocode (Paper I, Figs. 1-4)
auditable.  Every spelling is one instruction; the kernels' batched fast
paths (whole-kernel numerics plus ``InstructionTrace.emit_loop``) have no
EPI spelling and are not part of the façade.
"""

from __future__ import annotations

import numpy as np

from repro.isa.machine import Buffer, VectorMachine
from repro.isa.types import E32, E64, ElementType


class EpiIntrinsics:
    """Thin façade exposing EPI-style intrinsic names over a machine."""

    def __init__(self, machine: VectorMachine) -> None:
        self.m = machine

    # -- configuration -------------------------------------------------- #
    def vsetvl(self, rvl: int, sew: ElementType = E32) -> int:
        """``__builtin_epi_vsetvl(rvl, sew)`` — returns the granted vl."""
        return self.m.vsetvl(rvl, sew)

    def vsetvlmax(self, sew: ElementType = E32) -> int:
        """Grant the maximum vector length for the SEW."""
        return self.m.vsetvl(self.m.vlmax(sew), sew)

    # -- memory --------------------------------------------------------- #
    def vload(self, vd: int, buf: Buffer, off: int) -> None:
        """``__builtin_epi_vload_f32`` (unit stride)."""
        self.m.vload(vd, buf, off)

    def vstore(self, vs: int, buf: Buffer, off: int) -> None:
        """``__builtin_epi_vstore_f32`` (unit stride)."""
        self.m.vstore(vs, buf, off)

    def vload_strided(self, vd: int, buf: Buffer, off: int, stride: int) -> None:
        """``__builtin_epi_vload_strided_f32``."""
        self.m.vload_strided(vd, buf, off, stride)

    def vstore_strided(self, vs: int, buf: Buffer, off: int, stride: int) -> None:
        """``__builtin_epi_vstore_strided_f32``."""
        self.m.vstore_strided(vs, buf, off, stride)

    def vload_indexed(self, vd: int, buf: Buffer, offsets: np.ndarray) -> None:
        """Gather load (``vluxei``)."""
        self.m.vgather(vd, buf, offsets)

    def vstore_indexed(self, vs: int, buf: Buffer, offsets: np.ndarray) -> None:
        """Scatter store (``vsuxei``)."""
        self.m.vscatter(vs, buf, offsets)

    # -- arithmetic ------------------------------------------------------ #
    def vfadd(self, vd: int, a: int, b: int) -> None:
        self.m.vfadd(vd, a, b)

    def vfsub(self, vd: int, a: int, b: int) -> None:
        self.m.vfsub(vd, a, b)

    def vfmul(self, vd: int, a: int, b: int) -> None:
        self.m.vfmul(vd, a, b)

    def vfmacc(self, vd: int, a: int, b: int) -> None:
        self.m.vfmacc(vd, a, b)

    def vfmacc_vf(self, vd: int, scalar: float, b: int) -> None:
        self.m.vfmacc_vf(vd, scalar, b)

    def vfmul_vf(self, vd: int, scalar: float, b: int) -> None:
        self.m.vfmul_vf(vd, scalar, b)

    def vbroadcast(self, vd: int, scalar: float) -> None:
        self.m.vbroadcast(vd, scalar)

    def vredsum(self, vs: int) -> float:
        return self.m.vredsum(vs)

    # -- SEW shortcuts mirroring the C type suffixes ---------------------- #
    def vsetvl_e32(self, rvl: int) -> int:
        """``vsetvl`` with 32-bit elements (the kernels' float type)."""
        return self.vsetvl(rvl, E32)

    def vsetvl_e64(self, rvl: int) -> int:
        """``vsetvl`` with 64-bit elements."""
        return self.vsetvl(rvl, E64)
