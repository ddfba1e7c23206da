"""The vector register file.

RVV exposes 32 architectural vector registers of VLEN bits each.  We store
each register as a raw byte buffer and hand out dtype-punned views, so a
register written with e32 elements can (as on hardware) be reinterpreted at a
different SEW.  The per-op intrinsics read and write one register (or LMUL
group) at a time; the whole-kernel fast paths in :mod:`repro.algorithms`
compute on host arrays instead and leave register contents unspecified.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RegisterError
from repro.isa.types import ElementType, validate_vlen_bits

#: Number of architectural vector registers in RVV.
NUM_VREGS = 32


class VectorRegisterFile:
    """32 vector registers of ``vlen_bits`` bits each, byte-addressable."""

    def __init__(self, vlen_bits: int, num_regs: int = NUM_VREGS) -> None:
        validate_vlen_bits(vlen_bits)
        if num_regs <= 0:
            raise RegisterError(f"num_regs must be positive, got {num_regs}")
        self.vlen_bits = vlen_bits
        self.vlen_bytes = vlen_bits // 8
        self.num_regs = num_regs
        self._data = np.zeros((num_regs, self.vlen_bytes), dtype=np.uint8)

    def _check_reg(self, reg: int) -> None:
        if not isinstance(reg, (int, np.integer)) or isinstance(reg, bool):
            raise RegisterError(f"register index must be int, got {reg!r}")
        if not 0 <= reg < self.num_regs:
            raise RegisterError(
                f"register v{reg} out of range (file has {self.num_regs} registers)"
            )

    def view(self, reg: int, sew: ElementType) -> np.ndarray:
        """A writable view of register ``reg`` as ``VLEN/SEW`` elements."""
        self._check_reg(reg)
        return self._data[reg].view(sew.dtype)

    def read(self, reg: int, sew: ElementType, vl: int) -> np.ndarray:
        """Copy out the first ``vl`` elements of a register."""
        full = self.view(reg, sew)
        if vl > full.size:
            raise RegisterError(
                f"vl={vl} exceeds register capacity {full.size} elements at {sew}"
            )
        return full[:vl].copy()

    def write(self, reg: int, sew: ElementType, values: np.ndarray) -> None:
        """Write ``values`` into the low elements of a register.

        Elements past ``len(values)`` follow the RVV "tail-undisturbed"
        policy: they keep their previous contents.
        """
        view = self.view(reg, sew)
        if values.ndim != 1:
            raise RegisterError(f"vector write must be 1-D, got shape {values.shape}")
        if values.size > view.size:
            raise RegisterError(
                f"writing {values.size} elements into register of {view.size} at {sew}"
            )
        view[: values.size] = values.astype(sew.dtype, copy=False)

    def clear(self) -> None:
        """Zero the whole register file."""
        self._data[:] = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorRegisterFile(vlen_bits={self.vlen_bits}, num_regs={self.num_regs})"
