"""The functional vector machine.

This is the synthetic stand-in for running RVV intrinsics on hardware/gem5:
kernels manipulate 32 vector registers through an intrinsic-shaped API, data
lives in :class:`Buffer` objects carved out of a flat byte-address space (so
loads/stores have real addresses for the cache simulator), and every
instruction is recorded in an :class:`~repro.isa.trace.InstructionTrace`.

Semantics follow RVV v1.0:

* ``vsetvl(requested, sew, lmul)`` grants ``min(requested, LMUL*VLEN/SEW)``
  and makes it the active ``vl``; with LMUL > 1 operands name aligned
  register *groups* and one instruction spans the whole group;
* tail elements (past ``vl``) are *undisturbed* on writes;
* loads/stores may be unit-stride, strided, or indexed (gather/scatter).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IsaError, RegisterError
from repro.isa.registers import VectorRegisterFile
from repro.isa.trace import KIND_MEMORY, KIND_SCALAR, InstructionTrace, LoopRow
from repro.isa.types import (
    E32,
    ElementType,
    VType,
    grant_vl,
    validate_vlen_bits,
)

_ALIGN = 64  # buffers are cache-line aligned


@dataclass
class Buffer:
    """A flat, addressable allocation in the machine's memory space."""

    name: str
    base: int
    array: np.ndarray  # 1-D view of the underlying storage

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    @property
    def elem_bytes(self) -> int:
        return self.array.itemsize

    def addr(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not 0 <= index <= self.array.size:
            raise IsaError(
                f"index {index} out of bounds for buffer {self.name!r} "
                f"of {self.array.size} elements"
            )
        return self.base + index * self.array.itemsize


class VectorMachine:
    """Functional RVV-like machine: registers + buffers + trace.

    Parameters
    ----------
    vlen_bits:
        Hardware maximum vector length (power of two, <= 16384).
    trace:
        ``"full"`` (or ``True``, the default) records every instruction in
        ``self.trace`` for cache/timing replay: memory instructions as rows,
        vector and scalar instructions as counts.  ``"counts"`` (or
        ``False``) skips the memory rows while keeping the counts and
        statistics exact — for runs whose statistics alone are wanted.
    """

    def __init__(self, vlen_bits: int, trace: bool | str = True) -> None:
        validate_vlen_bits(vlen_bits)
        self.vlen_bits = vlen_bits
        self.regs = VectorRegisterFile(vlen_bits)
        if isinstance(trace, str):
            self.trace = InstructionTrace(mode=trace)
        else:
            self.trace = InstructionTrace(enabled=trace)
        self.vtype = VType(sew=E32, vl=0)
        self._next_addr = _ALIGN
        self._buffers: dict[str, Buffer] = {}
        self._alloc_seq = 0

    # ------------------------------------------------------------------ #
    # memory management
    # ------------------------------------------------------------------ #
    def alloc(
        self,
        name: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        unique: bool = False,
    ) -> Buffer:
        """Allocate a zeroed, cache-line-aligned buffer in the address space.

        With ``unique=True`` the name is suffixed with a per-machine
        monotonic allocation counter, so kernels can reuse a readable prefix
        without collisions (the counter never repeats on one machine,
        unlike e.g. truncated ``id()`` values).
        """
        seq = self._alloc_seq
        self._alloc_seq += 1
        if unique:
            name = f"{name}#{seq}"
        if name in self._buffers:
            raise IsaError(f"buffer {name!r} already allocated")
        array = np.zeros(shape, dtype=dtype).reshape(-1)
        buf = Buffer(name=name, base=self._next_addr, array=array)
        self._next_addr += (array.nbytes + _ALIGN - 1) // _ALIGN * _ALIGN + _ALIGN
        self._buffers[name] = buf
        return buf

    def alloc_from(
        self, name: str, data: np.ndarray, unique: bool = False
    ) -> Buffer:
        """Allocate a buffer initialised with a copy of ``data`` (flattened)."""
        buf = self.alloc(name, data.size, dtype=data.dtype, unique=unique)
        buf.array[:] = data.reshape(-1)
        return buf

    def buffer(self, name: str) -> Buffer:
        """Look up a previously allocated buffer by name."""
        try:
            return self._buffers[name]
        except KeyError:
            raise IsaError(f"no buffer named {name!r}")

    # ------------------------------------------------------------------ #
    # configuration instructions
    # ------------------------------------------------------------------ #
    def vsetvl(
        self, requested: int, sew: ElementType = E32, lmul: int = 1
    ) -> int:
        """Set the active vector length; returns the granted ``vl``.

        With ``lmul > 1`` each register operand names a *group* of ``lmul``
        consecutive, aligned registers (v0/v8/v16/v24 at LMUL=8), and a
        single instruction processes up to ``lmul * VLEN`` bits.
        """
        vl = grant_vl(requested, sew, self.vlen_bits, lmul)
        self.vtype = VType(sew=sew, vl=vl, lmul=lmul)
        self.trace.emit_scalar("vsetvl", 1)
        return vl

    @property
    def vl(self) -> int:
        return self.vtype.vl

    @property
    def sew(self) -> ElementType:
        return self.vtype.sew

    def vlmax(self, sew: ElementType = E32, lmul: int = 1) -> int:
        """Maximum elements per register group at the given SEW and LMUL."""
        return lmul * self.vlen_bits // sew.bits

    def _active(self, vl: int | None) -> int:
        n = self.vtype.vl if vl is None else vl
        limit = self.vlmax(self.vtype.sew, self.vtype.lmul)
        if n > limit:
            raise IsaError(f"vl={n} exceeds VLMAX={limit}")
        return n

    # ------------------------------------------------------------------ #
    # memory instructions
    # ------------------------------------------------------------------ #
    # The trace records SEW-wide elements at SEW-scaled offsets while the
    # data moves in the buffer's own dtype, so every intrinsic that
    # addresses a buffer first checks that the two widths agree.
    @staticmethod
    def _check_width(op: str, buf: Buffer, sew: ElementType) -> None:
        if buf.array.itemsize != sew.bytes:
            raise IsaError(
                f"{op} at SEW={sew.bits} on buffer {buf.name!r} of "
                f"{buf.array.itemsize}-byte elements"
            )

    @staticmethod
    def _check_unit(op: str, buf: Buffer, offset: int, n: int) -> None:
        if offset < 0 or offset + n > buf.array.size:
            raise IsaError(
                f"{op} of {n} elements at offset {offset} overruns buffer "
                f"{buf.name!r} ({buf.array.size} elements)"
            )

    @staticmethod
    def _strided_indices(
        op: str, buf: Buffer, offset: int, stride_elems: int, n: int
    ) -> np.ndarray:
        """Element indices ``offset + i*stride_elems``, all inside ``buf``."""
        idx = offset + stride_elems * np.arange(n, dtype=np.int64)
        if n:
            lo, hi = sorted((offset, offset + stride_elems * (n - 1)))
            if lo < 0 or hi >= buf.array.size:
                raise IsaError(
                    f"{op} elements [{lo}, {hi}] outside buffer {buf.name!r} "
                    f"({buf.array.size} elements)"
                )
        return idx

    def vload(self, vd: int, buf: Buffer, offset: int, vl: int | None = None) -> None:
        """Unit-stride load of ``vl`` elements starting at ``buf[offset]``."""
        n = self._active(vl)
        sew = self.vtype.sew
        self._check_width("vload", buf, sew)
        self._check_unit("vload", buf, offset, n)
        self._write_group(vd, buf.array[offset : offset + n])
        self.trace.emit_memory("vle", buf.addr(offset), sew.bytes, n, sew.bytes, False)

    def vstore(self, vs: int, buf: Buffer, offset: int, vl: int | None = None) -> None:
        """Unit-stride store of ``vl`` elements to ``buf[offset]``."""
        n = self._active(vl)
        sew = self.vtype.sew
        self._check_width("vstore", buf, sew)
        self._check_unit("vstore", buf, offset, n)
        buf.array[offset : offset + n] = self._read_group(vs, n)
        self.trace.emit_memory("vse", buf.addr(offset), sew.bytes, n, sew.bytes, True)

    def vload_strided(
        self, vd: int, buf: Buffer, offset: int, stride_elems: int, vl: int | None = None
    ) -> None:
        """Strided load: elements at ``offset + i*stride_elems``.

        Every element must lie inside ``buf``.
        """
        n = self._active(vl)
        sew = self.vtype.sew
        self._check_width("vload_strided", buf, sew)
        idx = self._strided_indices("vload_strided", buf, offset, stride_elems, n)
        self._write_group(vd, buf.array[idx])
        self.trace.emit_memory(
            "vlse", buf.addr(offset), sew.bytes, n, stride_elems * sew.bytes, False
        )

    def vstore_strided(
        self, vs: int, buf: Buffer, offset: int, stride_elems: int, vl: int | None = None
    ) -> None:
        """Strided store: elements to ``offset + i*stride_elems``.

        Every element must lie inside ``buf``.
        """
        n = self._active(vl)
        sew = self.vtype.sew
        self._check_width("vstore_strided", buf, sew)
        idx = self._strided_indices("vstore_strided", buf, offset, stride_elems, n)
        buf.array[idx] = self._read_group(vs, n)
        self.trace.emit_memory(
            "vsse", buf.addr(offset), sew.bytes, n, stride_elems * sew.bytes, True
        )

    def _indexed_offsets(self, op: str, buf: Buffer, offsets, n: int) -> np.ndarray:
        """The first ``n`` element offsets, checked against ``buf``."""
        offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        if offsets.size < n:
            raise IsaError(
                f"{op} of {n} elements got {offsets.size} offsets for "
                f"buffer {buf.name!r}"
            )
        offsets = offsets[:n]
        if n and (offsets.min() < 0 or offsets.max() >= buf.array.size):
            raise IsaError(
                f"{op} offsets [{int(offsets.min())}, {int(offsets.max())}] "
                f"outside buffer {buf.name!r} ({buf.array.size} elements)"
            )
        return offsets

    def vgather(
        self, vd: int, buf: Buffer, offsets: np.ndarray, vl: int | None = None
    ) -> None:
        """Indexed (gather) load from element offsets ``offsets``.

        Needs at least ``vl`` offsets, all inside ``buf``.
        """
        n = self._active(vl)
        sew = self.vtype.sew
        self._check_width("vgather", buf, sew)
        offsets = self._indexed_offsets("vgather", buf, offsets, n)
        self._write_group(vd, buf.array[offsets])
        self.trace.emit_memory(
            "vluxei", buf.base, sew.bytes, n, 0, False, indices=offsets * sew.bytes
        )

    def vscatter(
        self, vs: int, buf: Buffer, offsets: np.ndarray, vl: int | None = None
    ) -> None:
        """Indexed (scatter) store to element offsets ``offsets``.

        Needs at least ``vl`` offsets, all inside ``buf``.
        """
        n = self._active(vl)
        sew = self.vtype.sew
        self._check_width("vscatter", buf, sew)
        offsets = self._indexed_offsets("vscatter", buf, offsets, n)
        buf.array[offsets] = self._read_group(vs, n)
        self.trace.emit_memory(
            "vsuxei", buf.base, sew.bytes, n, 0, True, indices=offsets * sew.bytes
        )

    # ------------------------------------------------------------------ #
    # arithmetic instructions
    # ------------------------------------------------------------------ #
    def _check_group(self, reg: int) -> None:
        lmul = self.vtype.lmul
        if reg % lmul:
            raise RegisterError(
                f"register v{reg} not aligned to LMUL={lmul} group"
            )
        if reg + lmul > self.regs.num_regs:
            raise RegisterError(
                f"register group v{reg}..v{reg + lmul - 1} exceeds the file"
            )

    def _read_group(self, reg: int, n: int) -> "np.ndarray":
        """Read ``n`` elements from the LMUL-group starting at ``reg``."""
        sew = self.vtype.sew
        lmul = self.vtype.lmul
        if lmul == 1:
            return self.regs.read(reg, sew, n)
        self._check_group(reg)
        per = self.vlen_bits // sew.bits
        parts = []
        remaining = n
        for k in range(lmul):
            take = min(per, remaining)
            if take <= 0:
                break
            parts.append(self.regs.read(reg + k, sew, take))
            remaining -= take
        return np.concatenate(parts) if parts else np.empty(0, dtype=sew.dtype)

    def _write_group(self, reg: int, values: "np.ndarray") -> None:
        """Write elements into the LMUL-group starting at ``reg``."""
        sew = self.vtype.sew
        lmul = self.vtype.lmul
        if lmul == 1:
            self.regs.write(reg, sew, values)
            return
        self._check_group(reg)
        per = self.vlen_bits // sew.bits
        for k in range(lmul):
            chunk = values[k * per : (k + 1) * per]
            if chunk.size == 0:
                break
            self.regs.write(reg + k, sew, chunk)

    def _binop(self, name: str, vd: int, vs1: int, vs2: int, fn) -> None:
        n = self.vtype.vl
        sew = self.vtype.sew
        a = self._read_group(vs1, n)
        b = self._read_group(vs2, n)
        self._write_group(vd, fn(a, b))
        self.trace.emit_vector(name, n, sew.bits)

    def vfadd(self, vd: int, vs1: int, vs2: int) -> None:
        """``vd[i] = vs1[i] + vs2[i]``."""
        self._binop("vfadd", vd, vs1, vs2, np.add)

    def vfsub(self, vd: int, vs1: int, vs2: int) -> None:
        """``vd[i] = vs1[i] - vs2[i]``."""
        self._binop("vfsub", vd, vs1, vs2, np.subtract)

    def vfmul(self, vd: int, vs1: int, vs2: int) -> None:
        """``vd[i] = vs1[i] * vs2[i]``."""
        self._binop("vfmul", vd, vs1, vs2, np.multiply)

    def vfmax(self, vd: int, vs1: int, vs2: int) -> None:
        """``vd[i] = max(vs1[i], vs2[i])``."""
        self._binop("vfmax", vd, vs1, vs2, np.maximum)

    def vfmacc(self, vd: int, vs1: int, vs2: int) -> None:
        """Fused multiply-accumulate: ``vd[i] += vs1[i] * vs2[i]``."""
        n = self.vtype.vl
        sew = self.vtype.sew
        acc = self._read_group(vd, n)
        a = self._read_group(vs1, n)
        b = self._read_group(vs2, n)
        self._write_group(vd, acc + a * b)
        self.trace.emit_vector("vfmacc", n, sew.bits)

    def vfmacc_vf(self, vd: int, scalar: float, vs2: int) -> None:
        """Vector-scalar FMA: ``vd[i] += scalar * vs2[i]``.

        This is the work-horse of the paper's GEMM/Direct inner loops — the
        compiler lowers broadcast+FMA to a single vector-scalar instruction.
        """
        n = self.vtype.vl
        sew = self.vtype.sew
        acc = self._read_group(vd, n)
        b = self._read_group(vs2, n)
        self._write_group(vd, acc + sew.dtype.type(scalar) * b)
        self.trace.emit_vector("vfmacc.vf", n, sew.bits)

    def vfmul_vf(self, vd: int, scalar: float, vs2: int) -> None:
        """Vector-scalar multiply: ``vd[i] = scalar * vs2[i]``."""
        n = self.vtype.vl
        sew = self.vtype.sew
        b = self._read_group(vs2, n)
        self._write_group(vd, sew.dtype.type(scalar) * b)
        self.trace.emit_vector("vfmul.vf", n, sew.bits)

    def vbroadcast(self, vd: int, scalar: float) -> None:
        """Splat a scalar across the active elements (``vfmv.v.f``)."""
        n = self.vtype.vl
        sew = self.vtype.sew
        self._write_group(vd, np.full(n, scalar, dtype=sew.dtype))
        self.trace.emit_vector("vfmv", n, sew.bits)

    def vmv(self, vd: int, vs: int) -> None:
        """Register-to-register move of the active elements."""
        n = self.vtype.vl
        sew = self.vtype.sew
        self._write_group(vd, self._read_group(vs, n))
        self.trace.emit_vector("vmv", n, sew.bits)

    def vredsum(self, vs: int) -> float:
        """Sum-reduce the active elements; returns the scalar result."""
        n = self.vtype.vl
        sew = self.vtype.sew
        value = float(self._read_group(vs, n).sum(dtype=np.float64))
        self.trace.emit_vector("vredsum", n, sew.bits)
        return value

    # ------------------------------------------------------------------ #
    # batched intrinsics (fast path)
    # ------------------------------------------------------------------ #
    # vcopy_strips is semantically a run of the per-op intrinsics above —
    # same data movement, same memory rows in the same order, same
    # instruction counts — issued as ONE Python call for every row of a
    # strip-mined copy: it moves the data with NumPy and writes its rows
    # through one emit_loop, which is what lets the packing and im2col
    # kernels in repro.algorithms.{im2col,gemm_kernels} amortize
    # interpreter overhead.

    def vcopy_strips(
        self,
        src_buf: Buffer,
        src_off,
        dst_buf: Buffer,
        dst_off,
        length: int,
        src_stride: int = 1,
        vreg: int = 0,
        sew: ElementType = E32,
        lmul: int = 1,
        loop: tuple[str, int] | None = None,
    ) -> None:
        """Strip-mined copies of ``length`` elements per row, issued as one call.

        ``src_off`` and ``dst_off`` are one row offset each or equal-length
        arrays of them.  Equivalent to the canonical per-op loop every
        packing/im2col kernel writes by hand::

            for s0, d0 in zip(src_off, dst_off):
                machine.scalar(loop[1], loop[0])   # only with ``loop``
                j = 0
                while j < length:
                    gvl = machine.vsetvl(length - j, sew, lmul)
                    machine.vload[_strided](vreg, src_buf, s0 + j*src_stride, ...)
                    machine.vstore(vreg, dst_buf, d0 + j)
                    j += gvl

        Same data movement, same trace (per row: the ``loop`` scalars, one
        ``vsetvl`` scalar row counting the strips, then load/store memory
        rows interleaved per strip), same end state for ``vl`` and register
        ``vreg``.  Destination rows must not overlap each other or the
        source rows.
        """
        src_off = np.atleast_1d(np.asarray(src_off, dtype=np.int64))
        dst_off = np.atleast_1d(np.asarray(dst_off, dtype=np.int64))
        self._check_width("vcopy_strips", src_buf, sew)
        self._check_width("vcopy_strips", dst_buf, sew)
        if length <= 0 or src_off.size == 0:
            return
        span = (length - 1) * src_stride
        first_src = int(src_off.min()) + min(span, 0)
        last_src = int(src_off.max()) + max(span, 0)
        if first_src < 0 or last_src + 1 > src_buf.array.size:
            raise IsaError(
                f"vcopy_strips source [{first_src}, {last_src}] overruns buffer "
                f"{src_buf.name!r} ({src_buf.array.size} elements)"
            )
        first_dst, last_dst = int(dst_off.min()), int(dst_off.max())
        if first_dst < 0 or last_dst + length > dst_buf.array.size:
            raise IsaError(
                f"vcopy_strips of {length} elements at offsets [{first_dst}, "
                f"{last_dst}] overruns buffer {dst_buf.name!r} "
                f"({dst_buf.array.size} elements)"
            )
        vlmax = self.vlmax(sew, lmul)
        full, tail = divmod(length, vlmax)
        nstrips = full + (tail > 0)
        starts = np.arange(nstrips, dtype=np.int64) * vlmax
        # -- data movement (src dtype -> SEW register dtype -> dst dtype) -- #
        elems = np.arange(length, dtype=np.int64)
        src_vals = src_buf.array[src_off[:, None] + src_stride * elems]
        data_sew = src_vals.astype(sew.dtype, copy=False)
        dst_buf.array[dst_off[:, None] + elems] = data_sew
        # -- trace: per row, [loop], vsetvl, then load/store per strip ---- #
        width = sew.bytes
        load = LoopRow(
            KIND_MEMORY, "vle" if src_stride == 1 else "vlse", vlmax, width,
            src_stride * width,
        )
        store = LoopRow(KIND_MEMORY, "vse", vlmax, width, width, True)
        strips = (load, store) * full
        if tail:
            strips += (load._replace(vl=tail), store._replace(vl=tail))
        head = () if loop is None else (LoopRow(KIND_SCALAR, *loop),)
        body = head + (LoopRow(KIND_SCALAR, "vsetvl", nstrips),) + strips
        bases = np.empty((src_off.size, 2 * nstrips), dtype=np.int64)
        bases[:, 0::2] = src_buf.base + (
            src_off[:, None] + starts * src_stride
        ) * src_buf.array.itemsize
        bases[:, 1::2] = dst_buf.base + (
            dst_off[:, None] + starts
        ) * dst_buf.array.itemsize
        self.trace.emit_loop(body, bases)
        # -- end state: vl/vtype and vreg as the per-op loop leaves them -- #
        self.vtype = VType(sew=sew, vl=tail or vlmax, lmul=lmul)
        last_row = data_sew[-1]
        if nstrips >= 2:
            pen = int(starts[-2])
            self._write_group(vreg, last_row[pen : pen + vlmax])
        self._write_group(vreg, last_row[int(starts[-1]) :])

    # ------------------------------------------------------------------ #
    # scalar bookkeeping
    # ------------------------------------------------------------------ #
    def scalar(self, count: int = 1, name: str = "scalar") -> None:
        """Account for ``count`` scalar bookkeeping instructions."""
        if count < 0:
            raise IsaError(f"scalar count must be >= 0, got {count}")
        if count:
            self.trace.emit_scalar(name, count)

    # ------------------------------------------------------------------ #
    # debugging helpers
    # ------------------------------------------------------------------ #
    def reg_values(self, reg: int, vl: int | None = None) -> np.ndarray:
        """Read a register's active elements (for tests/debugging)."""
        n = self._active(vl)
        return self._read_group(reg, n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VectorMachine(vlen_bits={self.vlen_bits}, vl={self.vtype.vl}, "
            f"sew={self.vtype.sew}, instrs={self.trace.stats.total_instrs})"
        )
