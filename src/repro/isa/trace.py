"""Instruction traces emitted by the functional vector machine.

A trace is an ordered sequence of lightweight event records:

* :class:`VectorOp` — an arithmetic/permute vector instruction with its
  active element count (so the timing model can compute chimes and lane
  utilization);
* :class:`MemoryOp` — a vector load/store described compactly as
  ``(base address, element bytes, element count, stride)`` — the cache
  simulator expands this to cache-line touches without storing per-element
  addresses;
* :class:`ScalarOp` — a batch of scalar bookkeeping instructions (address
  arithmetic, loop control), recorded in bulk.

Storage is *columnar* (structure-of-arrays): instead of one Python object
per event, the trace keeps preallocated, geometrically grown NumPy columns
for the event kind, interned opcode id, vector length, element width, base
address, stride and store flag.  A column a row's kind does not use holds
0, so two runs of one kernel give byte-identical columns.  Trace replay
(:mod:`repro.simulator.timing`) reads those columns directly.  The
dataclasses above are the per-event view — iteration decodes rows back
into them on demand — while the ``emit_*`` entry points never allocate
per-event Python objects: :meth:`InstructionTrace.emit_loop` writes every
row of a whole loop (mixed scalar, memory and vector rows) as one
columnar block.

Traces from full convolutional layers would hold 10^8+ events; for those,
run the machine in ``counts`` mode, which skips event storage entirely but
keeps the statistics exact (see :class:`~repro.isa.machine.VectorMachine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

#: Row tags in the columnar ``kind`` column (public: trace replay in
#: ``repro.simulator`` selects rows by these).
KIND_VECTOR = 0
KIND_MEMORY = 1
KIND_SCALAR = 2

#: Initial capacity (rows) of the columnar storage.
_INITIAL_CAPACITY = 1024

#: Target cache-line-expansion chunk size (elements) for
#: :meth:`InstructionTrace.memory_line_stream` — bounds peak memory while
#: keeping each chunk big enough to amortize the NumPy call overhead.
_STREAM_CHUNK_ELEMS = 1 << 22

class TraceColumns(NamedTuple):
    """Read-only views of the trace's columnar storage (trimmed to length).

    ``vl`` holds the active element count for vector/memory rows and the
    instruction count for scalar rows; ``aux`` holds ``sew_bits`` for
    vector rows and ``elem_bytes`` for memory rows.  Columns a row's kind
    does not use hold 0.
    """

    kind: np.ndarray
    op: np.ndarray
    vl: np.ndarray
    aux: np.ndarray
    base: np.ndarray
    stride: np.ndarray
    store: np.ndarray


class LoopRow(NamedTuple):
    """One row of a loop body for :meth:`InstructionTrace.emit_loop`.

    ``vl`` and ``aux`` have the meanings of :class:`TraceColumns`;
    ``stride`` and ``is_store`` apply to memory rows only.  Columns a row's
    kind does not use are recorded as 0.
    """

    kind: int
    name: str
    vl: int
    aux: int = 0
    stride: int = 0
    is_store: bool = False


class MemoryOpColumns(NamedTuple):
    """Per-memory-op columns (copies) for batched replay.

    ``rows`` are the trace row indices of the memory ops, in trace order;
    the remaining arrays are aligned with it.  ``indexed`` marks gather/
    scatter ops (their per-element offsets are irregular and come from the
    op's index tuple).
    """

    rows: np.ndarray
    vl: np.ndarray
    elem_bytes: np.ndarray
    base: np.ndarray
    stride: np.ndarray
    is_store: np.ndarray
    indexed: np.ndarray


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

    def line_addresses(self, line_bytes: int) -> np.ndarray:
        """Distinct cache-line addresses touched, in access order.

        Consecutive accesses to the same line are collapsed into one.
        """
        if self.vl == 0:
            return np.empty(0, dtype=np.int64)
        if self.indices is not None:
            offsets = np.asarray(self.indices, dtype=np.int64)
        else:
            offsets = self.stride * np.arange(self.vl, dtype=np.int64)
        lines = (self.base + offsets) // line_bytes * line_bytes
        if lines.size <= 1:
            return lines
        keep = np.empty(lines.size, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        return lines[keep]


@dataclass(frozen=True)
class ScalarOp:
    """A batch of ``count`` scalar instructions (loop/address bookkeeping)."""

    name: str
    count: int


TraceEvent = Union[VectorOp, MemoryOp, ScalarOp]


@dataclass
class TraceStats:
    """Aggregate statistics over a trace."""

    vector_instrs: int = 0
    vector_elements: int = 0  # total active elements across vector instrs
    memory_instrs: int = 0
    memory_bytes: int = 0
    load_bytes: int = 0
    store_bytes: int = 0
    scalar_instrs: int = 0

    @property
    def total_instrs(self) -> int:
        return self.vector_instrs + self.memory_instrs + self.scalar_instrs

    def average_vl(self) -> float:
        """Mean active vector length over vector+memory instructions."""
        n = self.vector_instrs + self.memory_instrs
        return self.vector_elements / n if n else 0.0


class _EventsView:
    """List-like view over a trace's events (``len``, iteration and
    indexing; rows are decoded on access)."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "InstructionTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return self._trace._n

    def __iter__(self) -> Iterator[TraceEvent]:
        trace = self._trace
        for i in range(trace._n):
            yield trace._decode(i)

    def __getitem__(self, i):
        trace = self._trace
        if isinstance(i, slice):
            return [trace._decode(j) for j in range(*i.indices(trace._n))]
        n = trace._n
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace event index out of range")
        return trace._decode(i)


class InstructionTrace:
    """An append-only event sequence with columnar storage and statistics.

    ``mode`` selects what is retained:

    * ``"full"`` — every event is recorded (columnar) and can be iterated
      for trace-driven cache/timing simulation;
    * ``"counts"`` — events are *not* stored; only the running
      :class:`TraceStats` are maintained (exactly — batched emits update
      them arithmetically).  This is the fast path for full-size layers.

    ``enabled`` is the legacy boolean spelling (``True`` → full, ``False``
    → counts) and is kept as a readable attribute.
    """

    def __init__(self, enabled: bool = True, mode: str | None = None) -> None:
        if mode is None:
            mode = "full" if enabled else "counts"
        if mode not in ("full", "counts"):
            raise ValueError(f"trace mode must be 'full' or 'counts', got {mode!r}")
        self.mode = mode
        self.enabled = mode == "full"
        self.stats = TraceStats()
        # interned opcode names (shared direction dicts)
        self._name_to_id: dict[str, int] = {}
        self._id_to_name: list[str] = []
        self._alloc(_INITIAL_CAPACITY)
        self._n = 0
        self._indices: dict[int, tuple[int, ...]] = {}
        # emit_loop bodies, compiled once per trace (opcode ids are per trace)
        self._loop_bodies: dict[tuple[LoopRow, ...], tuple] = {}

    # ------------------------------------------------------------------ #
    # columnar storage
    # ------------------------------------------------------------------ #
    # Storage past the last row is always zero (zeroed on allocation and
    # growth, reallocated by clear()), so emitters write only the columns
    # their row kind uses and the others read 0.
    def _alloc(self, capacity: int) -> None:
        self._capacity = capacity
        self._kind = np.zeros(capacity, dtype=np.uint8)
        self._op = np.zeros(capacity, dtype=np.uint32)
        # vl for vector/memory rows, count for scalar rows
        self._vl = np.zeros(capacity, dtype=np.int64)
        # sew_bits for vector rows, elem_bytes for memory rows
        self._aux = np.zeros(capacity, dtype=np.int64)
        self._base = np.zeros(capacity, dtype=np.int64)
        self._stride = np.zeros(capacity, dtype=np.int64)
        self._store = np.zeros(capacity, dtype=bool)

    def _grow(self, needed: int) -> None:
        new_cap = self._capacity or _INITIAL_CAPACITY
        while new_cap < needed:
            new_cap *= 2
        for col in ("_kind", "_op", "_vl", "_aux", "_base", "_stride", "_store"):
            old = getattr(self, col)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, col, grown)
        self._capacity = new_cap

    def _rows(self, count: int) -> int:
        """Reserve ``count`` rows; returns the first row index."""
        row = self._n
        if row + count > self._capacity:
            self._grow(row + count)
        self._n = row + count
        return row

    def _intern(self, name: str) -> int:
        op_id = self._name_to_id.get(name)
        if op_id is None:
            op_id = len(self._id_to_name)
            self._name_to_id[name] = op_id
            self._id_to_name.append(name)
        return op_id

    def _decode(self, i: int) -> TraceEvent:
        kind = self._kind[i]
        if kind == KIND_VECTOR:
            return VectorOp(
                self._id_to_name[self._op[i]], int(self._vl[i]), int(self._aux[i])
            )
        if kind == KIND_MEMORY:
            return MemoryOp(
                self._id_to_name[self._op[i]],
                int(self._base[i]),
                int(self._aux[i]),
                int(self._vl[i]),
                int(self._stride[i]),
                bool(self._store[i]),
                self._indices.get(i),
            )
        return ScalarOp(self._id_to_name[self._op[i]], int(self._vl[i]))

    @property
    def events(self) -> _EventsView:
        """List-like view of the recorded events (decoded on access)."""
        return _EventsView(self)

    # ------------------------------------------------------------------ #
    # columnar read access (the batched replay path)
    # ------------------------------------------------------------------ #
    def columns(self) -> TraceColumns:
        """Read-only views of the raw columns, trimmed to the event count.

        The views alias the trace's storage (zero copy) but are marked
        non-writeable; appending to the trace may reallocate the storage,
        so re-fetch after emitting.
        """
        views = []
        for col in (
            self._kind, self._op, self._vl, self._aux,
            self._base, self._stride, self._store,
        ):
            view = col[: self._n]
            view.flags.writeable = False
            views.append(view)
        return TraceColumns(*views)

    def memory_columns(self) -> MemoryOpColumns:
        """Per-op columns of every memory row, in trace order (copies)."""
        rows = np.nonzero(self._kind[: self._n] == KIND_MEMORY)[0]
        indexed = np.zeros(rows.size, dtype=bool)
        if self._indices and rows.size:
            idx_rows = np.fromiter(self._indices.keys(), dtype=np.int64)
            idx_rows = idx_rows[idx_rows < self._n]
            pos = np.searchsorted(rows, idx_rows)
            ok = pos < rows.size
            ok[ok] = rows[pos[ok]] == idx_rows[ok]
            indexed[pos[ok]] = True
        return MemoryOpColumns(
            rows,
            self._vl[rows],
            self._aux[rows],
            self._base[rows],
            self._stride[rows],
            self._store[rows],
            indexed,
        )

    def memory_line_stream(
        self, line_bytes: int, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand memory ops to one cache-line stream with op markers.

        Returns ``(lines, op_ids)``: ``lines`` is the concatenation of
        :meth:`MemoryOp.line_addresses` over the selected memory rows in
        trace order, and ``op_ids[k]`` is the ordinal (0..M-1, position
        within ``rows``) of the op that access ``k`` belongs to.  The
        expansion is exact — consecutive same-line accesses collapse
        *within* each op, never across op boundaries — and is chunked so
        peak memory stays bounded for 10^8-element traces.
        """
        if rows is None:
            rows = np.nonzero(self._kind[: self._n] == KIND_MEMORY)[0]
        m = rows.size
        empty = np.empty(0, dtype=np.int64)
        if m == 0:
            return empty, empty
        vl = self._vl[rows]
        base = self._base[rows]
        stride = self._stride[rows]
        # per-op expansion lengths: ``vl`` elements, except indexed ops use
        # their full index tuple (as MemoryOp.line_addresses does) and
        # vl == 0 ops expand to nothing either way
        counts = np.where(vl > 0, vl, 0)
        indexed: dict[int, np.ndarray] = {}
        if self._indices:
            for row, offsets in self._indices.items():
                if row >= self._n:
                    continue
                p = int(np.searchsorted(rows, row))
                if p < m and rows[p] == row and vl[p] > 0:
                    offs = np.asarray(offsets, dtype=np.int64)
                    counts[p] = offs.size
                    indexed[p] = offs
        cum = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=cum[1:])
        if cum[-1] == 0:
            return empty, empty
        out_lines: list[np.ndarray] = []
        out_ops: list[np.ndarray] = []
        start = 0
        while start < m:
            stop = int(
                np.searchsorted(
                    cum, cum[start] + _STREAM_CHUNK_ELEMS, side="right"
                )
            ) - 1
            stop = min(max(stop, start + 1), m)
            total = int(cum[stop] - cum[start])
            if total == 0:
                start = stop
                continue
            chunk_counts = counts[start:stop]
            op_of = np.repeat(
                np.arange(start, stop, dtype=np.int64), chunk_counts
            )
            local_start = np.repeat(cum[start:stop] - cum[start], chunk_counts)
            j = np.arange(total, dtype=np.int64) - local_start
            offs = stride[op_of] * j
            for p, poffs in indexed.items():
                if start <= p < stop:
                    lo = int(cum[p] - cum[start])
                    offs[lo : lo + poffs.size] = poffs
            lines = (base[op_of] + offs) // line_bytes * line_bytes
            keep = j == 0  # op starts always survive the collapse
            np.logical_or(keep[1:], lines[1:] != lines[:-1], out=keep[1:])
            out_lines.append(lines[keep])
            out_ops.append(op_of[keep])
            start = stop
        return np.concatenate(out_lines), np.concatenate(out_ops)

    # ------------------------------------------------------------------ #
    # columnar emission
    # ------------------------------------------------------------------ #
    def emit_vector(
        self, name: str, vl: int, sew_bits: int, count: int = 1
    ) -> None:
        """Record ``count`` identical vector instructions of ``vl`` elements."""
        stats = self.stats
        stats.vector_instrs += count
        stats.vector_elements += count * vl
        if self.mode != "full" or count == 0:
            return
        row = self._rows(count)
        end = row + count
        self._kind[row:end] = KIND_VECTOR
        self._op[row:end] = self._intern(name)
        self._vl[row:end] = vl
        self._aux[row:end] = sew_bits

    def emit_scalar(self, name: str, count: int = 1) -> None:
        """Record one ScalarOp event accounting ``count`` instructions."""
        self.stats.scalar_instrs += count
        if self.mode != "full":
            return
        row = self._rows(1)
        self._kind[row] = KIND_SCALAR
        self._op[row] = self._intern(name)
        self._vl[row] = count

    def emit_memory(
        self,
        name: str,
        base: int,
        elem_bytes: int,
        vl: int,
        stride: int,
        is_store: bool,
        indices: tuple[int, ...] | None = None,
    ) -> None:
        """Record one vector memory instruction."""
        stats = self.stats
        stats.memory_instrs += 1
        stats.vector_elements += vl
        nbytes = vl * elem_bytes
        stats.memory_bytes += nbytes
        if is_store:
            stats.store_bytes += nbytes
        else:
            stats.load_bytes += nbytes
        if self.mode != "full":
            return
        row = self._rows(1)
        self._kind[row] = KIND_MEMORY
        self._op[row] = self._intern(name)
        self._vl[row] = vl
        self._aux[row] = elem_bytes
        self._base[row] = base
        self._stride[row] = stride
        self._store[row] = is_store
        if indices is not None:
            self._indices[row] = tuple(indices)

    def emit_memory_rows(
        self,
        name: str,
        bases,
        elem_bytes: int,
        vl: int,
        stride: int,
        is_store: bool,
    ) -> None:
        """Record one memory instruction per byte address in ``bases``.

        Every row has the same ``name``, ``vl``, ``stride`` and store flag;
        a loop of mixed rows goes through :meth:`emit_loop`.  Indexed ops
        are not batchable (their per-element offsets are irregular); use
        :meth:`emit_memory`.
        """
        bases = np.asarray(bases, dtype=np.int64)
        count = bases.size
        if count == 0:
            return
        elems = count * int(vl)
        stats = self.stats
        stats.memory_instrs += count
        stats.vector_elements += elems
        stats.memory_bytes += elems * elem_bytes
        if is_store:
            stats.store_bytes += elems * elem_bytes
        else:
            stats.load_bytes += elems * elem_bytes
        if self.mode != "full":
            return
        row = self._rows(count)
        end = row + count
        self._kind[row:end] = KIND_MEMORY
        self._op[row:end] = self._intern(name)
        self._vl[row:end] = vl
        self._aux[row:end] = elem_bytes
        self._base[row:end] = bases
        self._stride[row:end] = stride
        self._store[row:end] = is_store

    def emit_loop(self, body: tuple[LoopRow, ...], bases) -> None:
        """Record every row of a loop in one call.

        ``body`` lists the rows of one iteration as :class:`LoopRow`
        tuples; ``bases`` holds the byte addresses of the iteration's memory
        rows, one line per iteration: shape ``(iterations, memory rows)``.
        The rows land iteration by iteration, exactly as the matching
        ``emit_scalar`` / ``emit_memory`` / ``emit_vector`` calls would
        record them.  Indexed ops are not expressible here; use
        :meth:`emit_memory`.
        """
        compiled = self._loop_bodies.get(body)
        if compiled is None:
            compiled = self._loop_bodies[body] = self._compile_body(body)
        columns, is_mem, per_iteration = compiled
        reps = len(bases)
        stats = self.stats
        stats.vector_instrs += reps * per_iteration.vector_instrs
        stats.vector_elements += reps * per_iteration.vector_elements
        stats.memory_instrs += reps * per_iteration.memory_instrs
        stats.memory_bytes += reps * per_iteration.memory_bytes
        stats.load_bytes += reps * per_iteration.load_bytes
        stats.store_bytes += reps * per_iteration.store_bytes
        stats.scalar_instrs += reps * per_iteration.scalar_instrs
        if self.mode != "full" or reps == 0:
            return
        width = is_mem.size
        row = self._rows(reps * width)
        end = row + reps * width
        for col, values in zip(
            (self._kind, self._op, self._vl, self._aux, self._stride, self._store),
            columns,
        ):
            col[row:end].reshape(reps, width)[:] = values
        self._base[row:end].reshape(reps, width)[:, is_mem] = bases

    def _compile_body(self, body: tuple[LoopRow, ...]):
        """Columns, memory-row mask and per-iteration statistics of a body.

        Columns a row's kind does not use are set to 0.
        """
        kind, names, vl, aux, stride, store = zip(*body)
        kind = np.array(kind, dtype=np.uint8)
        vl = np.array(vl, dtype=np.int64)
        is_vec = kind == KIND_VECTOR
        is_mem = kind == KIND_MEMORY
        aux = np.where(kind == KIND_SCALAR, 0, np.array(aux, dtype=np.int64))
        stride = np.where(is_mem, np.array(stride, dtype=np.int64), 0)
        store = is_mem & np.array(store, dtype=bool)
        op = np.array([self._intern(n) for n in names], dtype=np.uint32)
        nbytes = vl * aux
        per_iteration = TraceStats(
            vector_instrs=int(is_vec.sum()),
            vector_elements=int(vl[is_vec | is_mem].sum()),
            memory_instrs=int(is_mem.sum()),
            memory_bytes=int(nbytes[is_mem].sum()),
            load_bytes=int(nbytes[is_mem & ~store].sum()),
            store_bytes=int(nbytes[store].sum()),
            scalar_instrs=int(vl[kind == KIND_SCALAR].sum()),
        )
        return (kind, op, vl, aux, stride, store), is_mem, per_iteration

    # ------------------------------------------------------------------ #
    # sequence API
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def clear(self) -> None:
        self._alloc(_INITIAL_CAPACITY)
        self._n = 0
        self._indices.clear()
        self.stats = TraceStats()
