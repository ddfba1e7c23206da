"""Instruction traces emitted by the functional vector machine.

A trace is an ordered sequence of lightweight event records:

* :class:`VectorOp` — an arithmetic/permute vector instruction with its
  active element count (so the timing model can compute chimes and lane
  utilization);
* :class:`MemoryOp` — a vector load/store described compactly as
  ``(base address, element bytes, element count, stride)`` — the cache
  simulator expands this to cache-line touches without storing per-element
  addresses; an indexed (gather/scatter) op carries its per-element byte
  offsets instead;
* :class:`ScalarOp` — a batch of scalar bookkeeping instructions (address
  arithmetic, loop control), recorded in bulk.

Storage is *columnar* (structure-of-arrays): instead of one Python object
per event, the trace keeps preallocated, geometrically grown NumPy columns
for the event kind, interned opcode id, vector length, element width, base
address, stride and store flag.  A column a row's kind does not use holds
0, so two runs of one kernel give byte-identical columns.  The byte
offsets of indexed rows live beside them in one flat store, with each
indexed row's trace row, start and length appended in row order.  Trace
replay (:mod:`repro.simulator.timing`) reads those columns directly.  The
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


def _reserve(col: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``col``, or a zero-padded copy of its first ``used`` entries with
    room for ``extra`` more (capacity doubles)."""
    if used + extra <= col.size:
        return col
    cap = max(col.size, 1)
    while cap < used + extra:
        cap *= 2
    grown = np.zeros(cap, dtype=col.dtype)
    grown[:used] = col[:used]
    return grown


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
    ``stride``, ``is_store`` and ``indexed`` apply to memory rows only.
    An ``indexed`` row is a gather/scatter whose ``vl`` byte offsets come
    from the ``indices`` block of :meth:`~InstructionTrace.emit_loop`.
    Columns a row's kind does not use are recorded as 0.
    """

    kind: int
    name: str
    vl: int
    aux: int = 0
    stride: int = 0
    is_store: bool = False
    indexed: bool = False


class MemoryOpColumns(NamedTuple):
    """Per-memory-op columns (copies) for batched replay.

    ``rows`` are the trace row indices of the memory ops, in trace order;
    the remaining arrays are aligned with it.  ``indexed`` marks gather/
    scatter ops (their per-element offsets are irregular and come from the
    trace's gather-offset store).
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
        # indexed rows: trace row, start and length of its byte offsets in
        # the flat ``_gather_offsets`` store, appended in row order
        self._gathers = 0
        self._gather_row = np.zeros(capacity, dtype=np.int64)
        self._gather_start = np.zeros(capacity, dtype=np.int64)
        self._gather_len = np.zeros(capacity, dtype=np.int64)
        self._gather_used = 0
        self._gather_offsets = np.zeros(capacity, dtype=np.int64)

    def _grow(self, needed: int) -> None:
        for col in ("_kind", "_op", "_vl", "_aux", "_base", "_stride", "_store"):
            setattr(self, col, _reserve(getattr(self, col), self._n, needed - self._n))
        self._capacity = self._kind.size

    def _rows(self, count: int) -> int:
        """Reserve ``count`` rows; returns the first row index."""
        row = self._n
        if row + count > self._capacity:
            self._grow(row + count)
        self._n = row + count
        return row

    def _append_gathers(
        self, rows: np.ndarray, lengths: np.ndarray, offsets: np.ndarray
    ) -> None:
        """Record indexed rows (ascending, after every earlier one) and
        their concatenated byte offsets."""
        k, used = self._gathers, self._gather_used
        count, total = rows.size, offsets.size
        self._gather_row = _reserve(self._gather_row, k, count)
        self._gather_start = _reserve(self._gather_start, k, count)
        self._gather_len = _reserve(self._gather_len, k, count)
        self._gather_offsets = _reserve(self._gather_offsets, used, total)
        self._gather_row[k : k + count] = rows
        self._gather_len[k : k + count] = lengths
        self._gather_start[k : k + count] = used + np.cumsum(lengths) - lengths
        self._gather_offsets[used : used + total] = offsets
        self._gathers = k + count
        self._gather_used = used + total

    def _gather_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Trace row, offset start and offset count of every indexed row."""
        k = self._gathers
        return self._gather_row[:k], self._gather_start[:k], self._gather_len[:k]

    def _indices_of(self, row: int) -> tuple[int, ...] | None:
        """The byte offsets of an indexed row, or None."""
        if not self._gathers:
            return None
        g_row, g_start, g_len = self._gather_table()
        k = int(np.searchsorted(g_row, row))
        if k == g_row.size or g_row[k] != row:
            return None
        start = g_start[k]
        return tuple(self._gather_offsets[start : start + g_len[k]].tolist())

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
                self._indices_of(i),
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
        indexed[np.searchsorted(rows, self._gather_table()[0])] = True
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

        Returns ``(lines, op_ids)``: ``lines`` lists, op by op over the
        selected memory rows in trace order, the line addresses each op
        touches with consecutive repeats collapsed *within* the op (never
        across op boundaries), and ``op_ids[k]`` is the ordinal (0..M-1,
        position within ``rows``) of the op that access ``k`` belongs to.
        An op with ``vl`` 0 touches nothing.

        A strided op expands straight to its lines: with ``|stride|`` at
        most a line, its elements visit every line from the first element's
        to the last one's; with a wider stride, every element is a line of
        its own.  Only indexed ops expand element by element (over their
        whole offset list), so the temporaries are the size of the output.
        """
        if rows is None:
            rows = np.nonzero(self._kind[: self._n] == KIND_MEMORY)[0]
        m = rows.size
        vl = self._vl[rows]
        base = self._base[rows]
        stride = self._stride[rows]
        # strided ops: access k of an op is line (start + step * k) // L * L
        first = base // line_bytes
        last = (base + stride * (vl - 1)) // line_bytes
        narrow = np.abs(stride) <= line_bytes
        counts = np.where(narrow, np.abs(last - first) + 1, vl)
        start = np.where(narrow, first * line_bytes, base)
        step = np.where(narrow, np.sign(last - first) * line_bytes, stride)
        # indexed ops among ``rows``: per-element lines, then the within-op
        # collapse
        g_row, g_start, g_len = self._gather_table()
        g = np.searchsorted(rows, g_row)
        sel = g < m
        sel[sel] = rows[g[sel]] == g_row[sel]
        ops = g[sel]
        lens = np.where(vl[ops] > 0, g_len[sel], 0)
        elem_op = np.repeat(ops, lens)
        rank = np.arange(elem_op.size) - np.repeat(np.cumsum(lens) - lens, lens)
        offsets = self._gather_offsets[np.repeat(g_start[sel], lens) + rank]
        g_lines = (base[elem_op] + offsets) // line_bytes * line_bytes
        keep = rank == 0  # an op's first element always survives
        np.logical_or(keep[1:], g_lines[1:] != g_lines[:-1], out=keep[1:])
        counts[ops] = np.bincount(elem_op[keep], minlength=m)[ops]
        start[ops] = 0
        step[ops] = 0
        counts[vl <= 0] = 0
        # lay the ops out back to back
        op_ids = np.repeat(np.arange(m, dtype=np.int64), counts)
        k = np.arange(op_ids.size, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        lines = (start[op_ids] + step[op_ids] * k) // line_bytes * line_bytes
        is_gather = np.zeros(m, dtype=bool)
        is_gather[ops] = True
        lines[is_gather[op_ids]] = g_lines[keep]
        return lines, op_ids

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
        indices=None,
    ) -> None:
        """Record one vector memory instruction.

        ``indices`` (an array or sequence of byte offsets from ``base``)
        makes it an indexed op; its length may differ from ``vl``.
        """
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
            offsets = np.asarray(indices, dtype=np.int64).reshape(-1)
            self._append_gathers(
                np.array([row]), np.array([offsets.size]), offsets
            )

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

        Only ``bases`` varies per row: every row has the same ``name``,
        ``vl``, ``stride`` and store flag.  A loop of mixed rows, indexed
        ones included, goes through :meth:`emit_loop`.
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

    def emit_loop(self, body: tuple[LoopRow, ...], bases, indices=None) -> None:
        """Record every row of a loop in one call.

        ``body`` lists the rows of one iteration as :class:`LoopRow`
        tuples; ``bases`` holds the byte addresses of the iteration's memory
        rows, one line per iteration: shape ``(iterations, memory rows)``.
        ``indices`` holds the byte offsets of the iteration's indexed rows
        (gathers/scatters), ``vl`` per row concatenated in body order:
        shape ``(iterations, sum of their vl)``; it may be omitted when the
        body has no indexed row.  The rows land iteration by iteration,
        exactly as the matching ``emit_scalar`` / ``emit_memory`` /
        ``emit_vector`` calls would record them.
        """
        compiled = self._loop_bodies.get(body)
        if compiled is None:
            compiled = self._loop_bodies[body] = self._compile_body(body)
        columns, is_mem, per_iteration, gather_at, gather_vl = compiled
        reps = len(bases)
        if gather_at.size:
            indices = np.asarray(indices, dtype=np.int64)
            if indices.shape != (reps, int(gather_vl.sum())):
                raise ValueError(
                    f"emit_loop indices of shape {indices.shape}, expected "
                    f"{(reps, int(gather_vl.sum()))}"
                )
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
        if gather_at.size:
            first = row + width * np.arange(reps, dtype=np.int64)
            self._append_gathers(
                (first[:, None] + gather_at).reshape(-1),
                np.tile(gather_vl, reps),
                indices.reshape(-1),
            )

    def _compile_body(self, body: tuple[LoopRow, ...]):
        """Columns, memory-row mask, per-iteration statistics, and the
        positions and ``vl`` of the indexed rows of a body.

        Columns a row's kind does not use are set to 0.
        """
        kind, names, vl, aux, stride, store, indexed = zip(*body)
        kind = np.array(kind, dtype=np.uint8)
        vl = np.array(vl, dtype=np.int64)
        is_vec = kind == KIND_VECTOR
        is_mem = kind == KIND_MEMORY
        aux = np.where(kind == KIND_SCALAR, 0, np.array(aux, dtype=np.int64))
        stride = np.where(is_mem, np.array(stride, dtype=np.int64), 0)
        store = is_mem & np.array(store, dtype=bool)
        gather_at = np.nonzero(is_mem & np.array(indexed, dtype=bool))[0]
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
        return (
            (kind, op, vl, aux, stride, store),
            is_mem,
            per_iteration,
            gather_at,
            vl[gather_at],
        )

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
        self.stats = TraceStats()
