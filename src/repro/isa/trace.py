"""Instruction traces emitted by the functional vector machine.

A trace keeps what trace replay (:mod:`repro.simulator.timing`) reads:

* **memory instructions** (vector loads and stores), one row each in trace
  order, in preallocated, geometrically grown NumPy columns: interned
  opcode id, element count, element bytes, base address, byte stride and
  store flag.  The byte offsets of indexed (gather/scatter) rows live
  beside them in one flat store, with each indexed row's position, start
  and length appended in row order.  The cache walk needs these per row,
  in order;
* **vector instructions** as counts keyed ``(name, vl, sew_bits)``.  Replay
  prices one as ``max(issue, ceil(vl / denom))``, an integer, so a sum over
  the distinct keys equals the per-instruction sum in any order;
* **scalar instructions** as one instruction count per name.

Each ``emit_*`` call updates the counts in O(1), and none allocates
per-instruction Python objects: :meth:`InstructionTrace.emit_loop` adds a
loop body's counts times its iterations and writes the memory rows of
every iteration as one columnar block.

``len(trace)`` counts rows the way an event list would: one per vector
and memory instruction, one per scalar emit (each ``emit_scalar`` call, and
each scalar row of each ``emit_loop`` iteration).  In ``counts`` mode the
trace is the same object with the memory-row writes skipped: statistics
and counts stay exact, no rows are stored (``len`` is 0), and the trace
cannot be replayed.  That is the mode for full-size layers whose
statistics alone are wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Row kinds of a :class:`LoopRow`.
KIND_VECTOR = 0
KIND_MEMORY = 1
KIND_SCALAR = 2

#: Initial capacity (memory rows) of the columnar storage.
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


class MemoryColumns(NamedTuple):
    """Read-only views of the memory rows' columns, in trace order.

    ``op`` indexes :attr:`InstructionTrace.op_names`.  ``indexed`` (a new
    array) marks gather/scatter rows, whose per-element byte offsets come
    from the trace's offset store instead of ``stride``.
    """

    op: np.ndarray
    vl: np.ndarray
    elem_bytes: np.ndarray
    base: np.ndarray
    stride: np.ndarray
    is_store: np.ndarray
    indexed: np.ndarray


class LoopRow(NamedTuple):
    """One row of a loop body for :meth:`InstructionTrace.emit_loop`.

    ``vl`` is the active element count of a vector or memory row and the
    instruction count of a scalar row; ``aux`` is ``sew_bits`` for a vector
    row and ``elem_bytes`` for a memory row.  ``stride``, ``is_store`` and
    ``indexed`` apply to memory rows only.  An ``indexed`` row is a
    gather/scatter whose ``vl`` byte offsets come from the ``indices`` block
    of :meth:`~InstructionTrace.emit_loop`.
    """

    kind: int
    name: str
    vl: int
    aux: int = 0
    stride: int = 0
    is_store: bool = False
    indexed: bool = False


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


class InstructionTrace:
    """Memory rows, vector and scalar instruction counts, and statistics.

    ``mode`` selects what is retained:

    * ``"full"`` — memory rows are stored for trace-driven cache/timing
      replay;
    * ``"counts"`` — memory rows are skipped; :class:`TraceStats` and the
      vector/scalar counts are kept exactly as in full mode.  This is the
      fast path for full-size layers whose statistics alone are wanted.

    ``enabled`` is the legacy boolean spelling (``True`` → full, ``False``
    → counts) and is kept as a readable attribute.  :attr:`vector_counts`
    and :attr:`scalar_counts` are read-only to callers.
    """

    def __init__(self, enabled: bool = True, mode: str | None = None) -> None:
        if mode is None:
            mode = "full" if enabled else "counts"
        if mode not in ("full", "counts"):
            raise ValueError(f"trace mode must be 'full' or 'counts', got {mode!r}")
        self.mode = mode
        self.enabled = mode == "full"
        # interned memory opcode names (shared direction dicts)
        self._name_to_id: dict[str, int] = {}
        self._id_to_name: list[str] = []
        # emit_loop bodies, compiled once per trace (opcode ids are per trace)
        self._loop_bodies: dict[tuple[LoopRow, ...], tuple] = {}
        self.clear()

    def clear(self) -> None:
        """Drop every row, count and statistic."""
        self.stats = TraceStats()
        #: vector instruction count per ``(name, vl, sew_bits)``
        self.vector_counts: dict[tuple[str, int, int], int] = {}
        #: scalar instruction count per name
        self.scalar_counts: dict[str, int] = {}
        self._scalar_rows = 0
        self._alloc(_INITIAL_CAPACITY)
        self._n = 0

    # ------------------------------------------------------------------ #
    # memory-row storage
    # ------------------------------------------------------------------ #
    # Storage past the last row is always zero (zeroed on allocation and
    # growth), so two runs of one kernel give byte-identical columns.
    def _alloc(self, capacity: int) -> None:
        self._op = np.zeros(capacity, dtype=np.uint32)
        self._vl = np.zeros(capacity, dtype=np.int64)
        self._elem = np.zeros(capacity, dtype=np.int64)
        self._base = np.zeros(capacity, dtype=np.int64)
        self._stride = np.zeros(capacity, dtype=np.int64)
        self._store = np.zeros(capacity, dtype=bool)
        # indexed rows: memory row, start and length of its byte offsets in
        # the flat ``_gather_offsets`` store, appended in row order
        self._gathers = 0
        self._gather_row = np.zeros(capacity, dtype=np.int64)
        self._gather_start = np.zeros(capacity, dtype=np.int64)
        self._gather_len = np.zeros(capacity, dtype=np.int64)
        self._gather_used = 0
        self._gather_offsets = np.zeros(capacity, dtype=np.int64)

    def _rows(self, count: int) -> int:
        """Reserve ``count`` memory rows; returns the first row index."""
        row = self._n
        if row + count > self._op.size:
            for col in ("_op", "_vl", "_elem", "_base", "_stride", "_store"):
                setattr(self, col, _reserve(getattr(self, col), row, count))
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

    def _gather_table(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, starts, lengths, offsets)``: the memory row, offset start
        and offset count of every indexed row, in row order, and the flat
        byte-offset store the starts index."""
        k = self._gathers
        return (
            self._gather_row[:k],
            self._gather_start[:k],
            self._gather_len[:k],
            self._gather_offsets[: self._gather_used],
        )

    def _intern(self, name: str) -> int:
        op_id = self._name_to_id.get(name)
        if op_id is None:
            op_id = len(self._id_to_name)
            self._name_to_id[name] = op_id
            self._id_to_name.append(name)
        return op_id

    @property
    def op_names(self) -> tuple[str, ...]:
        """Memory opcode names, indexed by the ``op`` column."""
        return tuple(self._id_to_name)

    # ------------------------------------------------------------------ #
    # read access (the replay path)
    # ------------------------------------------------------------------ #
    def columns(self) -> MemoryColumns:
        """Read-only views of the memory rows' columns (zero copy except
        ``indexed``); emitting may reallocate the storage, so re-fetch
        after emitting."""
        n = self._n
        views = []
        for col in (
            self._op, self._vl, self._elem, self._base, self._stride, self._store
        ):
            view = col[:n]
            view.flags.writeable = False
            views.append(view)
        indexed = np.zeros(n, dtype=bool)
        indexed[self._gather_row[: self._gathers]] = True
        return MemoryColumns(*views, indexed)

    def memory_line_stream(
        self, line_bytes: int, start: int = 0, stop: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand memory rows ``start:stop`` to one cache-line stream with
        op markers (``0 <= start <= stop <=`` the row count; by default
        every row).

        Returns ``(lines, op_ids)``: ``lines`` lists, row by row in trace
        order, the line addresses each memory op touches with consecutive
        repeats collapsed *within* the op (never across op boundaries), and
        ``op_ids[k]`` is the memory row, counted from ``start``, that
        access ``k`` belongs to.  An op with ``vl`` 0 touches nothing.
        Since no repeat collapses across ops, the streams of consecutive
        row ranges concatenate to the stream of their union.

        A strided op expands straight to its lines: with ``|stride|`` at
        most a line, its elements visit every line from the first element's
        to the last one's; with a wider stride, every element is a line of
        its own.  Only indexed ops expand element by element (over their
        whole offset list), so the temporaries are the size of the output.
        """
        if stop is None:
            stop = self._n
        m = stop - start
        vl = self._vl[start:stop]
        base = self._base[start:stop]
        stride = self._stride[start:stop]
        # strided ops: access k of an op is line (origin + step * k) // L * L
        first = base // line_bytes
        last = (base + stride * (vl - 1)) // line_bytes
        narrow = np.abs(stride) <= line_bytes
        counts = np.where(narrow, np.abs(last - first) + 1, vl)
        origin = np.where(narrow, first * line_bytes, base)
        step = np.where(narrow, np.sign(last - first) * line_bytes, stride)
        del first, last, narrow
        # indexed ops in the range: per-element lines, then the within-op
        # collapse
        rows, g_start, g_len, store = self._gather_table()
        lo, hi = np.searchsorted(rows, (start, stop))
        ops = rows[lo:hi] - start
        g_start, g_len = g_start[lo:hi], g_len[lo:hi]
        lens = np.where(vl[ops] > 0, g_len, 0)
        elem_op = np.repeat(ops, lens)
        rank = np.arange(elem_op.size) - np.repeat(np.cumsum(lens) - lens, lens)
        offsets = store[np.repeat(g_start, lens) + rank]
        g_lines = (base[elem_op] + offsets) // line_bytes * line_bytes
        keep = rank == 0  # an op's first element always survives
        np.logical_or(keep[1:], g_lines[1:] != g_lines[:-1], out=keep[1:])
        counts[ops] = np.bincount(elem_op[keep], minlength=m)[ops]
        origin[ops] = 0
        step[ops] = 0
        counts[vl <= 0] = 0
        # lay the ops out back to back
        op_ids = np.repeat(np.arange(m, dtype=np.int64), counts)
        k = np.arange(op_ids.size, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        lines = (origin[op_ids] + step[op_ids] * k) // line_bytes * line_bytes
        if ops.size:
            is_gather = np.zeros(m, dtype=bool)
            is_gather[ops] = True
            lines[is_gather[op_ids]] = g_lines[keep]
        return lines, op_ids

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def emit_vector(
        self, name: str, vl: int, sew_bits: int, count: int = 1
    ) -> None:
        """Record ``count`` identical vector instructions of ``vl`` elements."""
        if count:
            stats = self.stats
            stats.vector_instrs += count
            stats.vector_elements += count * vl
            key = (name, vl, sew_bits)
            counts = self.vector_counts
            counts[key] = counts.get(key, 0) + count

    def emit_scalar(self, name: str, count: int = 1) -> None:
        """Record one scalar row accounting ``count`` instructions."""
        self.stats.scalar_instrs += count
        self._scalar_rows += 1
        counts = self.scalar_counts
        counts[name] = counts.get(name, 0) + count

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
        self._op[row] = self._intern(name)
        self._vl[row] = vl
        self._elem[row] = elem_bytes
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
        self._op[row:end] = self._intern(name)
        self._vl[row:end] = vl
        self._elem[row:end] = elem_bytes
        self._base[row:end] = bases.reshape(-1)
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
        body has no indexed row.  The memory rows land iteration by
        iteration, and every count and statistic ends as the matching
        ``emit_scalar`` / ``emit_memory`` / ``emit_vector`` calls would
        leave it.
        """
        compiled = self._loop_bodies.get(body)
        if compiled is None:
            compiled = self._loop_bodies[body] = self._compile_body(body)
        columns, per_iteration, vector, scalar, scalar_rows, gather_at, gather_vl = (
            compiled
        )
        reps = len(bases)
        if gather_at.size:
            indices = np.asarray(indices, dtype=np.int64)
            if indices.shape != (reps, int(gather_vl.sum())):
                raise ValueError(
                    f"emit_loop indices of shape {indices.shape}, expected "
                    f"{(reps, int(gather_vl.sum()))}"
                )
        if reps == 0:
            return
        stats = self.stats
        stats.vector_instrs += reps * per_iteration.vector_instrs
        stats.vector_elements += reps * per_iteration.vector_elements
        stats.memory_instrs += reps * per_iteration.memory_instrs
        stats.memory_bytes += reps * per_iteration.memory_bytes
        stats.load_bytes += reps * per_iteration.load_bytes
        stats.store_bytes += reps * per_iteration.store_bytes
        stats.scalar_instrs += reps * per_iteration.scalar_instrs
        counts = self.vector_counts
        for key, count in vector:
            counts[key] = counts.get(key, 0) + reps * count
        counts = self.scalar_counts
        for name, count in scalar:
            counts[name] = counts.get(name, 0) + reps * count
        self._scalar_rows += reps * scalar_rows
        width = per_iteration.memory_instrs
        if self.mode != "full" or width == 0:
            return
        row = self._rows(reps * width)
        end = row + reps * width
        for col, values in zip(
            (self._op, self._vl, self._elem, self._stride, self._store), columns
        ):
            col[row:end].reshape(reps, width)[:] = values
        self._base[row:end].reshape(reps, width)[:] = bases
        if gather_at.size:
            first = row + width * np.arange(reps, dtype=np.int64)
            self._append_gathers(
                (first[:, None] + gather_at).reshape(-1),
                np.tile(gather_vl, reps),
                indices.reshape(-1),
            )

    def _compile_body(self, body: tuple[LoopRow, ...]):
        """Memory-row columns, per-iteration statistics, counts and number
        of scalar rows, and the positions (among the memory rows) and ``vl``
        of the indexed rows."""
        per_iteration = TraceStats()
        vector: dict[tuple[str, int, int], int] = {}
        scalar: dict[str, int] = {}
        scalar_rows = 0
        memory = []
        for row in body:
            if row.kind == KIND_VECTOR:
                key = (row.name, row.vl, row.aux)
                vector[key] = vector.get(key, 0) + 1
                per_iteration.vector_instrs += 1
                per_iteration.vector_elements += row.vl
            elif row.kind == KIND_MEMORY:
                memory.append(row)
                nbytes = row.vl * row.aux
                per_iteration.memory_instrs += 1
                per_iteration.vector_elements += row.vl
                per_iteration.memory_bytes += nbytes
                if row.is_store:
                    per_iteration.store_bytes += nbytes
                else:
                    per_iteration.load_bytes += nbytes
            else:
                scalar[row.name] = scalar.get(row.name, 0) + row.vl
                scalar_rows += 1
                per_iteration.scalar_instrs += row.vl
        vl = np.array([row.vl for row in memory], dtype=np.int64)
        columns = (
            np.array([self._intern(row.name) for row in memory], dtype=np.uint32),
            vl,
            np.array([row.aux for row in memory], dtype=np.int64),
            np.array([row.stride for row in memory], dtype=np.int64),
            np.array([row.is_store for row in memory], dtype=bool),
        )
        gather_at = np.array(
            [i for i, row in enumerate(memory) if row.indexed], dtype=np.int64
        )
        return (
            columns,
            per_iteration,
            tuple(vector.items()),
            tuple(scalar.items()),
            scalar_rows,
            gather_at,
            vl[gather_at],
        )

    def __len__(self) -> int:
        if self.mode != "full":
            return 0
        stats = self.stats
        return stats.vector_instrs + stats.memory_instrs + self._scalar_rows
