"""Property tests: columnar ``InstructionTrace`` vs a list-of-dataclasses
reference.

The columnar storage must be observationally a ``list[TraceEvent]`` plus a
running :class:`TraceStats`: random event sequences pushed through
``tests.trace_oracle.emit`` must round-trip through ``len``/iteration/
indexing identically, and the statistics must match a straightforward
recomputation — including across the geometric-growth boundaries of the
backing arrays, which the tests force by shrinking the initial capacity to
a single row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.trace import (
    KIND_MEMORY,
    KIND_SCALAR,
    KIND_VECTOR,
    InstructionTrace,
    LoopRow,
    MemoryOp,
    ScalarOp,
    TraceStats,
    VectorOp,
)
from tests.trace_oracle import emit

names = st.sampled_from(["vle", "vse", "vfmacc.vf", "vfmv", "vsetvl", "op_x"])

vector_ops = st.builds(
    VectorOp,
    name=names,
    vl=st.integers(0, 256),
    sew_bits=st.sampled_from([8, 16, 32, 64]),
)
scalar_ops = st.builds(ScalarOp, name=names, count=st.integers(0, 1000))
memory_ops = st.builds(
    MemoryOp,
    name=names,
    base=st.integers(0, 1 << 40),
    elem_bytes=st.sampled_from([1, 2, 4, 8]),
    vl=st.integers(0, 256),
    stride=st.integers(-64, 64),
    is_store=st.booleans(),
    indices=st.one_of(
        st.none(),
        st.lists(st.integers(0, 1 << 16), min_size=1, max_size=8).map(tuple),
    ),
)
event_lists = st.lists(
    st.one_of(vector_ops, scalar_ops, memory_ops), max_size=120
)


def reference_stats(events) -> TraceStats:
    """Recompute TraceStats the obvious way from a list of events."""
    s = TraceStats()
    for e in events:
        if isinstance(e, VectorOp):
            s.vector_instrs += 1
            s.vector_elements += e.vl
        elif isinstance(e, MemoryOp):
            s.memory_instrs += 1
            s.vector_elements += e.vl
            nbytes = e.vl * e.elem_bytes
            s.memory_bytes += nbytes
            if e.is_store:
                s.store_bytes += nbytes
            else:
                s.load_bytes += nbytes
        elif isinstance(e, ScalarOp):
            s.scalar_instrs += e.count
    return s


def tiny_trace(mode: str = "full", capacity: int = 1) -> InstructionTrace:
    """A trace whose columns start at ``capacity`` rows, so that even short
    random sequences cross several growth boundaries."""
    t = InstructionTrace(mode=mode)
    t._alloc(capacity)
    return t


@given(event_lists)
def test_emit_round_trips_like_a_list(events):
    t = tiny_trace()
    for e in events:
        emit(t, e)
    assert len(t) == len(events)
    assert list(t) == events
    assert list(t.events) == events
    assert len(t.events) == len(events)
    assert [t.events[i] for i in range(len(events))] == events
    # negative indexing and slices behave like a list's
    assert [t.events[i - len(events)] for i in range(len(events))] == events
    assert t.events[: len(events) // 2] == events[: len(events) // 2]
    assert t.events[1::2] == events[1::2]
    assert t.stats == reference_stats(events)


@given(event_lists)
def test_counts_mode_same_stats_no_storage(events):
    t = tiny_trace(mode="counts")
    for e in events:
        emit(t, e)
    assert len(t) == 0
    assert list(t) == []
    assert t.stats == reference_stats(events)


@given(
    names,
    st.integers(0, 256),
    st.sampled_from([32, 64]),
    st.integers(0, 50),
)
def test_emit_vector_batched_equals_singles(name, vl, sew_bits, count):
    batched = tiny_trace()
    batched.emit_vector(name, vl, sew_bits, count)
    singles = tiny_trace()
    for _ in range(count):
        singles.emit_vector(name, vl, sew_bits)
    assert list(batched) == list(singles)
    assert batched.stats == singles.stats


@given(
    names,
    st.lists(st.integers(0, 1 << 40), min_size=1, max_size=40),
    st.integers(0, 256),  # vl
    st.integers(-64, 64),  # stride
    st.booleans(),  # is_store
    st.sampled_from([4, 8]),
)
def test_emit_memory_rows_equals_singles(name, bases, vl, stride, is_store, elem_bytes):
    batched = tiny_trace()
    batched.emit_memory_rows(
        name, np.array(bases, dtype=np.int64), elem_bytes, vl, stride, is_store
    )
    singles = tiny_trace()
    for base in bases:
        singles.emit_memory(name, base, elem_bytes, vl, stride, is_store)
    assert list(batched) == list(singles)
    assert batched.stats == singles.stats
    # counts mode sees the identical statistics
    counted = tiny_trace(mode="counts")
    counted.emit_memory_rows(
        name, np.array(bases, dtype=np.int64), elem_bytes, vl, stride, is_store
    )
    assert counted.stats == singles.stats
    assert len(counted) == 0


@given(names, st.integers(0, 1000))
def test_emit_scalar_coalesces_counts(name, count):
    """One ``emit_scalar(name, n)`` equals n singles in *statistics* (the
    event stream records one coalesced ScalarOp — the documented contract)."""
    batched = tiny_trace()
    batched.emit_scalar(name, count)
    singles = tiny_trace()
    for _ in range(count):
        singles.emit_scalar(name)
    assert batched.stats == singles.stats
    assert list(batched) == [ScalarOp(name, count)]


loop_rows = st.builds(
    LoopRow,
    kind=st.sampled_from([KIND_VECTOR, KIND_MEMORY, KIND_SCALAR]),
    name=names,
    vl=st.integers(0, 256),
    aux=st.sampled_from([1, 2, 4, 8, 32]),
    stride=st.integers(-64, 64),
    is_store=st.booleans(),
    indexed=st.booleans(),
)


@given(
    st.lists(loop_rows, min_size=1, max_size=12).map(tuple),
    st.integers(0, 6),
    st.randoms(use_true_random=False),
)
def test_emit_loop_equals_singles(body, reps, rnd):
    """``emit_loop`` records the same rows, raw columns, gather offsets and
    statistics as the matching per-row emits, in both modes."""
    n_mem = sum(row.kind == KIND_MEMORY for row in body)
    n_idx = sum(row.vl for row in body if row.kind == KIND_MEMORY and row.indexed)
    bases = np.array(
        [[rnd.randrange(1 << 40) for _ in range(n_mem)] for _ in range(reps)],
        dtype=np.int64,
    ).reshape(reps, n_mem)
    indices = np.array(
        [[rnd.randrange(-(1 << 20), 1 << 20) for _ in range(n_idx)]
         for _ in range(reps)],
        dtype=np.int64,
    ).reshape(reps, n_idx)
    batched = tiny_trace()
    batched.emit_loop(body, bases, indices)
    singles = tiny_trace()
    for it in range(reps):
        mem = iter(bases[it].tolist())
        idx = indices[it].tolist()
        for row in body:
            if row.kind == KIND_VECTOR:
                singles.emit_vector(row.name, row.vl, row.aux)
            elif row.kind == KIND_MEMORY:
                offsets = None
                if row.indexed:
                    offsets, idx = idx[: row.vl], idx[row.vl :]
                singles.emit_memory(
                    row.name, next(mem), row.aux, row.vl, row.stride,
                    row.is_store, indices=offsets,
                )
            else:
                singles.emit_scalar(row.name, row.vl)
    assert list(batched) == list(singles)
    assert batched.stats == singles.stats
    for a, b in zip(batched.columns(), singles.columns()):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(
        batched.memory_columns().indexed, singles.memory_columns().indexed
    )
    counted = tiny_trace(mode="counts")
    counted.emit_loop(body, bases, indices)
    assert counted.stats == singles.stats
    assert len(counted) == 0


@pytest.mark.parametrize("mode", ["full", "counts"])
def test_emit_loop_rejects_misshapen_indices(mode):
    """A gather block that does not match the body records nothing."""
    body = (LoopRow(KIND_MEMORY, "vluxei", 4, 4, indexed=True),)
    trace = InstructionTrace(mode=mode)
    with pytest.raises(ValueError, match="indices of shape"):
        trace.emit_loop(body, np.zeros((2, 1), dtype=np.int64), np.zeros((2, 3)))
    assert len(trace) == 0
    assert trace.stats == TraceStats()


@given(event_lists, st.sampled_from([1, 2, 3, 1024]))
def test_growth_preserves_prefix(events, capacity):
    """Whatever the starting capacity, the decoded sequence is the same."""
    t = tiny_trace(capacity=capacity)
    for e in events:
        emit(t, e)
    assert list(t) == events


@given(event_lists)
def test_clear_resets(events):
    t = tiny_trace()
    for e in events:
        emit(t, e)
    t.clear()
    assert len(t) == 0
    assert list(t) == []
    assert t.stats == TraceStats()
    # trace remains usable after clear
    for e in events:
        emit(t, e)
    assert list(t) == events


def test_emit_rejects_unknown_event_type():
    t = tiny_trace()
    with pytest.raises(TypeError):
        emit(t, "not an event")


def test_mode_validation():
    with pytest.raises(ValueError):
        InstructionTrace(mode="bogus")
    assert InstructionTrace(enabled=False).mode == "counts"
    assert InstructionTrace().mode == "full"
