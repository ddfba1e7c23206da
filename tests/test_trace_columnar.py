"""Property tests: ``InstructionTrace`` vs a list-of-dataclasses reference.

Random event sequences pushed through ``tests.trace_oracle.emit`` must come
back as what the trace keeps of them: the memory ops in order, and the
vector and scalar instruction counts; ``len`` must count one row per event
and the running :class:`TraceStats` must match a straightforward
recomputation — including across the geometric-growth boundaries of the
backing arrays, which the tests force by shrinking the initial capacity to
a single row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.trace import (
    KIND_MEMORY,
    KIND_SCALAR,
    KIND_VECTOR,
    InstructionTrace,
    LoopRow,
    TraceStats,
)
from tests.trace_oracle import (
    MemoryOp,
    ScalarOp,
    VectorOp,
    emit,
    events_view,
    memory_ops,
    trace_view,
)

names = st.sampled_from(["vle", "vse", "vfmacc.vf", "vfmv", "vsetvl", "op_x"])

vector_events = st.builds(
    VectorOp,
    name=names,
    vl=st.integers(0, 256),
    sew_bits=st.sampled_from([8, 16, 32, 64]),
)
scalar_events = st.builds(ScalarOp, name=names, count=st.integers(0, 1000))
memory_events = st.builds(
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
    st.one_of(vector_events, scalar_events, memory_events), max_size=120
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
def test_emit_round_trips_memory_rows_and_counts(events):
    t = tiny_trace()
    for e in events:
        emit(t, e)
    assert len(t) == len(events)
    assert trace_view(t) == events_view(events)
    assert t.stats == reference_stats(events)


@given(event_lists)
def test_counts_mode_same_stats_no_storage(events):
    t = tiny_trace(mode="counts")
    for e in events:
        emit(t, e)
    assert len(t) == 0
    assert memory_ops(t) == []
    assert trace_view(t)[1:] == events_view(events)[1:]
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
    assert trace_view(batched) == trace_view(singles)
    assert len(batched) == len(singles) == count
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
    assert trace_view(batched) == trace_view(singles)
    assert len(batched) == len(singles) == len(bases)
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
    """One ``emit_scalar(name, n)`` equals n singles in statistics and
    counts, and is one row (the documented contract)."""
    batched = tiny_trace()
    batched.emit_scalar(name, count)
    singles = tiny_trace()
    for _ in range(count):
        singles.emit_scalar(name)
    assert batched.stats == singles.stats
    assert batched.scalar_counts == {name: count}
    assert len(batched) == 1


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
    """``emit_loop`` records the same memory rows, raw columns, gather
    offsets, counts and statistics as the matching per-row emits, in both
    modes."""
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
    assert trace_view(batched) == trace_view(singles)
    assert len(batched) == len(singles) == reps * len(body)
    assert batched.stats == singles.stats
    for a, b in zip(batched.columns(), singles.columns()):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(batched._gather_table(), singles._gather_table()):
        assert a.tobytes() == b.tobytes()
    counted = tiny_trace(mode="counts")
    counted.emit_loop(body, bases, indices)
    assert counted.stats == singles.stats
    assert trace_view(counted)[1:] == trace_view(singles)[1:]
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
    assert trace.vector_counts == {} and trace.scalar_counts == {}


@given(event_lists, st.sampled_from([1, 2, 3, 1024]))
def test_growth_preserves_prefix(events, capacity):
    """Whatever the starting capacity, the decoded memory ops are the same."""
    t = tiny_trace(capacity=capacity)
    for e in events:
        emit(t, e)
    assert memory_ops(t) == [e for e in events if isinstance(e, MemoryOp)]


@given(event_lists)
def test_clear_resets(events):
    t = tiny_trace()
    for e in events:
        emit(t, e)
    t.clear()
    assert len(t) == 0
    assert trace_view(t) == ([], [], [])
    assert t.stats == TraceStats()
    # trace remains usable after clear
    for e in events:
        emit(t, e)
    assert trace_view(t) == events_view(events)


def test_emit_rejects_unknown_event_type():
    t = tiny_trace()
    with pytest.raises(TypeError):
        emit(t, "not an event")


def test_mode_validation():
    with pytest.raises(ValueError):
        InstructionTrace(mode="bogus")
    assert InstructionTrace(enabled=False).mode == "counts"
    assert InstructionTrace().mode == "full"
