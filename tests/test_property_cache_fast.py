"""Hypothesis properties: set-partitioned cache replay == per-access walk.

Random line-address streams (mixed loads/stores, many sets, tiny caches so
evictions are frequent) must produce identical hits, misses, writebacks and
victim streams — and leave identical cache state behind — whether replayed
access by access through the reference walk in ``tests/trace_oracle.py``
or in one batch through :mod:`repro.simulator.cache_fast`.  Both hierarchy
modes are covered, associativity runs up to 8 (the paper configs' L2), and
skewed streams put most accesses on one or two sets, as Winograd's
transform scratch rows do, so the busiest sets step long after the rest.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.trace import InstructionTrace
from repro.simulator import replay_backend as rb
from repro.simulator._compiled import HAVE_NUMBA
from repro.simulator.cache import CacheHierarchy, SetAssociativeCache
from repro.simulator.cache_fast import replay_line_stream, simulate_cache_stream
from tests.trace_oracle import cache_access, hierarchy_access_memop, memory_ops

LINE = 64

#: simulate_cache_stream dispatch variants every property must hold under.
REPLAY_VARIANTS = [
    pytest.param(dict(backend="numpy"), id="numpy"),
    pytest.param(
        dict(backend="compiled"),
        id="compiled",
        marks=pytest.mark.skipif(not HAVE_NUMBA, reason="Numba not installed"),
    ),
]

# (line id, is_store) streams over a small address range so tiny caches
# see plenty of conflict misses and dirty evictions
stream_strategy = st.lists(
    st.tuples(st.integers(0, 47), st.booleans()), min_size=0, max_size=250
)

# runs of repeated accesses (each with its own store flag) over at most 4
# distinct lines, so most accesses hit the line their set touched last
run_stream_strategy = st.lists(
    st.integers(0, 47), min_size=1, max_size=4, unique=True
).flatmap(
    lambda ids: st.lists(
        st.tuples(
            st.sampled_from(ids), st.lists(st.booleans(), min_size=1, max_size=6)
        ),
        max_size=60,
    ).map(lambda runs: [(lid, s) for lid, stores in runs for s in stores])
)

# one or two hot residues mod 8: every line id of a residue maps to one set
# in every geometry drawn here, L2s included
hot_residues_strategy = st.lists(
    st.integers(0, 7), min_size=1, max_size=2, unique=True
)

# the hot sets take ~80 % of the accesses, over 12 ids each (more than 8
# ways hold); the rest is spread over ids 0..95.  At least 40 accesses, so
# the hot sets fill and evict.
hot_set_stream_strategy = hot_residues_strategy.flatmap(
    lambda hot: st.lists(
        st.tuples(
            st.integers(0, 9),  # < 8: a hot line
            st.sampled_from(hot),
            st.integers(0, 11),
            st.integers(0, 95),
            st.booleans(),
        ).map(lambda a: (a[1] + 8 * a[2] if a[0] < 8 else a[3], a[4])),
        min_size=40,
        max_size=250,
    )
)

# (associativity, sets): every geometry holds fewer lines than the 48
# distinct ids of stream_strategy, so 8-way sets fill and evict too
geometry_strategy = st.sampled_from(
    [(a, s) for a in (1, 2, 4, 8) for s in (1, 2, 4, 8) if a * s < 48]
)


def _caches(assoc: int, sets: int) -> tuple[SetAssociativeCache, SetAssociativeCache]:
    size = sets * assoc * LINE
    return (
        SetAssociativeCache("C", size, assoc, LINE),
        SetAssociativeCache("C", size, assoc, LINE),
    )


def _assert_cache_state_equal(a: SetAssociativeCache, b: SetAssociativeCache):
    assert np.array_equal(a._tags, b._tags)
    assert np.array_equal(a._dirty, b._dirty)
    assert np.array_equal(a._lru, b._lru)
    assert a._tick == b._tick
    assert a.stats == b.stats


@pytest.mark.parametrize("replay_kwargs", REPLAY_VARIANTS)
@given(
    stream=st.one_of(
        stream_strategy, run_stream_strategy, hot_set_stream_strategy
    ),
    geometry=geometry_strategy,
)
@settings(max_examples=150, deadline=None)
def test_single_level_stream_equivalence(replay_kwargs, stream, geometry):
    ref, fast = _caches(*geometry)
    lines = np.array([lid * LINE for lid, _ in stream], dtype=np.int64)
    stores = np.array([s for _, s in stream], dtype=bool)
    expected = [cache_access(ref, int(a), bool(s)) for a, s in zip(lines, stores)]
    hits, wbs, victims = simulate_cache_stream(
        fast, lines, stores, **replay_kwargs
    )
    for (ref_hit, ref_victim), hit, wb, victim in zip(
        expected, hits, wbs, victims
    ):
        assert ref_hit == bool(hit)
        assert (ref_victim is not None) == bool(wb)
        if ref_victim is not None:
            assert ref_victim == int(victim)
    _assert_cache_state_equal(ref, fast)


@given(
    stream=st.one_of(stream_strategy, hot_set_stream_strategy),
    geometry=geometry_strategy,
)
@settings(max_examples=60, deadline=None)
def test_kernel_source_matches_sequential(stream, geometry):
    """The compiled backend's *Python source* replays exactly.

    Calls the kernel wrappers directly (not through the registry), so
    the code Numba compiles is property-tested even where Numba is not
    installed — the njit decorator only changes speed, not semantics.
    """
    ref, fast = _caches(*geometry)
    lines = np.array([lid * LINE for lid, _ in stream], dtype=np.int64)
    stores = np.array([s for _, s in stream], dtype=bool)
    expected = [cache_access(ref, int(a), bool(s)) for a, s in zip(lines, stores)]
    sets = (lines // LINE) & (fast.num_sets - 1)
    hits, wbs, victims = rb._replay_sets_compiled(
        fast._tags, fast._dirty, fast._lru, sets, lines, stores, fast._tick
    )
    for (ref_hit, ref_victim), hit, wb, victim in zip(
        expected, hits, wbs, victims
    ):
        assert ref_hit == bool(hit)
        assert (ref_victim is not None) == bool(wb)
        if ref_victim is not None:
            assert ref_victim == int(victim)
    # the raw kernel mutates state arrays only; tick/stats are the
    # caller's job (simulate_cache_stream), so compare arrays directly
    assert np.array_equal(ref._tags, fast._tags)
    assert np.array_equal(ref._dirty, fast._dirty)
    assert np.array_equal(ref._lru, fast._lru)


@given(
    stream=st.one_of(stream_strategy, hot_set_stream_strategy),
    geometry=geometry_strategy,
    split=st.integers(0, 250),
)
@settings(max_examples=60, deadline=None)
def test_split_batches_compose_like_one(stream, geometry, split):
    """Replaying [a|b] as two batches equals one batch — warm-start parity."""
    one, two = _caches(*geometry)
    lines = np.array([lid * LINE for lid, _ in stream], dtype=np.int64)
    stores = np.array([s for _, s in stream], dtype=bool)
    cut = min(split, lines.size)
    h1, w1, v1 = simulate_cache_stream(one, lines, stores)
    ha, wa, va = simulate_cache_stream(two, lines[:cut], stores[:cut])
    hb, wb, vb = simulate_cache_stream(two, lines[cut:], stores[cut:])
    assert np.array_equal(h1, np.concatenate([ha, hb]))
    assert np.array_equal(w1, np.concatenate([wa, wb]))
    assert np.array_equal(v1, np.concatenate([va, vb]))
    _assert_cache_state_equal(one, two)


memop_strategy = st.tuples(
    st.integers(0, 40),  # base line id
    st.integers(0, 33),  # vl (0 allowed: empty op)
    st.sampled_from([4, -4, 8, 20, 256]),  # byte stride
    st.booleans(),  # is_store
    st.booleans(),  # indexed gather/scatter?
)


# mostly short unit-stride loads and stores, each within one line of a hot
# residue, shuffled among a few random memory ops
hot_memops_strategy = hot_residues_strategy.flatmap(
    lambda hot: st.tuples(
        st.lists(
            st.tuples(
                st.sampled_from(hot), st.integers(0, 11), st.integers(1, 8),
                st.booleans(),
            ).map(lambda a: (a[0] + 8 * a[1], a[2], 4, a[3], False)),
            max_size=60,
        ),
        st.lists(memop_strategy, max_size=3),
    ).flatmap(lambda ops: st.permutations(ops[0] + ops[1]))
)

# (associativity, sets) of the L2; the 8-way ones hold 16 and 32 lines
l2_geometry_strategy = st.sampled_from([(4, 8), (8, 2), (8, 4)])


def _hierarchy(vector_at_l2: bool, l2_geometry) -> CacheHierarchy:
    assoc, sets = l2_geometry
    l1 = SetAssociativeCache("L1", 4 * 2 * LINE, 2, LINE)
    l2 = SetAssociativeCache("L2", sets * assoc * LINE, assoc, LINE)
    return CacheHierarchy(l1, l2, vector_at_l2=vector_at_l2)


@given(
    ops=st.one_of(
        st.lists(memop_strategy, min_size=0, max_size=40), hot_memops_strategy
    ),
    vector_at_l2=st.booleans(),
    l2_geometry=l2_geometry_strategy,
)
@settings(max_examples=100, deadline=None)
def test_hierarchy_memop_replay_equivalence(ops, vector_at_l2, l2_geometry):
    trace = InstructionTrace()
    rng = np.random.default_rng(len(ops))
    for base_id, vl, stride, is_store, indexed in ops:
        name = ("vsuxei" if is_store else "vluxei") if indexed else (
            "vse" if is_store else "vle"
        )
        indices = (
            tuple(int(v) for v in rng.integers(0, 4096, size=vl))
            if indexed
            else None
        )
        trace.emit_memory(
            name, base_id * LINE + 4, 4, vl, stride, is_store, indices=indices
        )
    ref = _hierarchy(vector_at_l2, l2_geometry)
    fast = _hierarchy(vector_at_l2, l2_geometry)
    mem_ops = memory_ops(trace)
    expected = [hierarchy_access_memop(ref, op) for op in mem_ops]
    lines, op_ids = trace.memory_line_stream(fast.line_bytes)
    l1_m, l2_m = replay_line_stream(
        fast, lines, trace.columns().is_store[op_ids], op_ids, len(mem_ops)
    )
    assert [(int(a), int(b)) for a, b in zip(l1_m, l2_m)] == expected
    _assert_cache_state_equal(ref.l1, fast.l1)
    _assert_cache_state_equal(ref.l2, fast.l2)
    assert ref.dram_lines == fast.dram_lines
    assert ref.dram_writeback_lines == fast.dram_writeback_lines


@pytest.mark.parametrize("replay_kwargs", REPLAY_VARIANTS)
def test_empty_stream_is_a_noop(replay_kwargs):
    ref, fast = _caches(2, 4)
    hits, wbs, victims = simulate_cache_stream(
        fast,
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=bool),
        **replay_kwargs,
    )
    assert hits.size == wbs.size == victims.size == 0
    _assert_cache_state_equal(ref, fast)


# --------------------------------------------------------------------- #
# memory-cost fold kernel: compiled source == numpy backend, bit for bit
# --------------------------------------------------------------------- #
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 200),  # vl
            st.sampled_from([4, 8]),  # elem_bytes
            st.sampled_from([4, -4, 8, 20, 256]),  # stride
            st.booleans(),  # indexed
            st.integers(0, 50),  # l1 misses
            st.integers(0, 50),  # l2 misses
        ),
        min_size=0,
        max_size=40,
    ),
    vector_at_l2=st.booleans(),
    prefetch=st.booleans(),
    # 12.8 GiB/s at 2 GHz: line fills priced in non-dyadic cycles
    bytes_per_cycle=st.sampled_from([16.0, 12.8 * 2**30 / 2e9]),
    start=st.just(0.0) | st.floats(0.0, 1e12),
    split=st.integers(0, 40),
)
@settings(max_examples=80, deadline=None)
def test_memory_fold_kernel_matches_numpy(
    rows, vector_at_l2, prefetch, bytes_per_cycle, start, split
):
    cols = [
        np.array([r[i] for r in rows], dtype=np.int64) for i in range(6)
    ]
    cols[3] = cols[3].astype(bool)  # indexed
    params = rb.MemoryCostParams(
        datapath=16.0,
        nonunit_factor=4.0,
        startup_cycles=2.0,
        l2_latency=20.0,
        mlp=4.0,
        dram_latency=120.0,
        prefetch_factor=4.0 if prefetch else 1.0,
        line_bytes=LINE,
        bytes_per_cycle=bytes_per_cycle,
        vector_at_l2=vector_at_l2,
    )
    folds = (rb._memory_cost_fold_numpy, rb._memory_cost_fold_compiled)
    a, b = (fold(*cols, params, start) for fold in folds)
    assert a == b  # bit-exact float equality, not approx
    # the ops folded in two pieces, the second continuing from the first's
    # total, are the same left-to-right fold
    k = min(split, len(rows))
    for fold in folds:
        head = fold(*(c[:k] for c in cols), params, start)
        assert fold(*(c[k:] for c in cols), params, head) == a
