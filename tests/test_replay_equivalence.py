"""Trace replay vs the per-event reference: equivalence.

``TraceTimingModel.run`` (columnar replay + ``repro.simulator.cache_fast``)
must be *observationally identical* to the per-event reference in
``tests/trace_oracle.py``: bit-identical :class:`TimingResult` fields,
identical :class:`CacheStats` at both levels, identical DRAM counters,
identical per-op miss attribution, and bit-identical cache state afterwards
(tags, dirty bits, LRU ticks) — so the two can be freely interleaved on one
model.  Parametrized over kernels (incl. Winograd's indexed gathers), VLEN,
LMUL-built traces, both ``vector_at_l2`` hierarchy modes and every
registered backend.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.direct import DirectConv
from repro.algorithms.im2col_gemm import Im2colGemm3
from repro.algorithms.winograd import WinogradConv
from repro.errors import SimulationError
from repro.isa.machine import VectorMachine
from repro.isa.trace import InstructionTrace
from repro.nn.layer import ConvSpec
from repro.simulator import timing
from repro.simulator._compiled import HAVE_NUMBA
from repro.simulator.cache import CacheHierarchy, SetAssociativeCache
from repro.simulator.cache_fast import replay_line_stream, simulate_cache_stream
from repro.simulator.hwconfig import HardwareConfig
from repro.simulator.replay_backend import available_backends, resolve_backend
from repro.simulator.timing import TraceTimingModel
from tests.trace_oracle import (
    MemoryOp,
    cache_access,
    emit,
    hierarchy_access_memop,
    line_addresses,
    memory_ops,
    sequential_replay,
)

SPEC = ConvSpec(ic=5, oc=7, ih=13, iw=11, kh=3, kw=3, stride=1, pad=1)

_needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="Numba not installed")

#: Backends every equivalence claim is checked under.
REPLAY_MODES = [
    pytest.param("numpy", id="numpy"),
    pytest.param("compiled", id="compiled", marks=_needs_numba),
]

CONFIGS = [
    HardwareConfig.paper2_rvv(512, 1.0),
    HardwareConfig.paper1_riscvv(512, 1.0),
    HardwareConfig.paper2_rvv(512, 1.0).with_(software_prefetch=True),
    HardwareConfig.a64fx(),
]

ALGORITHMS = [
    ("direct", DirectConv()),
    ("winograd", WinogradConv()),
    ("im2col_gemm3", Im2colGemm3()),
]


def _kernel_trace(alg, vlen: int, seed: int = 0) -> InstructionTrace:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((SPEC.ic, SPEC.ih, SPEC.iw)).astype(np.float32)
    w = (
        0.3 * rng.standard_normal((SPEC.oc, SPEC.ic, SPEC.kh, SPEC.kw))
    ).astype(np.float32)
    machine = VectorMachine(vlen)
    alg.run_vectorized(SPEC, x, w, machine)
    return machine.trace


def _lmul_trace(vlen: int, lmul: int) -> InstructionTrace:
    """A synthetic strip-mined trace exercising LMUL register grouping."""
    rng = np.random.default_rng(3)
    machine = VectorMachine(vlen)
    src = machine.alloc_from("src", rng.standard_normal(4096).astype(np.float32))
    dst = machine.alloc("dst", 4096)
    machine.vcopy_strips(src, 0, dst, 7, 1800, lmul=lmul)
    machine.vcopy_strips(src, 11, dst, 100, 900, src_stride=3, lmul=lmul)
    machine.vsetvl(64, lmul=lmul)
    machine.vload(0, src, 5)
    machine.vfmacc_vf(0, 1.5, 0)
    machine.vstore(0, dst, 2000)
    return machine.trace


def _assert_hierarchy_equal(a: CacheHierarchy, b: CacheHierarchy) -> None:
    for ca, cb in ((a.l1, b.l1), (a.l2, b.l2)):
        assert np.array_equal(ca._tags, cb._tags)
        assert np.array_equal(ca._dirty, cb._dirty)
        assert np.array_equal(ca._lru, cb._lru)
        assert ca._tick == cb._tick
        assert ca.stats == cb.stats
    assert a.dram_lines == b.dram_lines
    assert a.dram_writeback_lines == b.dram_writeback_lines


def _assert_replay_equivalent(
    trace: InstructionTrace, cfg: HardwareConfig, backend: str = "auto"
):
    seq = TraceTimingModel(cfg)
    bat = TraceTimingModel(cfg)
    # two back-to-back runs without flush: the second starts from the warm
    # state the first left behind, on both sides
    for _ in range(2):
        r_seq = sequential_replay(seq, trace)
        r_bat = bat.run(trace, backend=backend)
        assert r_seq == r_bat  # dataclass ==: bit-exact float comparison
        _assert_hierarchy_equal(seq.hierarchy, bat.hierarchy)
    return r_seq


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("vlen", [128, 512])
@pytest.mark.parametrize("alg", ALGORITHMS, ids=lambda a: a[0])
def test_kernel_replay_batched_matches_sequential(alg, vlen, cfg):
    trace = _kernel_trace(alg[1], vlen)
    res = _assert_replay_equivalent(trace, cfg)
    assert res.cycles > 0 and res.memory_instrs > 0


@pytest.mark.parametrize("cfg", CONFIGS[:2], ids=lambda c: c.name)
@pytest.mark.parametrize("lmul", [1, 2, 4])
def test_lmul_trace_replay_matches(lmul, cfg):
    trace = _lmul_trace(512, lmul)
    _assert_replay_equivalent(trace, cfg)


@pytest.mark.parametrize("backend", REPLAY_MODES)
@pytest.mark.parametrize("cfg", CONFIGS[:2], ids=lambda c: c.name)
def test_per_op_miss_attribution_matches(cfg, backend):
    trace = _kernel_trace(WinogradConv(), 256)  # includes indexed gathers
    ops = memory_ops(trace)
    h_ref = CacheHierarchy.from_config(cfg)
    ref = [hierarchy_access_memop(h_ref, op) for op in ops]
    h_fast = CacheHierarchy.from_config(cfg)
    lines, op_ids = trace.memory_line_stream(h_fast.line_bytes)
    l1_m, l2_m = replay_line_stream(
        h_fast, lines, trace.columns().is_store[op_ids], op_ids, len(ops),
        backend=backend,
    )
    assert [(int(a), int(b)) for a, b in zip(l1_m, l2_m)] == ref
    _assert_hierarchy_equal(h_ref, h_fast)


@pytest.mark.parametrize("backend", REPLAY_MODES)
def test_backend_modes_match_sequential(backend):
    """Every registered backend is bit-identical to the per-event replay."""
    cfg = HardwareConfig.paper2_rvv(512, 1.0)
    for trace in (_kernel_trace(WinogradConv(), 256), _lmul_trace(512, 2)):
        res = _assert_replay_equivalent(trace, cfg, backend=backend)
        assert res.cycles > 0


@pytest.mark.parametrize("backend", REPLAY_MODES)
def test_victim_stream_parity_across_modes(backend):
    """hits/writebacks/victims arrays match the per-access walk exactly."""
    rng = np.random.default_rng(11)
    cache_ref = SetAssociativeCache("C", 8 * 2 * 64, 2, 64)
    cache_fast = SetAssociativeCache("C", 8 * 2 * 64, 2, 64)
    lines = rng.integers(0, 64, size=600).astype(np.int64) * 64
    stores = rng.random(600) < 0.4
    expected = [
        cache_access(cache_ref, int(a), bool(s)) for a, s in zip(lines, stores)
    ]
    hits, wbs, victims = simulate_cache_stream(
        cache_fast, lines, stores, backend=backend
    )
    for (ref_hit, ref_victim), hit, wb, victim in zip(
        expected, hits, wbs, victims
    ):
        assert ref_hit == bool(hit)
        assert (ref_victim is not None) == bool(wb)
        if ref_victim is not None:
            assert ref_victim == int(victim)
    assert np.array_equal(cache_ref._tags, cache_fast._tags)
    assert np.array_equal(cache_ref._lru, cache_fast._lru)
    assert cache_ref.stats == cache_fast.stats


#: Tiny caches, so a few dozen rows evict and write back at both levels
#: (the second is the decoupled ``vector_at_l2`` organization); 3 GiB/s of
#: DRAM prices line fills in non-dyadic cycles, so reassociating the
#: memory-cost fold changes its last bits.
CHUNK_CONFIGS = [
    make().with_(l1_kib=1, l2_mib=1 / 64, dram_bw_gib_s=3.0)
    for make in (HardwareConfig.paper2_rvv, HardwareConfig.paper1_riscvv)
]


@st.composite
def _chunked_replay_cases(draw):
    """A trace, a chunk of 1-7 memory rows and a small-cache config.

    The trace has more memory rows than one chunk, indexed rows on both
    sides of the first chunk boundary, a ``vl == 0`` row, and vector and
    scalar rows between the memory rows."""
    chunk = draw(st.integers(1, 7))
    rows = draw(st.integers(chunk + 1, 30))
    zero = draw(st.integers(0, rows - 1))
    trace = InstructionTrace()
    for row in range(rows):
        if draw(st.booleans()):
            trace.emit_scalar("loop", draw(st.integers(1, 3)))
        if draw(st.booleans()):
            trace.emit_vector("vfmacc.vf", draw(st.integers(1, 32)), 32)
        indexed = row in (chunk - 1, chunk) or draw(st.booleans())
        elem = draw(st.sampled_from([4, 8]))
        indices = draw(
            st.lists(st.integers(-64, 4096), max_size=48).map(tuple)
        ) if indexed else None
        emit(trace, MemoryOp(
            "vluxei" if indexed else "vle",
            draw(st.integers(0, 1 << 14)), elem,
            0 if row == zero else draw(st.integers(1, 48)),
            draw(st.sampled_from([0, elem, -elem, 60, 64, 68, 192])),
            draw(st.booleans()), indices,
        ))
    return trace, chunk, draw(st.sampled_from(CHUNK_CONFIGS))


@pytest.mark.parametrize("backend", REPLAY_MODES)
@given(case=_chunked_replay_cases())
@settings(max_examples=80, deadline=None)
def test_chunked_replay_matches_one_chunk_and_the_oracle(backend, case):
    """Replay in chunks of 1-7 memory rows equals the one-chunk replay and
    the per-op oracle: every ``TimingResult`` field and the whole
    hierarchy, over two back-to-back runs without flush."""
    trace, chunk, cfg = case
    assert trace.stats.memory_instrs <= timing.REPLAY_CHUNK_ROWS
    ref, whole, chunked = (TraceTimingModel(cfg) for _ in range(3))
    for _ in range(2):
        r_ref = sequential_replay(ref, trace)
        r_whole = whole.run(trace, backend=backend)
        with mock.patch.object(timing, "REPLAY_CHUNK_ROWS", chunk):
            r_chunked = chunked.run(trace, backend=backend)
        assert r_chunked == r_whole == r_ref  # bit-exact float comparison
        _assert_hierarchy_equal(chunked.hierarchy, whole.hierarchy)
        _assert_hierarchy_equal(chunked.hierarchy, ref.hierarchy)


def test_engines_can_interleave_on_one_model():
    """Per-event then columnar replay on one model: state stays consistent."""
    cfg = HardwareConfig.paper2_rvv(512, 1.0)
    trace = _kernel_trace(DirectConv(), 512)
    mixed = TraceTimingModel(cfg)
    r1 = sequential_replay(mixed, trace)
    r2 = mixed.run(trace)
    ref = TraceTimingModel(cfg)
    assert r1 == sequential_replay(ref, trace)
    assert r2 == sequential_replay(ref, trace)
    _assert_hierarchy_equal(mixed.hierarchy, ref.hierarchy)


def test_flush_starts_cold_in_both_engines():
    cfg = HardwareConfig.paper2_rvv(512, 1.0)
    trace = _kernel_trace(DirectConv(), 512)
    seq = TraceTimingModel(cfg)
    bat = TraceTimingModel(cfg)
    seq.run(trace)
    bat.run(trace)
    assert sequential_replay(seq, trace, flush=True) == bat.run(trace, flush=True)
    _assert_hierarchy_equal(seq.hierarchy, bat.hierarchy)


# --------------------------------------------------------------------- #
# trace column/stream plumbing
# --------------------------------------------------------------------- #
def test_memory_line_stream_matches_per_op_expansion():
    trace = _kernel_trace(WinogradConv(), 256)
    line_bytes = 64
    lines, op_ids = trace.memory_line_stream(line_bytes)
    ops = memory_ops(trace)
    expected = [line_addresses(op, line_bytes) for op in ops]
    assert np.array_equal(lines, np.concatenate(expected))
    expected_ids = np.repeat(np.arange(len(ops)), [e.size for e in expected])
    assert np.array_equal(op_ids, expected_ids)


@st.composite
def _line_stream_cases(draw):
    """A trace of random memory ops (strides around the line size, unaligned
    bases, indexed ops whose offset count differs from ``vl``) between other
    rows, and the line size."""
    line = draw(st.sampled_from([16, 64, 256]))
    trace = InstructionTrace()
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.booleans()):
            trace.emit_scalar("loop", 1)
        elem = draw(st.sampled_from([1, 2, 4, 8]))
        stride = draw(st.sampled_from([
            0, elem, -elem, line - 4, 4 - line, line, -line,
            line + 4, -line - 4, 3 * line, -3 * line,
        ]))
        indices = draw(
            st.none()
            | st.lists(st.integers(-line, 8 * line), max_size=70).map(tuple)
        )
        emit(trace, MemoryOp(
            "vle" if indices is None else "vluxei",
            draw(st.integers(0, 1 << 16)), elem, draw(st.integers(0, 64)),
            stride, draw(st.booleans()), indices,
        ))
    return trace, line


@given(case=_line_stream_cases())
@settings(max_examples=120, deadline=None)
def test_memory_line_stream_matches_line_addresses(case):
    """The closed-form line expansion equals the per-element one, op by op."""
    trace, line = case
    lines, op_ids = trace.memory_line_stream(line)
    expected = [line_addresses(op, line) for op in memory_ops(trace)]
    assert np.array_equal(lines, np.concatenate([np.empty(0, np.int64), *expected]))
    expected_ids = np.repeat(np.arange(len(expected)), [e.size for e in expected])
    assert np.array_equal(op_ids, expected_ids)
    # two consecutive row ranges expand to the two pieces of the stream
    cut = len(expected) // 2
    head, head_ids = trace.memory_line_stream(line, 0, cut)
    tail, tail_ids = trace.memory_line_stream(line, cut)
    assert np.array_equal(np.concatenate([head, tail]), lines)
    assert np.array_equal(np.concatenate([head_ids, tail_ids + cut]), op_ids)


def test_columns_are_read_only_views():
    trace = _kernel_trace(DirectConv(), 128)
    cols = trace.columns()
    assert len(cols.vl) == trace.stats.memory_instrs > 0
    with pytest.raises(ValueError):
        cols.vl[0] = 99


def test_batched_engine_rejects_foreign_events():
    """Replay takes an :class:`InstructionTrace` and nothing else: only
    ``emit`` writes trace rows, and raw events or event lists are refused."""
    assert not hasattr(InstructionTrace(), "append")
    model = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0))
    op = MemoryOp("vle", 0, 4, 16, 4, False)
    for not_a_trace in ([], ["bogus"], [op], op, "trace", None):
        with pytest.raises(SimulationError, match="needs an InstructionTrace"):
            model.run(not_a_trace)


def test_unknown_engine_rejected():
    """There is one replay path, so ``run`` takes no ``engine`` choice."""
    cfg = HardwareConfig.paper2_rvv(512, 1.0)
    with pytest.raises(TypeError, match="engine"):
        TraceTimingModel(cfg).run(InstructionTrace(), engine="sequential")


def test_trace_report_uses_batched_replay():
    from repro.experiments.trace_report import report

    spec = ConvSpec(ic=4, oc=6, ih=10, iw=10, kh=3, kw=3, stride=1, pad=1, index=1)
    result = report(spec, HardwareConfig.paper2_rvv(512, 1.0))
    assert set(result.data["trace_cycles"]) == set(result.data["analytical_cycles"])
    for name, cycles in result.data["trace_cycles"].items():
        assert cycles > 0
        assert result.data["events"][name] > 0


# --------------------------------------------------------------------- #
# backend registry
# --------------------------------------------------------------------- #
def test_backend_registry_resolution():
    assert "numpy" in available_backends()
    assert resolve_backend("numpy").name == "numpy"
    expected_auto = "compiled" if HAVE_NUMBA else "numpy"
    assert resolve_backend("auto").name == expected_auto
    assert resolve_backend(None).name == expected_auto
    with pytest.raises(SimulationError, match="unknown replay backend"):
        resolve_backend("warp")


@pytest.mark.skipif(HAVE_NUMBA, reason="Numba is installed")
def test_compiled_backend_unavailable_names_the_extra():
    assert available_backends() == ("numpy",)
    with pytest.raises(SimulationError, match=r"\[compiled\] extra"):
        resolve_backend("compiled")


@_needs_numba
def test_compiled_backend_registered():
    assert "compiled" in available_backends()
    assert resolve_backend("compiled").name == "compiled"


def test_run_rejects_bad_backend_and_workers():
    """A bad backend name fails; replay is in-process, so no ``workers``."""
    model = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0))
    with pytest.raises(SimulationError, match="unknown replay backend"):
        model.run(InstructionTrace(), backend="warp")
    with pytest.raises(TypeError, match="workers"):
        model.run(InstructionTrace(), workers=2)


# --------------------------------------------------------------------- #
# misaligned-access diagnostics
# --------------------------------------------------------------------- #
def test_misaligned_stream_error_reports_count_and_addresses():
    cache = SetAssociativeCache("L1", 4 * 2 * 64, 2, 64)
    lines = np.array([0, 65, 128, 3, 130, 7, 9, 192], dtype=np.int64)
    stores = np.zeros(lines.size, dtype=bool)
    with pytest.raises(SimulationError, match="not line-aligned") as excinfo:
        simulate_cache_stream(cache, lines, stores)
    msg = str(excinfo.value)
    assert "L1: 5 of 8 accesses" in msg
    # the first few offenders, in stream order, as hex addresses
    assert "0x41, 0x3, 0x82, 0x7" in msg
    assert msg.endswith("...)")  # more offenders than shown
    assert "0x9" not in msg  # truncated after the first four
    # the stream was rejected before any state mutation
    assert cache.stats.accesses == 0 and cache._tick == 0


def test_misaligned_error_without_truncation():
    cache = SetAssociativeCache("L1", 4 * 2 * 64, 2, 64)
    lines = np.array([64, 66], dtype=np.int64)
    with pytest.raises(SimulationError, match="1 of 2 accesses") as excinfo:
        simulate_cache_stream(cache, lines, np.zeros(2, dtype=bool))
    assert "..." not in str(excinfo.value)


def test_line_address_of_the_invalid_tag_is_refused():
    # with 1-byte lines every address is aligned, but -1 marks invalid ways
    cache = SetAssociativeCache("L1", 4 * 2, 2, 1)
    lines = np.array([5, -1, 3], dtype=np.int64)
    with pytest.raises(SimulationError, match="-1 is the invalid-way tag"):
        simulate_cache_stream(cache, lines, np.zeros(3, dtype=bool))
    assert cache.stats.accesses == 0 and cache._tick == 0
    # other negative line addresses replay like any other line
    hits, _, _ = simulate_cache_stream(
        cache, np.array([-2, -2, 7], dtype=np.int64), np.zeros(3, dtype=bool)
    )
    assert hits.tolist() == [False, True, False]


def test_numpy_replay_ticks_up_to_the_limit_of_its_lru_keys():
    # the NumPy replay packs tick << log2(assoc) | way into int64 keys:
    # the last tick that fits replays like the per-access walk ...
    ref = SetAssociativeCache("L1", 2 * 2 * 64, 2, 64)
    fast = SetAssociativeCache("L1", 2 * 2 * 64, 2, 64)
    ref._tick = fast._tick = (1 << 60) - 6
    lines = np.array([0, 128, 0, 256, 128], dtype=np.int64)
    stores = np.array([True, False, False, True, False])
    expected = [cache_access(ref, int(a), bool(s)) for a, s in zip(lines, stores)]
    hits, wbs, victims = simulate_cache_stream(
        fast, lines, stores, backend="numpy"
    )
    assert [(bool(h), int(v) if w else None) for h, w, v in zip(
        hits, wbs, victims
    )] == expected
    assert np.array_equal(ref._lru, fast._lru)
    assert np.array_equal(ref._tags, fast._tags)
    # ... and one more is refused before any state changes
    with pytest.raises(SimulationError, match=r"limit 2\*\*60"):
        simulate_cache_stream(
            fast, lines[:1], stores[:1], backend="numpy"
        )
    assert fast.stats.accesses == 5 and fast._tick == (1 << 60) - 1
