"""The engine's schedule memo (``repro.engine.cache.ScheduleMemo``).

The memo keys each schedule on the hardware fields its algorithm declares
(``ConvAlgorithm.schedule_reads``), and a batch asks it once per distinct
entry.  These tests pin the declarations
themselves — a recording proxy shows every memoized schedule reads no
other field — and the memo's bound, fallbacks and observability.  The
order-independence property lives in ``test_property_engine.py``.
"""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm, layer_cycles
from repro.engine import EvalTask, EvaluationEngine
from repro.engine import cache as engine_cache
from repro.engine.cache import ScheduleMemo
from repro.engine.keys import canonical_json
from repro.nn.layer import ConvSpec
from repro.nn.models import vgg16_conv_specs, yolov3_conv_specs
from repro.simulator.analytical.cachemodel import stream_dram_bytes
from repro.simulator.analytical.grid import PhaseRows
from repro.simulator.analytical.model import AnalyticalTimingModel
from repro.simulator.hwconfig import HardwareConfig
from tests.oracle import records_identical

#: The contenders plus one schedule-search variant of each knobbed template.
MEMOIZED = ALGORITHM_NAMES + (
    "direct@uw=8",
    "im2col_gemm3@u=8",
    "im2col_gemm6@bm=32,bn=1024,bk=256",
)

SPECS = vgg16_conv_specs() + yolov3_conv_specs() + [
    ConvSpec(ic=8, oc=12, ih=10, iw=10, stride=2, index=90),
    ConvSpec(ic=300, oc=3, ih=9, iw=9, kh=1, kw=1, pad=0, index=91),
]

CONFIGS = [
    HardwareConfig.paper2_rvv(512, 1.0),
    HardwareConfig.paper2_rvv(4096, 64.0).with_(lmul=4),
    HardwareConfig.paper1_riscvv(1024, 2.0, lanes=4),
    HardwareConfig.paper1_armsve(2048, 8.0),
    HardwareConfig.a64fx().with_(l1_kib=16),
]


class RecordingConfig:
    """Stands in for a HardwareConfig and records every field read.

    Properties run against the proxy, so a derived quantity records the
    fields it is computed from (``vlmax_f32`` records ``lmul`` and
    ``vlen_bits``, ``l1_bytes`` records ``l1_kib``).
    """

    def __init__(self, hw: HardwareConfig) -> None:
        self._hw = hw
        self.read: set[str] = set()

    def __getattr__(self, name: str):
        attr = getattr(type(self._hw), name, None)
        if isinstance(attr, property):
            return attr.fget(self)
        self.read.add(name)
        return getattr(self._hw, name)


def rows_equal(a: PhaseRows, b: PhaseRows) -> bool:
    return a.names == b.names and all(
        np.array_equal(x, y) for x, y in zip(a[1:], b[1:])
    )


def _cells(name):
    algo = get_algorithm(name)
    return [(spec, hw) for spec in SPECS for hw in CONFIGS if algo.applicable(spec)]


# ---------------------------------------------------------------------- #
# the read-set declarations
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", MEMOIZED)
def test_candidates_read_only_the_declared_fields(name):
    algo = get_algorithm(name)
    assert algo.schedule_reads is not None, "every contender is memoized"
    for spec, hw in _cells(name):
        proxy = RecordingConfig(hw)
        candidates = algo.schedule_candidates(spec, proxy)
        assert proxy.read <= set(algo.schedule_reads), (spec.index, hw.name)
        assert candidates == algo.schedule_candidates(spec, hw)


@pytest.mark.parametrize("name", MEMOIZED)
def test_schedule_is_the_chosen_candidate(name):
    algo = get_algorithm(name)
    for spec, hw in _cells(name):
        candidates = algo.schedule_candidates(spec, hw)
        assert algo.schedule(spec, hw) == candidates[
            algo.choose_candidate(candidates, hw)
        ]


def test_direct_choice_depends_on_the_l2_size():
    """The case the per-call choice exists for: one entry, two tilings."""
    direct = get_algorithm("direct")
    small, large = (HardwareConfig.paper2_rvv(512, l2) for l2 in (1.0, 64.0))
    flips = []
    for spec in SPECS:
        candidates = direct.schedule_candidates(spec, small)
        if direct.choose_candidate(candidates, small) != direct.choose_candidate(
            candidates, large
        ):
            flips.append(spec)
    assert flips, "no layer changes tiling between 1 MB and 64 MB"
    engine = EvaluationEngine()
    for hw in (small, large, small):
        for spec in flips:
            record = engine.evaluate("direct", spec, hw)
            assert records_identical(record, layer_cycles("direct", spec, hw))
    assert engine.schedules.misses == len(flips)


DIRECT = get_algorithm("direct")
PAPER_LAYERS = vgg16_conv_specs() + yolov3_conv_specs()
VLENS = (512, 1024, 2048, 4096)
#: One byte of L2, in MiB.
BYTE_MIB = 2.0**-20


def direct_pick_oracle(candidates, hw: HardwareConfig) -> int:
    """Direct's tiling choice spelled out: the least summed
    ``stream_dram_bytes`` over each tiling's own streams (the kernel's
    streams less the shared output); ``min`` keeps the first on a tie."""

    def cost(i: int) -> float:
        return sum(stream_dram_bytes(s, hw) for s in candidates[i][-1].streams[:-1])

    return min(range(len(candidates)), key=cost)


def _direct_pick(spec: ConvSpec, vlen: int, l2_mib: float) -> int:
    hw = HardwareConfig.paper2_rvv(vlen, l2_mib)
    return DIRECT.choose_candidate(DIRECT.schedule_candidates(spec, hw), hw)


@cache
def direct_crossovers() -> tuple[tuple[ConvSpec, int, float], ...]:
    """(layer, VLEN, L2 size) where Direct's tiling flips, bisected to one
    byte of L2, for every paper layer and VLEN whose pick differs between
    1 and 64 MB."""
    out = []
    for spec in PAPER_LAYERS:
        for vlen in VLENS:
            small = _direct_pick(spec, vlen, 1.0)
            if small == _direct_pick(spec, vlen, 64.0):
                continue
            lo, hi = 1.0, 64.0  # small's side, the other side
            while hi - lo > BYTE_MIB / 2:
                mid = (lo + hi) / 2
                if _direct_pick(spec, vlen, mid) == small:
                    lo = mid
                else:
                    hi = mid
            out.append((spec, vlen, hi))
    return tuple(out)


@st.composite
def direct_cells(draw) -> tuple[ConvSpec, HardwareConfig]:
    """A paper layer on an L2 size anywhere in 1-64 MB, or within 64 bytes
    of a size where Direct's tiling flips."""
    if draw(st.booleans()):
        spec, vlen, l2_mib = draw(st.sampled_from(direct_crossovers()))
        l2_mib += draw(st.integers(-64, 64)) * BYTE_MIB
    else:
        spec = draw(st.sampled_from(PAPER_LAYERS))
        vlen = draw(st.sampled_from(VLENS))
        l2_mib = draw(st.floats(1.0, 64.0))
    return spec, HardwareConfig.paper2_rvv(vlen, l2_mib)


@settings(max_examples=200, deadline=None)
@given(cell=direct_cells())
def test_engine_direct_pick_equals_choose_candidate(cell):
    """The engine picks Direct's tiling from a memo entry built at another
    L2 size; its record is the one of ``choose_candidate``'s pick."""
    spec, hw = cell
    assert direct_crossovers(), "no paper layer flips tiling in 1-64 MB"
    candidates = DIRECT.schedule_candidates(spec, hw)
    pick = DIRECT.choose_candidate(candidates, hw)
    assert pick == direct_pick_oracle(candidates, hw)
    engine = EvaluationEngine(use_cache=False)
    engine.evaluate("direct", spec, HardwareConfig.paper2_rvv(hw.vlen_bits, 1.0))
    record = engine.evaluate("direct", spec, hw)
    assert (engine.schedules.misses, engine.schedules.hits) == (1, 1)
    want = AnalyticalTimingModel(hw).evaluate("direct", candidates[pick])
    assert records_identical(record, want)


@settings(max_examples=50, deadline=None)
@given(cells=st.lists(direct_cells(), min_size=1, max_size=40))
def test_direct_batched_pick_equals_choose_candidate(cells):
    """Direct's column of picks is ``choose_candidate`` cell by cell, on
    entries built at another L2 size and L2 sizes near each crossover."""
    entries, configs, entry, config = [], [], [], []
    for spec, hw in cells:
        entry.append(len(entries))
        entries.append(
            DIRECT.schedule_candidates(
                spec, HardwareConfig.paper2_rvv(hw.vlen_bits, 1.0)
            )
        )
        config.append(len(configs))
        configs.append(hw)
    # every entry on every config, in a shuffled order
    order = np.random.default_rng(len(cells)).permutation(len(cells) ** 2)
    e = np.array(entry)[order // len(cells)]
    c = np.array(config)[order % len(cells)]
    picks = DIRECT.choose_candidates(entries, configs, e, c)
    assert picks.dtype == np.int64
    assert picks.tolist() == [
        DIRECT.choose_candidate(entries[i], configs[j])
        for i, j in zip(e.tolist(), c.tolist())
    ]


def test_single_candidate_algorithms_pick_the_first():
    algo = get_algorithm("im2col_gemm3")
    hw = CONFIGS[0]
    candidates = [algo.schedule_candidates(SPECS[0], hw)]
    picks = algo.choose_candidates(candidates, [hw], np.zeros(3, np.int64),
                                   np.zeros(3, np.int64))
    assert picks.tolist() == [0, 0, 0]


# ---------------------------------------------------------------------- #
# the memo itself
# ---------------------------------------------------------------------- #
def test_l2_sweep_builds_each_schedule_once():
    specs = vgg16_conv_specs()[:4]
    configs = [HardwareConfig.paper2_rvv(512, l2) for l2 in (1.0, 4.0, 16.0, 64.0)]
    engine = EvaluationEngine()
    records = engine.sweep(specs, configs, ALGORITHM_NAMES)
    for (si, ci, name), record in records.items():
        assert records_identical(record, layer_cycles(name, specs[si], configs[ci]))
    applicable = sum(
        get_algorithm(name).applicable(spec)
        for spec in specs for name in ALGORITHM_NAMES
    )
    # one batch asks once per distinct entry: every entry is a miss
    assert len(engine.schedules) == engine.schedules.misses == applicable
    assert engine.schedules.hits == 0
    # a new batch at another L2 size: its cells are cold, its entries hits
    engine.sweep(specs, [HardwareConfig.paper2_rvv(512, 2.0)], ALGORITHM_NAMES)
    assert engine.schedules.hits == applicable


def test_memo_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(engine_cache, "_SCHEDULE_MEMO_SIZE", 2)
    memo = ScheduleMemo()
    algo = get_algorithm("im2col_gemm3")
    spec = SPECS[0]
    hws = [HardwareConfig.paper2_rvv(v, 1.0) for v in (512, 1024, 2048)]
    spec_json = canonical_json(spec)
    for hw in hws + hws[-1:]:
        candidates, (rows,) = memo.entry(algo, spec, spec_json, hw)
        assert candidates is None  # one candidate: nothing to choose
        assert rows_equal(rows, PhaseRows.from_phases(algo.schedule(spec, hw)))
    assert len(memo) == 2 and (memo.misses, memo.hits) == (3, 1)
    memo.entry(algo, spec, spec_json, hws[0])  # evicted first: a miss again
    assert memo.misses == 4


def test_undeclared_algorithms_bypass_the_memo():
    engine = EvaluationEngine()
    spec, hw = SPECS[0], CONFIGS[0]
    for name in ("fft", "im2col_gemm_naive"):
        assert get_algorithm(name).schedule_reads is None
        record = engine.evaluate(name, spec, hw)
        assert records_identical(record, layer_cycles(name, spec, hw))
    assert len(engine.schedules) == 0


def test_schedule_errors_are_not_memoized():
    engine = EvaluationEngine(use_cache=False)
    spec = ConvSpec(ic=8, oc=8, ih=12, iw=12, kh=1, kw=1, pad=0)
    for _ in range(2):
        (err,) = engine.evaluate_many(
            [EvalTask("winograd", spec, CONFIGS[0], fallback=False)],
            on_error="record",
        )
        assert err.error_type == "NotApplicableError"
    assert len(engine.schedules) == 0


def test_grid_path_spans_and_counters():
    specs = vgg16_conv_specs()[:3]
    configs = [HardwareConfig.paper2_rvv(1024, l2) for l2 in (2.0, 8.0)]
    rec = obs.enable()
    try:
        EvaluationEngine().sweep(specs, configs, ALGORITHM_NAMES)
    finally:
        obs.disable()
    names = [s.name for s in rec.spans]
    for stage in ("engine.schedule", "engine.table", "engine.evaluate",
                  "engine.assemble"):
        assert names.count(stage) == 1, stage  # one span per batch
    hits = rec.counters.get("engine.schedule_memo.hits")
    misses = rec.counters.get("engine.schedule_memo.misses")
    # the two L2 sizes share each entry, which the batch asks for once
    assert misses == rec.counters.get("engine.grid_cells") / 2
    assert not hits
