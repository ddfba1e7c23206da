"""The engine's schedule memo (``repro.engine.executor.ScheduleMemo``).

The memo keys each schedule on the hardware fields its algorithm declares
(``ConvAlgorithm.schedule_reads``).  These tests pin the declarations
themselves — a recording proxy shows every memoized schedule reads no
other field — and the memo's bound, fallbacks and observability.  The
order-independence property lives in ``test_property_engine.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm, layer_cycles
from repro.engine import EvalTask, EvaluationEngine, executor
from repro.engine.executor import ScheduleMemo
from repro.nn.layer import ConvSpec
from repro.nn.models import vgg16_conv_specs, yolov3_conv_specs
from repro.simulator.analytical.grid import PhaseRows
from repro.simulator.hwconfig import HardwareConfig

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


def records_equal(a, b) -> bool:
    return a.algorithm == b.algorithm and [
        p.__dict__ for p in a.phases
    ] == [p.__dict__ for p in b.phases]


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
            assert records_equal(record, layer_cycles("direct", spec, hw))
    assert engine.schedules.misses == len(flips)


# ---------------------------------------------------------------------- #
# the memo itself
# ---------------------------------------------------------------------- #
def test_l2_sweep_builds_each_schedule_once():
    specs = vgg16_conv_specs()[:4]
    configs = [HardwareConfig.paper2_rvv(512, l2) for l2 in (1.0, 4.0, 16.0, 64.0)]
    engine = EvaluationEngine()
    records = engine.sweep(specs, configs, ALGORITHM_NAMES)
    for (si, ci, name), record in records.items():
        assert records_equal(record, layer_cycles(name, specs[si], configs[ci]))
    applicable = sum(
        get_algorithm(name).applicable(spec)
        for spec in specs for name in ALGORITHM_NAMES
    )
    assert len(engine.schedules) == engine.schedules.misses == applicable
    assert engine.schedules.hits == 3 * applicable


def test_memo_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(executor, "_SCHEDULE_MEMO_SIZE", 2)
    memo = ScheduleMemo()
    algo = get_algorithm("im2col_gemm3")
    spec = SPECS[0]
    hws = [HardwareConfig.paper2_rvv(v, 1.0) for v in (512, 1024, 2048)]
    for hw in hws + hws[-1:]:
        assert rows_equal(
            memo.rows(algo, spec, hw), PhaseRows.from_phases(algo.schedule(spec, hw))
        )
    assert len(memo) == 2 and (memo.misses, memo.hits) == (3, 1)
    memo.rows(algo, spec, hws[0])  # evicted first: a miss again
    assert memo.misses == 4


def test_undeclared_algorithms_bypass_the_memo():
    engine = EvaluationEngine()
    spec, hw = SPECS[0], CONFIGS[0]
    for name in ("fft", "im2col_gemm_naive"):
        assert get_algorithm(name).schedule_reads is None
        record = engine.evaluate(name, spec, hw)
        assert records_equal(record, layer_cycles(name, spec, hw))
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
    assert hits == misses == rec.counters.get("engine.grid_cells") / 2
