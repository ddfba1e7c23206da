"""Engine batches against the per-cell oracle, whatever the batch holds.

One ``evaluate_many(..., on_error="record")`` call carries its distinct
cold cells through the schedule memo, one table and one evaluation.
This property draws whole sequences of batches — cache hits beside
misses, duplicate tasks, Winograd on layers it does not apply to, with
and without the Winograd* fallback, algorithms that are and are not
memoized, injected ``cell.error`` faults, custom calibrations, disabled
caches and capacity-1 LRUs, from one task up to the full 1,792-task
paper grid — and checks each batch against
``tests/oracle.py::percell_records``:

* every record is bit-identical to the oracle's (``records_identical``),
  and every error record equal to the oracle's;
* ``cycles`` and ``dram_bytes`` carry the IEEE-754 bytes of the oracle
  record's phases folded left to right, before and after ``phases`` is
  first read;
* the LRU ends with the statistics and the entry order of a reference
  LRU fed the batch one task at a time: a lookup per task in order, then
  a store per distinct, successfully computed missing key in first-seen
  order.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.algorithms.registry import ALGORITHM_NAMES, effective_algorithm
from repro.engine import CellError, EvalTask, EvaluationEngine, MemoCache
from repro.engine.executor import _cell_token
from repro.engine.keys import calibration_fingerprint, canonical_json
from repro.errors import InjectedFaultError
from repro.nn.layer import ConvSpec
from repro.nn.models import vgg16_conv_specs, yolov3_conv_specs
from repro.simulator.analytical.calibration import Calibration
from repro.simulator.hwconfig import HardwareConfig
from tests.oracle import percell_records, records_identical

#: The contenders, one schedule-search variant, and two algorithms whose
#: schedule reads are undeclared (never memoized).
ALGORITHMS = ALGORITHM_NAMES + ("direct@uw=8", "fft", "im2col_gemm_naive")

SPECS = [
    ConvSpec(ic=8, oc=16, ih=12, iw=12, index=1),
    ConvSpec(ic=16, oc=8, ih=10, iw=10, kh=1, kw=1, pad=0, index=2),  # 1x1
    ConvSpec(ic=8, oc=24, ih=14, iw=14, stride=2, index=3),  # stride 2
    ConvSpec(ic=32, oc=64, ih=16, iw=16, index=4),
]

CALIBRATIONS = [None, Calibration(dram_efficiency=0.71, phase_startup=123.0)]

#: The Paper II grid: 28 layers x 4 algorithms on 16 configurations.
PAPER_LAYERS = vgg16_conv_specs() + yolov3_conv_specs()

#: Seeds of ``cell.error`` plans; ``None`` runs with no plan.
FAULT_PLANS = [None, "seed=3,cell.error=0.3", "seed=11,cell.error=0.6"]


def configs():
    return st.builds(
        HardwareConfig.paper2_rvv,
        vlen_bits=st.sampled_from([512, 1024, 2048, 4096]),
        l2_mib=st.sampled_from([1.0, 2.5, 64.0])
        | st.floats(1.0, 64.0, allow_nan=False),
    )


def small_batches(pool):
    """1-40 tasks over a few shared configs, so batches repeat cells."""
    task = st.builds(
        EvalTask,
        algorithm=st.sampled_from(ALGORITHMS),
        spec=st.sampled_from(SPECS),
        hw=st.sampled_from(pool),
        fallback=st.booleans(),
    )
    return st.lists(task, min_size=1, max_size=40)


@st.composite
def full_grids(draw):
    """The 1,792-task grid on 16 drawn configurations (4 per VLEN)."""
    hws = [
        HardwareConfig.paper2_rvv(vlen, draw(st.floats(1.0, 64.0)))
        for vlen in (512, 1024, 2048, 4096)
        for _ in range(4)
    ]
    return [
        EvalTask(name, spec, hw)
        for spec in PAPER_LAYERS
        for hw in hws
        for name in ALGORITHM_NAMES
    ]


@st.composite
def scenarios(draw):
    pool = draw(st.lists(configs(), min_size=1, max_size=3))
    batches = draw(st.lists(small_batches(pool), min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:  # one full grid among the batches
        batches.insert(draw(st.integers(0, len(batches))), draw(full_grids()))
    return {
        "batches": batches,
        "capacity": draw(st.sampled_from([1, 2, 8192])),
        "use_cache": draw(st.booleans()),
        "calibration": draw(st.sampled_from(CALIBRATIONS)),
        "plan": draw(st.sampled_from(FAULT_PLANS)),
    }


class ReferenceLru:
    """The LRU semantics the engine keeps: stats, touches and evictions."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: OrderedDict = OrderedDict()
        self.stats = {"hits": 0, "misses": 0, "stores": 0, "evictions": 0}

    def get(self, key) -> bool:
        if key not in self.entries:
            self.stats["misses"] += 1
            return False
        self.entries.move_to_end(key)
        self.stats["hits"] += 1
        return True

    def put(self, key) -> None:
        self.stats["stores"] += 1
        self.entries[key] = None
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.stats["evictions"] += 1


def lru_key(task: EvalTask, calibration) -> tuple:
    name = task.algorithm
    if task.fallback:
        name = effective_algorithm(name, task.spec).name
    return (
        name,
        canonical_json(task.spec),
        canonical_json(task.hw),
        calibration_fingerprint(calibration),
    )


def expected_batch(tasks, oracle, lru: ReferenceLru, use_cache, calibration):
    """What one batch returns, and the reference LRU after it."""
    plan = faults.active_plan()
    out: list = [None] * len(tasks)
    missing: OrderedDict = OrderedDict()
    for i, task in enumerate(tasks):
        key = lru_key(task, calibration)
        if use_cache and lru.get(key):
            out[i] = oracle[i]
        else:
            missing.setdefault(key, []).append(i)
    for key, indices in missing.items():
        want = oracle[indices[0]]
        token = _cell_token(key[0], tasks[indices[0]].spec, tasks[indices[0]].hw)
        if plan is not None and plan.cell_fails(token):
            exc = InjectedFaultError(f"injected cell error for {token}")
            want = CellError.from_exception(
                key[0], tasks[indices[0]].spec, tasks[indices[0]].hw, exc
            )
        elif use_cache and not isinstance(want, CellError):
            lru.put(key)
        for i in indices:
            out[i] = want
    return out


def fold(values) -> bytes:
    """IEEE-754 bytes of a left-to-right float sum."""
    total = 0.0
    for value in values:
        total += value
    return struct.pack("<d", total)


def assert_same(got, want) -> None:
    if isinstance(want, CellError):
        assert got == want
        return
    # the totals a grid-built record holds, before ``phases`` is read
    assert struct.pack("<d", got.cycles) == fold(p.cycles for p in want.phases)
    assert struct.pack("<d", got.dram_bytes) == fold(
        p.dram_bytes for p in want.phases
    )
    assert records_identical(got, want)
    # and once ``phases`` is read, the record folds its own list
    assert struct.pack("<d", got.cycles) == fold(p.cycles for p in want.phases)


@settings(max_examples=30, deadline=None)
@given(scenario=scenarios())
def test_batches_match_the_percell_oracle(scenario):
    calibration = scenario["calibration"]
    use_cache = scenario["use_cache"]
    engine = EvaluationEngine(
        cache=MemoCache(capacity=scenario["capacity"]),
        calibration=calibration,
        use_cache=use_cache,
    )
    lru = ReferenceLru(scenario["capacity"])
    with faults.inject(scenario["plan"]):
        for tasks in scenario["batches"]:
            oracle = percell_records(tasks, calibration=calibration)
            want = expected_batch(tasks, oracle, lru, use_cache, calibration)
            got = engine.evaluate_many(tasks, on_error="record")
            assert len(got) == len(tasks)
            for g, w in zip(got, want):
                assert_same(g, w)
    stats = engine.cache.stats
    assert {name: getattr(stats, name) for name in lru.stats} == lru.stats
    assert list(engine.cache._memory) == list(lru.entries)
