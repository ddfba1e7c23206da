"""Property tests for the evaluation engine (hypothesis).

Pins the invariants everything else leans on:

* the content-addressed key is *injective* on distinct inputs, *stable*
  under payload dict/field reordering, and the memoized derivation equals
  the full-payload encoding byte for byte;
* the engine's output order equals the per-task order for any shuffled
  submission order;
* the engine's schedule memo serves two configs that agree on the fields
  an algorithm's schedule reads the records ``layer_cycles`` derives for
  each, whichever the engine saw first.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm, layer_cycles
from repro.engine import EvalTask, EvaluationEngine, cache_key
from repro.engine.keys import (
    SCHEMA_VERSION,
    calibration_fingerprint,
    dataclass_payload,
    key_from_payload,
)
from repro.nn.layer import ConvSpec
from repro.simulator.analytical.calibration import _POSITIVE_FIELDS, Calibration
from repro.simulator.hwconfig import HardwareConfig, VectorUnitStyle
from tests.oracle import records_identical

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #

conv_specs = st.builds(
    ConvSpec,
    ic=st.integers(1, 64),
    oc=st.integers(1, 64),
    ih=st.integers(8, 64),
    iw=st.integers(8, 64),
    kh=st.sampled_from([1, 3, 5]),
    kw=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    index=st.integers(0, 30),
)

hw_configs = st.builds(
    HardwareConfig.paper2_rvv,
    vlen_bits=st.sampled_from([512, 1024, 2048, 4096]),
    l2_mib=st.sampled_from([1.0, 4.0, 16.0, 64.0]),
)

algorithms = st.sampled_from(ALGORITHM_NAMES)


def _number(lo: float, hi: float):
    """A float field's value, sometimes spelled as an int (``1`` for ``1.0``)."""
    return st.one_of(st.floats(lo, hi), st.integers(int(lo) + 1, int(hi)))


#: Every HardwareConfig field, over values its validation accepts.  ISA
#: and LMUL are drawn together (SVE has no LMUL register grouping).
HW_FIELDS = {
    "name": st.text(max_size=8),
    "vlen_bits": st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096, 8192]),
    "style": st.sampled_from(VectorUnitStyle),
    "vector_lanes": st.integers(1, 16),
    "freq_ghz": _number(0.5, 4.0),
    "l1_kib": st.integers(1, 256),
    "l1_assoc": st.sampled_from([1, 2, 4, 8]),
    "l1_latency": st.integers(1, 10),
    "line_bytes": st.sampled_from([32, 64, 128, 256]),
    "l2_mib": _number(0.25, 128.0),
    "l2_assoc": st.sampled_from([4, 8, 16]),
    "l2_latency": st.integers(5, 60),
    "dram_bw_gib_s": _number(1.0, 100.0),
    "dram_latency": st.integers(10, 300),
    "software_prefetch": st.booleans(),
    "hardware_prefetch": st.booleans(),
    "out_of_order": st.booleans(),
    "isa": st.sampled_from(["rvv", "sve"]),
    "lmul": st.sampled_from([1, 2, 4, 8]),
}


@st.composite
def any_hw(draw) -> HardwareConfig:
    values = {name: draw(strategy) for name, strategy in HW_FIELDS.items()}
    if values["isa"] == "sve":
        values["lmul"] = 1
    return HardwareConfig(**values)


def _cal_value(f):
    if f.type == "bool":
        return st.one_of(st.booleans(), st.sampled_from([0, 1]))
    if f.name in _POSITIVE_FIELDS:
        # Calibration rejects values that are not > 0 in these fields
        # (tests/test_analytical.py::TestCalibration covers that region)
        return st.one_of(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            st.integers(1, 4),
        )
    return st.one_of(st.floats(), st.integers(-4, 4))


#: Random Calibrations: any float (signed zeros, infinities and NaN
#: included) or int spelling in every numeric field, except positive
#: finite values only in the three divisor fields.
any_calibration = st.builds(
    Calibration, **{f.name: _cal_value(f) for f in fields(Calibration)}
)

#: Layers over every ConvSpec field.
any_spec = st.builds(
    ConvSpec,
    ic=st.integers(1, 64),
    oc=st.integers(1, 64),
    ih=st.integers(8, 64),
    iw=st.integers(8, 64),
    kh=st.sampled_from([1, 3, 5]),
    kw=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    pad=st.sampled_from([-1, 0, 1, 2]),
    index=st.integers(0, 30),
    activation=st.sampled_from(["linear", "leaky", "relu"]),
    batch_normalize=st.one_of(st.booleans(), st.sampled_from([0, 1])),
)


# ---------------------------------------------------------------------- #
# key properties
# ---------------------------------------------------------------------- #

@given(a1=algorithms, s1=conv_specs, h1=hw_configs,
       a2=algorithms, s2=conv_specs, h2=hw_configs)
def test_key_injective_on_distinct_inputs(a1, s1, h1, a2, s2, h2):
    """Equal inputs -> equal keys; distinct inputs -> distinct keys."""
    k1 = cache_key(a1, s1, h1)
    k2 = cache_key(a2, s2, h2)
    if (a1, s1, h1) == (a2, s2, h2):
        assert k1 == k2
    else:
        assert k1 != k2


@given(spec=conv_specs, hw=hw_configs, algo=algorithms, data=st.data())
def test_key_stable_under_field_reordering(spec, hw, algo, data):
    """Payload dict insertion order must never change the key."""
    payload = {
        "schema": 1,
        "algorithm": algo,
        "spec": dataclass_payload(spec),
        "hw": dataclass_payload(hw),
        "calibration": "abc",
    }

    def shuffled(d: dict) -> dict:
        keys = data.draw(st.permutations(sorted(d)))
        return {
            k: shuffled(d[k]) if isinstance(d[k], dict) else d[k] for k in keys
        }

    assert key_from_payload(payload) == key_from_payload(shuffled(payload))


@given(spec=conv_specs, hw=hw_configs)
def test_key_separates_every_hardware_axis(spec, hw):
    """Perturbing any single grid axis must change the key."""
    base = cache_key("direct", spec, hw)
    assert cache_key("direct", spec, hw.with_(l2_mib=hw.l2_mib * 2)) != base
    assert cache_key("direct", spec, hw.with_(lmul=2)) != base
    assert cache_key("direct", spec, hw.with_(dram_bw_gib_s=25.6)) != base


@given(
    algo=st.one_of(algorithms, st.text()),
    spec=any_spec,
    hw=any_hw(),
    cal=st.one_of(st.none(), any_calibration),
)
@settings(max_examples=300, deadline=None)
def test_memoized_key_equals_full_payload_key(algo, spec, hw, cal):
    """The key spliced from memoized fragments is the full-payload key."""
    payload = {
        "schema": SCHEMA_VERSION,
        "algorithm": algo,
        "spec": dataclass_payload(spec),
        "hw": dataclass_payload(hw),
        "calibration": calibration_fingerprint(cal),
    }
    assert cache_key(algo, spec, hw, cal) == key_from_payload(payload)


# ---------------------------------------------------------------------- #
# batch ordering
# ---------------------------------------------------------------------- #

_SPECS = [ConvSpec(ic=4 * (i + 1), oc=8, ih=12, iw=12, index=i) for i in range(3)]
_HW = HardwareConfig.paper2_rvv(512, 1.0)
_TASKS = [EvalTask(name, s, _HW) for s in _SPECS for name in ALGORITHM_NAMES]


@given(order=st.permutations(range(len(_TASKS))))
@settings(max_examples=20, deadline=None)
def test_serial_batch_order_matches_submission_order(order):
    """evaluate_many returns records aligned with the (shuffled) input."""
    shuffled = [_TASKS[i] for i in order]
    records = EvaluationEngine().evaluate_many(shuffled)
    for task, record in zip(shuffled, records):
        assert records_identical(record, layer_cycles(task.algorithm, task.spec, _HW))


# ---------------------------------------------------------------------- #
# schedule memo
# ---------------------------------------------------------------------- #

#: The four contenders plus one schedule-search variant of each knobbed
#: template (Winograd's template has no knobs: its only variant is the
#: menu entry).
MEMO_ALGORITHMS = ALGORITHM_NAMES + (
    "direct@uw=8",
    "im2col_gemm3@u=8",
    "im2col_gemm6@bm=32,bn=1024,bk=256",
)


@st.composite
def memo_twins(draw, algorithm: str):
    """A layer the algorithm applies to, and two configs that agree on the
    fields its schedule reads and differ in every other field they can
    (an SVE config has LMUL 1, so the ISA differs only at LMUL 1)."""
    algo = get_algorithm(algorithm)
    spec = draw(any_spec)
    if not algo.applicable(spec):
        spec = replace(spec, kh=3, kw=3, stride=1, pad=1)
    a = draw(any_hw())
    changes = {}
    for name, strategy in HW_FIELDS.items():
        if name in algo.schedule_reads or (name == "isa" and a.lmul != 1):
            continue
        current = getattr(a, name)
        changes[name] = draw(strategy.filter(lambda v, c=current: v != c))
    return spec, a, replace(a, **changes)


@pytest.mark.parametrize("algorithm", MEMO_ALGORITHMS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_schedule_memo_matches_layer_cycles_in_both_orders(algorithm, data):
    """Configs sharing one memo entry still get their own records."""
    spec, a, b = data.draw(memo_twins(algorithm))
    want = {
        id(hw): layer_cycles(algorithm, spec, hw, fallback=False) for hw in (a, b)
    }
    for first, second in ((a, b), (b, a)):
        engine = EvaluationEngine()
        for hw in (first, second):
            record = engine.evaluate(algorithm, spec, hw, fallback=False)
            assert records_identical(record, want[id(hw)])
        # the second config was served from the first one's memo entry
        assert (engine.schedules.misses, engine.schedules.hits) == (1, 1)
