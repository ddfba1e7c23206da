"""Tests for the memoized evaluation engine (repro.engine)."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import faults, obs
from repro.algorithms.registry import ALGORITHM_NAMES, layer_cycles
from repro.engine import (
    CALIBRATION_VERSION,
    EvalTask,
    EvaluationEngine,
    MemoCache,
    cache_key,
    calibration_fingerprint,
)
from repro.engine.keys import canonical_json, dataclass_payload
from repro.nn.layer import ConvSpec
from repro.simulator.analytical.calibration import Calibration
from repro.simulator.hwconfig import HardwareConfig
from tests.oracle import percell_records, records_identical

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def spec() -> ConvSpec:
    return ConvSpec(ic=16, oc=32, ih=28, iw=28, kh=3, kw=3, index=3)


@pytest.fixture
def hw() -> HardwareConfig:
    return HardwareConfig.paper2_rvv(512, 1.0)


class TestCacheKeys:
    def test_deterministic(self, spec, hw):
        assert cache_key("direct", spec, hw) == cache_key("direct", spec, hw)

    def test_distinct_inputs_distinct_keys(self, spec, hw):
        base = cache_key("direct", spec, hw)
        assert cache_key("winograd", spec, hw) != base
        assert cache_key("direct", spec.__class__(**{
            **{f: getattr(spec, f) for f in
               ("ic", "oc", "ih", "iw", "kh", "kw", "stride", "pad", "index")},
            "ic": spec.ic + 1,
        }), hw) != base
        assert cache_key("direct", spec, hw.with_(vlen_bits=1024)) != base

    def test_calibration_changes_key(self, spec, hw):
        tweaked = Calibration(dram_efficiency=0.71)
        assert calibration_fingerprint(tweaked) != CALIBRATION_VERSION
        assert cache_key("direct", spec, hw, tweaked) != cache_key(
            "direct", spec, hw
        )

    def test_stable_across_processes(self, spec, hw):
        """The key must not depend on the interpreter's hash seed."""
        code = (
            "from repro.engine import cache_key\n"
            "from repro.nn.layer import ConvSpec\n"
            "from repro.simulator.hwconfig import HardwareConfig\n"
            "print(cache_key('direct',"
            " ConvSpec(ic=16, oc=32, ih=28, iw=28, kh=3, kw=3, index=3),"
            " HardwareConfig.paper2_rvv(512, 1.0)))"
        )
        keys = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC_DIR))
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, env=env,
            )
            keys.append(out.stdout.strip())
        assert keys[0] == keys[1] == cache_key("direct", spec, hw)

    def test_equal_configs_share_one_key_in_any_order(self, spec):
        """Equal values spelled differently (``1`` vs ``1.0``, ``1`` vs
        ``True``, ``-0.0`` vs ``0.0``) get one key: in a fresh derivation,
        through the memos in either order, and in a process that only saw
        one spelling."""
        as_int = HardwareConfig.paper2_rvv(512, 1)
        as_float = HardwareConfig.paper2_rvv(512, 1.0)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        assert dataclass_payload(as_int) == dataclass_payload(as_float)
        assert json.dumps(dataclass_payload(as_int)["l2_mib"]) == "1.0"
        normalized = spec.__class__(**{**spec.__dict__, "batch_normalize": 1})
        assert dataclass_payload(normalized)["batch_normalize"] is True
        assert calibration_fingerprint(
            Calibration(vector_issue=1)
        ) == CALIBRATION_VERSION
        assert calibration_fingerprint(
            Calibration(decoupled_deadtime=-0.0)
        ) == calibration_fingerprint(Calibration(decoupled_deadtime=0.0))
        float_key = cache_key("direct", spec, as_float)
        assert cache_key("direct", spec, as_int) == float_key
        code = (
            "from repro.engine import cache_key\n"
            "from repro.nn.layer import ConvSpec\n"
            "from repro.simulator.hwconfig import HardwareConfig\n"
            "print(cache_key('direct',"
            " ConvSpec(ic=16, oc=32, ih=28, iw=28, kh=3, kw=3, index=3),"
            " HardwareConfig.paper2_rvv(512, 1)))"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == float_key


class TestMemoCacheTiers:
    def test_hit_miss_accounting(self, spec, hw):
        cache = MemoCache()
        key = cache_key("direct", spec, hw)
        assert cache.get(key) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.put(key, layer_cycles("direct", spec, hw))
        assert cache.get(key) is not None
        assert cache.stats.hits == 1 and cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_capacity_bound(self, hw):
        cache = MemoCache(capacity=4)
        specs = [ConvSpec(ic=4, oc=4, ih=8, iw=8, index=i) for i in range(6)]
        keys = [cache_key("direct", s, hw) for s in specs]
        for s, k in zip(specs, keys):
            cache.put(k, layer_cycles("direct", s, hw))
        assert len(cache) == 4
        assert cache.stats.evictions == 2
        # oldest two evicted, newest four retained (LRU order)
        assert cache.get(keys[0]) is None and cache.get(keys[1]) is None
        assert all(cache.get(k) is not None for k in keys[2:])

    def test_lru_touch_on_get_protects_entry(self, hw):
        cache = MemoCache(capacity=2)
        specs = [ConvSpec(ic=4, oc=4, ih=8, iw=8, index=i) for i in range(3)]
        keys = [cache_key("direct", s, hw) for s in specs]
        cache.put(keys[0], layer_cycles("direct", specs[0], hw))
        cache.put(keys[1], layer_cycles("direct", specs[1], hw))
        cache.get(keys[0])  # touch: 1 becomes least-recently-used
        cache.put(keys[2], layer_cycles("direct", specs[2], hw))
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None


class TestEvaluationEngine:
    def test_cold_equals_direct_warm_equals_cold(self, spec, hw):
        """Engine records are bit-identical to direct layer_cycles calls."""
        engine = EvaluationEngine()
        for name in ALGORITHM_NAMES:
            direct = layer_cycles(name, spec, hw)
            cold = engine.evaluate(name, spec, hw)
            warm = engine.evaluate(name, spec, hw)
            assert records_identical(cold, direct)
            assert records_identical(warm, direct)
        assert engine.cache.stats.hits >= len(ALGORITHM_NAMES)

    def test_fallback_aliases_im2col_gemm6(self, hw):
        one_by_one = ConvSpec(ic=8, oc=8, ih=14, iw=14, kh=1, kw=1, index=5)
        engine = EvaluationEngine()
        assert engine.key(EvalTask("winograd", one_by_one, hw)) == engine.key(
            EvalTask("im2col_gemm6", one_by_one, hw, fallback=False)
        )
        record = engine.evaluate("winograd", one_by_one, hw)
        assert record.algorithm == "im2col_gemm6"
        assert records_identical(record, layer_cycles("winograd", one_by_one, hw))

    def test_not_applicable_raises_without_fallback(self, hw):
        from repro.errors import NotApplicableError

        one_by_one = ConvSpec(ic=8, oc=8, ih=14, iw=14, kh=1, kw=1, index=5)
        with pytest.raises(NotApplicableError):
            EvaluationEngine().evaluate(
                "winograd", one_by_one, hw, fallback=False
            )

    def test_batch_dedup_and_order(self, spec, hw):
        engine = EvaluationEngine()
        tasks = [
            EvalTask("direct", spec, hw),
            EvalTask("winograd", spec, hw),
            EvalTask("direct", spec, hw),  # duplicate of task 0
        ]
        records = engine.evaluate_many(tasks)
        assert [r.algorithm for r in records] == ["direct", "winograd", "direct"]
        assert engine.cache.stats.stores == 2  # duplicate computed once
        assert records_identical(records[0], records[2])

    def test_no_cache_mode_recomputes(self, spec, hw):
        engine = EvaluationEngine(use_cache=False)
        a = engine.evaluate("direct", spec, hw)
        b = engine.evaluate("direct", spec, hw)
        assert engine.cache.stats.stores == 0 and len(engine.cache) == 0
        assert records_identical(a, b)

    def test_rejects_bad_resilience_knobs(self):
        """``on_error`` is the engine's failure-handling knob; a bad value
        is rejected before any cell is evaluated."""
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            EvaluationEngine().evaluate_many([], on_error="ignore")


class TestLruKeys:
    """The LRU's key tuple aliases exactly what ``cache_key`` aliases."""

    @staticmethod
    def hit_on_second_spelling(engine, first, second) -> None:
        """``second`` is served from ``first``'s entry, bit for bit."""
        record = engine.evaluate(*first)
        hits = engine.cache.stats.hits
        assert records_identical(engine.evaluate(*second), record)
        assert engine.cache.stats.hits == hits + 1
        assert len(engine.cache) == 1

    def test_equal_configs_share_one_entry(self, spec):
        self.hit_on_second_spelling(
            EvaluationEngine(),
            ("direct", spec, HardwareConfig.paper2_rvv(512, 1)),
            ("direct", spec, HardwareConfig.paper2_rvv(512, 1.0)),
        )

    def test_int_and_bool_spellings_share_one_entry(self, spec, hw):
        self.hit_on_second_spelling(
            EvaluationEngine(),
            ("direct", ConvSpec(**{**spec.__dict__, "batch_normalize": 1}), hw),
            ("direct", ConvSpec(**{**spec.__dict__, "batch_normalize": True}), hw),
        )

    @pytest.mark.parametrize(
        "first, second", [(-0.0, 0.0), (float("nan"), float("nan"))],
        ids=["signed-zero", "nan"],
    )
    def test_equal_calibration_spellings_share_one_entry(
        self, spec, hw, first, second
    ):
        cache = MemoCache()
        one = EvaluationEngine(cache, Calibration(decoupled_deadtime=first))
        other = EvaluationEngine(cache, Calibration(decoupled_deadtime=second))
        record = one.evaluate("direct", spec, hw)
        assert records_identical(other.evaluate("direct", spec, hw), record)
        assert cache.stats.hits == 1 and len(cache) == 1

    def test_winograd_fallback_shares_the_gemm6_entry(self, hw):
        one_by_one = ConvSpec(ic=8, oc=8, ih=14, iw=14, kh=1, kw=1, index=5)
        self.hit_on_second_spelling(
            EvaluationEngine(),
            ("winograd", one_by_one, hw),
            ("im2col_gemm6", one_by_one, hw, False),
        )

    def test_calibrations_sharing_a_cache_never_alias(self, spec, hw):
        cache = MemoCache()
        tweaked = Calibration(dram_efficiency=0.71)
        shipped = EvaluationEngine(cache)
        custom = EvaluationEngine(cache, tweaked)
        for _ in range(2):  # cold, then warm
            assert records_identical(
                shipped.evaluate("direct", spec, hw), layer_cycles("direct", spec, hw)
            )
            assert records_identical(
                custom.evaluate("direct", spec, hw),
                layer_cycles("direct", spec, hw, calibration=tweaked),
            )
        assert (cache.stats.misses, cache.stats.hits) == (2, 2)
        assert len(cache) == 2

    @pytest.mark.parametrize(
        "numpy_fields, numpy_l2, python_fields",
        [
            ({"ic": np.int64(16)}, 1.0, {}),
            ({}, np.float32(1.0), {}),
            ({"batch_normalize": np.bool_(True)}, 1.0, {"batch_normalize": True}),
        ],
        ids=["int64-field", "float32-field", "bool_-field"],
    )
    def test_numpy_scalar_fields_share_the_python_entry(
        self, numpy_fields, numpy_l2, python_fields
    ):
        """A NumPy scalar field encodes as its Python value, even in a
        process that never encoded the Python spelling first."""
        layer = dict(ic=16, oc=32, ih=28, iw=28)
        spec = ConvSpec(**{**layer, **numpy_fields})
        hw = HardwareConfig.paper2_rvv(512, numpy_l2)
        canonical_json.cache_clear()  # no equal value encoded before
        engine = EvaluationEngine()
        record = engine.evaluate("direct", spec, hw)
        assert records_identical(record, layer_cycles("direct", spec, hw))
        self.hit_on_second_spelling(
            engine,
            ("direct", spec, hw),
            (
                "direct",
                ConvSpec(**{**layer, **python_fields}),
                HardwareConfig.paper2_rvv(512, 1.0),
            ),
        )

    def test_a_dropped_engine_keeps_no_configs_alive(self, spec):
        """Only the bounded value memo of encodings may still hold any of
        the configs a dropped engine evaluated."""
        engine = EvaluationEngine(cache=MemoCache(capacity=64))
        refs = []
        for start in range(0, 2000, 100):
            configs = [
                HardwareConfig.paper2_rvv(512, 1.0 + i / 64)
                for i in range(start, start + 100)
            ]
            refs += [weakref.ref(c) for c in configs]
            engine.evaluate_many(
                [EvalTask(name, spec, c) for c in configs for name in ALGORITHM_NAMES]
            )
        del engine, configs
        gc.collect()
        alive = sum(ref() is not None for ref in refs)
        assert alive <= canonical_json.cache_info().maxsize == 256


class TestCellErrorHandling:
    """Per-cell error isolation and dedup of failing cells."""

    @pytest.fixture
    def failing_task(self, hw) -> EvalTask:
        # winograd without fallback on a 1x1 layer raises NotApplicableError
        one_by_one = ConvSpec(ic=8, oc=8, ih=14, iw=14, kh=1, kw=1, index=5)
        return EvalTask("winograd", one_by_one, hw, fallback=False)

    def test_record_mode_isolates_and_dedups_failures(
        self, spec, hw, failing_task
    ):
        from repro.engine import CellError

        engine = EvaluationEngine()
        records = engine.evaluate_many(
            [failing_task, EvalTask("direct", spec, hw), failing_task],
            on_error="record",
        )
        assert isinstance(records[0], CellError)
        assert records[2] is records[0]  # duplicate shares one error record
        assert records[0].error_type == "NotApplicableError"
        assert records[0].layer == 5 and records[0].vlen_bits == hw.vlen_bits
        assert not isinstance(records[1], CellError)
        assert records_identical(records[1], layer_cycles("direct", spec, hw))
        assert len(engine.cache) == 1  # the failure was never cached

    def test_raise_mode_reraises_original_type_with_cell_named(
        self, failing_task
    ):
        from repro.errors import NotApplicableError

        with pytest.raises(NotApplicableError, match="winograd on layer 5"):
            EvaluationEngine().evaluate_many([failing_task])

    def test_failures_not_cached_so_retries_recompute(self, failing_task):
        from repro.engine import CellError

        engine = EvaluationEngine()
        first = engine.evaluate_many([failing_task], on_error="record")
        second = engine.evaluate_many([failing_task], on_error="record")
        assert isinstance(first[0], CellError)
        assert isinstance(second[0], CellError)
        assert second[0] is not first[0]  # recomputed, not replayed
        assert engine.cache.stats.stores == 0

    def test_injected_cell_errors_are_isolated(self):
        """~10% of a 448-cell grid fails; the rest are still bit-identical."""
        from repro.engine import CellError
        from repro.experiments.configs import workload

        specs = workload("vgg16") + workload("yolov3")
        configs = [
            HardwareConfig.paper2_rvv(v, 1.0) for v in (512, 1024, 2048, 4096)
        ]
        tasks = [
            EvalTask(name, spec, hw)
            for spec in specs for hw in configs for name in ALGORITHM_NAMES
        ]
        assert len(tasks) == 448
        baseline = percell_records(tasks)
        engine = EvaluationEngine()
        recorder = obs.enable()
        try:
            with faults.inject("seed=5,cell.error=0.1"):
                records = engine.evaluate_many(tasks, on_error="record")
            cell_errors = recorder.counters.get("engine.cell_errors")
        finally:
            obs.disable()
        errors = [r for r in records if isinstance(r, CellError)]
        assert 0 < len(errors) < len(records)
        assert all(e.error_type == "InjectedFaultError" for e in errors)
        for got, want in zip(records, baseline):
            if not isinstance(got, CellError):
                assert records_identical(got, want)
        failing_keys = {
            engine.key(t) for t, r in zip(tasks, records)
            if isinstance(r, CellError)
        }
        assert cell_errors == len(failing_keys)
        # failed cells were never cached: a fault-free pass on the same
        # engine recomputes them and converges to the full baseline
        with faults.inject(None):
            healed = engine.evaluate_many(tasks)
        for got, want in zip(healed, baseline):
            assert records_identical(got, want)


class TestDefaultEngine:
    def test_configure_default(self):
        import repro.engine as eng

        engine = eng.default_engine()
        try:
            assert eng.configure_default(use_cache=False) is engine
            assert engine.use_cache is False
            eng.configure_default()  # None leaves the setting unchanged
            assert engine.use_cache is False
        finally:
            eng.configure_default(use_cache=True)
        assert eng.default_engine() is engine

    def test_cli_flags_reach_default_engine(self, capsys):
        from repro.experiments.cli import main
        import repro.engine as eng

        try:
            # unknown experiment exits early (rc 2) but after flag plumbing
            assert main(["--no-cache", "nonexistent"]) == 2
            assert eng.default_engine().use_cache is False
        finally:
            eng.configure_default(use_cache=True)


class TestAdapters:
    """The experiment-facing entry points route through the engine."""

    def test_per_layer_seconds_uses_engine_cache(self, hw):
        from repro.experiments.common import per_layer_seconds
        from repro.experiments.configs import workload

        engine = EvaluationEngine()
        specs = workload("vgg16")[:3]
        first = per_layer_seconds(specs, hw, engine=engine)
        misses = engine.cache.stats.misses
        second = per_layer_seconds(specs, hw, engine=engine)
        assert engine.cache.stats.misses == misses  # all warm
        assert first == second

    def test_campaign_records_identical_cold_and_warm(self, hw):
        from repro.experiments.campaign import run_campaign
        from repro.experiments.configs import workload

        engine = EvaluationEngine()
        workloads = {"vgg16": workload("vgg16")[:3]}
        cold = run_campaign(workloads, [hw], engine=engine)
        warm = run_campaign(workloads, [hw], engine=engine)
        assert cold.records == warm.records
        assert engine.cache.stats.hits > 0

    def test_build_dataset_matches_best_algorithm(self, hw):
        from repro.algorithms.registry import best_algorithm
        from repro.selection.dataset import build_dataset
        from repro.experiments.configs import workload

        specs = workload("yolov3")[:4]
        ds = build_dataset(specs=specs, configs=[hw])
        for row, spec in enumerate(specs):
            winner, cycles = best_algorithm(spec, hw)
            assert ds.y[row] == winner
            for name, expected in cycles.items():
                assert ds.cycles_for(row, name) == expected
