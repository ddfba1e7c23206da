"""Tests for the analytical timing model: phases, cache model, engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.simulator.analytical.cachemodel import (
    effective_l2_bytes,
    residency,
    stream_dram_bytes,
    stream_l2_bytes,
)
from repro.simulator.analytical.calibration import Calibration
from repro.simulator.analytical.model import AnalyticalTimingModel
from repro.simulator.analytical.phases import DataStream, Phase
from repro.simulator.hwconfig import HardwareConfig
from repro.utils.units import MiB


def hw(l2=1.0, vlen=512, **kw):
    return HardwareConfig.paper2_rvv(vlen, l2).with_(**kw)


class TestDataStream:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DataStream("s", bytes=-1)
        with pytest.raises(ConfigError):
            DataStream("s", bytes=1, passes=0.5)
        with pytest.raises(ConfigError):
            DataStream("s", bytes=1, reuse_ws=-1)

    def test_residency_bounds(self):
        assert residency(0, 100) == 1.0
        assert residency(50, 100) == 1.0
        assert residency(200, 100) == 0.5

    def test_single_pass_is_compulsory_only(self):
        s = DataStream("s", bytes=1000.0)
        assert stream_dram_bytes(s, hw()) == 1000.0

    def test_resident_reuse_costs_nothing_extra(self):
        s = DataStream("s", bytes=1000.0, passes=10.0, reuse_ws=1000.0)
        assert stream_dram_bytes(s, hw(l2=64.0)) == pytest.approx(1000.0)

    def test_thrashing_reuse_refetches(self):
        big = 100 * MiB
        s = DataStream("s", bytes=float(big), passes=3.0, reuse_ws=float(big))
        traffic = stream_dram_bytes(s, hw(l2=1.0))
        assert traffic > 2.9 * big

    def test_resident_source_discounts_compulsory(self):
        s_cold = DataStream("s", bytes=float(MiB))
        s_warm = DataStream("s", bytes=float(MiB), resident_source=True)
        cfg = hw(l2=64.0)
        assert stream_dram_bytes(s_warm, cfg) < stream_dram_bytes(s_cold, cfg)
        # but a producer bigger than the cache still mostly misses
        huge = DataStream("s", bytes=float(200 * MiB), resident_source=True)
        assert stream_dram_bytes(huge, hw(l2=1.0)) > 0.99 * 200 * MiB

    def test_dram_traffic_monotone_in_cache_size(self):
        s = DataStream("s", bytes=float(8 * MiB), passes=5.0,
                       reuse_ws=float(8 * MiB))
        sizes = [1.0, 4.0, 16.0, 64.0]
        traffic = [stream_dram_bytes(s, hw(l2=c)) for c in sizes]
        assert traffic == sorted(traffic, reverse=True)

    def test_l2_traffic_counts_all_passes(self):
        s = DataStream("s", bytes=100.0, passes=4.0)
        assert stream_l2_bytes(s) == 400.0

    @given(
        nbytes=st.floats(1.0, 1e9),
        passes=st.floats(1.0, 20.0),
        ws=st.floats(0.0, 1e9),
    )
    @settings(max_examples=50)
    def test_dram_traffic_bounds(self, nbytes, passes, ws):
        """compulsory <= traffic <= bytes * passes, for any stream."""
        s = DataStream("s", bytes=nbytes, passes=passes, reuse_ws=ws)
        traffic = stream_dram_bytes(s, hw())
        assert nbytes - 1e-6 <= traffic <= nbytes * passes + 1e-6


class TestPhase:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Phase("p", vector_ops=-1)
        with pytest.raises(ConfigError):
            Phase("p", nonunit_fraction=1.5)
        with pytest.raises(ConfigError):
            Phase("p", vector_ops=10)  # missing active
        with pytest.raises(ConfigError):
            Phase("p", vmem_ops=10)

    def test_total_stream_bytes(self):
        p = Phase("p", streams=(DataStream("a", 10.0), DataStream("b", 5.0)))
        assert p.total_stream_bytes == 15.0


class TestEngine:
    def test_compute_bound_phase(self):
        model = AnalyticalTimingModel(hw())
        p = Phase("p", vector_ops=1000.0, vector_active=16.0)
        res = model.phase_cycles(p)
        assert res.bound == "vector"
        assert res.vector_cycles == pytest.approx(1000.0)

    def test_memory_bound_phase(self):
        model = AnalyticalTimingModel(hw())
        p = Phase("p", vector_ops=10.0, vector_active=16.0,
                  streams=(DataStream("s", float(100 * MiB)),))
        res = model.phase_cycles(p)
        assert res.bound == "dram"

    def test_scalar_lane_is_parallel(self):
        """Scalar work below the vector time is hidden (max, not sum)."""
        model = AnalyticalTimingModel(hw())
        fast = model.phase_cycles(
            Phase("p", vector_ops=1000.0, vector_active=16.0, scalar_ops=500.0)
        )
        none = model.phase_cycles(
            Phase("p", vector_ops=1000.0, vector_active=16.0)
        )
        assert fast.cycles == pytest.approx(none.cycles)

    def test_partial_lanes_dont_speed_up(self):
        """An instruction with few active elements still costs a full issue."""
        model = AnalyticalTimingModel(hw(vlen=4096))
        full = model.phase_cycles(Phase("p", vector_ops=100.0, vector_active=128.0))
        partial = model.phase_cycles(Phase("p", vector_ops=100.0, vector_active=4.0))
        assert partial.cycles == pytest.approx(full.cycles)

    def test_nonunit_memory_costs_more(self):
        model = AnalyticalTimingModel(hw())
        unit = model.phase_cycles(
            Phase("p", vmem_ops=1000.0, vmem_active=16.0, nonunit_fraction=0.0)
        )
        gather = model.phase_cycles(
            Phase("p", vmem_ops=1000.0, vmem_active=16.0, nonunit_fraction=1.0)
        )
        assert gather.vector_cycles > unit.vector_cycles

    def test_prefetch_reduces_latency_adder(self):
        p = Phase("p", streams=(DataStream("s", float(10 * MiB)),))
        plain = AnalyticalTimingModel(hw()).phase_cycles(p)
        pf = AnalyticalTimingModel(hw().with_(software_prefetch=True)).phase_cycles(p)
        assert pf.latency_cycles < plain.latency_cycles
        assert pf.dram_cycles == pytest.approx(plain.dram_cycles)

    def test_scalar_stream_latency_exposure(self):
        """Scalar-consumed streams expose full miss latency."""
        vec = Phase("p", streams=(DataStream("s", float(10 * MiB)),))
        scal = Phase(
            "p", streams=(DataStream("s", float(10 * MiB), scalar_access=True),)
        )
        model = AnalyticalTimingModel(hw())
        assert (
            model.phase_cycles(scal).latency_cycles
            > model.phase_cycles(vec).latency_cycles
        )

    def test_evaluate_sums_phases(self):
        model = AnalyticalTimingModel(hw())
        phases = [
            Phase("a", vector_ops=100.0, vector_active=16.0),
            Phase("b", scalar_ops=50.0),
        ]
        lc = model.evaluate("algo", phases)
        assert lc.cycles == pytest.approx(
            sum(model.phase_cycles(p).cycles for p in phases)
        )
        assert lc.algorithm == "algo"
        assert set(lc.breakdown()) == {"a", "b"}

    def test_dominant_bound(self):
        model = AnalyticalTimingModel(hw())
        lc = model.evaluate(
            "a",
            [Phase("big", vector_ops=1e6, vector_active=16.0),
             Phase("small", scalar_ops=10.0)],
        )
        assert lc.dominant_bound() == "vector"

    def test_seconds_conversion(self):
        model = AnalyticalTimingModel(hw())
        lc = model.evaluate("a", [Phase("p", scalar_ops=2e9)])
        assert lc.seconds(2.0) >= 1.0

    def test_effective_l2_below_physical(self):
        cfg = hw(l2=4.0)
        assert effective_l2_bytes(cfg) < cfg.l2_bytes


class TestEngineProperties:
    """Scale and monotonicity properties of the analytical engine."""

    @given(scale=st.integers(2, 16))
    @settings(max_examples=20)
    def test_compute_scales_linearly(self, scale):
        model = AnalyticalTimingModel(hw())
        base = Phase("p", vector_ops=1000.0, vector_active=16.0)
        scaled = Phase("p", vector_ops=1000.0 * scale, vector_active=16.0)
        a = model.phase_cycles(base)
        b = model.phase_cycles(scaled)
        assert b.vector_cycles == pytest.approx(scale * a.vector_cycles)

    @given(scale=st.integers(2, 16))
    @settings(max_examples=20)
    def test_dram_traffic_scales_linearly(self, scale):
        model = AnalyticalTimingModel(hw())
        base = Phase("p", streams=(DataStream("s", 1e6),))
        scaled = Phase("p", streams=(DataStream("s", 1e6 * scale),))
        a = model.phase_cycles(base)
        b = model.phase_cycles(scaled)
        assert b.dram_cycles == pytest.approx(scale * a.dram_cycles)

    @given(
        vops=st.floats(1, 1e7),
        bytes_=st.floats(1, 1e8),
        scalar=st.floats(0, 1e7),
    )
    @settings(max_examples=40)
    def test_cycles_at_least_every_lane(self, vops, bytes_, scalar):
        """The max() composition: total >= each resource's own time."""
        model = AnalyticalTimingModel(hw())
        p = Phase("p", vector_ops=vops, vector_active=16.0,
                  scalar_ops=scalar, streams=(DataStream("s", bytes_),))
        pc = model.phase_cycles(p)
        assert pc.cycles >= pc.vector_cycles
        assert pc.cycles >= pc.scalar_cycles
        assert pc.cycles >= pc.dram_cycles

    @given(l2=st.sampled_from([0.5, 1.0, 2.0, 8.0, 32.0, 128.0]))
    @settings(max_examples=12)
    def test_phase_cycles_monotone_in_cache(self, l2):
        """A reusing stream's phase never slows down with more cache."""
        model_small = AnalyticalTimingModel(hw(l2=l2))
        model_big = AnalyticalTimingModel(hw(l2=l2 * 2))
        p = Phase("p", streams=(
            DataStream("s", 4e6, passes=6.0, reuse_ws=4e6),
        ))
        assert (
            model_big.phase_cycles(p).cycles
            <= model_small.phase_cycles(p).cycles + 1e-9
        )


class TestCalibration:
    """The model divides by these three rates; anything not > 0 would let
    ``layer_cycles`` raise ``ZeroDivisionError`` while the grid returns
    ``inf``, or price a layer at negative cycles."""

    @pytest.mark.parametrize(
        "field", ["dram_efficiency", "l2_bytes_per_cycle", "nonunit_penalty"]
    )
    @pytest.mark.parametrize("value", [0, 0.0, -0.0, -0.5, math.nan])
    def test_non_positive_rate_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"Calibration.{field} must be > 0"):
            Calibration(**{field: value})

    def test_positive_rates_accepted(self):
        cal = Calibration(
            dram_efficiency=1e-9, l2_bytes_per_cycle=1, nonunit_penalty=0.5
        )
        assert cal.dram_efficiency == 1e-9
