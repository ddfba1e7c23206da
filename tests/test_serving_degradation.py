"""Chaos suite: serving under overload and injected arrival bursts.

The acceptance bar: at 2x saturation throughput, admission control keeps
the p99 latency of *admitted* requests bounded (vs. unbounded queue
growth without it), with every shed request accounted for; an injected
burst raises shedding without losing a request.
"""

from __future__ import annotations

import pytest

from repro import faults, obs
from repro.errors import ConfigError
from repro.serving import ServingSimulator

pytestmark = pytest.mark.chaos  # fault-injection suite: full-suite CI job


@pytest.fixture
def recorder():
    rec = obs.enable()
    yield rec
    obs.disable()


def counters(rec) -> dict[str, float]:
    return rec.counters.as_dict()


class TestAdmissionControl:
    def test_overload_p99_bounded_and_shed_accounted(self, recorder):
        """2x capacity: bounded queue -> bounded latency, all load accounted."""
        service, limit, n = 0.01, 10, 2000
        bounded = ServingSimulator(
            servers=1, service_time_s=service, seed=7, queue_limit=limit
        )
        stats = bounded.run(2.0 * bounded.capacity_rps, n_requests=n)
        # worst admitted case: full queue ahead of you, plus your own service
        assert stats.p99 <= (limit + 1) * service + 1e-9
        assert stats.shed > 0
        assert stats.offered == stats.n_requests + stats.shed == n
        assert 0.0 < stats.shed_rate < 1.0

        unbounded = ServingSimulator(servers=1, service_time_s=service, seed=7)
        wild = unbounded.run(2.0 * unbounded.capacity_rps, n_requests=n)
        assert wild.shed == 0
        assert wild.p99 > 10 * stats.p99  # queue grows without bound
        assert counters(recorder)["serving.shed"] == stats.shed

    def test_no_shedding_below_capacity(self):
        sim = ServingSimulator(
            servers=2, service_time_s=0.01, seed=3, queue_limit=50
        )
        stats = sim.run(0.5 * sim.capacity_rps, n_requests=1000)
        assert stats.shed == 0 and stats.offered == 1000

    def test_queue_limit_zero_admits_only_idle_servers(self):
        sim = ServingSimulator(
            servers=1, service_time_s=0.01, seed=5, queue_limit=0
        )
        stats = sim.run(2.0 * sim.capacity_rps, n_requests=500)
        # nobody ever waits: every admitted request starts immediately
        assert all(r.queue_wait == 0.0 for r in stats.records)
        assert stats.shed > 0

    def test_shedding_is_deterministic(self):
        def run():
            sim = ServingSimulator(
                servers=1, service_time_s=0.01, seed=11, queue_limit=5
            )
            s = sim.run(2.0 * sim.capacity_rps, n_requests=800)
            return s.shed_arrivals, [r.latency for r in s.records]

        assert run() == run()

    def test_slo_breach_accounting(self):
        sim = ServingSimulator(
            servers=1, service_time_s=0.01, seed=7, queue_limit=20,
            slo_s=0.05,
        )
        stats = sim.run(1.5 * sim.capacity_rps, n_requests=1000)
        expected = sum(1 for r in stats.records if r.latency > 0.05)
        assert stats.slo_breaches == expected > 0
        assert stats.slo_breach_rate == expected / stats.n_requests

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            ServingSimulator(servers=1, service_time_s=0.01, queue_limit=-1)
        with pytest.raises(ConfigError):
            ServingSimulator(servers=1, service_time_s=0.01, slo_s=0.0)


class TestBurstInjection:
    def test_burst_raises_shedding(self, recorder):
        def shed_with(spec: str | None) -> int:
            sim = ServingSimulator(
                servers=1, service_time_s=0.01, seed=13, queue_limit=10
            )
            with faults.inject(spec):
                return sim.run(
                    0.9 * sim.capacity_rps, n_requests=1500
                ).shed

        calm = shed_with(None)
        bursty = shed_with("seed=13,serving.burst=3")
        assert bursty > calm
        assert counters(recorder)["faults.injected.serving.burst"] == 1

    def test_burst_preserves_request_count(self):
        sim = ServingSimulator(
            servers=1, service_time_s=0.01, seed=13, queue_limit=10
        )
        with faults.inject("seed=13,serving.burst=2"):
            stats = sim.run(50.0, n_requests=900)
        assert stats.offered == 900
