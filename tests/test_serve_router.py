"""The replica-pool router: sharding, health, failover, chaos acceptance.

Four layers:

* unit tests of the :class:`ReplicaHealth` state machine;
* unit tests of :class:`ReplicaRouter` dispatch semantics against stub
  replicas — retry on a *different* replica, deadline budgets, hedging,
  drain/rejoin, probe-driven ejection;
* the live transport: a router-backed app over a real unix socket
  (health summary, ``/v1/replicas/<name>/{drain,rejoin}`` admin);
* the chaos acceptance run (slow+chaos): a seeded kill of 1-of-4
  replicas during a 10k-request bursty virtual-clock trace completes
  with zero errored admitted requests, admitted p99 within the derived
  SLO, conserved counters, and bit-identical results across two
  *processes*.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from repro import faults
from repro.algorithms.registry import layer_cycles
from repro.engine.executor import EvaluationEngine
from repro.errors import ServeError
from repro.nn.layer import ConvSpec
from repro.nn.models.vgg16 import vgg16_conv_specs
from repro.serve import (
    AsyncServeServer,
    InProcessReplica,
    PredictionService,
    ReplicaHealth,
    ReplicaRouter,
    ServeApp,
    ServeRequest,
    ServeResponse,
    TraceSpec,
    generate_trace,
    routed_replay,
)
from repro.serve.health import DEGRADED, DRAINING, EJECTED, HEALTHY
from repro.serve.router import ReplicaHandle
from repro.simulator.hwconfig import HardwareConfig

REPO = Path(__file__).resolve().parent.parent


def four_hw_pool() -> list[HardwareConfig]:
    """Four distinct hardware configurations → four router shard keys."""
    return [
        HardwareConfig.paper2_rvv(v, l2)
        for v in (256, 512)
        for l2 in (1.0, 2.0)
    ]


def router_workload() -> list[tuple[ConvSpec, HardwareConfig]]:
    specs = vgg16_conv_specs()
    return [(s, hw) for hw in four_hw_pool() for s in specs]


def make_request(i: int = 0, hw: HardwareConfig | None = None) -> ServeRequest:
    return ServeRequest(
        spec=ConvSpec(ic=64, oc=64, ih=56, iw=56, kh=3, kw=3, stride=1),
        hw=hw or HardwareConfig.paper2_rvv(512, 1.0),
        id=f"q-{i}",
    )


class StubReplica(ReplicaHandle):
    """A scriptable replica: per-dispatch failure schedule, fixed price."""

    def __init__(
        self,
        name: str,
        seconds: float = 0.01,
        fail_times: tuple[bool, ...] = (),
        probe_ok: bool = True,
    ) -> None:
        self.name = name
        self.seconds = seconds
        self.fail = deque(fail_times)
        self.probe_ok = probe_ok
        self.dispatched: list[list[str]] = []

    def dispatch(self, requests: list[ServeRequest]) -> list[ServeResponse]:
        if self.fail and self.fail.popleft():
            raise RuntimeError("scripted dispatch failure")
        self.dispatched.append([r.id for r in requests])
        return [
            ServeResponse(
                id=r.id, status="ok", algorithm="stub",
                seconds=self.seconds,
            )
            for r in requests
        ]

    def probe(self) -> bool:
        return self.probe_ok


def stub_router(n: int = 3, **kwargs) -> tuple[ReplicaRouter, dict]:
    stubs = {f"replica-{i}": StubReplica(f"replica-{i}") for i in range(n)}
    return ReplicaRouter(list(stubs.values()), **kwargs), stubs


# ---------------------------------------------------------------------- #
# the health state machine
# ---------------------------------------------------------------------- #
class TestReplicaHealth:
    def test_degrade_eject_recover_cycle(self):
        h = ReplicaHealth("r", degrade_after=1, eject_after=3, recover_after=2)
        assert h.state == HEALTHY and h.available(0.0)
        assert h.record_failure(0.0) == "degraded"
        assert h.state == DEGRADED and h.available(0.0)
        assert h.record_failure(0.0) is None
        assert h.record_failure(0.0) == "ejected"
        assert h.state == EJECTED and not h.available(0.0)
        assert h.eject_until is not None and h.eject_until > 0.0
        # cooldown over: half-open, a trial is allowed
        t = h.eject_until
        assert h.half_open(t) and h.available(t)
        assert h.record_success(t) == "recovered"
        assert h.state == DEGRADED
        assert h.record_success(t) == "healthy"
        assert h.state == HEALTHY

    def test_half_open_failure_reejects_with_longer_cooldown(self):
        h = ReplicaHealth("r", eject_after=1, eject_for_s=1.0)
        h.record_failure(0.0)
        first = h.eject_until
        assert first is not None
        assert h.record_failure(first) == "re-ejected"
        assert h.eject_until is not None
        # backoff doubles (jitter only stretches further)
        assert h.eject_until - first >= 2.0

    def test_cooldowns_are_seeded_and_deterministic(self):
        a = ReplicaHealth("r", seed=5, eject_after=1)
        b = ReplicaHealth("r", seed=5, eject_after=1)
        c = ReplicaHealth("r", seed=6, eject_after=1)
        for h in (a, b, c):
            h.record_failure(0.0)
        assert a.eject_until == b.eject_until
        assert a.eject_until != c.eject_until

    def test_slow_streak_degrades(self):
        h = ReplicaHealth("r", slow_after=2)
        assert h.record_slow(0.0) is None
        assert h.record_slow(0.0) == "degraded"
        assert h.state == DEGRADED

    def test_drain_and_rejoin_via_half_open(self):
        h = ReplicaHealth("r")
        h.drain()
        assert h.state == DRAINING and not h.available(0.0)
        h.rejoin(5.0)
        assert h.state == EJECTED and h.half_open(5.0)
        assert h.record_success(5.0) == "recovered"

    def test_rejoin_requires_draining(self):
        with pytest.raises(ServeError):
            ReplicaHealth("r").rejoin(0.0)

    def test_validation(self):
        with pytest.raises(ServeError):
            ReplicaHealth("r", degrade_after=0)
        with pytest.raises(ServeError):
            ReplicaHealth("r", degrade_after=5, eject_after=3)
        with pytest.raises(ServeError):
            ReplicaHealth("r", eject_for_s=0.0)


# ---------------------------------------------------------------------- #
# sharding
# ---------------------------------------------------------------------- #
class TestSharding:
    def test_ring_order_is_deterministic_and_complete(self):
        r1, _ = stub_router(4, seed=7)
        r2, _ = stub_router(4, seed=7)
        for hw in four_hw_pool():
            key = ReplicaRouter.shard_key(make_request(0, hw))
            order = r1.ring_order(key)
            assert order == r2.ring_order(key)
            assert sorted(order) == sorted(r1.replicas)

    def test_same_config_same_replica_distinct_configs_spread(self):
        router, _ = stub_router(4, seed=7)
        prefs = {
            hw.vlen_bits * 100 + int(hw.l2_mib): router.preferred(
                make_request(0, hw)
            )
            for hw in four_hw_pool()
        }
        # affinity: repeat traffic for one config lands on one replica
        for hw in four_hw_pool():
            assert router.preferred(make_request(1, hw)) == prefs[
                hw.vlen_bits * 100 + int(hw.l2_mib)
            ]
        # spread: the four configs do not all pile on one replica
        assert len(set(prefs.values())) >= 2

    def test_seed_changes_the_ring(self):
        a, _ = stub_router(4, seed=0)
        b, _ = stub_router(4, seed=99)
        keys = [
            ReplicaRouter.shard_key(make_request(0, hw))
            for hw in four_hw_pool()
        ]
        assert any(a.ring_order(k) != b.ring_order(k) for k in keys)


# ---------------------------------------------------------------------- #
# dispatch semantics (stub replicas, priced mode)
# ---------------------------------------------------------------------- #
class TestDispatch:
    def test_happy_path_counts_direct_completion(self):
        router, _ = stub_router(3)
        [outcome] = router.route_priced([(0.0, make_request())], 0.0)
        assert outcome.response.status == "ok"
        assert outcome.replica == outcome.preferred
        assert outcome.attempts == 1
        assert outcome.response.replica == outcome.replica
        assert outcome.response.attempts == 1
        assert router.stats.completed_direct == 1
        assert router.stats.retries == 0

    def test_retry_lands_on_a_different_replica(self):
        router, stubs = stub_router(3, max_retries=2, retry_backoff_s=0.001)
        preferred = router.preferred(make_request())
        stubs[preferred].fail.extend([True])
        [outcome] = router.route_priced([(0.0, make_request())], 0.0)
        assert outcome.response.status == "ok"
        assert outcome.replica != preferred
        assert outcome.attempts == 2
        assert router.stats.retries == 1
        assert router.stats.failovers == 1
        assert router.stats.completed_failover == 1
        assert router.stats.dispatch_failures == 1
        # the failure degraded the preferred replica
        assert router.health[preferred].state == DEGRADED

    def test_all_replicas_failing_yields_unrouted_error(self):
        router, stubs = stub_router(3, max_retries=2)
        for stub in stubs.values():
            stub.fail.extend([True] * 5)
        [outcome] = router.route_priced([(0.0, make_request())], 0.0)
        assert outcome.response.status == "error"
        assert outcome.replica == ""
        assert "no replica available" in outcome.response.error
        assert router.stats.unrouted == 1

    def test_deadline_expires_before_dispatch(self):
        router, _ = stub_router(2, deadline_s=0.05)
        [outcome] = router.route_priced([(0.0, make_request())], 0.1)
        assert outcome.response.status == "deadline"
        assert router.stats.deadline_misses == 1
        assert router.stats.dispatches == 0

    def test_deadline_misses_when_priced_finish_is_late(self):
        stubs = [StubReplica("a", seconds=0.2), StubReplica("b", seconds=0.2)]
        router = ReplicaRouter(stubs, deadline_s=0.1)
        [outcome] = router.route_priced([(0.0, make_request())], 0.0)
        assert outcome.response.status == "deadline"
        assert router.stats.deadline_misses == 1

    def test_deadline_bounds_the_retry_loop(self):
        stubs = [StubReplica(f"r{i}") for i in range(3)]
        for stub in stubs:
            stub.fail.extend([True] * 5)
        router = ReplicaRouter(
            stubs, deadline_s=0.01, max_retries=3, retry_backoff_s=0.02
        )
        [outcome] = router.route_priced([(0.0, make_request())], 0.0)
        # the first backoff (0.02s) blows the 0.01s budget: deadline, not
        # error — and no further attempts burned
        assert outcome.response.status == "deadline"
        assert router.stats.dispatch_failures == 1

    def test_hedge_fires_on_projected_wait_and_wins(self):
        stubs = [StubReplica("a", seconds=1.0), StubReplica("b", seconds=1.0)]
        router = ReplicaRouter(stubs, hedge_after_s=0.1)
        req = make_request(0)
        outcomes = router.route_priced(
            [(0.0, make_request(0)), (0.0, make_request(1))], 0.0
        )
        # first request starts immediately (no hedge); the second's
        # projected wait is 1.0s > 0.1s, so it hedges onto the idle
        # replica and the hedge finishes first
        assert outcomes[0].hedged is False
        assert outcomes[1].hedged is True
        assert outcomes[1].replica != outcomes[0].replica
        assert outcomes[1].finish < outcomes[0].finish + 1.0
        assert router.stats.hedges == 1
        assert router.stats.hedge_wins == 1
        assert router.stats.completed_hedge == 1
        assert req.hw is not None  # silence unused warning

    def test_crash_fault_ejects_and_fails_over(self):
        router, _ = stub_router(3, max_retries=2)
        preferred = router.preferred(make_request())
        with faults.inject("seed=0,replica.crash=1"):
            [outcome] = router.route_priced([(0.0, make_request())], 0.0)
        # the preferred replica crashed; the retry's target crashed too
        # (rate 1) until retries ran out — or a later replica served it.
        # With rate 1 every dispatch crashes: unrouted.
        assert outcome.response.status == "error"
        assert router.stats.replica_crashes == 3
        assert router.stats.ejections == 3
        assert router.health[preferred].state == EJECTED

    def test_slow_fault_stretches_service_and_degrades(self):
        stubs = [StubReplica("a", seconds=0.1), StubReplica("b", seconds=0.1)]
        router = ReplicaRouter(
            stubs, health_kwargs={"slow_after": 1}
        )
        with faults.inject("seed=0,replica.slow=1"):
            [outcome] = router.route_priced([(0.0, make_request())], 0.0)
        assert outcome.response.status == "ok"
        assert outcome.finish - outcome.start == pytest.approx(1.0)  # 10x
        assert router.stats.replica_slows == 1
        assert router.health[outcome.replica].state == DEGRADED

    def test_hang_fault_costs_the_timeout_then_fails_over(self):
        router, _ = stub_router(
            3, max_retries=2, dispatch_timeout_s=0.5, retry_backoff_s=0.0
        )
        preferred = router.preferred(make_request())
        with faults.inject("seed=0,replica.hang=1,hang.seconds=30"):
            [outcome] = router.route_priced([(0.0, make_request())], 0.0)
        # hang charged at min(hang_seconds, dispatch_timeout): attempts
        # advance 0.5s each, every replica hangs at rate 1 → unrouted
        assert outcome.response.status == "error"
        assert router.stats.replica_hangs == 3
        assert outcome.finish == pytest.approx(1.5)

    def test_drain_takes_replica_out_and_rejoin_readmits(self):
        router, stubs = stub_router(2)
        preferred = router.preferred(make_request())
        router.drain(preferred)
        [outcome] = router.route_priced([(0.0, make_request())], 0.0)
        assert outcome.replica != preferred
        assert router.health[preferred].state == DRAINING
        router.rejoin(preferred, now=1.0)
        # half-open: the next dispatch may trial it again
        assert router.health[preferred].half_open(1.0)
        [outcome2] = router.route_priced([(1.0, make_request(1))], 1.0)
        assert outcome2.response.status == "ok"

    def test_probe_drops_eject_without_traffic(self):
        router, _ = stub_router(
            2, probe_interval_s=0.1,
            health_kwargs={"eject_after": 3, "eject_for_s": 100.0},
        )
        with faults.inject("seed=0,probe.drop=1"):
            router.run_probes(1.0)
        assert router.stats.probes == 20
        assert router.stats.probe_drops == 20
        assert all(h.state == EJECTED for h in router.health.values())
        # with every replica ejected (cooling), requests are unrouted
        [outcome] = router.route_priced([(1.0, make_request())], 1.0)
        assert outcome.response.status == "error"
        assert router.stats.unrouted == 1

    def test_snapshot_and_health_summary_shapes(self):
        router, _ = stub_router(2)
        router.route_priced([(0.0, make_request())], 0.0)
        snap = router.snapshot()
        assert set(snap) == {"replicas", "router"}
        assert snap["router"]["completed_direct"] == 1
        summary = router.health_summary()
        assert summary["status"] == "ok"
        assert summary["serving"] == 2

    def test_constructor_validation(self):
        with pytest.raises(ServeError):
            ReplicaRouter([])
        with pytest.raises(ServeError):
            ReplicaRouter([StubReplica("a"), StubReplica("a")])
        with pytest.raises(ServeError):
            ReplicaRouter([StubReplica("a")], max_retries=-1)
        with pytest.raises(ServeError):
            ReplicaRouter([StubReplica("a")], deadline_s=0.0)
        with pytest.raises(ServeError):
            ReplicaRouter([StubReplica("a")], probe_interval_s=0.0)
        with pytest.raises(ServeError):
            stub_router(2)[0].drain("nope")

    def test_long_replay_keeps_only_unfinished_requests(self):
        """The router forgets a finish once the dispatch instant passes it."""
        router, _ = stub_router(3, seed=1)
        instants: list[float] = []
        route = router.route_priced

        def recording(batch, at):
            instants.append(at)
            return route(batch, at)

        router.route_priced = recording
        trace = generate_trace(
            TraceSpec(pattern="uniform", n_requests=3000, rate_rps=100.0,
                      seed=3),
            router_workload(),
        )
        result = routed_replay(router, trace, max_batch=8)
        assert len(result.responses) == 3000
        held = sum(len(finishes) for finishes in router._inflight.values())
        # what the router still holds is what is in flight at its last
        # dispatch: a few requests, not one finish per routed request
        assert held == router.backlog(instants[-1])
        assert held <= 3 * 8


# ---------------------------------------------------------------------- #
# the live transport: router-backed app over a unix socket
# ---------------------------------------------------------------------- #
class TestRouterTransport:
    def _boot(self, tmp_path):
        engine = EvaluationEngine()
        replicas = [
            InProcessReplica(
                f"replica-{i}",
                PredictionService(engine=engine),
            )
            for i in range(2)
        ]
        router = ReplicaRouter(replicas, seed=1)
        app = ServeApp(router, queue_limit=64, max_batch=8, max_wait_s=0.002)
        return AsyncServeServer(app, unix_path=tmp_path / "serve.sock"), router

    async def _http(self, sock: str, raw: bytes) -> tuple[int, dict]:
        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(raw)
        await writer.drain()
        data = await reader.read()
        writer.close()
        head, body = data.decode().split("\r\n\r\n", 1)
        return int(head.split()[1]), json.loads(body)

    def test_select_health_admin_roundtrip(self, tmp_path):
        async def scenario():
            server, router = self._boot(tmp_path)
            await server.start()
            sock = str(tmp_path / "serve.sock")
            try:
                body = json.dumps(
                    {
                        "id": "rt-1",
                        "layer": {"ic": 64, "oc": 64, "ih": 56, "iw": 56,
                                  "kh": 3, "kw": 3, "stride": 1},
                        "hw": {"vlen_bits": 512, "l2_mib": 1.0},
                    }
                ).encode()
                post = (
                    b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                s1, selected = await self._http(sock, post)
                s2, health = await self._http(
                    sock, b"GET /v1/health HTTP/1.1\r\n\r\n"
                )
                s3, drained = await self._http(
                    sock,
                    b"POST /v1/replicas/replica-0/drain HTTP/1.1\r\n\r\n",
                )
                s4, health2 = await self._http(
                    sock, b"GET /v1/health HTTP/1.1\r\n\r\n"
                )
                s5, rejoined = await self._http(
                    sock,
                    b"POST /v1/replicas/replica-0/rejoin HTTP/1.1\r\n\r\n",
                )
                s6, bad = await self._http(
                    sock,
                    b"POST /v1/replicas/nope/drain HTTP/1.1\r\n\r\n",
                )
                s7, stats = await self._http(
                    sock, b"GET /v1/stats HTTP/1.1\r\n\r\n"
                )
                return (
                    (s1, selected), (s2, health), (s3, drained),
                    (s4, health2), (s5, rejoined), (s6, bad), (s7, stats),
                )
            finally:
                await server.stop()

        (
            (s1, selected), (s2, health), (s3, drained),
            (s4, health2), (s5, rejoined), (s6, bad), (s7, stats),
        ) = asyncio.run(scenario())
        assert s1 == 200 and selected["status"] == "ok"
        assert selected["replica"].startswith("replica-")
        assert selected["attempts"] == 1
        assert s2 == 200 and health["status"] == "ok"
        assert health["serving"] == 2
        assert set(health["replicas"]) == {"replica-0", "replica-1"}
        assert s3 == 200 and drained["state"] == DRAINING
        assert s4 == 200 and health2["replicas"]["replica-0"] == DRAINING
        assert health2["serving"] == 1
        assert s5 == 200 and rejoined["state"] == EJECTED  # half-open gate
        assert s6 == 400 and "unknown replica" in bad["error"]
        assert s7 == 200 and stats["router"]["completed"] == 1
        assert stats["serving"]["requests"] == 1


# ---------------------------------------------------------------------- #
# the chaos acceptance run
# ---------------------------------------------------------------------- #
# Constants shared with the cross-process child script below; tuned so
# the seeded plan kills exactly one of the four replicas mid-trace
# (replica-2 crashes with ~36% of admitted traffic still to come).
CHAOS = dict(
    n=10_000, trace_seed=20240812, router_seed=7, fault_seed=4,
    crash_rate=0.0005, queue_limit=16, max_batch=64, max_wait_s=0.002,
    max_retries=3, retry_backoff_s=0.001, probe_interval_s=0.5,
)

_CHAOS_SCRIPT = """
import hashlib, json, sys
from repro import faults
from repro.engine.executor import EvaluationEngine
from repro.serve import (
    InProcessReplica, PredictionService, ReplicaRouter, TraceSpec,
    generate_trace, routed_replay,
)
from repro.nn.models.vgg16 import vgg16_conv_specs
from repro.simulator.hwconfig import HardwareConfig
from repro.algorithms.registry import layer_cycles

C = json.loads(sys.argv[1])
specs = vgg16_conv_specs()
hws = [HardwareConfig.paper2_rvv(v, l2) for v in (256, 512) for l2 in (1.0, 2.0)]
pool = [(s, hw) for hw in hws for s in specs]
mean_safe = sum(
    layer_cycles("im2col_gemm6", s, hw, fallback=True).seconds(hw.freq_ghz)
    for s, hw in pool
) / len(pool)
trace = generate_trace(
    TraceSpec(pattern="bursty", n_requests=C["n"], rate_rps=2.0 * 4 / mean_safe,
              seed=C["trace_seed"], burst_factor=4.0),
    pool,
)
engine = EvaluationEngine()
replicas = [
    InProcessReplica(f"replica-{i}", PredictionService(engine=engine))
    for i in range(4)
]
router = ReplicaRouter(
    replicas, seed=C["router_seed"], max_retries=C["max_retries"],
    retry_backoff_s=C["retry_backoff_s"], probe_interval_s=C["probe_interval_s"],
    health_kwargs={"eject_for_s": 1e6},
)
with faults.inject(f"seed={C['fault_seed']},replica.crash={C['crash_rate']}"):
    result = routed_replay(
        router, trace, queue_limit=C["queue_limit"], slo_s=10.0,
        max_batch=C["max_batch"], max_wait_s=C["max_wait_s"],
    )
digest = hashlib.sha256()
for r in result.responses:
    digest.update(r.to_json().encode())
digest.update(json.dumps(result.shed_ids).encode())
digest.update(json.dumps(result.router_stats, sort_keys=True).encode())
print(digest.hexdigest())
"""


@pytest.mark.slow
@pytest.mark.chaos
class TestChaosKillOneOfFour:
    """ISSUE 10 acceptance: the endpoint survives a mid-trace replica kill."""

    def _run(self):
        specs = vgg16_conv_specs()
        pool = router_workload()
        safe_times = [
            layer_cycles("im2col_gemm6", s, hw, fallback=True).seconds(
                hw.freq_ghz
            )
            for s, hw in pool
        ]
        mean_safe = sum(safe_times) / len(safe_times)
        worst = max(safe_times)
        trace = generate_trace(
            TraceSpec(
                pattern="bursty", n_requests=CHAOS["n"],
                rate_rps=2.0 * 4 / mean_safe,
                seed=CHAOS["trace_seed"], burst_factor=4.0,
            ),
            pool,
        )
        # an admitted request waits behind at most queue_limit requests
        # (pending + replica backlog, each bounded by the slowest safe
        # cell) plus one batch window plus the full crash-retry backoff
        backoff_total = CHAOS["retry_backoff_s"] * (
            2.0 ** CHAOS["max_retries"] - 1.0
        )
        slo_s = (
            CHAOS["max_wait_s"]
            + (CHAOS["queue_limit"] + 1) * worst
            + backoff_total
        )
        engine = EvaluationEngine()
        replicas = [
            InProcessReplica(
                f"replica-{i}",
                PredictionService(engine=engine),
            )
            for i in range(4)
        ]
        router = ReplicaRouter(
            replicas, seed=CHAOS["router_seed"],
            max_retries=CHAOS["max_retries"],
            retry_backoff_s=CHAOS["retry_backoff_s"],
            probe_interval_s=CHAOS["probe_interval_s"],
            health_kwargs={"eject_for_s": 1e6},  # a crash is a kill
        )
        spec = f"seed={CHAOS['fault_seed']},replica.crash={CHAOS['crash_rate']}"
        with faults.inject(spec):
            result = routed_replay(
                router, trace,
                queue_limit=CHAOS["queue_limit"], slo_s=slo_s,
                max_batch=CHAOS["max_batch"],
                max_wait_s=CHAOS["max_wait_s"],
            )
        assert len(specs) > 0
        return router, result, slo_s

    def test_kill_one_of_four_holds_slo_with_zero_errors(self):
        router, result, slo_s = self._run()
        stats = result.stats

        # -- the seeded kill: exactly one of four replicas died ---------
        states = {n: h.state for n, h in router.health.items()}
        dead = [n for n, s in states.items() if s == EJECTED]
        assert len(dead) == 1
        assert result.router_stats["replica_crashes"] == 1
        # it died mid-trace: it served traffic, and plenty came after
        last_served = max(
            i for i, o in enumerate(result.outcomes) if o.replica == dead[0]
        )
        assert last_served > 100
        assert len(result.responses) - last_served > 100

        # -- zero errored admitted requests -----------------------------
        assert all(r.status == "ok" for r in result.responses)

        # -- conservation: offered == admitted + shed; admitted
        #    partitions into the completion classes --------------------
        assert stats.offered == CHAOS["n"]
        assert stats.n_requests + stats.shed == CHAOS["n"]
        assert result.conserved()
        rs = result.router_stats
        assert rs["completed_failover"] > 0  # the dead shard failed over
        assert rs["failovers"] == rs["completed_failover"]
        assert rs["retries"] >= 1  # the crash itself forced a retry
        assert rs["ejections"] >= 1

        # -- admitted p99 within the derived SLO ------------------------
        assert stats.slo_s == slo_s
        assert stats.p99 <= slo_s
        assert all(
            r.queue_wait >= 0 and r.latency >= 0 for r in stats.records
        )

    def test_bit_identical_across_two_processes(self):
        digests = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _CHAOS_SCRIPT, json.dumps(CHAOS)],
                capture_output=True, text=True, cwd=REPO,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64  # a real sha256, not empty output


# ---------------------------------------------------------------------- #
# routed replay parity: responses remain bit-identical to the engine
# ---------------------------------------------------------------------- #
@pytest.mark.slow
def test_routed_responses_match_direct_evaluation():
    pool = router_workload()[:12]
    engine = EvaluationEngine()
    replicas = [
        InProcessReplica(
            f"replica-{i}", PredictionService(engine=engine)
        )
        for i in range(3)
    ]
    router = ReplicaRouter(replicas, seed=7)
    trace = generate_trace(
        TraceSpec(pattern="uniform", n_requests=200, rate_rps=50.0, seed=1),
        pool,
    )
    result = routed_replay(router, trace, max_batch=16, max_wait_s=0.002)
    assert len(result.responses) == 200
    by_id = {t.request.id: t.request for t in trace}
    memo = {}
    for response in result.responses:
        assert response.status == "ok"
        request = by_id[response.id]
        key = (response.algorithm, request.spec, request.hw)
        if key not in memo:
            record = layer_cycles(
                response.algorithm, request.spec, request.hw, fallback=True
            )
            memo[key] = (record.cycles, record.seconds(request.hw.freq_ghz))
        assert (response.cycles, response.seconds) == memo[key]
