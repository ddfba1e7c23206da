"""Property-based conservation laws for serving accounting.

The ISSUE-level invariants: over *any* random arrival/capacity stream,
``offered == admitted + shed`` and SLO-breach counts never exceed the
number of completed requests.  Both the discrete-event simulator
(PR 5's :class:`ServingSimulator`) and the ledger the real service
shares with it (:class:`~repro.serve.middleware.ServingLedger`) must
hold them — they are what makes shed traffic auditable instead of
silently dropped.

PR 10 adds the routed variant: under *any* random replica up/down
sequence (scripted dispatch failures, drains, rejoins) the
:class:`~repro.serve.router.ReplicaRouter` partitions every admitted
request into exactly one completion class —
``admitted == direct + failover + hedge + deadline + unrouted`` — so a
failover is never double-counted and a dropped request is never lost.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layer import ConvSpec
from repro.serve.middleware import AdmissionController, ServingLedger
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.serve.router import ReplicaHandle, ReplicaRouter
from repro.serving.simulator import ServingSimulator
from repro.simulator.hwconfig import HardwareConfig

sim_params = {
    "servers": st.integers(1, 8),
    "service_time_ms": st.floats(0.1, 50.0, allow_nan=False),
    "rate_rps": st.floats(1.0, 5000.0, allow_nan=False),
    "n_requests": st.integers(1, 400),
    "queue_limit": st.one_of(st.none(), st.integers(0, 64)),
    "slo_ms": st.one_of(st.none(), st.floats(0.1, 500.0, allow_nan=False)),
    "seed": st.integers(0, 2**31 - 1),
}


class TestSimulatorConservation:
    @given(**sim_params)
    @settings(max_examples=60, deadline=None)
    def test_offered_equals_admitted_plus_shed(
        self, servers, service_time_ms, rate_rps, n_requests,
        queue_limit, slo_ms, seed,
    ):
        sim = ServingSimulator(
            servers=servers,
            service_time_s=service_time_ms / 1e3,
            seed=seed,
            queue_limit=queue_limit,
            slo_s=slo_ms / 1e3 if slo_ms is not None else None,
        )
        stats = sim.run(rate_rps, n_requests=n_requests)

        # conservation: every offered request is admitted or shed
        assert stats.offered == n_requests
        assert stats.n_requests + stats.shed == stats.offered
        assert 0.0 <= stats.shed_rate <= 1.0
        if queue_limit is None:
            assert stats.shed == 0

        # SLO breaches are a subset of completions
        assert 0 <= stats.slo_breaches <= stats.n_requests
        if slo_ms is None:
            assert stats.slo_breaches == 0

        # causal timelines: nonnegative waits, latency >= service entry
        for rec in stats.records:
            assert rec.start >= rec.arrival
            assert rec.finish >= rec.start
            assert rec.queue_wait >= 0.0
            assert rec.latency >= rec.finish - rec.start

        # percentiles of a nonnegative sample are ordered and nonnegative
        if stats.n_requests:
            assert 0.0 <= stats.p50 <= stats.p99
            assert stats.p99 <= max(r.latency for r in stats.records)


class TestLedgerConservation:
    @given(
        outcomes=st.lists(
            st.tuples(
                st.booleans(),                             # admitted?
                st.floats(0.0, 100.0, allow_nan=False),    # arrival
                st.floats(0.0, 10.0, allow_nan=False),     # queue wait
                st.floats(0.0, 10.0, allow_nan=False),     # service time
            ),
            max_size=200,
        ),
        slo_ms=st.one_of(st.none(), st.floats(0.1, 500.0, allow_nan=False)),
        servers=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_ledger_stats_conserve_any_stream(self, outcomes, slo_ms, servers):
        ledger = ServingLedger(
            slo_s=slo_ms / 1e3 if slo_ms is not None else None
        )
        admitted = shed = 0
        for ok, arrival, wait, service in outcomes:
            if ok:
                start = arrival + wait
                ledger.record(arrival, start, start + service)
                admitted += 1
            else:
                ledger.record_shed(arrival)
                shed += 1
        stats = ledger.stats(servers=servers)
        assert stats.n_requests == admitted
        assert stats.shed == shed
        assert stats.offered == admitted + shed
        assert 0 <= stats.slo_breaches <= stats.n_requests

    @given(
        decisions=st.lists(st.booleans(), max_size=300),
        queue_limit=st.one_of(st.none(), st.integers(0, 16)),
    )
    @settings(max_examples=60, deadline=None)
    def test_admission_controller_counts_every_arrival(
        self, decisions, queue_limit
    ):
        """admit()/started() under any interleaving conserves arrivals."""
        ctl = AdmissionController(queue_limit=queue_limit)
        offered = 0
        for start_one in decisions:
            if start_one and ctl.depth:
                ctl.started(1)
            else:
                ctl.admit()
                offered += 1
        assert ctl.admitted + ctl.shed == offered
        if queue_limit is not None:
            assert ctl.depth <= max(queue_limit, 0)


class _FlakyReplica(ReplicaHandle):
    """A replica whose dispatches fail on a scripted boolean schedule."""

    def __init__(self, name, schedule):
        self.name = name
        self._fail = deque(schedule)

    def dispatch(self, requests):
        if self._fail and self._fail.popleft():
            raise RuntimeError("scripted outage")
        return [
            ServeResponse(
                id=r.id, status="ok", algorithm="stub",
                seconds=0.001,
            )
            for r in requests
        ]

    def probe(self):
        return True


_REQ_SPEC = ConvSpec(ic=32, oc=32, ih=28, iw=28, kh=3, kw=3, stride=1)

# an event stream entry is either a request arrival (None) or a
# (replica index, drain?) toggle — drains and rejoins interleave with
# traffic so health state churns under the router mid-flight.
router_events = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.integers(0, 3), st.booleans()),
    ),
    min_size=1,
    max_size=120,
)


class TestRoutedConservation:
    @given(
        n_replicas=st.integers(1, 4),
        fail_schedules=st.lists(
            st.lists(st.booleans(), max_size=25), min_size=4, max_size=4
        ),
        events=router_events,
        queue_limit=st.one_of(st.none(), st.integers(0, 6)),
        deadline_ms=st.one_of(
            st.none(), st.floats(0.01, 50.0, allow_nan=False)
        ),
        max_retries=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_admitted_partition_over_random_up_down_sequences(
        self, n_replicas, fail_schedules, events, queue_limit,
        deadline_ms, max_retries, seed,
    ):
        replicas = [
            _FlakyReplica(f"replica-{i}", fail_schedules[i])
            for i in range(n_replicas)
        ]
        router = ReplicaRouter(
            replicas,
            seed=seed,
            deadline_s=deadline_ms / 1e3 if deadline_ms is not None else None,
            max_retries=max_retries,
            retry_backoff_s=0.0005,
        )
        admission = AdmissionController(queue_limit=queue_limit)
        hw = HardwareConfig.paper2_rvv(512, 1.0)

        offered = admitted = routed = 0
        t = 0.0
        pending: list[tuple[float, ServeRequest]] = []

        def flush() -> None:
            nonlocal routed
            if not pending:
                return
            admission.started(len(pending))
            outcomes = router.route_priced(list(pending), pending[0][0])
            assert len(outcomes) == len(pending)
            for outcome in outcomes:
                assert outcome.response.status in ("ok", "deadline", "error")
                if outcome.response.status == "ok":
                    assert outcome.replica
                    assert outcome.response.attempts >= 1
                    assert outcome.finish >= outcome.start >= 0.0
            routed += len(outcomes)
            pending.clear()

        for event in events:
            t += 0.001
            if event is None:
                offered += 1
                if admission.admit(extra_depth=router.backlog(t)):
                    admitted += 1
                    pending.append(
                        (t, ServeRequest(spec=_REQ_SPEC, hw=hw, id=f"q-{t}"))
                    )
                    if len(pending) >= 4:
                        flush()
                continue
            idx, drain = event
            name = f"replica-{idx % n_replicas}"
            state = router.health[name].state
            if drain and state != "draining":
                router.drain(name)
            elif not drain and state == "draining":
                router.rejoin(name, now=t)
        flush()

        # every offered request is admitted or shed, and every admitted
        # request lands in exactly one of the router's completion classes
        assert admission.admitted + admission.shed == offered
        assert admission.admitted == admitted
        counts = router.stats.as_dict()
        assert routed == admitted
        assert (
            counts["completed_direct"]
            + counts["completed_failover"]
            + counts["completed_hedge"]
            + counts["deadline_misses"]
            + counts["unrouted"]
        ) == admitted
        assert counts["completed"] == counts["completed_direct"] + (
            counts["completed_failover"] + counts["completed_hedge"]
        )
        assert counts["failovers"] == counts["completed_failover"]
        assert counts["hedges"] >= counts["hedge_wins"]
        assert counts["ejections"] >= 0 and counts["retries"] >= 0
