"""Deterministic load generation and virtual-clock replay.

Two pieces:

* :func:`generate_trace` — a seeded trace of timed requests.  Arrival
  processes: ``uniform`` (Poisson), ``diurnal`` (Poisson with a
  sinusoidally modulated rate — the day/night cycle compressed to
  ``period_s``) and ``bursty`` (Poisson with the middle window
  accelerated by ``burst_factor`` — the same shape the fault plane's
  ``serving.burst`` injects).  Layer/hardware payloads are drawn from a
  workload pool (default: the VGG-16 conv layers on two Paper II
  configurations) by the same seeded generator, so a (seed, spec) pair
  names one exact trace forever.

* :func:`replay` — a discrete-event replay of a trace against an
  in-process :class:`~repro.serve.service.PredictionService` on a
  :class:`~repro.serve.clock.VirtualClock`.  It mirrors the live
  server's pipeline exactly — queue-bounded admission, micro-batch
  flush on size-or-age, one ``handle_batch`` per flush, FCFS dispatch
  over ``servers`` replicas at the engine-priced per-request service
  time — but on virtual time, so a 10k-request overload run takes
  milliseconds of wall clock and two runs produce bit-identical
  responses, timelines and :class:`~repro.serving.simulator.ServingStats`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ServeError
from repro.nn.layer import ConvSpec
from repro.nn.models.vgg16 import vgg16_conv_specs
from repro.serve.batcher import validate_batch_params
from repro.serve.clock import VirtualClock
from repro.serve.middleware import AdmissionController, ServingLedger
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.serve.router import ReplicaRouter, RoutedOutcome
from repro.serve.service import PredictionService
from repro.serving.simulator import ServingStats
from repro.simulator.hwconfig import HardwareConfig
from repro.utils.prng import make_rng

#: Arrival patterns :func:`generate_trace` knows how to draw.
PATTERNS = ("uniform", "diurnal", "bursty")


@dataclass(frozen=True)
class TraceSpec:
    """A reproducible description of one load trace."""

    pattern: str = "bursty"
    n_requests: int = 1000
    rate_rps: float = 100.0
    seed: int = 0
    #: bursty: arrival-rate multiplier over the middle third of the trace.
    burst_factor: float = 4.0
    #: diurnal: rate(t) = rate_rps * (1 + amplitude * sin(2*pi*t/period)).
    diurnal_period_s: float = 60.0
    diurnal_amplitude: float = 0.6

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ServeError(
                f"pattern must be one of {PATTERNS}, got {self.pattern!r}"
            )
        if self.n_requests < 1:
            raise ServeError("n_requests must be >= 1")
        if self.rate_rps <= 0:
            raise ServeError("rate_rps must be positive")
        if self.burst_factor < 1.0:
            raise ServeError("burst_factor must be >= 1")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ServeError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_s <= 0:
            raise ServeError("diurnal_period_s must be positive")


@dataclass(frozen=True)
class TimedRequest:
    """One trace entry: a request and the instant it arrives."""

    arrival: float
    request: ServeRequest


def default_workload() -> list[tuple[ConvSpec, HardwareConfig]]:
    """The default payload pool: VGG-16 convs x two Paper II configs."""
    specs = vgg16_conv_specs()
    hws = [HardwareConfig.paper2_rvv(512, 1.0),
           HardwareConfig.paper2_rvv(512, 2.0)]
    return [(s, hw) for hw in hws for s in specs]


def _arrival_times(spec: TraceSpec) -> list[float]:
    rng = make_rng(spec.seed)
    if spec.pattern == "diurnal":
        # thinning-free sequential draw: each gap uses the rate at the
        # current instant, which is exact enough for a load test and
        # keeps generation O(n) and bit-deterministic
        t = 0.0
        out: list[float] = []
        for _ in range(spec.n_requests):
            rate = spec.rate_rps * (
                1.0 + spec.diurnal_amplitude
                * math.sin(2.0 * math.pi * t / spec.diurnal_period_s)
            )
            t += float(rng.exponential(1.0 / rate))
            out.append(t)
        return out
    gaps = rng.exponential(1.0 / spec.rate_rps, spec.n_requests)
    if spec.pattern == "bursty" and spec.burst_factor > 1.0:
        start, stop = spec.n_requests // 3, 2 * spec.n_requests // 3
        gaps[start:stop] /= spec.burst_factor
    times = gaps.cumsum()
    return [float(t) for t in times]


def generate_trace(
    spec: TraceSpec,
    workload: Sequence[tuple[ConvSpec, HardwareConfig]] | None = None,
) -> list[TimedRequest]:
    """The seeded trace: ``n_requests`` timed requests, fully determined."""
    pool = list(workload) if workload is not None else default_workload()
    if not pool:
        raise ServeError("workload pool must not be empty")
    arrivals = _arrival_times(spec)
    rng = make_rng(spec.seed + 1)  # payload stream independent of gaps
    picks = rng.integers(0, len(pool), size=spec.n_requests)
    out = []
    for i, (arrival, pick) in enumerate(zip(arrivals, picks)):
        layer, hw = pool[int(pick)]
        out.append(
            TimedRequest(
                arrival=arrival,
                request=ServeRequest(spec=layer, hw=hw, id=f"r-{i}"),
            )
        )
    return out


# ---------------------------------------------------------------------- #
# replay
# ---------------------------------------------------------------------- #
@dataclass
class ReplayResult:
    """Everything one replay produced, in trace order."""

    #: response per admitted request, in admission (flush) order.
    responses: list[ServeResponse]
    #: request ids shed by admission control.
    shed_ids: list[str]
    stats: ServingStats
    service_snapshot: dict = field(default_factory=dict)

    def responses_by_id(self) -> dict[str, ServeResponse]:
        return {r.id: r for r in self.responses}


def replay(
    service: PredictionService,
    trace: Sequence[TimedRequest],
    servers: int = 1,
    queue_limit: int | None = None,
    slo_s: float | None = None,
    max_batch: int = 32,
    max_wait_s: float = 0.0,
    clock: VirtualClock | None = None,
) -> ReplayResult:
    """Replay a trace through a live service on the virtual clock.

    The event loop mirrors the asyncio server: an arrival is admitted iff
    fewer than ``queue_limit`` admitted requests are waiting (batched but
    unflushed, or flushed but not yet started); admitted requests join
    the open micro-batch, which flushes when it holds ``max_batch``
    requests or is ``max_wait_s`` old; each flush is one
    ``service.handle_batch`` call; dispatch is FCFS over ``servers``
    replicas, each request occupying a replica for the engine-priced
    ``response.seconds``.
    """
    if servers < 1:
        raise ServeError(f"servers must be >= 1, got {servers}")
    validate_batch_params(max_batch, max_wait_s)
    clock = clock or VirtualClock()
    ledger = ServingLedger(slo_s=slo_s)
    free_at = [clock.now()] * servers
    heapq.heapify(free_at)
    responses: list[ServeResponse] = []
    shed_ids: list[str] = []
    pending: list[TimedRequest] = []
    batch_opened: float | None = None

    def flush(at: float) -> None:
        nonlocal batch_opened
        if not pending:
            batch_opened = None
            return
        clock.advance_to(at)
        batch = service.handle_batch([t.request for t in pending])
        for timed, response in zip(pending, batch):
            start = max(at, heapq.heappop(free_at))
            if response.status == "ok":
                finish = start + response.seconds
                ledger.record(timed.arrival, start, finish)
            else:
                finish = start  # an errored request occupies no replica
                ledger.record(timed.arrival, start, finish)
            heapq.heappush(free_at, finish)
            responses.append(response)
        pending.clear()
        batch_opened = None

    for timed in sorted(trace, key=lambda t: t.arrival):
        # age-based flush happens *before* this arrival is considered
        if (batch_opened is not None
                and timed.arrival > batch_opened + max_wait_s):
            flush(batch_opened + max_wait_s)
        waiting = len(pending) + ledger.waiting_at(timed.arrival)
        if queue_limit is not None and waiting >= queue_limit:
            ledger.record_shed(timed.arrival)
            shed_ids.append(timed.request.id)
            continue
        if not pending:
            batch_opened = timed.arrival
        pending.append(timed)
        if len(pending) >= max_batch:
            flush(timed.arrival)
    if pending:
        assert batch_opened is not None
        flush(batch_opened + max_wait_s)

    return ReplayResult(
        responses=responses,
        shed_ids=shed_ids,
        stats=ledger.stats(servers=servers),
        service_snapshot=service.snapshot(),
    )


# ---------------------------------------------------------------------- #
# routed replay
# ---------------------------------------------------------------------- #
@dataclass
class RoutedReplayResult:
    """Everything one routed replay produced, in admission order."""

    #: response per admitted request, in admission (flush) order.
    responses: list[ServeResponse]
    #: full routing provenance per admitted request (same order).
    outcomes: list[RoutedOutcome]
    #: request ids shed by admission control.
    shed_ids: list[str]
    stats: ServingStats
    #: the router's classification counters (:class:`RouterStats` dict).
    router_stats: dict = field(default_factory=dict)
    router_snapshot: dict = field(default_factory=dict)

    def responses_by_id(self) -> dict[str, ServeResponse]:
        return {r.id: r for r in self.responses}

    def conserved(self) -> bool:
        """The routed conservation law: every admitted request lands in
        exactly one completion class (see :class:`RouterStats`)."""
        rs = self.router_stats
        admitted = len(self.responses)
        return (
            admitted
            == rs["completed_direct"] + rs["completed_failover"]
            + rs["completed_hedge"] + rs["deadline_misses"] + rs["unrouted"]
        )


def routed_replay(
    router: ReplicaRouter,
    trace: Sequence[TimedRequest],
    queue_limit: int | None = None,
    slo_s: float | None = None,
    max_batch: int = 32,
    max_wait_s: float = 0.0,
    clock: VirtualClock | None = None,
) -> RoutedReplayResult:
    """Replay a trace through a replica pool on the virtual clock.

    The single-service :func:`replay` loop, routed: arrivals shard by
    hardware configuration and each shard keeps its own micro-batch
    (flushed on size-or-age); each flush is one
    :meth:`~repro.serve.router.ReplicaRouter.route_priced` call, where
    the router's health/retry/hedge machinery and the fault plane's
    ``replica.*`` sites decide which replica serves and when it finishes.
    Admission consults the :class:`AdmissionController` with the
    router-side backlog as extra depth, so replica outages backpressure
    the front door.  Everything is driven by seeded hashes on the
    virtual clock: two processes replaying the same (trace, router
    config, fault plan) produce bit-identical results.
    """
    validate_batch_params(max_batch, max_wait_s)
    clock = clock or VirtualClock()
    admission = AdmissionController(queue_limit)
    ledger = ServingLedger(slo_s=slo_s)
    responses: list[ServeResponse] = []
    outcomes: list[RoutedOutcome] = []
    shed_ids: list[str] = []
    pending: dict[str, list[TimedRequest]] = {}
    opened: dict[str, float] = {}

    def flush(key: str, at: float) -> None:
        batch = pending.pop(key, [])
        opened.pop(key, None)
        if not batch:
            return
        clock.advance_to(at)
        router.run_probes(at)
        admission.started(len(batch))
        routed = router.route_priced(
            [(t.arrival, t.request) for t in batch], at
        )
        for timed, outcome in zip(batch, routed):
            ledger.record(timed.arrival, outcome.start, outcome.finish)
            responses.append(outcome.response)
            outcomes.append(outcome)

    def flush_due(before: float) -> None:
        due = sorted(
            (t + max_wait_s, key)
            for key, t in opened.items()
            if before > t + max_wait_s
        )
        for at, key in due:
            flush(key, at)

    for timed in sorted(trace, key=lambda t: t.arrival):
        flush_due(timed.arrival)
        # admission.depth is the unflushed pending count; the extra depth
        # is the router-side backlog (flushed but still queued at a replica)
        backlog = ledger.waiting_at(timed.arrival)
        if not admission.admit(extra_depth=backlog):
            ledger.record_shed(timed.arrival)
            shed_ids.append(timed.request.id)
            continue
        key = router.shard_key(timed.request)
        if key not in pending:
            pending[key] = []
            opened[key] = timed.arrival
        pending[key].append(timed)
        if len(pending[key]) >= max_batch:
            flush(key, timed.arrival)
    for at, key in sorted((t + max_wait_s, k) for k, t in opened.items()):
        flush(key, at)

    return RoutedReplayResult(
        responses=responses,
        outcomes=outcomes,
        shed_ids=shed_ids,
        stats=ledger.stats(servers=len(router.replicas)),
        router_stats=router.stats.as_dict(),
        router_snapshot=router.snapshot(),
    )
