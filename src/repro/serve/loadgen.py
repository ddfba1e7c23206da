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

* :func:`replay` and :func:`routed_replay` — a trace replayed on a
  :class:`~repro.serve.clock.VirtualClock` against an in-process
  :class:`~repro.serve.service.PredictionService` or a
  :class:`~repro.serve.router.ReplicaRouter` pool.  Both are the
  simulators' discrete-event loop,
  :func:`~repro.serving.simulator.serve_arrivals` (queue-bounded
  admission, micro-batch flush on size-or-age), with a dispatcher that
  calls the live service: one ``handle_batch`` per flush and FCFS
  dispatch over ``servers`` replicas at the engine-priced per-request
  service time, or one ``route_priced`` per shard flush.  On virtual
  time a 10k-request overload run takes milliseconds of wall clock and
  two runs produce bit-identical responses, timelines and
  :class:`~repro.serving.simulator.ServingStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ServeError
from repro.nn.layer import ConvSpec
from repro.nn.models.vgg16 import vgg16_conv_specs
from repro.serve.batcher import validate_batch_params
from repro.serve.clock import VirtualClock
from repro.serve.middleware import ServingLedger
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.serve.router import ReplicaRouter, RoutedOutcome
from repro.serve.service import PredictionService
from repro.serving.simulator import (
    Dispatch,
    ServingStats,
    fcfs_pool,
    serve_arrivals,
)
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
        if not 0 < self.rate_rps < math.inf:
            raise ServeError("rate_rps must be positive and finite")
        if not 1.0 <= self.burst_factor < math.inf:
            raise ServeError("burst_factor must be >= 1 and finite")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ServeError("diurnal_amplitude must be in [0, 1)")
        if not 0 < self.diurnal_period_s < math.inf:
            raise ServeError("diurnal_period_s must be positive and finite")


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

    :func:`~repro.serving.simulator.serve_arrivals` admits and
    micro-batches the trace as the asyncio server does; each flush is one
    ``service.handle_batch`` call, and dispatch is FCFS over ``servers``
    replicas, each request occupying a replica for the engine-priced
    ``response.seconds`` (an errored request occupies none).
    """
    if servers < 1:
        raise ServeError(f"servers must be >= 1, got {servers}")
    validate_batch_params(max_batch, max_wait_s)
    clock = clock or VirtualClock()
    ledger = ServingLedger(slo_s=slo_s)
    responses: list[ServeResponse] = []
    pool = fcfs_pool(servers, _service_seconds, clock.now())

    def dispatch(
        batch: list[tuple[float, TimedRequest]], at: float
    ) -> list[tuple[float, float]]:
        clock.advance_to(at)
        answered = service.handle_batch([t.request for _, t in batch])
        responses.extend(answered)
        return pool([(a, r) for (a, _), r in zip(batch, answered)], at)

    shed = _serve(trace, dispatch, ledger, queue_limit, max_batch, max_wait_s)
    return ReplayResult(
        responses=responses,
        shed_ids=shed,
        stats=ledger.stats(servers=servers),
        service_snapshot=service.snapshot(),
    )


def _service_seconds(response: ServeResponse, busy_others: int) -> float:
    return response.seconds if response.status == "ok" else 0.0


def _serve(
    trace: Sequence[TimedRequest],
    dispatch: Dispatch[TimedRequest],
    ledger: ServingLedger,
    queue_limit: int | None,
    max_batch: int,
    max_wait_s: float,
    key: Callable[[TimedRequest], str] | None = None,
) -> list[str]:
    """Run a trace through the shared loop into ``ledger``; the shed ids."""
    records, shed = serve_arrivals(
        [(t.arrival, t) for t in sorted(trace, key=lambda t: t.arrival)],
        dispatch, queue_limit, max_batch, max_wait_s, key,
    )
    for r in records:
        ledger.record(r.arrival, r.start, r.finish)
    for arrival, _ in shed:
        ledger.record_shed(arrival)
    return [t.request.id for _, t in shed]


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

    The :func:`replay` loop, routed: arrivals shard by hardware
    configuration and each shard keeps its own micro-batch (flushed on
    size-or-age); each flush runs the router's due probes and is one
    :meth:`~repro.serve.router.ReplicaRouter.route_priced` call, where
    the router's health/retry/hedge machinery and the fault plane's
    ``replica.*`` sites decide which replica serves and when it finishes.
    Requests routed but not yet started count against ``queue_limit``,
    so replica outages backpressure the front door.  Everything is driven
    by seeded hashes on the virtual clock: two processes replaying the
    same (trace, router config, fault plan) produce bit-identical results.
    """
    validate_batch_params(max_batch, max_wait_s)
    clock = clock or VirtualClock()
    ledger = ServingLedger(slo_s=slo_s)
    outcomes: list[RoutedOutcome] = []

    def dispatch(
        batch: list[tuple[float, TimedRequest]], at: float
    ) -> list[tuple[float, float]]:
        clock.advance_to(at)
        router.run_probes(at)
        routed = router.route_priced([(a, t.request) for a, t in batch], at)
        outcomes.extend(routed)
        return [(o.start, o.finish) for o in routed]

    shed = _serve(
        trace, dispatch, ledger, queue_limit, max_batch, max_wait_s,
        key=lambda t: router.shard_key(t.request),
    )
    return RoutedReplayResult(
        responses=[o.response for o in outcomes],
        outcomes=outcomes,
        shed_ids=shed,
        stats=ledger.stats(servers=len(router.replicas)),
        router_stats=router.stats.as_dict(),
        router_snapshot=router.snapshot(),
    )
