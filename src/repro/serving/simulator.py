"""Request-level model serving on a virtual clock.

Paper II's context is model serving: replicas of a CNN handle a stream of
inference requests behind a load balancer (§1, §2.2).  This discrete-event
simulator closes that loop above the co-location model: requests arrive as
a (seeded) Poisson process, a FCFS dispatcher feeds the first free replica,
and each replica serves at the deterministic per-image time the analytical
model predicts for its core/cache slice.  It reports the latency
distribution and achieved throughput — which is how the benefit of
per-layer algorithm selection shows up operationally: lower service time →
lower tail latency at the same offered load, and a higher saturation point.

Every virtual-clock serving run in the repo is one call of
:func:`serve_arrivals`, the discrete-event loop admit → micro-batch →
dispatch → record:

* **admission control** — an :class:`AdmissionController` with
  ``queue_limit`` sheds an arrival when the admitted requests not yet in
  service (unflushed, or flushed but not started) fill the queue, keeping
  the latency of admitted requests bounded under any offered load;
* **micro-batching** — admitted arrivals gather per key into batches that
  flush at ``max_batch`` requests or ``max_wait_s`` of age;
* **dispatch** — a dispatcher returns each flushed request's
  ``(start, finish)``.

:class:`ServingSimulator` and :class:`ContentionAwareSimulator` run it
with batches of one and an :func:`fcfs_pool` of replicas; the load-test
harness (:func:`repro.serve.loadgen.replay` and ``routed_replay``) runs it
against the live service's batch handler or replica router.  An active
:mod:`repro.faults` plan can inject arrival bursts (``serving.burst``)
into the simulators.

Shed and SLO-breach counts are reported in :class:`ServingStats`; the
simulators mirror them into the ``serving.*`` observability counters.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

import numpy as np

from repro import faults, obs
from repro.errors import ConfigError, ServeError
from repro.serving.colocation import ColocationResult
from repro.utils.prng import make_rng

T = TypeVar("T")

#: ``dispatch(batch, at)``: a flushed micro-batch of ``(arrival, item)``
#: pairs at instant ``at`` to one ``(start, finish)`` per request.
Dispatch = Callable[[list[tuple[float, T]], float], Sequence[tuple[float, float]]]


def _record_serving_obs(stats: "ServingStats") -> None:
    """Feed a finished run into the observability layer (profiling only).

    Emits request latency / queue-wait histograms, shed / SLO-breach
    counters, and samples the ``serving.queue_depth`` gauge at every
    admitted arrival instant (the number of earlier requests that had
    arrived but not yet started service — starts are nondecreasing under
    FCFS, so one sorted search gives the depth).
    """
    if not obs.enabled():
        return
    records = stats.records
    starts = np.array([r.start for r in records])
    arrivals = np.array([r.arrival for r in records])
    depths = np.arange(len(records)) - np.searchsorted(
        starts, arrivals, side="right"
    )
    for depth in depths:
        obs.gauge("serving.queue_depth", float(max(0, int(depth))))
    for r in records:
        obs.observe("serving.latency_s", r.latency)
        obs.observe("serving.queue_wait_s", r.queue_wait)
    obs.count("serving.requests", len(records))
    if stats.shed:
        obs.count("serving.shed", stats.shed)
    if stats.slo_s is not None:
        obs.count("serving.slo_breaches", stats.slo_breaches)


@dataclass(frozen=True)
class RequestRecord:
    """One served request's timeline (seconds)."""

    arrival: float
    start: float
    finish: float

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.start - self.arrival


@dataclass
class ServingStats:
    """Aggregate results of a serving run.

    ``records`` holds *admitted* requests only; overload accounting lives
    in ``shed_arrivals`` (arrival instants of rejected requests) and, when
    an SLO was configured, :attr:`slo_breaches`.
    """

    records: list[RequestRecord]
    horizon: float  # last finish time (s)
    servers: int
    shed_arrivals: list[float] = field(default_factory=list)
    slo_s: float | None = None

    def __post_init__(self) -> None:
        self._latencies = np.array([r.latency for r in self.records])

    @classmethod
    def collect(
        cls,
        records: list[RequestRecord],
        servers: int,
        shed_arrivals: list[float] | None = None,
        slo_s: float | None = None,
    ) -> "ServingStats":
        """Build stats from request timelines; the horizon is the last finish."""
        records = list(records)
        horizon = max((r.finish for r in records), default=0.0)
        return cls(
            records=records, horizon=horizon, servers=servers,
            shed_arrivals=list(shed_arrivals or []), slo_s=slo_s,
        )

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def shed(self) -> int:
        """Requests rejected by admission control (never served)."""
        return len(self.shed_arrivals)

    @property
    def offered(self) -> int:
        """Total offered load: admitted + shed."""
        return self.n_requests + self.shed

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def slo_breaches(self) -> int:
        """Admitted requests whose latency exceeded the configured SLO."""
        if self.slo_s is None or not len(self._latencies):
            return 0
        return int((self._latencies > self.slo_s).sum())

    @property
    def slo_breach_rate(self) -> float:
        return self.slo_breaches / self.n_requests if self.n_requests else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.n_requests / self.horizon if self.horizon else 0.0

    def latency_percentile(self, q: float) -> float:
        if not len(self._latencies):
            return 0.0
        return float(np.percentile(self._latencies, q))

    @property
    def mean_latency(self) -> float:
        if not len(self._latencies):
            return 0.0
        return float(self._latencies.mean())

    @property
    def p50(self) -> float:
        return self.latency_percentile(50)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99)

    @property
    def utilization(self) -> float:
        """Fraction of server-seconds spent serving."""
        busy = sum(r.finish - r.start for r in self.records)
        return busy / (self.servers * self.horizon) if self.horizon else 0.0

    def mean_queue_length(self) -> float:
        """Time-averaged number of queued+in-service requests (Little)."""
        return self.throughput_rps * self.mean_latency


def md1_mean_wait(arrival_rate_rps: float, service_time_s: float) -> float:
    """Exact mean queue wait of an M/D/1 queue (Pollaczek-Khinchine).

    ``W_q = rho * s / (2 * (1 - rho))`` for deterministic service — the
    closed form the single-replica simulator must converge to
    (``tests/test_serving_simulator.py`` checks it).
    """
    rho = arrival_rate_rps * service_time_s
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"M/D/1 requires 0 < rho < 1, got {rho:.3f}")
    return rho * service_time_s / (2.0 * (1.0 - rho))


# ---------------------------------------------------------------------- #
# the discrete-event loop
# ---------------------------------------------------------------------- #
class AdmissionController:
    """Queue-bounded admission: shed when ``depth >= queue_limit``.

    ``queue_limit=None`` admits everything (accounting still runs).  The
    caller reports depth transitions (:meth:`admit` / :meth:`started`), so
    the controller works for both the asyncio batcher queue and the
    virtual queue of :func:`serve_arrivals`.
    """

    def __init__(self, queue_limit: int | None = None) -> None:
        if queue_limit is not None and queue_limit < 0:
            raise ServeError(f"queue_limit must be >= 0, got {queue_limit}")
        self.queue_limit = queue_limit
        self._depth = 0
        self.admitted = 0
        self.shed = 0

    @property
    def depth(self) -> int:
        return self._depth

    def admit(self, extra_depth: int = 0) -> bool:
        """Decide one arrival; updates admitted/shed accounting.

        ``extra_depth`` is backpressure from beyond the local queue —
        requests already handed on but not yet in service — so a deep
        downstream queue sheds at the front door.
        """
        if extra_depth < 0:
            raise ServeError(f"extra_depth must be >= 0, got {extra_depth}")
        depth = self._depth + extra_depth
        if self.queue_limit is not None and depth >= self.queue_limit:
            self.shed += 1
            obs.count("serve.shed")
            return False
        self.admitted += 1
        self._depth += 1
        return True

    def started(self, n: int = 1) -> None:
        """``n`` admitted requests left the queue and entered service."""
        if n > self._depth:
            raise ServeError(
                f"cannot start {n} requests with queue depth {self._depth}"
            )
        self._depth -= n


def serve_arrivals(
    arrivals: Iterable[tuple[float, T]],
    dispatch: Dispatch[T],
    queue_limit: int | None = None,
    max_batch: int = 1,
    max_wait_s: float = 0.0,
    key: Callable[[T], Hashable] | None = None,
) -> tuple[list[RequestRecord], list[tuple[float, T]]]:
    """Run ``(arrival, item)`` pairs, in arrival order, on a virtual clock.

    An arrival is admitted iff fewer than ``queue_limit`` admitted
    requests are waiting: batched but unflushed, or flushed but not yet
    started.  Admitted arrivals join the open micro-batch of their
    ``key`` (one batch when ``key`` is None), which flushes once it holds
    ``max_batch`` requests, or at ``max_wait_s`` past its first arrival
    when a later arrival (or the end of the trace) comes after that;
    batches due together flush in (instant, key) order.  Each flush is
    one ``dispatch`` call.  Returns the admitted requests' records in
    flush order and the shed ``(arrival, item)`` pairs.
    """
    admission = AdmissionController(queue_limit)
    records: list[RequestRecord] = []
    shed: list[tuple[float, T]] = []
    unstarted: list[float] = []  # heap: start instants of flushed requests
    pending: dict[Hashable, list[tuple[float, T]]] = {}  # never empty

    def flush(k: Hashable, at: float) -> None:
        batch = pending.pop(k)
        admission.started(len(batch))
        for (arrival, _), (start, finish) in zip(batch, dispatch(batch, at)):
            records.append(RequestRecord(arrival, start, finish))
            heapq.heappush(unstarted, start)

    def flush_due(before: float) -> None:
        due = [(batch[0][0] + max_wait_s, k) for k, batch in pending.items()]
        for at, k in sorted(d for d in due if before > d[0]):
            flush(k, at)

    for arrival, item in arrivals:
        flush_due(arrival)
        while unstarted and unstarted[0] <= arrival:
            heapq.heappop(unstarted)
        if not admission.admit(extra_depth=len(unstarted)):
            shed.append((arrival, item))
            continue
        k = key(item) if key is not None else None
        batch = pending.setdefault(k, [])
        batch.append((arrival, item))
        if len(batch) >= max_batch:
            flush(k, arrival)
    flush_due(math.inf)
    return records, shed


def fcfs_pool(
    servers: int, service_time: Callable[[T, int], float], now: float = 0.0
) -> Dispatch[T]:
    """A dispatcher over ``servers`` replicas free from instant ``now``.

    Each request of a batch takes the earliest-free replica, starting no
    earlier than the flush; ``service_time(item, busy_others)`` prices it
    given how many other replicas are busy at its start.
    """
    free_at = [now] * servers

    def dispatch(
        batch: list[tuple[float, T]], at: float
    ) -> list[tuple[float, float]]:
        out = []
        for _, item in batch:
            start = max(at, heapq.heappop(free_at))
            busy_others = sum(1 for t in free_at if t > start)
            finish = start + service_time(item, busy_others)
            heapq.heappush(free_at, finish)
            out.append((start, finish))
        return out

    return dispatch


# ---------------------------------------------------------------------- #
# the M/D/c simulators
# ---------------------------------------------------------------------- #
class ServingSimulator:
    """M/D/c queue over the co-location model's replicas.

    With ``queue_limit`` set, at most that many admitted requests may be
    waiting (not yet in service) at any arrival instant; excess arrivals
    are shed.  ``slo_s`` attaches a latency SLO to the run's accounting
    (it does not change scheduling).
    """

    def __init__(
        self,
        servers: int,
        service_time_s: float,
        seed: int | None = None,
        queue_limit: int | None = None,
        slo_s: float | None = None,
    ) -> None:
        if servers < 1:
            raise ConfigError(f"servers must be >= 1, got {servers}")
        if not 0 < service_time_s < math.inf:
            raise ConfigError("service_time_s must be positive and finite")
        if queue_limit is not None and queue_limit < 0:
            raise ConfigError(f"queue_limit must be >= 0, got {queue_limit}")
        if slo_s is not None and not 0 < slo_s < math.inf:
            raise ConfigError("slo_s must be positive and finite")
        self.servers = servers
        self.service_time = service_time_s
        self.seed = seed
        self.queue_limit = queue_limit
        self.slo_s = slo_s

    @staticmethod
    def from_colocation(result: ColocationResult, freq_ghz: float = 2.0,
                        seed: int | None = None) -> "ServingSimulator":
        """Build a simulator from an evaluated co-location scenario."""
        service = result.cycles_per_image / (freq_ghz * 1e9)
        return ServingSimulator(
            servers=result.scenario.instances, service_time_s=service, seed=seed
        )

    @property
    def capacity_rps(self) -> float:
        """Saturation throughput: servers / service time."""
        return self.servers / self.service_time

    def _service_for_occupancy(self, busy_others: int) -> float:
        """Service time while ``busy_others`` other replicas are serving."""
        return self.service_time

    def _arrivals(
        self, rng: np.random.Generator, arrival_rate_rps: float, n_requests: int
    ) -> np.ndarray:
        """Poisson arrival instants, reshaped by an injected burst if any."""
        gaps = rng.exponential(1.0 / arrival_rate_rps, n_requests)
        plan = faults.active_plan()
        if plan is not None:
            start, stop, factor = plan.burst_window(n_requests)
            if factor > 1.0:
                gaps[start:stop] /= factor
                faults.mark_injected("serving.burst")
        return np.cumsum(gaps)

    def run(self, arrival_rate_rps: float, n_requests: int = 2000) -> ServingStats:
        """Simulate ``n_requests`` Poisson arrivals at the given rate."""
        if not 0 < arrival_rate_rps < math.inf:
            raise ConfigError("arrival_rate_rps must be positive and finite")
        if n_requests < 1:
            raise ConfigError("n_requests must be >= 1")
        with obs.span(
            "serving.run", cat="serving",
            servers=self.servers, n_requests=n_requests,
        ):
            rng = make_rng(self.seed)
            arrivals = self._arrivals(rng, arrival_rate_rps, n_requests)
            pool: Dispatch[int] = fcfs_pool(
                self.servers, lambda _, busy: self._service_for_occupancy(busy)
            )
            records, shed = serve_arrivals(
                zip(arrivals.tolist(), range(n_requests)), pool,
                queue_limit=self.queue_limit,
            )
            stats = ServingStats.collect(
                records, self.servers, [a for a, _ in shed], self.slo_s
            )
            _record_serving_obs(stats)
            return stats

    def load_sweep(
        self, fractions: tuple[float, ...] = (0.3, 0.5, 0.7, 0.9),
        n_requests: int = 2000,
    ) -> dict[float, ServingStats]:
        """Simulate at several fractions of the saturation throughput."""
        return {
            f: self.run(f * self.capacity_rps, n_requests) for f in fractions
        }


class ContentionAwareSimulator(ServingSimulator):
    """M/D/c with occupancy-dependent service times (shared-cache effects).

    Static L2 partitioning (the paper's Intel-CAT assumption) makes service
    time load-independent; on an *unpartitioned* shared cache, a request
    served while ``k`` other replicas are busy effectively owns ``L2/(k+1)``
    and runs slower.  This variant interpolates the service time between the
    solo time and the fully-contended time by the instantaneous occupancy —
    quantifying what cache partitioning buys at the tail.
    """

    def __init__(
        self,
        servers: int,
        service_time_alone_s: float,
        service_time_contended_s: float,
        seed: int | None = None,
        queue_limit: int | None = None,
        slo_s: float | None = None,
    ) -> None:
        if not service_time_alone_s <= service_time_contended_s < math.inf:
            raise ConfigError(
                "contended service time must be finite and >= the solo "
                "service time"
            )
        super().__init__(
            servers, service_time_alone_s, seed=seed,
            queue_limit=queue_limit, slo_s=slo_s,
        )
        self.service_contended = service_time_contended_s

    def _service_for_occupancy(self, busy_others: int) -> float:
        if self.servers == 1:
            return self.service_time
        frac = busy_others / (self.servers - 1)
        return self.service_time + frac * (
            self.service_contended - self.service_time
        )
