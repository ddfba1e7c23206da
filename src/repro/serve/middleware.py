"""PR 5's overload machinery, lifted out of the simulator into middleware.

:class:`ResilientServingSimulator` proved the policies — queue-bounded
admission control and SLO-breach accounting — inside a discrete-event
loop.  The real service needs the same policies as free-standing
objects it can consult per request; this module provides them, and
:class:`ServingLedger` folds the outcome of a run back into the *same*
:class:`~repro.serving.simulator.ServingStats` aggregate the simulators
report, so dashboards and invariant checks (``offered == admitted +
shed``) carry over unchanged.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from repro import obs
from repro.errors import ServeError
from repro.serving.simulator import RequestRecord, ServingStats


class AdmissionController:
    """Queue-bounded admission: shed when ``depth >= queue_limit``.

    ``queue_limit=None`` admits everything (accounting still runs).  The
    caller reports depth transitions (:meth:`enqueued` /
    :meth:`started`), so the controller works for both the asyncio
    batcher queue and the replay harness's virtual queue.
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

        ``extra_depth`` is backpressure from beyond the local queue — a
        router adds its replica-side backlog (dispatched-but-waiting
        requests), so a deep downstream queue sheds at the front door.
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


class ServingLedger:
    """Per-request timeline accounting shared by server and replay harness.

    Collects :class:`RequestRecord` timelines for admitted requests and
    arrival instants for shed ones, then renders the run as a
    :class:`ServingStats` — the exact aggregate PR 5's simulators emit,
    including SLO-breach accounting.
    """

    def __init__(self, slo_s: float | None = None) -> None:
        if slo_s is not None and slo_s <= 0:
            raise ServeError("slo_s must be positive")
        self.slo_s = slo_s
        self.records: list[RequestRecord] = []
        self.shed_arrivals: list[float] = []
        self._starts: list[float] = []  # sorted start instants

    # ------------------------------------------------------------------ #
    def record(self, arrival: float, start: float, finish: float) -> None:
        if not arrival <= start <= finish:
            raise ServeError(
                f"non-causal request timeline {arrival}/{start}/{finish}"
            )
        rec = RequestRecord(arrival, start, finish)
        self.records.append(rec)
        insort(self._starts, start)
        obs.observe("serve.latency_s", rec.latency)
        obs.observe("serve.queue_wait_s", rec.queue_wait)

    def record_shed(self, arrival: float) -> None:
        self.shed_arrivals.append(arrival)

    # ------------------------------------------------------------------ #
    def waiting_at(self, t: float) -> int:
        """Admitted-but-unstarted requests at instant ``t`` (recorded only)."""
        return len(self._starts) - bisect_right(self._starts, t)

    @property
    def n_requests(self) -> int:
        return len(self.records)

    def stats(self, servers: int = 1) -> ServingStats:
        """The run so far as PR 5's :class:`ServingStats` aggregate."""
        return ServingStats.collect(
            self.records,
            servers=servers,
            shed_arrivals=self.shed_arrivals,
            slo_s=self.slo_s,
        )
