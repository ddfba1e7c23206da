"""Per-request middleware of the live service: admission and accounting.

:class:`AdmissionController` is the queue-bounded admission policy of
:func:`repro.serving.simulator.serve_arrivals`, the virtual-clock loop
every simulator and replay runs; it is defined there, beside the loop,
and the server consults the same object per request.
:class:`ServingLedger` folds the outcome of a run into the
:class:`~repro.serving.simulator.ServingStats` aggregate the simulators
report, so dashboards and invariant checks (``offered == admitted +
shed``) carry over unchanged.
"""

from __future__ import annotations

import math

from repro import obs
from repro.errors import ServeError
from repro.serving.simulator import AdmissionController, RequestRecord, ServingStats

__all__ = ["AdmissionController", "ServingLedger"]


class ServingLedger:
    """Per-request timeline accounting shared by server and replay harness.

    Collects :class:`RequestRecord` timelines for admitted requests and
    arrival instants for shed ones, then renders the run as a
    :class:`ServingStats`, including SLO-breach accounting.
    """

    def __init__(self, slo_s: float | None = None) -> None:
        if slo_s is not None and not 0 < slo_s < math.inf:
            raise ServeError("slo_s must be positive and finite")
        self.slo_s = slo_s
        self.records: list[RequestRecord] = []
        self.shed_arrivals: list[float] = []

    # ------------------------------------------------------------------ #
    def record(self, arrival: float, start: float, finish: float) -> None:
        if not arrival <= start <= finish:
            raise ServeError(
                f"non-causal request timeline {arrival}/{start}/{finish}"
            )
        rec = RequestRecord(arrival, start, finish)
        self.records.append(rec)
        obs.observe("serve.latency_s", rec.latency)
        obs.observe("serve.queue_wait_s", rec.queue_wait)

    def record_shed(self, arrival: float) -> None:
        self.shed_arrivals.append(arrival)

    # ------------------------------------------------------------------ #
    @property
    def n_requests(self) -> int:
        return len(self.records)

    def stats(self, servers: int = 1) -> ServingStats:
        """The run so far as a :class:`ServingStats` aggregate."""
        return ServingStats.collect(
            self.records,
            servers=servers,
            shed_arrivals=self.shed_arrivals,
            slo_s=self.slo_s,
        )
