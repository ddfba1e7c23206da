"""A real async serving layer over the co-design stack.

Where :mod:`repro.serving` *simulates* request-level dynamics,
:mod:`repro.serve` actually serves: ``repro-serve`` is an asyncio
service that answers algorithm-selection queries (which convolution
algorithm should this layer use on this hardware, and what will it
cost?).  Each micro-batch prices every applicable candidate of every
request in one engine call, through the shared memo cache, and answers
with the cycle-optimal one; the overload policies the serving
simulators proved out — admission control, shedding, SLO accounting —
run as real middleware.

Since PR 10 the endpoint also survives replica failure:
:mod:`repro.serve.router` runs N service replicas behind one
consistent-hash front end (``repro-serve --replicas 4``) with
per-replica health tracking (:mod:`repro.serve.health`), deadline
budgets, retry-on-a-different-replica, optional request hedging and
graceful drain/rejoin — all deterministic under the fault plane's
``replica.*``/``probe.drop`` sites.

The package ships its own proving ground: :mod:`repro.serve.loadgen`
generates seeded diurnal/bursty traces and replays them against the
in-process service (or a whole replica pool, :func:`routed_replay`) on
a virtual clock, which is how the integration suite
(``tests/test_serve_integration.py``, ``tests/test_serve_router.py``)
pins response parity, SLO safety under overload and failover behavior
deterministically.  See ``docs/SERVING.md``.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.clock import Clock, MonotonicClock, VirtualClock
from repro.serve.health import ReplicaHealth
from repro.serve.loadgen import (
    ReplayResult,
    RoutedReplayResult,
    TimedRequest,
    TraceSpec,
    default_workload,
    generate_trace,
    replay,
    routed_replay,
)
from repro.serve.middleware import AdmissionController, ServingLedger
from repro.serve.protocol import (
    ServeRequest,
    ServeResponse,
    error_response,
    shed_response,
)
from repro.serve.router import (
    InProcessReplica,
    ReplicaHandle,
    ReplicaRouter,
    RoutedOutcome,
    RouterStats,
)
from repro.serve.server import AsyncServeServer, ServeApp, main, stats_dict
from repro.serve.service import PredictionService

__all__ = [
    "AdmissionController",
    "AsyncServeServer",
    "Clock",
    "InProcessReplica",
    "MicroBatcher",
    "MonotonicClock",
    "PredictionService",
    "ReplayResult",
    "ReplicaHandle",
    "ReplicaHealth",
    "ReplicaRouter",
    "RoutedOutcome",
    "RoutedReplayResult",
    "RouterStats",
    "ServeApp",
    "ServeRequest",
    "ServeResponse",
    "ServingLedger",
    "TimedRequest",
    "TraceSpec",
    "VirtualClock",
    "default_workload",
    "error_response",
    "generate_trace",
    "main",
    "replay",
    "routed_replay",
    "shed_response",
    "stats_dict",
]
