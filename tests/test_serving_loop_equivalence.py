"""Recorded digests of every virtual-clock serving run.

``ServingSimulator``, ``ContentionAwareSimulator``, ``replay`` and
``routed_replay`` drive one discrete-event loop (admit -> micro-batch ->
dispatch -> record).  Each digest below is a sha256 over everything a
group of runs produced:

* the IEEE-754 bytes of every ``RequestRecord`` and shed arrival;
* the JSON of every response;
* the shed request ids;
* the router's ``RouterStats`` and each routed outcome's provenance.

The digests were recorded while each caller still had its own loop, so a
pass shows the shared loop reproduces those runs bit for bit.  The runs
cover load below and above capacity, queue limits, micro-batch sizes and
waits, the ``serving.burst`` plan, errored responses, hedging, deadlines,
probes and the ``replica.*``/``probe.drop`` fault sites.
"""

from __future__ import annotations

import hashlib
import json
import struct

import pytest

from repro import faults
from repro.engine.executor import EvaluationEngine
from repro.nn.models.vgg16 import vgg16_conv_specs
from repro.serve import (
    InProcessReplica,
    PredictionService,
    ReplicaRouter,
    TraceSpec,
    generate_trace,
    replay,
    routed_replay,
)
from repro.serving import ContentionAwareSimulator, ServingSimulator
from repro.simulator.hwconfig import HardwareConfig

#: Mean cycle-optimal service time of ``default_workload()`` (s), rounded;
#: trace rates are set relative to it.
MEAN_SERVICE_S = 0.054

DIGESTS = {
    "simulator": (
        "5133c1ffb2af58c354d8440865a5e0b7"
        "7510d4720b101d57932cde57aadf0d02"
    ),
    "contention": (
        "6cd2fb31b2f7c2dd69d23190da87ef82"
        "ff807379c5f26a87f79df12052415ef2"
    ),
    "burst": (
        "cedae130c68d0fa5af0aae9a09494bb7"
        "fa20511c59cd5596dc97cdc233a33068"
    ),
    "replay": (
        "1b5a45d71ea63ac1931a2f6cfb9a1a6e"
        "9553229f17ee74cb67210696313aa404"
    ),
    "replay_errors": (
        "e6cbcd2008fbdcf242a75a56b0db9af3"
        "8e9eb6db520382ddd2672cd58fa47126"
    ),
    "routed": (
        "2323a816a4ea03dddf7f648ce500a8b6"
        "e50aca221c885b7a7c4a00d26c99cf4e"
    ),
    "routed_faults": (
        "0d82a9b98bf930f27d2c85548c58470c"
        "0917b5b7c3d856da7f43201f380d6b65"
    ),
}


def _floats(digest, values) -> None:
    values = list(values)
    digest.update(struct.pack(f"<{len(values)}d", *values))


def _stats(digest, stats) -> None:
    for r in stats.records:
        _floats(digest, (r.arrival, r.start, r.finish))
    _floats(digest, stats.shed_arrivals)
    digest.update(json.dumps([stats.servers, stats.slo_s]).encode())


def _responses(digest, result) -> None:
    for response in result.responses:
        digest.update(response.to_json().encode())
    digest.update(json.dumps(result.shed_ids).encode())
    _stats(digest, result.stats)


@pytest.fixture(scope="module")
def engine():
    return EvaluationEngine()


def _simulator_runs(digest, make) -> None:
    for servers in (1, 4, 16):
        for load in (0.5, 0.9, 1.5):
            for queue_limit in (None, 0, 4):
                sim = make(servers, queue_limit)
                _stats(digest, sim.run(load * sim.capacity_rps, 400))


def _run_simulator(engine):
    digest = hashlib.sha256()
    _simulator_runs(
        digest,
        lambda servers, limit: ServingSimulator(
            servers, 0.01, seed=servers, queue_limit=limit, slo_s=0.03
        ),
    )
    return digest


def _run_contention(engine):
    digest = hashlib.sha256()
    _simulator_runs(
        digest,
        lambda servers, limit: ContentionAwareSimulator(
            servers, 0.01, 0.025, seed=servers + 1, queue_limit=limit
        ),
    )
    return digest


def _run_burst(engine):
    digest = hashlib.sha256()
    with faults.inject("seed=13,serving.burst=3"):
        for sim in (
            ServingSimulator(2, 0.01, seed=13, queue_limit=10),
            ContentionAwareSimulator(3, 0.01, 0.02, seed=14, queue_limit=6),
        ):
            _stats(digest, sim.run(0.9 * sim.capacity_rps, 900))
    return digest


def _trace(n: int, servers: int, load: float, seed: int, workload=None):
    return generate_trace(
        TraceSpec(
            pattern="bursty", n_requests=n,
            rate_rps=load * servers / MEAN_SERVICE_S, seed=seed,
        ),
        workload,
    )


def _run_replay(engine):
    digest = hashlib.sha256()
    for servers in (1, 4, 8):
        trace = _trace(200, servers, 1.2, seed=servers)
        for max_batch in (1, 16, 64):
            for max_wait_s in (0.0, 0.002, 0.02):
                for queue_limit in (None, 8):
                    result = replay(
                        PredictionService(engine), trace, servers=servers,
                        queue_limit=queue_limit, slo_s=0.2,
                        max_batch=max_batch, max_wait_s=max_wait_s,
                    )
                    _responses(digest, result)
    return digest


def _run_replay_errors(engine):
    # an uncached engine recomputes, so every batch meets the same faults
    digest = hashlib.sha256()
    service = PredictionService(EvaluationEngine(use_cache=False))
    with faults.inject("seed=3,cell.error=0.05"):
        result = replay(
            service, _trace(150, 2, 1.5, seed=21), servers=2,
            queue_limit=6, max_batch=16, max_wait_s=0.002,
        )
    statuses = {r.status for r in result.responses}
    assert statuses == {"ok", "error"}, statuses
    _responses(digest, result)
    return digest


def _routed_workload():
    hws = [
        HardwareConfig.paper2_rvv(v, l2) for v in (256, 512) for l2 in (1.0, 2.0)
    ]
    return [(s, hw) for hw in hws for s in vgg16_conv_specs()]


def _routed(digest, router, trace, **kwargs) -> None:
    result = routed_replay(router, trace, **kwargs)
    _responses(digest, result)
    digest.update(json.dumps(result.router_stats, sort_keys=True).encode())
    for o in result.outcomes:
        digest.update(
            json.dumps([o.preferred, o.replica, o.attempts, o.hedged]).encode()
        )
        _floats(digest, (o.start, o.finish))


ROUTER_CONFIGS = (
    (1, {}),
    (3, {"hedge_after_s": 0.02, "deadline_s": 0.5, "probe_interval_s": 0.1}),
    (4, {"hedge_after_s": 0.005, "deadline_s": 0.25, "probe_interval_s": 0.05,
         "spill_wait_s": 0.05, "retry_backoff_s": 0.001}),
)


def _router(engine, n: int, seed: int, **kwargs) -> ReplicaRouter:
    replicas = [
        InProcessReplica(f"replica-{i}", PredictionService(engine))
        for i in range(n)
    ]
    return ReplicaRouter(replicas, seed=seed, **kwargs)


def _run_routed(engine):
    digest = hashlib.sha256()
    workload = _routed_workload()
    for n, config in ROUTER_CONFIGS:
        trace = _trace(200, n, 1.3, seed=100 + n, workload=workload)
        for max_batch in (1, 16):
            for max_wait_s in (0.0, 0.002):
                for queue_limit in (None, 8):
                    _routed(
                        digest, _router(engine, n, seed=n, **config), trace,
                        queue_limit=queue_limit, slo_s=0.2,
                        max_batch=max_batch, max_wait_s=max_wait_s,
                    )
    return digest


def _run_routed_faults(engine):
    digest = hashlib.sha256()
    workload = _routed_workload()
    plan = (
        "seed=5,replica.crash=0.02,replica.hang=0.03,replica.slow=0.05,"
        "probe.drop=0.1,hang.seconds=0.05"
    )
    config = {
        "hedge_after_s": 0.01, "deadline_s": 0.4, "probe_interval_s": 0.05,
        "dispatch_timeout_s": 0.03, "retry_backoff_s": 0.002,
        "health_kwargs": {"eject_for_s": 0.2},
    }
    with faults.inject(plan):
        for seed, (max_batch, max_wait_s, queue_limit) in enumerate(
            ((1, 0.0, None), (16, 0.002, 8), (64, 0.02, None), (8, 0.0, 4))
        ):
            trace = _trace(240, 4, 1.4, seed=200 + seed, workload=workload)
            _routed(
                digest, _router(engine, 4, seed=seed, **config), trace,
                queue_limit=queue_limit, slo_s=0.3,
                max_batch=max_batch, max_wait_s=max_wait_s,
            )
    return digest


RUNS = {
    "simulator": _run_simulator,
    "contention": _run_contention,
    "burst": _run_burst,
    "replay": _run_replay,
    "replay_errors": _run_replay_errors,
    "routed": _run_routed,
    "routed_faults": _run_routed_faults,
}


@pytest.mark.parametrize("group", sorted(DIGESTS))
def test_runs_match_recorded_digest(group, engine):
    assert RUNS[group](engine).hexdigest() == DIGESTS[group]

