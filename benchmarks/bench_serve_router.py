"""Benchmark + CI gate for replica-pool availability under faults.

Replays the ISSUE 10 chaos scenario — the pinned bursty 10k-request trace
against four engine-backed replicas while the seeded fault plan kills one
of them mid-trace — and records the admitted-success fraction as
``serve.router_availability_under_faults`` for the committed-floor
regression gate (``benchmarks/baselines.json``).

Like ``schedule.search_best_vs_menu_ratio`` this metric is a pure model
output on the virtual clock: it is bit-stable across machines, so the
committed floor of 1.0 is exact — the router must fail over every request
the dead replica would have served.  Any routing regression that lets an
admitted request error out fails CI.
"""

from __future__ import annotations

from _metrics import record_metric

from repro import faults
from repro.algorithms.registry import layer_cycles
from repro.engine.executor import EvaluationEngine
from repro.nn.models.vgg16 import vgg16_conv_specs
from repro.serve import (
    InProcessReplica,
    PredictionService,
    ReplicaRouter,
    TraceSpec,
    generate_trace,
    routed_replay,
)
from repro.simulator.hwconfig import HardwareConfig

# the pinned chaos scenario (mirrors tests/test_serve_router.py): fault
# seed 4 at this crash rate kills exactly replica-2 partway through the
# trace, so every later request sharded to it must fail over.
N_REQUESTS = 10_000
N_REPLICAS = 4
TRACE_SEED = 20240812
ROUTER_SEED = 7
FAULT_SPEC = "seed=4,replica.crash=0.0005"


def _workload():
    specs = vgg16_conv_specs()
    hws = [
        HardwareConfig.paper2_rvv(vl, l2)
        for vl in (256, 512)
        for l2 in (1.0, 2.0)
    ]
    return [(s, hw) for hw in hws for s in specs]


def _run_chaos_replay():
    pool = _workload()
    mean_safe = sum(
        layer_cycles("im2col_gemm6", s, hw, fallback=True).seconds(hw.freq_ghz)
        for s, hw in pool
    ) / len(pool)
    trace = generate_trace(
        TraceSpec(
            pattern="bursty", n_requests=N_REQUESTS,
            rate_rps=2.0 * N_REPLICAS / mean_safe,
            seed=TRACE_SEED, burst_factor=4.0,
        ),
        pool,
    )
    engine = EvaluationEngine()
    replicas = [
        InProcessReplica(
            f"replica-{i}", PredictionService(engine=engine)
        )
        for i in range(N_REPLICAS)
    ]
    router = ReplicaRouter(
        replicas, seed=ROUTER_SEED, max_retries=3, retry_backoff_s=0.001,
        probe_interval_s=0.5, health_kwargs={"eject_for_s": 1e6},
    )
    with faults.inject(FAULT_SPEC):
        result = routed_replay(
            router, trace, queue_limit=16, slo_s=10.0,
            max_batch=64, max_wait_s=0.002,
        )
    return router, result


def test_router_availability_under_faults(benchmark):
    """Admitted-success fraction with 1-of-4 replicas killed mid-trace."""
    router, result = benchmark.pedantic(
        _run_chaos_replay, rounds=1, iterations=1
    )

    # the scripted outage actually happened
    dead = [
        name for name, h in router.health.items() if h.state == "ejected"
    ]
    assert len(dead) == 1
    assert router.stats.failovers > 0

    # availability: every admitted request still completed successfully
    admitted = len(result.responses)
    ok = sum(1 for r in result.responses if r.status == "ok")
    assert admitted > 0
    assert result.conserved()
    availability = ok / admitted
    record_metric("serve.router_availability_under_faults", availability)
    assert availability == 1.0

    print()
    print(
        f"admitted={admitted} ok={ok} shed={len(result.shed_ids)} "
        f"failovers={router.stats.failovers} dead={dead[0]} "
        f"availability={availability:.4f}"
    )
