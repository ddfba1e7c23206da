"""Model serving: co-located instances, cache partitioning, throughput, Pareto.

Paper II §4.4's serving scenario: a multi-core RVV chip hosts 1-64 identical
model replicas, one per core, with the shared L2 statically partitioned
(Intel-CAT-style) so each instance owns ``L2/instances``.  Throughput is
instances / per-image cycles; the Pareto analyses trade throughput (or
single-instance latency) against 7 nm chip area.
"""

from repro.serving.pareto import ParetoPoint, pareto_frontier, is_dominated
from repro.serving.throughput import network_cycles, NetworkTime
from repro.serving.colocation import ColocationScenario, ColocationResult, evaluate_colocation
from repro.serving.simulator import ServingSimulator, ServingStats
from repro.serving.recommend import DesignRecommendation, recommend_design
from repro.serving.mixed import ModelGroup, MixedServingResult, evaluate_mixed
from repro.serving.simulator import (
    ContentionAwareSimulator,
    md1_mean_wait,
)

__all__ = [
    "ParetoPoint",
    "pareto_frontier",
    "is_dominated",
    "network_cycles",
    "NetworkTime",
    "ColocationScenario",
    "ColocationResult",
    "evaluate_colocation",
    "ServingSimulator",
    "ServingStats",
    "DesignRecommendation",
    "recommend_design",
    "ModelGroup",
    "MixedServingResult",
    "evaluate_mixed",
    "ContentionAwareSimulator",
    "md1_mean_wait",
]
