"""Trace-driven timing report: trace replay vs the analytical model.

For one (layer, configuration) point, run each applicable algorithm's
vectorized kernel on the functional machine with a full instruction trace
and time it through :class:`~repro.simulator.timing.TraceTimingModel` —
the per-layer view the paper's figures take, but produced by
instruction-level simulation instead of the closed-form model.
The analytical estimate is shown alongside so the two engines can be
cross-checked layer by layer (``tests/test_model_validation.py`` asserts
their orderings agree on small kernels).

Feasible on real layers only because of the trace fast path
(``docs/PERF.md``: memory rows stored, vector and scalar instructions
counted) and the set-partitioned replay engine
(:mod:`repro.simulator.cache_fast`): a VGG-16 conv1_1 trace holds ~6M
events and generates and replays in well under a second.  Exposed as
``repro-experiments trace-report`` and via ``repro-experiments
--trace-timing <model>:<layer>``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm, layer_cycles
from repro.experiments.report import ExperimentResult
from repro.isa.machine import VectorMachine
from repro.nn.layer import ConvSpec
from repro.simulator.hwconfig import HardwareConfig
from repro.simulator.timing import TraceTimingModel
from repro.utils.tables import Table


def report(
    spec: ConvSpec,
    hw: HardwareConfig,
    algorithms: tuple[str, ...] = ALGORITHM_NAMES,
    seed: int = 0,
) -> ExperimentResult:
    """Trace-driven vs analytical cycles for one layer on one config."""
    table = Table(
        ["algorithm", "trace cycles (x1e6)", "analytical (x1e6)", "ratio",
         "L1 miss", "L2 miss", "events", "replay Mev/s"],
        title=f"Trace-driven timing: {spec.describe()} on {hw.label()}",
    )
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((spec.ic, spec.ih, spec.iw)).astype(np.float32)
    w = (
        0.1 * rng.standard_normal((spec.oc, spec.ic, spec.kh, spec.kw))
    ).astype(np.float32)
    trace_cycles: dict[str, float] = {}
    analytical_cycles: dict[str, float] = {}
    events: dict[str, int] = {}
    for name in algorithms:
        algo = get_algorithm(name)
        if not algo.applicable(spec):
            table.add_row([algo.label, "n/a", "n/a", "-", "-", "-", "-", "-"])
            continue
        machine = VectorMachine(hw.vlen_bits)
        algo.run_vectorized(spec, x, w, machine)
        model = TraceTimingModel(hw)
        start = time.perf_counter()
        res = model.run(machine.trace, flush=True)
        replay_s = time.perf_counter() - start
        analytical = layer_cycles(name, spec, hw).cycles
        trace_cycles[name] = res.cycles
        analytical_cycles[name] = analytical
        events[name] = len(machine.trace)
        l1 = model.hierarchy.l1.stats
        l2 = model.hierarchy.l2.stats
        table.add_row(
            [
                algo.label,
                res.cycles / 1e6,
                analytical / 1e6,
                f"{res.cycles / analytical:.2f}" if analytical else "-",
                f"{l1.miss_rate:.1%}" if l1.accesses else "-",
                f"{l2.miss_rate:.1%}" if l2.accesses else "-",
                len(machine.trace),
                f"{len(machine.trace) / replay_s / 1e6:.1f}",
            ]
        )
    return ExperimentResult(
        experiment="trace-report",
        description=f"Trace-driven timing of {spec.describe()}",
        table=table,
        data={
            "trace_cycles": trace_cycles,
            "analytical_cycles": analytical_cycles,
            "events": events,
        },
    )


def run(
    layer: str = "vgg16:1", vlen_bits: int = 512, l2_mib: float = 1.0
) -> ExperimentResult:
    """CLI entry: ``layer`` is ``<model>:<conv ordinal>``."""
    from repro.experiments.configs import workload

    model_name, _, ordinal = layer.partition(":")
    specs = workload(model_name)
    idx = int(ordinal or 1)
    spec = next(s for s in specs if s.index == idx)
    return report(spec, HardwareConfig.paper2_rvv(vlen_bits, l2_mib))
