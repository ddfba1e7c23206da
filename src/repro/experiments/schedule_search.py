"""Schedule search over loop transformations, per (layer, VL, L2) cell.

For every grid cell the search enumerates the kernel templates' schedule
candidates (Direct's output-row unroll, the 3-loop GEMM's i-block unroll,
the 6-loop GEMM's BLIS blocks — the ``ablation-blocks`` grid — and the
fixed Winograd point) and scores them with the analytical model through
the memoized engine.  The table reports the searched best against the
fixed four-algorithm menu; by construction the searched schedule never
loses (the menu defaults are candidates) and ties keep the menu name.

Scope is environment-tunable for CI:

* ``REPRO_SCHEDULE_QUICK=1`` — bounded smoke scope (3 VGG-16 layers,
  VL in {512, 2048} bits, L2 in {1, 16} MB);
* ``REPRO_SCHEDULE_LAYERS=1,5,9`` — explicit layer indices;
* ``REPRO_SCHEDULE_SEED`` — subsample seed (default: the global seed).
"""

from __future__ import annotations

import os

from repro.errors import ExperimentError
from repro.experiments.configs import workload
from repro.experiments.report import ExperimentResult
from repro.nn.layer import ConvSpec
from repro.schedule.search import SearchBounds, SearchReport, search_schedules
from repro.simulator.hwconfig import HardwareConfig
from repro.utils.prng import DEFAULT_SEED
from repro.utils.tables import Table

#: Full-scope grid (the paper's VL x L2 axes).
VECTOR_LENGTHS: tuple[int, ...] = (512, 1024, 2048, 4096)
L2_SIZES_MIB: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0)

#: Quick-scope grid and layers (the CI smoke leg).
QUICK_VECTOR_LENGTHS: tuple[int, ...] = (512, 2048)
QUICK_L2_SIZES_MIB: tuple[float, ...] = (1.0, 16.0)
QUICK_LAYER_INDICES: tuple[int, ...] = (1, 5, 9)


def _scope() -> tuple[list[ConvSpec], list[HardwareConfig], int]:
    """(specs, configs, seed) from the environment knobs."""
    quick = os.environ.get("REPRO_SCHEDULE_QUICK", "") not in ("", "0")
    specs = {s.index: s for s in workload("vgg16")}
    layers_env = os.environ.get("REPRO_SCHEDULE_LAYERS", "")
    if layers_env:
        try:
            indices = tuple(int(t) for t in layers_env.split(",") if t.strip())
        except ValueError:
            raise ExperimentError(
                f"REPRO_SCHEDULE_LAYERS must be comma-separated integers, "
                f"got {layers_env!r}"
            )
    elif quick:
        indices = QUICK_LAYER_INDICES
    else:
        indices = tuple(sorted(specs))
    unknown = [i for i in indices if i not in specs]
    if unknown:
        raise ExperimentError(
            f"REPRO_SCHEDULE_LAYERS indices {unknown} not in VGG-16 "
            f"(known: {sorted(specs)})"
        )
    vls = QUICK_VECTOR_LENGTHS if quick else VECTOR_LENGTHS
    l2s = QUICK_L2_SIZES_MIB if quick else L2_SIZES_MIB
    configs = [HardwareConfig.paper2_rvv(vl, l2) for vl in vls for l2 in l2s]
    seed_env = os.environ.get("REPRO_SCHEDULE_SEED", "")
    try:
        seed = int(seed_env) if seed_env else DEFAULT_SEED
    except ValueError:
        raise ExperimentError(
            f"REPRO_SCHEDULE_SEED must be an integer, got {seed_env!r}"
        )
    return [specs[i] for i in indices], configs, seed


def result_from_report(report: SearchReport) -> ExperimentResult:
    """Render a search report as an experiment artifact."""
    table = Table(
        [
            "layer", "VL", "L2", "menu best", "menu cycles",
            "searched best", "searched cycles", "ratio",
        ],
        title="Schedule search vs the fixed four-algorithm menu (VGG-16)",
    )
    for c in report.cells:
        table.add_row([
            f"L{c.layer}",
            f"{c.vlen_bits}b",
            f"{c.l2_mib:g}MB",
            c.menu_best,
            round(c.menu_cycles, 1),
            c.best,
            round(c.best_cycles, 1),
            round(c.ratio, 4),
        ])
    return ExperimentResult(
        experiment="schedule-search",
        description="Searched loop schedules vs the hand-written menu",
        table=table,
        data={
            "rows": report.rows(),
            "cells": len(report.cells),
            "beat_fraction": report.beat_fraction,
            "geomean_ratio": report.geomean_ratio,
            "min_ratio": report.min_ratio,
            "winners": report.winner_names(),
            "seed": report.bounds.seed,
        },
    )


def run() -> ExperimentResult:
    specs, configs, seed = _scope()
    report = search_schedules(
        specs, configs, bounds=SearchBounds(seed=seed)
    )
    return result_from_report(report)
