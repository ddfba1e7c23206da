"""grid-sweep worker: the Paper II grid through one long-lived engine.

One op is one ``EvaluationEngine.evaluate_many`` call over the 28 Paper II
conv layers x 4 algorithms x 16 hardware configurations (1792 tasks).  The
16 configurations are drawn fresh for every op (VLEN 512-4096 b, L2
anywhere in 1-64 MB), so every distinct cell is a cold miss for the memo
cache and for the process-wide key memo alike.

Run by ``run.py``::

    python3 perfbench/grid_sweep.py --seed N --ops K [--setup-only] [--spans PATH]

It prints ``READY`` once imports and the warm-up op are done, calibrates
the machine's speed (:func:`common.calibrate`), then (unless
``--setup-only``) times ``K`` ops, each followed by a calibration block,
and prints one result line.  Outputs are checked outside the timed region
against ``layer_cycles``: every cell of the warm-up op and a seeded sample
of every timed op.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import common
import inputs

#: Cells of each timed op re-derived with ``layer_cycles`` and compared.
CHECK_SAMPLE = 128


def build_tasks(configs):
    from repro.engine import EvalTask
    from repro.nn.layer import ConvSpec
    from repro.simulator.hwconfig import HardwareConfig

    specs = [ConvSpec(**inputs.layer_fields(row)) for row in inputs.PAPER_LAYERS]
    hws = [HardwareConfig.paper2_rvv(vl, l2) for vl, l2 in configs]
    return [
        EvalTask(algo, spec, hw)
        for spec in specs for hw in hws for algo in inputs.ALGORITHMS
    ]


def check_records(tasks, records, indices) -> int:
    """Cells among ``indices`` whose record differs from ``layer_cycles``."""
    from repro.algorithms.registry import layer_cycles

    bad = 0
    for i in indices:
        t = tasks[i]
        if records[i] != layer_cycles(t.algorithm, t.spec, t.hw, fallback=t.fallback):
            bad += 1
    return bad


def run(seed: int, n_ops: int, setup_only: bool = False, spans_path=None,
        engine_factory=None) -> dict:
    from repro.engine import EvaluationEngine

    configs = inputs.grid_configs(seed, n_ops + 1)
    engine = (engine_factory or EvaluationEngine)()
    warm_tasks = build_tasks(configs[0])
    warm = engine.evaluate_many(warm_tasks)
    print(common.READY, flush=True)
    setup_cal_s = common.setup_calibration()
    if setup_only:
        return {"setup_cal_s": setup_cal_s}
    failed = 1 if check_records(warm_tasks, warm, range(len(warm_tasks))) else 0

    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder, spans.GRID_TARGETS)
    rng = random.Random(f"grid-sweep/check/{seed}")
    op_s: list[float] = []
    cal_s: list[float] = []  # per op: mean of the blocks before and after it
    cells = 0
    cal_before = common.calibrate()
    for op in range(n_ops):
        tasks = build_tasks(configs[op + 1])
        if recorder is not None:
            with recorder.span("bench.op"):
                t0 = time.perf_counter()
                records = engine.evaluate_many(tasks)
                t1 = time.perf_counter()
        else:
            t0 = time.perf_counter()
            records = engine.evaluate_many(tasks)
            t1 = time.perf_counter()
        op_s.append(t1 - t0)
        cal_after = common.calibrate()
        cal_s.append((cal_before + cal_after) / 2)
        cal_before = cal_after
        cells += len(tasks)
        sample = rng.sample(range(len(tasks)), CHECK_SAMPLE)
        if check_records(tasks, records, sample):
            failed += 1
    if recorder is not None:
        recorder.dump(spans_path)
    return {
        "op_s": op_s,
        "cal_s": cal_s,
        "setup_cal_s": setup_cal_s,
        "cells": cells,
        "attempted": n_ops + 1,  # the warm-up op is checked too
        "failed": failed,
        "peak_rss_mb": common.peak_rss_mb(),
        "env": common.fingerprint(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    common.emit_result(run(args.seed, args.ops, args.setup_only, args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
