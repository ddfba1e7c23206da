"""Benchmarks of the tensorized analytical-grid evaluator.

Guards ISSUE 8's headline number: evaluating the paper's full hardware
grid (every applicable (layer, algorithm, hardware) cell) through one
columnar :func:`~repro.simulator.analytical.grid.evaluate_phase_table`
call must be >= 20x faster than the retained per-cell dispatch — with
bit-identical records.

The comparison mirrors what the engine fast path replaces.  The
per-cell path resolves the algorithm, rebuilds the loop-nest schedule
and evaluates the model *for every cell of every call* (that is what
``registry.layer_cycles`` does, the per-cell reference).  The
columnar :class:`PhaseTable` is built **once per grid** by design and
then evaluated in one tensorized call, so the table build sits outside
the timed region the same way the per-cell side's applicability
filtering does.
"""

import gc
import time

import pytest
from _metrics import record_metric

from repro.algorithms.registry import (
    ALGORITHM_NAMES,
    get_algorithm,
    layer_cycles,
)
from repro.experiments.configs import workload
from repro.simulator._compiled import HAVE_NUMBA
from repro.simulator.analytical.grid import PhaseTable, evaluate_phase_table
from repro.simulator.hwconfig import HardwareConfig
from tests.oracle import records_identical

needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA,
    reason="Numba not installed (the [compiled] extra); CI's bench-smoke "
           "job installs it so this ratio is always gated there",
)


def _best_of(func, repeats: int = 3) -> float:
    """Min wall time over a few runs (stabilizes the speedup ratio).

    GC is suspended while timing — both paths allocate thousands of
    record objects per call, and collector pauses land arbitrarily,
    skewing the ratio (same rationale as pytest-benchmark's
    ``--benchmark-disable-gc``).
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            func()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def _paper_configs():
    """The paper's VLEN x L2 sweep (16 integrated-style configs)."""
    return [
        HardwareConfig.paper2_rvv(v, l2)
        for v in (512, 1024, 2048, 4096)
        for l2 in (1.0, 4.0, 16.0, 64.0)
    ]


def _grid_work():
    """All applicable (name, spec, hw) cells of the paper grid."""
    specs = workload("vgg16") + workload("yolov3")
    work = []
    for hw in _paper_configs():
        for spec in specs:
            for name in ALGORITHM_NAMES:
                if get_algorithm(name).applicable(spec):
                    work.append((name, spec, hw))
    return work


def _prebuilt_cells(work):
    """(algorithm, phases, hw) triples with schedules already built."""
    return [
        (name, get_algorithm(name).schedule(spec, hw), hw)
        for name, spec, hw in work
    ]


def test_grid_vs_percell_speedup(benchmark):
    """One tensorized call over the prebuilt grid table must be >= 20x
    faster than per-cell dispatch (resolve + schedule + evaluate per
    cell), bit-identically (see docs/PERF.md)."""
    work = _grid_work()
    table = PhaseTable.from_cells(_prebuilt_cells(work))

    def percell():
        # the per-cell reference path: every call re-resolves the
        # algorithm, rebuilds the schedule and evaluates the model
        return [
            layer_cycles(name, spec, hw, fallback=False)
            for name, spec, hw in work
        ]

    def grid():
        # numpy backend: the gated ratio tracks the always-available
        # tensorized path regardless of what `auto` resolves to
        return evaluate_phase_table(table, backend="numpy")

    for a, b in zip(percell(), grid()):
        assert records_identical(a, b)

    # interleave the two sides so both minima sample the same time
    # window — back-to-back blocks let a noisy scheduler period land on
    # one side only and skew the ratio
    cell_s = grid_s = float("inf")
    for _ in range(4):
        cell_s = min(cell_s, _best_of(percell, repeats=1))
        grid_s = min(grid_s, _best_of(grid, repeats=3))
    benchmark(grid)

    speedup = cell_s / grid_s
    rate = len(work) / grid_s
    print(f"\nanalytical grid: per-cell {cell_s * 1e3:.1f} ms, tensorized "
          f"{grid_s * 1e3:.2f} ms, speedup {speedup:.0f}x "
          f"({len(work)} cells, {rate / 1e3:.0f}k cells/s)")
    # loose in-test sanity bound; the committed >= 20x floor in
    # benchmarks/baselines.json is enforced by check_bench_regression.py
    record_metric("analytical.grid_vs_percell_speedup", speedup)
    assert speedup >= 10.0, f"tensorized grid only {speedup:.1f}x faster"


@needs_numba
def test_grid_compiled_matches_numpy(benchmark):
    """The Numba kernel must stay bit-identical to the numpy backend on
    the full grid (speed is a bonus at this row count, not a contract:
    both are already far inside the end-to-end budget)."""
    table = PhaseTable.from_cells(_prebuilt_cells(_grid_work()))

    def numpy_grid():
        return evaluate_phase_table(table, backend="numpy")

    def compiled_grid():
        return evaluate_phase_table(table, backend="compiled")

    ref = numpy_grid()
    got = compiled_grid()  # also warms the JIT cache
    for a, b in zip(ref, got):
        assert records_identical(a, b)

    np_s = _best_of(numpy_grid)
    c_s = _best_of(compiled_grid)
    benchmark(compiled_grid)
    print(f"\ncompiled grid: numpy {np_s * 1e3:.2f} ms, compiled "
          f"{c_s * 1e3:.2f} ms ({np_s / c_s:.1f}x)")


def test_cold_engine_batch_uses_grid(benchmark):
    """End-to-end: a cold cache-disabled engine batch through the
    tensorized path must beat per-cell ``layer_cycles`` calls over the
    same tasks and stay bit-identical — the serving/campaign cold start."""
    from repro.engine import EvalTask, EvaluationEngine

    specs = workload("vgg16") + workload("yolov3")
    tasks = [
        EvalTask(name, spec, hw)
        for spec in specs
        for hw in _paper_configs()
        for name in ALGORITHM_NAMES
    ]
    fast = EvaluationEngine(use_cache=False)

    def percell():
        return [
            layer_cycles(t.algorithm, t.spec, t.hw, fallback=t.fallback)
            for t in tasks
        ]

    for a, b in zip(fast.evaluate_many(tasks), percell()):
        assert records_identical(a, b)

    # interleaved, like test_grid_vs_percell_speedup
    fast_s = slow_s = float("inf")
    for _ in range(4):
        fast_s = min(fast_s, _best_of(lambda: fast.evaluate_many(tasks)))
        slow_s = min(slow_s, _best_of(percell, repeats=1))
    benchmark(lambda: fast.evaluate_many(tasks))
    speedup = slow_s / fast_s
    print(f"\ncold engine {len(tasks)}-task batch: per-cell "
          f"{slow_s * 1e3:.0f} ms, grid fast path {fast_s * 1e3:.0f} ms "
          f"({speedup:.1f}x)")
    # the committed floor in benchmarks/baselines.json is enforced by
    # check_bench_regression.py
    record_metric("engine.cold_vs_percell_speedup", speedup)
    assert fast_s < slow_s, "grid fast path slower than per-cell engine"
