"""trace-sim worker: trace-driven simulation of scaled Paper II layers.

One op simulates one (layer, algorithm) cell of :data:`inputs.TRACE_CELLS`:
``ConvAlgorithm.run_vectorized`` on a fresh ``VectorMachine`` generates the
instruction trace, then ``TraceTimingModel.run(flush=True)`` replays it at
the Figs. 1-2 configuration (512 b / 1 MB) with caches starting empty.  A
run is a whole number of passes over the cell list, each pass in seeded
order, with seeded input tensors.  A calibration block
(:func:`common.calibrate`) follows the warm-up and every op, so ``run.py``
can report op times at the reference speed.

Run by ``run.py``::

    python3 perfbench/trace_sim.py --seed N --passes K [--setup-only] [--spans PATH]
    python3 perfbench/trace_sim.py --write-reference

The simulated statistics (event count and every ``TimingResult`` field)
are checked against ``trace_reference.json`` outside the timed region;
``--write-reference`` regenerates that file from the current package.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common
import inputs

REFERENCE = common.BENCH_DIR / "trace_reference.json"
#: ``TimingResult`` fields compared with the reference.
RESULT_FIELDS = (
    "cycles", "compute_cycles", "memory_cycles", "scalar_cycles",
    "l1_misses", "l2_misses", "vector_instrs", "memory_instrs", "scalar_instrs",
)


def make_cell(index: int, seed: int, op: int):
    """(algorithm, spec, x, w) of one op; tensor values come from the seed."""
    import numpy as np

    from repro.algorithms.registry import get_algorithm
    from repro.nn.layer import ConvSpec

    _, algo_name, fields = inputs.TRACE_CELLS[index]
    spec = ConvSpec(**fields)
    rng = np.random.default_rng([seed & 0xFFFFFFFF, op + 1, index])
    x = rng.standard_normal((spec.ic, spec.ih, spec.iw)).astype(np.float32)
    w = (0.1 * rng.standard_normal((spec.oc, spec.ic, spec.kh, spec.kw))).astype(
        np.float32
    )
    return get_algorithm(algo_name), spec, x, w


def simulate(algo, spec, x, w):
    """One op: (gen_s, replay_s, events, trace_bytes, TimingResult)."""
    from repro.isa.machine import VectorMachine
    from repro.simulator.hwconfig import HardwareConfig
    from repro.simulator.timing import TraceTimingModel

    hw = HardwareConfig.paper2_rvv(512, 1.0)
    t0 = time.perf_counter()
    machine = VectorMachine(hw.vlen_bits)
    algo.run_vectorized(spec, x, w, machine)
    t1 = time.perf_counter()
    result = TraceTimingModel(hw).run(machine.trace, flush=True)
    t2 = time.perf_counter()
    trace_bytes = sum(col.nbytes for col in machine.trace.columns())
    return t1 - t0, t2 - t1, len(machine.trace), trace_bytes, result


def stats_of(events: int, result) -> dict:
    return {"events": events, **{f: getattr(result, f) for f in RESULT_FIELDS}}


def check_cell(name: str, stats: dict, reference: dict) -> bool:
    """True when the simulated statistics equal the kept reference."""
    return reference.get(name) == stats


def run(seed: int, n_passes: int, setup_only: bool = False, spans_path=None) -> dict:
    reference = json.loads(REFERENCE.read_text())
    order = inputs.trace_order(seed, n_passes)
    warm = make_cell(inputs.TRACE_WARMUP, seed, -1)
    _, _, events, _, result = simulate(*warm)
    print(common.READY, flush=True)
    setup_cal_s = common.setup_calibration()
    if setup_only:
        return {"setup_cal_s": setup_cal_s}
    warm_name = inputs.TRACE_CELLS[inputs.TRACE_WARMUP][0]
    failed = 0 if check_cell(warm_name, stats_of(events, result), reference) else 1

    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder, spans.TRACE_TARGETS)
    n_cells = len(inputs.TRACE_CELLS)
    gen_s, replay_s, op_events = [], [], []
    cal_s = []  # per op: mean of the calibration blocks before and after it
    cal_before = common.calibrate()
    per_pass = {"events": 0, "sim_cycles": 0.0, "l1_misses": 0, "l2_misses": 0}
    trace_mb = 0.0
    for op, index in enumerate(order):
        cell = make_cell(index, seed, op)
        if recorder is not None:
            with recorder.span("bench.op"):
                g, r, events, nbytes, result = simulate(*cell)
        else:
            g, r, events, nbytes, result = simulate(*cell)
        del cell
        cal_after = common.calibrate()
        cal_s.append((cal_before + cal_after) / 2)
        cal_before = cal_after
        gen_s.append(g)
        replay_s.append(r)
        op_events.append(events)
        name = inputs.TRACE_CELLS[index][0]
        if not check_cell(name, stats_of(events, result), reference):
            failed += 1
        if op < n_cells:  # the first pass covers every cell once
            per_pass["events"] += events
            per_pass["sim_cycles"] += result.cycles
            per_pass["l1_misses"] += result.l1_misses
            per_pass["l2_misses"] += result.l2_misses
            trace_mb = max(trace_mb, nbytes / 1e6)
    if recorder is not None:
        recorder.dump(spans_path)
    return {
        "gen_s": gen_s,
        "replay_s": replay_s,
        "cal_s": cal_s,
        "setup_cal_s": setup_cal_s,
        "events": op_events,
        "per_pass": per_pass,
        "trace_mb": trace_mb,
        "attempted": len(order) + 1,
        "failed": failed,
        "peak_rss_mb": common.peak_rss_mb(),
        "env": common.fingerprint(),
    }


def write_reference() -> None:
    out = {}
    for index, (name, _, _) in enumerate(inputs.TRACE_CELLS):
        _, _, events, _, result = simulate(*make_cell(index, 0, 0))
        out[name] = stats_of(events, result)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    common.emit_result(run(args.seed, args.passes, args.setup_only, args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
