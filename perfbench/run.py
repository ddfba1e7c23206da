"""The repository benchmark: three workloads, end to end and layer by layer.

Usage, from the checkout root::

    python3 perfbench/run.py --workload grid-sweep|trace-sim|serve-mix|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the unmodified package and prints the end-to-end
metrics; ``--trace 1`` runs the workload twice in fresh processes, once
untraced and once with span wrappers installed, and prints the per-layer
metrics plus ``trace_overhead_pct`` (traced against untraced op time).  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit and sample count, the ops attempted and failed, and the environment
fingerprint.

Every workload reports the same five end-to-end metrics:

=================  =================  =================  ==================
metric             grid-sweep         trace-sim          serve-mix
=================  =================  =================  ==================
setup_s            fresh interpreter  fresh interpreter  server launch to
                   to warm-up op      to warm-up op      first response
throughput_per_s   cells / op time    trace events /     requests/s, closed
                                      (gen + replay)     loop
latency_p50_ms     per op             per cell           per request, open
latency_p90_ms     per op             per cell           loop, from due time
peak_rss_mb        worker process     worker process     server process
=================  =================  =================  ==================

``setup_s`` is the median of several fresh start-ups per run.  Op lists
are fixed per seed and per ``--seconds`` (a nominal rate on the reference
machine sets their length), so both sides of a comparison run the same mix.

Every time in an end-to-end metric except serve-mix's open-loop latencies
is at the reference speed: each op (each closed-loop part, each start-up)
is followed by a fixed calibration block in the process that did the
work, and its wall time is scaled by ``CALIBRATION_REF_S / block time``
(:func:`common.calibrate`).  The shared host's speed drifts by up to 2x
between minutes and the workloads drift with it; the scaled times do not,
while a change to the package moves them as it moves wall time.  The
wall-clock figures are printed too, as notes.  (serve-mix's open-loop
latencies are wall-clock; :mod:`serve_mix` says why.)

Per-layer metrics come from spans around calls into the package's public
functions (:mod:`spans`), each workload reporting the layers it exercises,
in wall-clock time:

* grid-sweep -- ms per op (one ``evaluate_many`` call), mean over the
  traced ops; ``engine.self_ms`` is ``evaluate_many``'s self time and
  ``analytical.rows`` the ``PhaseTable`` rows per op;
* trace-sim -- ms per simulated cell (mean); ``isa.events`` and the
  ``timing.*`` counts are sums over one pass of the cell list and repeat
  exactly; ``isa.trace_mb`` is the largest trace's column storage;
* serve-mix -- means per call of each wrapped function (``handle_batch``
  as self time), engine and schedule time per batch, start-up times of
  the traced server, and the client-side figures of the untraced half.

A traced run prints every metric of :data:`PER_LAYER`.  One that its
workload does not produce -- a layer the workload never calls, such as
``timing.*`` on grid-sweep, or a wrapped target that no longer exists --
reads 0 with no samples, which is what the spans measured: no calls.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

import common

WORKLOADS = ("grid-sweep", "trace-sim", "serve-mix")
#: Nominal grid ops per second of run time (one op is 0.3-0.4 s on 2 vCPUs).
GRID_OPS_PER_S = 2.5
#: Nominal seconds of one pass over the trace-sim cell list (4-5 s on 2 vCPUs).
TRACE_PASS_S = 5.0
#: Seconds a worker process may take before it is killed.
WORKER_TIMEOUT_S = 150.0

#: Every per-layer metric with its unit, in ``BENCHMARK.json``'s order.
PER_LAYER = {
    "engine.key_ms": "ms",
    "algorithms.schedule_ms": "ms",
    "analytical.table_ms": "ms",
    "analytical.evaluate_ms": "ms",
    "analytical.rows": "count",
    "engine.cache_ms": "ms",
    "engine.evaluate_many_ms": "ms",
    "engine.self_ms": "ms",
    "algorithms.run_vectorized_ms": "ms",
    "timing.replay_ms": "ms",
    "timing.cache_walk_ms": "ms",
    "isa.trace_mb": "MB",
    "isa.events": "count",
    "timing.sim_cycles": "cycles",
    "timing.l1_misses": "count",
    "timing.l2_misses": "count",
    "serve.parse_us": "us",
    "serve.admit_us": "us",
    "serve.serialize_us": "us",
    "serve.handle_batch_ms": "ms",
    "serve.batch_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.ledger_first_us": "us",
    "serve.ledger_last_us": "us",
    "selection.select_many_ms": "ms",
    "selection.memo_hit_ratio": "ratio",
    "engine.cache_hit_ratio": "ratio",
    "selection.dataset_s": "s",
    "selection.fit_s": "s",
    "serve.latency_p99_ms": "ms",
    "loadgen.late_ms": "ms",
    "loadgen.busy_share": "ratio",
    "trace_overhead_pct": "%",
}

# ---------------------------------------------------------------------- #
# worker plumbing
# ---------------------------------------------------------------------- #
def run_worker(script: str, args: list[str]) -> tuple[float, dict]:
    """(set-up seconds, result) of one fresh worker process."""
    t0 = time.perf_counter()
    proc = common.spawn_worker(script, args)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready_at, result = common.read_worker(proc)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready_at is None:
        raise common.WorkerError(f"{script} never reported ready")
    return ready_at - t0, result


def measured_with_setup(script: str, args: list[str]) -> tuple[list[tuple], dict]:
    """The measuring worker plus set-up-only workers.

    Returns ((set-up seconds, calibration seconds) per start-up, result).
    """
    setup, result = run_worker(script, args)
    setups = [(setup, result["setup_cal_s"])]
    for _ in range(common.SETUP_SAMPLES - 1):
        setup, only = run_worker(script, args + ["--setup-only"])
        setups.append((setup, only["setup_cal_s"]))
    return setups, result


def setup_metric(setups: list[tuple]) -> dict:
    """``setup_s``: median start-up at the reference speed."""
    return metric(common.median([common.at_reference(s, c) for s, c in setups]),
                  "s", len(setups))


def wall_notes(setups: list[tuple], per_s: float, latency_ms=None) -> dict:
    """The wall-clock counterparts of the reference-speed metrics."""
    notes = {"wall_setup_s": common.median([s for s, _ in setups]),
             "wall_throughput_per_s": per_s}
    if latency_ms is not None:
        notes["wall_latency_p50_ms"] = common.quantile(latency_ms, 0.5)
        notes["wall_latency_p90_ms"] = common.quantile(latency_ms, 0.9)
    return notes


def reference_times(wall_s: list[float], cal_s: list[float]) -> list[float]:
    """Per-op wall times at the reference speed, each with its own block."""
    return [common.at_reference(w, c) for w, c in zip(wall_s, cal_s)]


def spans_file(tag: str) -> Path:
    common.RUN_DIR.mkdir(exist_ok=True)
    return common.RUN_DIR / f"{os.getpid()}-{tag}-spans.json"


def load_spans(path: Path):
    import spans

    try:
        return spans.SpanSet.load(path)
    finally:
        path.unlink(missing_ok=True)


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def latency_metrics(samples_ms: list[float]) -> dict:
    return {
        "latency_p50_ms": metric(common.quantile(samples_ms, 0.5), "ms", len(samples_ms)),
        "latency_p90_ms": metric(common.quantile(samples_ms, 0.9), "ms", len(samples_ms)),
    }


def mean_or_zero(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def every_layer(metrics: dict) -> dict:
    """``metrics`` widened to all of :data:`PER_LAYER`; absent ones read 0."""
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise ValueError(f"per-layer metrics not in PER_LAYER: {sorted(unknown)}")
    return {name: metrics.get(name, metric(0.0, unit, 0))
            for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------- #
# grid-sweep
# ---------------------------------------------------------------------- #
def grid_sweep(seed: int, seconds: float, trace: bool) -> dict:
    n_ops = max(3, round(seconds * GRID_OPS_PER_S))
    if not trace:
        setups, res = measured_with_setup(
            "grid_sweep.py", ["--seed", str(seed), "--ops", str(n_ops)]
        )
        ref_s = reference_times(res["op_s"], res["cal_s"])
        metrics = {
            "setup_s": setup_metric(setups),
            "throughput_per_s": metric(res["cells"] / sum(ref_s), "1/s", len(ref_s)),
            **latency_metrics([s * 1e3 for s in ref_s]),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB", 1),
        }
        notes = wall_notes(setups, res["cells"] / sum(res["op_s"]),
                           [s * 1e3 for s in res["op_s"]])
        return {"metrics": metrics, "attempted": res["attempted"],
                "failed": res["failed"], "env": res["env"], "notes": notes}

    half = max(3, n_ops // 2)
    args = ["--seed", str(seed), "--ops", str(half)]
    _, plain = run_worker("grid_sweep.py", args)
    path = spans_file("grid")
    _, traced = run_worker("grid_sweep.py", args + ["--spans", str(path)])
    ss = load_spans(path)
    ops = len(ss.named("bench.op"))

    def per_op(*names, field="dur", scale=1e-6):
        totals = [0.0] * ops
        for name in names:
            for i, v in enumerate(ss.per_root("bench.op", name, field)):
                totals[i] += v
        return mean_or_zero(totals) * scale

    layer = {
        "engine.key_ms": ("engine.cache_key",),
        "algorithms.schedule_ms": ("algorithms.schedule",),
        "analytical.table_ms": ("analytical.from_cells",),
        "analytical.evaluate_ms": ("analytical.evaluate_phase_table",),
        "engine.cache_ms": ("engine.cache_get", "engine.cache_put"),
        "engine.evaluate_many_ms": ("engine.evaluate_many",),
    }
    metrics = {
        name: metric(per_op(*spans_), "ms", ops)
        for name, spans_ in layer.items()
        if not ss.missing.intersection(spans_)
    }
    if "engine.evaluate_many" not in ss.missing:
        metrics["engine.self_ms"] = metric(
            per_op("engine.evaluate_many", field="self"), "ms", ops
        )
    if "analytical.from_cells" not in ss.missing:
        metrics["analytical.rows"] = metric(
            per_op("analytical.from_cells", field="value", scale=1.0), "count", ops
        )
    overhead = (common.median(reference_times(traced["op_s"], traced["cal_s"]))
                / common.median(reference_times(plain["op_s"], plain["cal_s"])) - 1.0)
    metrics["trace_overhead_pct"] = metric(100.0 * overhead, "%", ops)
    return {"metrics": metrics, "missing": sorted(ss.missing),
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "env": traced["env"]}


# ---------------------------------------------------------------------- #
# trace-sim
# ---------------------------------------------------------------------- #
def trace_sim(seed: int, seconds: float, trace: bool) -> dict:
    passes = max(1, round(seconds / TRACE_PASS_S))
    if not trace:
        setups, res = measured_with_setup(
            "trace_sim.py", ["--seed", str(seed), "--passes", str(passes)]
        )
        cell_s = [g + r for g, r in zip(res["gen_s"], res["replay_s"])]
        ref_s = reference_times(cell_s, res["cal_s"])
        events = sum(res["events"])
        metrics = {
            "setup_s": setup_metric(setups),
            "throughput_per_s": metric(events / sum(ref_s), "1/s", len(ref_s)),
            **latency_metrics([s * 1e3 for s in ref_s]),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB", 1),
        }
        notes = wall_notes(setups, events / sum(cell_s), [s * 1e3 for s in cell_s])
        return {"metrics": metrics, "attempted": res["attempted"],
                "failed": res["failed"], "env": res["env"], "notes": notes}

    half = max(1, round(passes / 2))
    args = ["--seed", str(seed), "--passes", str(half)]
    _, plain = run_worker("trace_sim.py", args)
    path = spans_file("trace")
    _, traced = run_worker("trace_sim.py", args + ["--spans", str(path)])
    ss = load_spans(path)
    ops = len(ss.named("bench.op"))

    def per_cell(name):
        return mean_or_zero(ss.per_root("bench.op", name)) * 1e-6

    layer = {
        "algorithms.run_vectorized_ms": "algorithms.run_vectorized",
        "timing.replay_ms": "timing.run",
        "timing.cache_walk_ms": "timing.replay_line_stream",
    }
    metrics = {
        name: metric(per_cell(span), "ms", ops)
        for name, span in layer.items() if span not in ss.missing
    }
    counts = traced["per_pass"]
    metrics["isa.trace_mb"] = metric(traced["trace_mb"], "MB", 1)
    metrics["isa.events"] = metric(counts["events"], "count", 1)
    metrics["timing.sim_cycles"] = metric(counts["sim_cycles"], "cycles", 1)
    metrics["timing.l1_misses"] = metric(counts["l1_misses"], "count", 1)
    metrics["timing.l2_misses"] = metric(counts["l2_misses"], "count", 1)
    def total_ref_s(res):
        cell_s = [g + r for g, r in zip(res["gen_s"], res["replay_s"])]
        return sum(reference_times(cell_s, res["cal_s"]))

    overhead = total_ref_s(traced) / total_ref_s(plain) - 1.0
    metrics["trace_overhead_pct"] = metric(100.0 * overhead, "%", ops)
    return {"metrics": metrics, "missing": sorted(ss.missing),
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "env": traced["env"]}


# ---------------------------------------------------------------------- #
# serve-mix
# ---------------------------------------------------------------------- #
def serve_mix(seed: int, seconds: float, trace: bool) -> dict:
    import serve_mix as sm

    if not trace:
        res = sm.measure(seed, seconds)
        run = res["run"]
        closed = run["closed"]
        closed_p90 = common.quantile(closed["latency_ms"], 0.9)
        metrics = {
            "setup_s": setup_metric(res["setup_samples"]),
            "throughput_per_s": metric(closed["throughput_per_s"], "1/s",
                                       len(closed["latency_ms"])),
            **latency_metrics(run["open"]["latency_ms"]),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB", 1),
        }
        if closed_p90 > sm.LATENCY_LIMIT_MS:
            print(f"warning: closed-loop p90 {closed_p90:.1f} ms exceeds the "
                  f"{sm.LATENCY_LIMIT_MS:g} ms limit its window is sized for",
                  file=sys.stderr)
        notes = {**wall_notes(res["setup_samples"], closed["wall_throughput_per_s"]),
                 "closed_p90_ms": closed_p90, "latency_limit_ms": sm.LATENCY_LIMIT_MS,
                 "window": sm.WINDOW, "open_rate_per_s": sm.OPEN_RATE,
                 "late_p99_ms": common.quantile(run["open"]["late_ms"], 0.99),
                 "client_busy_share": run["open"]["busy_share"]}
        return {"metrics": metrics, "attempted": len(run["requests"]),
                "failed": res["failed"], "env": res["env"], "notes": notes}

    path = spans_file("serve")
    res = sm.measure_traced(seed, seconds, str(path))
    plain, traced = res["plain"], res["traced"]
    ss = load_spans(path)
    metrics = serve_layer_metrics(ss)
    open_ = plain["open"]
    metrics["serve.latency_p99_ms"] = metric(
        common.quantile(open_["latency_ms"], 0.99), "ms", len(open_["latency_ms"]))
    metrics["loadgen.late_ms"] = metric(
        common.quantile(open_["late_ms"], 0.99), "ms", len(open_["late_ms"]))
    metrics["loadgen.busy_share"] = metric(open_["busy_share"], "ratio", 1)
    overhead = (plain["closed"]["throughput_per_s"]
                / traced["closed"]["throughput_per_s"] - 1.0)
    metrics["trace_overhead_pct"] = metric(100.0 * overhead, "%", 1)
    return {"metrics": metrics, "missing": sorted(ss.missing),
            "attempted": len(plain["requests"]) + len(traced["requests"]),
            "failed": res["failed"], "env": res["env"]}


def serve_layer_metrics(ss) -> dict:
    """Per-layer figures of the traced server, from its spans."""
    out = {}
    us, ms = 1e-3, 1e-6

    def per_call(name, scale, unit, field="dur"):
        if name in ss.missing:
            return None
        rows = ss.named(name)
        table = ss.self_ns if field == "self" else ss.dur_ns
        return metric(mean_or_zero(table[s[0]] for s in rows) * scale, unit, len(rows))

    batches = ss.named("serve.handle_batch")
    n_batches = len(batches)

    def per_batch(name):
        if name in ss.missing or "serve.handle_batch" in ss.missing:
            return None
        total = sum(ss.per_root("serve.handle_batch", name))
        return metric(total / max(1, n_batches) * ms, "ms", n_batches)

    candidates = {
        "serve.parse_us": per_call("serve.parse", us, "us"),
        "serve.admit_us": per_call("serve.admit", us, "us"),
        "serve.serialize_us": per_call("serve.serialize", us, "us"),
        "serve.handle_batch_ms": per_call("serve.handle_batch", ms, "ms", "self"),
        "selection.select_many_ms": per_call("selection.select_many", ms, "ms"),
        "engine.evaluate_many_ms": per_batch("engine.evaluate_many"),
        "algorithms.schedule_ms": per_batch("algorithms.schedule"),
    }
    out.update({k: v for k, v in candidates.items() if v is not None})
    if "serve.handle_batch" not in ss.missing:
        sizes = [s[6] for s in batches]
        out["serve.batch_size"] = metric(mean_or_zero(sizes), "count", n_batches)
        waits = ss.values.get("serve.batch_wait_ms", [])
        if "serve.submit" not in ss.missing:
            out["serve.batch_wait_ms"] = metric(mean_or_zero(waits), "ms", len(waits))
        if "selection.select_many" not in ss.missing:
            asked = sum(s[6] for s in ss.named("selection.select_many")
                        if ss.root_of(s)[1] == "serve.handle_batch")
            total = sum(sizes)
            out["selection.memo_hit_ratio"] = metric(
                1.0 - asked / total if total else 0.0, "ratio", int(total))
    if "engine.cache_hit_ratio" in ss.probes:
        out["engine.cache_hit_ratio"] = metric(
            ss.probes["engine.cache_hit_ratio"], "ratio", 1)
    ledger = sorted(ss.named("serve.ledger_record"), key=lambda s: s[2])
    if ledger and "serve.ledger_record" not in ss.missing:
        tenth = max(1, len(ledger) // 10)
        for label, part in (("first", ledger[:tenth]), ("last", ledger[-tenth:])):
            out[f"serve.ledger_{label}_us"] = metric(
                mean_or_zero(ss.dur_ns[s[0]] for s in part) * us, "us", len(part))
    for name, span in (("selection.dataset_s", "selection.build_dataset"),
                       ("selection.fit_s", "selection.fit")):
        rows = ss.named(span)
        if rows and span not in ss.missing:
            field = ss.self_ns if span == "selection.fit" else ss.dur_ns
            out[name] = metric(sum(field[s[0]] for s in rows) * 1e-9, "s", len(rows))
    return out


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
RUNNERS = {"grid-sweep": grid_sweep, "trace-sim": trace_sim, "serve-mix": serve_mix}


def report(workload: str, res: dict) -> None:
    """Human-readable lines: metrics with unit and sample count, ops, env."""
    print(f"== {workload}: attempted {res['attempted']} ops, failed {res['failed']}")
    for name, m in res["metrics"].items():
        samples = f"n={m['n']}" if m["n"] else "no calls in this workload"
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']:6s} ({samples})")
    for name in res.get("missing", []):
        print(f"  {name:30s} {'missing':>16s} (wrapped target no longer exists)")
    for key, value in res.get("notes", {}).items():
        print(f"  note {key} = {value}")
    print(f"  env {json.dumps(res['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no package source at src/repro in this checkout",
              file=sys.stderr)
        return 2
    os.chdir(common.ROOT)
    sys.path.insert(0, str(common.ROOT / "src"))
    # A launcher may start us with SIGINT ignored, which children inherit;
    # a handled SIGINT is reset to the default on exec, so the servers
    # started here keep their clean SIGINT shutdown.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = RUNNERS[name](args.seed, args.seconds, bool(args.trace))
        if args.trace:
            res["metrics"] = every_layer(res["metrics"])
        report(name, res)
        prefix = f"{name}/" if args.workload == "all" else ""
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            out["metrics"][prefix + key] = {"value": m["value"], "unit": m["unit"]}
    out["correct"] = out["failed"] == 0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
