"""The benchmark's own tests: wrong answers count as failed ops, spans add up.

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import types

import pytest

import common
import grid_sweep
import inputs
import run
import serve_mix
import spans
import trace_sim


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def test_inputs_repeat_per_seed_and_differ_across_seeds():
    assert inputs.grid_configs(3, 2) == inputs.grid_configs(3, 2)
    assert inputs.grid_configs(3, 2) != inputs.grid_configs(4, 2)
    assert inputs.serve_requests(3, "open", 50) == inputs.serve_requests(3, "open", 50)
    assert inputs.trace_order(3, 2) == inputs.trace_order(3, 2)


def test_grid_configs_cover_the_paper_ranges():
    for op in inputs.grid_configs(7, 5):
        assert len(op) == 16
        assert sorted({vl for vl, _ in op}) == list(inputs.VLENS)
        assert all(1.0 <= l2 <= 64.0 for _, l2 in op)


def test_trace_order_is_whole_passes():
    order = inputs.trace_order(5, 3)
    n = len(inputs.TRACE_CELLS)
    for p in range(3):
        assert sorted(order[p * n:(p + 1) * n]) == list(range(n))


def test_serve_mix_has_a_cold_minority():
    reqs = inputs.serve_requests(1, "open", 4000)
    cold = sum(r["hw"]["l2_mib"] not in inputs.PAPER_L2_MIB for r in reqs)
    assert 0.07 < cold / len(reqs) < 0.13
    assert len({r["id"] for r in reqs}) == len(reqs)


# ---------------------------------------------------------------------- #
# wrong answers are failed ops
# ---------------------------------------------------------------------- #
def test_grid_sweep_counts_a_wrong_record_as_a_failed_op():
    from repro.engine import EvaluationEngine

    class Rotating(EvaluationEngine):
        """Returns every record one slot late: each cell gets a wrong answer."""

        def evaluate_many(self, tasks, **kwargs):
            records = super().evaluate_many(tasks, **kwargs)
            return records[1:] + records[:1]

    res = grid_sweep.run(seed=1, n_ops=1, engine_factory=Rotating)
    assert res["attempted"] == 2
    assert res["failed"] == 2


def test_grid_sweep_healthy_run_fails_nothing():
    res = grid_sweep.run(seed=2, n_ops=1)
    assert (res["attempted"], res["failed"]) == (2, 0)
    assert res["cells"] == 28 * 4 * 16


def test_trace_sim_counts_a_wrong_statistic_as_a_failed_op(monkeypatch, tmp_path):
    by_name = {cell[0]: cell for cell in inputs.TRACE_CELLS}
    small = (by_name["vgg16.9@14/8"], by_name["vgg16.4@28/8"])
    monkeypatch.setattr(inputs, "TRACE_CELLS", small)
    monkeypatch.setattr(inputs, "TRACE_WARMUP", 0)
    reference = json.loads(trace_sim.REFERENCE.read_text())
    wrong = {name: reference[name] for name, _, _ in small}
    wrong[small[1][0]] = dict(wrong[small[1][0]], l2_misses=-1)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(wrong))
    monkeypatch.setattr(trace_sim, "REFERENCE", path)
    res = trace_sim.run(seed=3, n_passes=2)
    assert res["attempted"] == 5
    assert res["failed"] == 2  # the tampered cell, once per pass


def test_check_cell_compares_every_field():
    reference = json.loads(trace_sim.REFERENCE.read_text())
    name, stats = next(iter(reference.items()))
    assert trace_sim.check_cell(name, dict(stats), reference)
    assert not trace_sim.check_cell(name, dict(stats, cycles=stats["cycles"] + 1), reference)
    assert not trace_sim.check_cell("no-such-cell", dict(stats), reference)


def test_serve_check_counts_wrong_shed_and_missing_responses():
    reqs = inputs.serve_requests(1, "open", 5)
    evaluate = lambda algorithm, layer, hw: 100.0  # noqa: E731
    ok = {"status": "ok", "algorithm": "direct", "cycles": 100.0}
    responses = {
        reqs[0]["id"]: (dict(ok, id=reqs[0]["id"]), 0.0),
        reqs[1]["id"]: (dict(ok, id=reqs[1]["id"], cycles=101.0), 0.0),  # wrong
        reqs[2]["id"]: ({"id": reqs[2]["id"], "status": "shed"}, 0.0),  # shed
        reqs[3]["id"]: (dict(ok, id="someone-else"), 0.0),  # wrong id
        # reqs[4] never answered
    }
    assert serve_mix.check_responses(reqs, responses, evaluate) == 4


def test_serve_run_checks_every_response(monkeypatch):
    monkeypatch.chdir(common.ROOT)
    run = asyncio.run(serve_mix._serve_run(seed=1, n_open=40, n_closed=40))
    requests, responses = run["requests"], run["responses"]
    assert len(responses) == len(requests) == 448 + 80
    evaluate = serve_mix.engine_evaluator()
    assert serve_mix.check_responses(requests, responses, evaluate) == 0
    off_by_one = lambda algorithm, layer, hw: evaluate(algorithm, layer, hw) + 1  # noqa: E731
    assert serve_mix.check_responses(requests, responses, off_by_one) == len(requests)


def test_serve_reference_is_the_engine():
    evaluate = serve_mix.engine_evaluator()
    from repro.engine import EvaluationEngine
    from repro.nn.layer import ConvSpec
    from repro.simulator.hwconfig import HardwareConfig

    req = inputs.serve_requests(2, "closed", 1)[0]
    want = EvaluationEngine().evaluate(
        "winograd", ConvSpec(**req["layer"]),
        HardwareConfig.paper2_rvv(req["hw"]["vlen_bits"], req["hw"]["l2_mib"]),
    ).cycles
    assert evaluate("winograd", req["layer"], req["hw"]) == want
    assert evaluate("no-such-algorithm", req["layer"], req["hw"]) is None


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
@pytest.fixture
def toy_module(monkeypatch):
    mod = types.ModuleType("perfbench_toy")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    class Box:
        def method(self, x):
            return x * 2

        @staticmethod
        def static(x):
            return x - 1

        @classmethod
        def build(cls, x):
            return cls()

    mod.leaf, mod.outer, mod.Box = leaf, outer, Box
    monkeypatch.setitem(sys.modules, "perfbench_toy", mod)
    return mod


def test_install_wraps_existing_targets_and_reports_missing_ones(toy_module):
    rec = spans.Recorder()
    spans.install(rec, [
        spans.Target("toy.outer", "perfbench_toy", "outer"),
        spans.Target("toy.leaf", "perfbench_toy", "leaf"),
        spans.Target("toy.method", "perfbench_toy", "Box.method"),
        spans.Target("toy.static", "perfbench_toy", "Box.static"),
        spans.Target("toy.build", "perfbench_toy", "Box.build",
                     value=lambda args, result: 7),
        spans.Target("toy.gone", "perfbench_toy", "deleted_function"),
        spans.Target("toy.nomodule", "perfbench_no_such_module", "f"),
    ])
    assert sorted(rec.missing) == ["toy.gone", "toy.nomodule"]
    assert toy_module.outer(1) == 4
    box = toy_module.Box.build(0)
    assert box.method(3) == 6 and toy_module.Box.static(3) == 2
    rows = rec.payload()["spans"]
    names = [s[1] for s in rows]
    assert names.count("toy.leaf") == 2 and names.count("toy.outer") == 1
    outer = next(s for s in rows if s[1] == "toy.outer")
    assert all(s[4] == outer[0] for s in rows if s[1] == "toy.leaf")
    assert next(s for s in rows if s[1] == "toy.build")[6] == 7


def test_self_time_subtracts_direct_children_only():
    ss = spans.SpanSet({"spans": [
        (3, "leaf", 20, 30, 2, "", 0),
        (2, "mid", 10, 50, 1, "", 0),
        (4, "leaf", 60, 70, 1, "", 0),
        (1, "root", 0, 100, -1, "", 5),
        (5, "root", 200, 220, -1, "", 6),
    ]})
    assert ss.self_ns[1] == 100 - 40 - 10
    assert ss.self_ns[2] == 40 - 10
    assert ss.self_ns[3] == 10
    assert ss.per_root("root", "leaf") == [20.0, 0.0]
    assert ss.per_root("root", "mid", "self") == [30.0, 0.0]
    assert ss.per_root("root", "root", "value") == [5.0, 6.0]


def test_untraced_run_installs_no_wrappers():
    import repro.engine.executor as executor
    import repro.engine.keys as keys

    grid_sweep.run(seed=4, n_ops=1)
    assert executor.cache_key is keys.cache_key
    assert not hasattr(executor.EvaluationEngine.evaluate_many, "__wrapped__")


def test_traced_grid_worker_self_time_is_a_small_remainder(tmp_path):
    path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "grid_sweep.py"),
         "--seed", "5", "--ops", "2", "--spans", str(path)],
        cwd=common.ROOT, env=common.child_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ss = spans.SpanSet.load(path)
    assert not ss.missing
    whole = ss.per_root("bench.op", "engine.evaluate_many")
    self_ = ss.per_root("bench.op", "engine.evaluate_many", "self")
    assert len(whole) == 2
    assert all(0 < s < 0.25 * w for s, w in zip(self_, whole))
    for name in ("engine.cache_key", "algorithms.schedule", "analytical.from_cells",
                 "analytical.evaluate_phase_table", "engine.cache_get",
                 "engine.cache_put"):
        assert all(v > 0 for v in ss.per_root("bench.op", name)), name


# ---------------------------------------------------------------------- #
# the command itself
# ---------------------------------------------------------------------- #
def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_per_layer_table_matches_the_manifest():
    manifest = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert list(run.PER_LAYER) == [m["name"] for m in manifest["per_layer"]]


def test_traced_result_names_every_layer_and_zeroes_the_absent_ones():
    own = {"timing.replay_ms": run.metric(12.5, "ms", 3)}
    full = run.every_layer(own)
    assert list(full) == list(run.PER_LAYER)
    assert full["timing.replay_ms"] == own["timing.replay_ms"]
    assert full["serve.parse_us"] == {"value": 0.0, "unit": "us", "n": 0}
    with pytest.raises(ValueError):
        run.every_layer({"no.such_ms": run.metric(1.0, "ms", 1)})


def test_calibration_keeps_the_collector_state_and_scales_to_the_reference():
    import gc

    assert gc.isenabled()
    assert common.calibrate() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        common.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert common.at_reference(2.0, 2 * common.CALIBRATION_REF_S) == 1.0


def test_serve_phase_parts_cover_every_request_once():
    for n in (1, 7, 100, 3125):
        covered = [i for part in serve_mix.parts(n) for i in part]
        assert covered == list(range(n))


def test_fingerprint_names_the_backends():
    env = common.fingerprint()
    assert set(env) == {"nproc", "python", "numpy", "numba", "grid_backend",
                        "replay_backend"}
