"""Tests for the deterministic fault-injection plane (repro.faults)."""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.errors import FaultSpecError
from repro.faults import ENV_VAR, FaultPlan, active_plan, inject, parse_fault_spec
from repro.faults.plan import _hash_unit

pytestmark = pytest.mark.chaos  # fault-injection suite: full-suite CI job


class TestSpecGrammar:
    def test_parse_every_key(self):
        plan = parse_fault_spec(
            "seed=42,hang.seconds=5,cell.error=0.2,"
            "serving.burst=3,"
            "replica.crash=0.01,replica.hang=0.02,replica.slow=0.03,"
            "probe.drop=0.04"
        )
        assert plan.seed == 42
        assert plan.hang_seconds == 5.0
        assert plan.cell_error == 0.2
        assert plan.serving_burst == 3.0
        assert plan.replica_crash == 0.01 and plan.replica_hang == 0.02
        assert plan.replica_slow == 0.03 and plan.probe_drop == 0.04

    def test_empty_spec_is_the_default_plan(self):
        assert parse_fault_spec("") == FaultPlan()

    def test_whitespace_tolerated(self):
        assert parse_fault_spec(" seed = 7 , cell.error = 0.5 ") == FaultPlan(
            seed=7, cell_error=0.5
        )

    def test_round_trip_exact(self):
        spec = "seed=42,hang.seconds=5,cell.error=0.1,serving.burst=2"
        plan = parse_fault_spec(spec)
        assert parse_fault_spec(plan.to_spec()) == plan

    def test_round_trip_covers_the_replica_sites(self):
        spec = ("seed=4,replica.crash=0.0005,replica.hang=0.01,"
                "replica.slow=0.1,probe.drop=0.2")
        plan = parse_fault_spec(spec)
        assert parse_fault_spec(plan.to_spec()) == plan
        for key in ("replica.crash", "replica.hang", "replica.slow",
                    "probe.drop"):
            assert key in plan.to_spec()

    def test_default_plan_serializes_empty(self):
        assert FaultPlan().to_spec() == ""

    def test_unknown_site_error_lists_replica_sites(self):
        with pytest.raises(FaultSpecError) as excinfo:
            parse_fault_spec("replica.explode=1")
        message = str(excinfo.value)
        for key in ("replica.crash", "replica.hang", "replica.slow",
                    "probe.drop"):
            assert key in message

    @pytest.mark.parametrize("bad", [
        "seed",                       # no '='
        "seed=abc",                   # non-integer seed
        "worker.explode=1",           # unknown site
        "cache.corrupt=1.5",          # no cache.* or worker.* sites:
        "cache.corrupt=-0.1",         # nothing would read them
        "worker.crash=-1",
        "cell.error=1.5",             # rate out of range
        "cell.error=-0.1",
        "serving.burst=0.5",          # burst below 1
        "serving.burst=nan",          # non-finite burst or hang
        "serving.burst=inf",
        "hang.seconds=inf",
        "hang.seconds=0",             # non-positive hang
        "serving.predictor_error=0.1",  # no serving predictor to fail
        "replica.crash=1.5",          # replica rates validate eagerly
        "replica.hang=-0.1",
        "replica.slow=nope",
        "probe.drop=2",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)


class TestDeterminism:
    def test_hash_unit_is_pure_and_uniform_ish(self):
        draws = [_hash_unit(42, "cell.error", str(i)) for i in range(2000)]
        assert draws == [
            _hash_unit(42, "cell.error", str(i)) for i in range(2000)
        ]
        assert all(0.0 <= d < 1.0 for d in draws)
        # crude uniformity: a 10% rate selects roughly 10% of tokens
        assert 120 < sum(d < 0.1 for d in draws) < 280

    def test_decisions_stable_across_instances(self):
        a = parse_fault_spec("seed=7,cell.error=0.3")
        b = parse_fault_spec("seed=7,cell.error=0.3")
        tokens = [f"direct:{i}:512:1" for i in range(100)]
        assert [a.cell_fails(t) for t in tokens] == [
            b.cell_fails(t) for t in tokens
        ]

    def test_seed_changes_decisions(self):
        tokens = [f"t{i}" for i in range(200)]
        a = FaultPlan(seed=1, cell_error=0.5)
        b = FaultPlan(seed=2, cell_error=0.5)
        assert [a.cell_fails(t) for t in tokens] != [
            b.cell_fails(t) for t in tokens
        ]

    def test_sites_are_independent(self):
        plan = FaultPlan(seed=3, cell_error=0.5, probe_drop=0.5)
        tokens = [f"t{i}" for i in range(200)]
        assert [plan.cell_fails(t) for t in tokens] != [
            plan.chance("probe.drop", t, plan.probe_drop) for t in tokens
        ]

    def test_burst_window_is_middle_third(self):
        plan = FaultPlan(serving_burst=2.0)
        assert plan.burst_window(300) == (100, 200, 2.0)
        assert FaultPlan().burst_window(300) == (0, 0, 1.0)
        assert plan.burst_window(2) == (0, 0, 1.0)  # too few requests

    def test_replica_fault_is_deterministic_per_dispatch(self):
        plan = FaultPlan(seed=4, replica_crash=0.3, replica_hang=0.3,
                         replica_slow=0.3)
        decisions = [plan.replica_fault("replica-1", d) for d in range(200)]
        again = [plan.replica_fault("replica-1", d) for d in range(200)]
        assert decisions == again
        assert {"crash", "hang", "slow"} <= {d for d in decisions if d}
        # replicas draw independently
        other = [plan.replica_fault("replica-2", d) for d in range(200)]
        assert decisions != other
        # crash outranks hang outranks slow: rate-1 crash always wins
        certain = FaultPlan(
            replica_crash=1.0, replica_hang=1.0, replica_slow=1.0
        )
        assert certain.replica_fault("r", 0) == "crash"

    def test_replica_fault_priority_and_off_by_default(self):
        assert FaultPlan().replica_fault("r", 0) is None
        hang_only = FaultPlan(replica_hang=1.0, replica_slow=1.0)
        assert hang_only.replica_fault("r", 0) == "hang"
        slow_only = FaultPlan(replica_slow=1.0)
        assert slow_only.replica_fault("r", 0) == "slow"

    def test_drops_probe_is_deterministic(self):
        plan = FaultPlan(seed=9, probe_drop=0.5)
        drops = [plan.drops_probe("replica-0", p) for p in range(100)]
        assert drops == [plan.drops_probe("replica-0", p) for p in range(100)]
        assert any(drops) and not all(drops)
        assert not any(
            FaultPlan(seed=9).drops_probe("replica-0", p) for p in range(100)
        )


class TestInjectScoping:
    def test_no_ambient_plan(self):
        assert active_plan() is None

    def test_inject_sets_global_and_env(self):
        plan = FaultPlan(seed=9, cell_error=0.5)
        with inject(plan):
            assert active_plan() is plan
            assert os.environ[ENV_VAR] == plan.to_spec()
        assert active_plan() is None
        assert ENV_VAR not in os.environ

    def test_inject_accepts_spec_string(self):
        with inject("seed=5,cell.error=0.1") as plan:
            assert active_plan() is plan
            assert plan.cell_error == 0.1

    def test_scopes_nest_and_restore(self):
        outer = FaultPlan(seed=1, cell_error=0.5)
        inner = FaultPlan(seed=2, probe_drop=0.5)
        with inject(outer):
            with inject(inner):
                assert active_plan() is inner
            assert active_plan() is outer
            assert os.environ[ENV_VAR] == outer.to_spec()

    def test_inject_none_masks_ambient_plan(self):
        with inject(FaultPlan(seed=1, cell_error=0.5)):
            with inject(None):
                assert active_plan() is None
                assert ENV_VAR not in os.environ
            assert active_plan() is not None

    def test_env_var_alone_activates_a_plan(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "seed=11,cell.error=0.25")
        plan = active_plan()
        assert plan is not None and plan.cell_error == 0.25
        # memoized: the same spec returns the identical parsed object
        assert active_plan() is plan

    def test_malformed_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cell.error=maybe")
        with pytest.raises(FaultSpecError):
            active_plan()

    def test_mark_injected_counts(self):
        from repro import obs

        recorder = obs.enable()
        try:
            faults.mark_injected("test.site")
            faults.mark_injected("test.site", 2)
            assert recorder.counters.get("faults.injected.test.site") == 3.0
        finally:
            obs.disable()
