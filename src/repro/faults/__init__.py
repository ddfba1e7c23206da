"""Deterministic, seeded fault injection for chaos-testing the stack.

This package is the *fault plane*: a single place that decides — purely,
from ``(seed, site, token)`` hashes — which grid cells raise, whether a
simulated serving run sees an arrival burst, which replica dispatches
crash, hang or slow down, and which health probes drop.  The engine,
serving simulator and replica router each ask the active plan at their
fault sites; the isolation and failover machinery they wrap must then
contain the injected faults, which the chaos suites (``tests/test_engine.py``'s
cell-isolation test, ``tests/test_serving_degradation.py``,
``tests/test_serve_router.py``) assert by demanding bit-identical results
and bounded latency.

Activate a plan for a scope::

    from repro import faults

    with faults.inject("seed=42,cell.error=0.1"):
        engine.evaluate_many(tasks, on_error="record")  # failures isolated

or for a whole process tree via the environment::

    REPRO_FAULTS="seed=7,replica.crash=0.01" repro-serve --replicas 4

Every fault that fires is counted under ``faults.injected.<site>`` in
:mod:`repro.obs`.  See ``docs/ROBUSTNESS.md`` for the spec grammar and
the recovery semantics at each site.
"""

from __future__ import annotations

from repro.faults.injector import ENV_VAR, active_plan, inject, mark_injected
from repro.faults.plan import FaultPlan, parse_fault_spec

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "active_plan",
    "inject",
    "mark_injected",
    "parse_fault_spec",
]
