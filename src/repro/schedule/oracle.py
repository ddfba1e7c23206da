"""Counts-mode instruction oracle for schedule candidates.

The search scores candidates with the analytical/PhaseTable model (fast,
whole-grid).  This module is the *second opinion*: it executes a
candidate's traced kernel under ``trace="counts"`` — no memory rows
stored — and returns the aggregate
:class:`~repro.isa.trace.TraceStats`.  Two uses:

* the identity check — a default-parameter variant must reproduce the
  menu kernel's counts bit-identically (CI property test);
* ranking sanity — instruction counts give a model-independent ordering
  signal for small candidate sets.
"""

from __future__ import annotations

from repro.algorithms.registry import get_algorithm
from repro.isa.machine import VectorMachine
from repro.isa.trace import TraceStats
from repro.nn.layer import ConvSpec
from repro.utils.prng import synthetic_tensor


def counts_stats(
    algorithm: str, spec: ConvSpec, vlen_bits: int, seed: int = 0
) -> TraceStats:
    """Run one schedule's traced kernel in counts mode and return its stats.

    ``algorithm`` may be a menu name or a variant name (materialized via
    the registry).  Inputs are deterministic synthetic tensors, so equal
    schedules produce equal stats *and* equal outputs.
    """
    algo = get_algorithm(algorithm)
    algo.check_applicable(spec)
    machine = VectorMachine(vlen_bits, trace="counts")
    x = synthetic_tensor((spec.ic, spec.ih, spec.iw), seed=seed)
    w = synthetic_tensor((spec.oc, spec.ic, spec.kh, spec.kw), seed=seed + 1)
    algo.run_vectorized(spec, x, w, machine)
    return machine.trace.stats


def counts_equal(a: str, b: str, spec: ConvSpec, vlen_bits: int) -> bool:
    """True when two schedules' counts-mode stats are bit-identical."""
    return counts_stats(a, spec, vlen_bits) == counts_stats(b, spec, vlen_bits)


__all__ = ["counts_equal", "counts_stats"]
