"""Per-cell reference for :class:`repro.engine.EvaluationEngine`.

The engine evaluates every cold cell of a batch in one tensorized grid
call; this oracle evaluates each task on its own through
:func:`repro.algorithms.registry.layer_cycles`, the memo-free scalar
path.  Its output is what ``evaluate_many(tasks, on_error="record")`` must
return, bit for bit, as :func:`records_identical` compares them.
"""

from __future__ import annotations

import struct
from dataclasses import fields

from repro.algorithms.registry import effective_algorithm, layer_cycles
from repro.engine import CellError, EvalTask
from repro.simulator.analytical.calibration import Calibration
from repro.simulator.analytical.model import LayerCycles, PhaseCycles

#: The float fields of a :class:`PhaseCycles`, in declaration order.
_PHASE_FLOATS = tuple(f.name for f in fields(PhaseCycles) if f.name != "name")


def _float_bytes(phase: PhaseCycles) -> bytes:
    return struct.pack(
        f"<{len(_PHASE_FLOATS)}d", *[getattr(phase, f) for f in _PHASE_FLOATS]
    )


def records_identical(a: LayerCycles, b: LayerCycles) -> bool:
    """Bit-exact equality of two records.

    Compares the algorithm, the phase names and the IEEE-754 bytes of
    every phase float, so ``-0.0`` differs from ``0.0`` and a NaN equals
    only the same NaN (``==`` says the opposite of both).
    """
    return (
        a.algorithm == b.algorithm
        and [p.name for p in a.phases] == [p.name for p in b.phases]
        and [_float_bytes(p) for p in a.phases] == [_float_bytes(p) for p in b.phases]
    )


def percell_records(
    tasks: list[EvalTask], calibration: Calibration | None = None
) -> list[LayerCycles | CellError]:
    """One ``layer_cycles`` record per task, a :class:`CellError` if it raises."""
    out: list[LayerCycles | CellError] = []
    for t in tasks:
        name = t.algorithm
        if t.fallback:
            name = effective_algorithm(name, t.spec).name
        try:
            record = layer_cycles(
                name, t.spec, t.hw, fallback=False, calibration=calibration
            )
        except Exception as exc:
            out.append(CellError.from_exception(name, t.spec, t.hw, exc))
        else:
            out.append(record)
    return out
