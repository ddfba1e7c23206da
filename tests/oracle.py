"""Per-cell reference for :class:`repro.engine.EvaluationEngine`.

The engine evaluates every cold cell of a batch in one tensorized grid
call; this oracle evaluates each task on its own through
:func:`repro.algorithms.registry.layer_cycles`, the memo-free scalar
path.  Its output is what ``evaluate_many(tasks, on_error="record")`` must
return, bit for bit.
"""

from __future__ import annotations

from repro.algorithms.registry import effective_algorithm, layer_cycles
from repro.engine import CellError, EvalTask
from repro.simulator.analytical.calibration import Calibration
from repro.simulator.analytical.model import LayerCycles


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
