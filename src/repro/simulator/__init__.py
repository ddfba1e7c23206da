"""Hardware models: configs, caches, DRAM, trace timing, analytical timing, area.

Two timing engines share one :class:`~repro.simulator.hwconfig.HardwareConfig`:

* :mod:`repro.simulator.timing` replays instruction traces from the
  functional machine against a set-associative LRU cache hierarchy —
  cycle-approximate, on scaled or full-size layers;
* :mod:`repro.simulator.analytical` evaluates algorithm *schedules*
  (loop-nest + data-stream descriptions) in closed form — used on full
  convolutional layers, where per-instruction simulation is infeasible.

The analytical model is validated against the trace engine in
``tests/test_model_validation.py``.
"""

from repro.simulator.hwconfig import HardwareConfig, VectorUnitStyle
from repro.simulator.cache import SetAssociativeCache, CacheHierarchy, CacheStats
from repro.simulator.cache_fast import replay_line_stream, simulate_cache_stream
from repro.simulator.memory import DramModel
from repro.simulator.replay_backend import (
    BACKEND_CHOICES,
    ReplayBackend,
    available_backends,
    resolve_backend,
)
from repro.simulator.analytical.grid import (
    GRID_BACKEND_CHOICES,
    PhaseTable,
    available_grid_backends,
    configure_grid,
    evaluate_phase_table,
    grid_defaults,
    resolve_grid_backend,
)
from repro.simulator.timing import TraceTimingModel, TimingResult

__all__ = [
    "BACKEND_CHOICES",
    "GRID_BACKEND_CHOICES",
    "PhaseTable",
    "available_grid_backends",
    "configure_grid",
    "evaluate_phase_table",
    "grid_defaults",
    "resolve_grid_backend",
    "HardwareConfig",
    "VectorUnitStyle",
    "SetAssociativeCache",
    "CacheHierarchy",
    "CacheStats",
    "DramModel",
    "ReplayBackend",
    "TraceTimingModel",
    "TimingResult",
    "available_backends",
    "replay_line_stream",
    "resolve_backend",
    "simulate_cache_stream",
]
