"""Memoized evaluation engine for the analytical model.

The figure harnesses, the campaign runner and the selection dataset all
evaluate cells of the same (layer, algorithm, hardware) grid; this package
gives them a shared substrate:

* :mod:`repro.engine.keys` — content-addressed keys (canonical JSON of spec
  and config, algorithm, calibration fingerprint; ``cache_key`` hashes them);
* :mod:`repro.engine.cache` — the in-memory LRUs: the records
  (:class:`MemoCache`) and the schedules they are computed from;
* :mod:`repro.engine.executor` — the :class:`EvaluationEngine` facade:
  cache lookup, one array program over the cold cells, LRU insert.

A process-wide default engine backs the adapters in
:mod:`repro.experiments.common`; ``repro-experiments --no-cache``
reconfigures it.
"""

from __future__ import annotations

from repro.engine.cache import CacheStats, MemoCache
from repro.engine.executor import CellError, EvalTask, EvaluationEngine
from repro.engine.keys import (
    CALIBRATION_VERSION,
    cache_key,
    calibration_fingerprint,
)

__all__ = [
    "CALIBRATION_VERSION",
    "CacheStats",
    "CellError",
    "EvalTask",
    "EvaluationEngine",
    "MemoCache",
    "cache_key",
    "calibration_fingerprint",
    "configure_default",
    "default_engine",
]

_default: EvaluationEngine | None = None


def default_engine() -> EvaluationEngine:
    """The process-wide shared engine (created lazily)."""
    global _default
    if _default is None:
        _default = EvaluationEngine()
    return _default


def configure_default(use_cache: bool | None = None) -> EvaluationEngine:
    """Reconfigure the shared engine (CLI ``--no-cache``).

    ``None`` leaves the current setting unchanged.
    """
    engine = default_engine()
    if use_cache is not None:
        engine.use_cache = use_cache
    return engine
