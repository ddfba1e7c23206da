"""Memoized evaluation of analytical-model grid cells.

:class:`EvaluationEngine` is the single entry point the experiment
harnesses, the campaign runner and the selection dataset route through.
It guarantees:

* **bit-identical records** — a cached or freshly computed evaluation
  returns exactly the floats a direct
  :func:`repro.algorithms.registry.layer_cycles` call produces;
* **deterministic ordering** — :meth:`evaluate_many` returns records in
  task-submission order;
* **dedup** — a batch containing the same cell twice computes it once.

Every batch takes one serial, in-memory path: keys (each distinct spec
and config object encoded once), cache lookup, then one tensorized grid
call over the cold cells (:func:`_compute_grid`), then the LRU
(:class:`~repro.engine.cache.MemoCache`).

Failures are isolated per cell: a cell whose schedule construction raises
yields a structured :class:`CellError` naming the cell instead of
poisoning its whole batch (``evaluate_many(..., on_error="record")``
returns the error records in place; the default ``on_error="raise"``
re-raises the first failure with the cell identity attached).  The grid
evaluation itself computes what ``layer_cycles`` computes, by the grid
module's parity contract, so an exception there is a bug and propagates.
"""

from __future__ import annotations

import importlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, NoReturn, Sequence, cast

from repro import faults, obs
from repro.algorithms.base import ConvAlgorithm
from repro.algorithms.registry import effective_algorithm, get_algorithm
from repro.engine.cache import MemoCache
from repro.engine.keys import cache_key, calibration_fingerprint, canonical_json
from repro.errors import EngineError, InjectedFaultError
from repro.nn.layer import ConvSpec
from repro.simulator.analytical.calibration import Calibration
from repro.simulator.analytical.grid import (
    PhaseRows,
    PhaseTable,
    evaluate_phase_table,
)
from repro.simulator.analytical.model import LayerCycles
from repro.simulator.hwconfig import HardwareConfig

#: Bound of each engine's schedule memo; the paper grid needs 412 entries
#: (28 layers x 4 algorithms x 4 vector lengths, less the layers Winograd
#: does not apply to).
_SCHEDULE_MEMO_SIZE = 4096

#: A cell's key: (resolved algorithm, spec JSON, hw JSON, calibration
#: fingerprint); :func:`~repro.engine.keys.cache_key` is its SHA-256.
_Key = tuple[str, str, str, str]

#: A cell is one (key, spec, hardware) tuple of a batch.
_Cell = tuple[_Key, ConvSpec, HardwareConfig]


@dataclass(frozen=True)
class EvalTask:
    """One grid cell: an algorithm applied to a layer on a configuration."""

    algorithm: str
    spec: ConvSpec
    hw: HardwareConfig
    fallback: bool = True


@dataclass(frozen=True)
class CellError:
    """Structured record of one grid cell whose evaluation raised.

    Reconstructable: in ``on_error="raise"`` mode the original exception
    type is re-raised with the cell identity prepended to the message.
    """

    algorithm: str
    layer: int
    vlen_bits: int
    l2_mib: float
    error_type: str
    error_module: str
    message: str

    @classmethod
    def from_exception(
        cls, algorithm: str, spec: ConvSpec, hw: HardwareConfig, exc: Exception
    ) -> "CellError":
        """The error record of ``algorithm`` on ``(spec, hw)`` raising ``exc``."""
        return cls(
            algorithm=algorithm,
            layer=spec.index,
            vlen_bits=hw.vlen_bits,
            l2_mib=hw.l2_mib,
            error_type=type(exc).__name__,
            error_module=type(exc).__module__,
            message=str(exc),
        )

    def describe(self) -> str:
        return (
            f"{self.algorithm} on layer {self.layer} "
            f"(VL={self.vlen_bits}b, L2={self.l2_mib:g}MB) failed: "
            f"{self.error_type}: {self.message}"
        )

    def reraise(self) -> NoReturn:
        """Raise the original exception type (or :class:`EngineError`)."""
        try:
            module = importlib.import_module(self.error_module)
            cls = getattr(module, self.error_type)
            if isinstance(cls, type) and issubclass(cls, Exception):
                raise cls(self.describe())
        except (ImportError, AttributeError, TypeError):
            pass
        raise EngineError(self.describe())


def _cell_token(name: str, spec: ConvSpec, hw: HardwareConfig) -> str:
    """Stable identity of a cell for fault-injection decisions."""
    return f"{name}:{spec.index}:{hw.vlen_bits}:{hw.l2_mib:g}"


class ScheduleMemo:
    """Bounded LRU of schedules and their PhaseTable rows, per engine.

    An entry is keyed on the algorithm instance, the layer's canonical
    JSON (:func:`~repro.engine.keys.canonical_json`), and the values of
    the hardware fields the algorithm declares its schedule reads
    (:attr:`~repro.algorithms.base.ConvAlgorithm.schedule_reads`), and
    holds each candidate schedule's :class:`PhaseRows` (and the candidates
    themselves when the algorithm chooses between several).  Cells
    that differ only in fields the schedule does not read — the L2 size,
    for most algorithms — share one entry; Direct, which reads the L2 size
    only to choose between its two tilings, makes that choice per cell.

    The memo lives in the engine only.  ``ConvAlgorithm.schedule`` and
    ``layer_cycles`` stay memo-free, an independent oracle for the
    parity suites and benchmark checks.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def rows(
        self, algo: ConvAlgorithm, spec: ConvSpec, spec_json: str, hw: HardwareConfig
    ) -> PhaseRows:
        """The PhaseTable rows of ``algo.schedule(spec, hw)``.

        ``spec_json`` is ``canonical_json(spec)``.  Raises what
        ``algo.check_applicable(spec)`` raises.  A memoized
        algorithm is checked only when its entry is built: applicability
        reads the spec alone, and an entry exists only for an (algorithm,
        spec) pair that passed the check.
        """
        reads = algo.schedule_reads
        if reads is None:  # undeclared: never memoized
            algo.check_applicable(spec)
            return PhaseRows.from_phases(algo.schedule(spec, hw))
        key = (algo, spec_json, *[getattr(hw, name) for name in reads])
        # pop + re-insert touches the entry with one key comparison
        entry = self._entries.pop(key, None)
        if entry is None:
            algo.check_applicable(spec)
            self.misses += 1
            candidates = algo.schedule_candidates(spec, hw)
            rows = [PhaseRows.from_phases(c) for c in candidates]
            # the schedules themselves are kept only when there is a choice
            entry = (candidates if len(candidates) > 1 else None, rows)
            if len(self._entries) >= _SCHEDULE_MEMO_SIZE:
                self._entries.popitem(last=False)
        else:
            self.hits += 1
        self._entries[key] = entry
        candidates, rows = entry
        if candidates is None:
            return rows[0]
        return rows[algo.choose_candidate(candidates, hw)]


def _compute_grid(
    items: list[_Cell],
    calibration: Calibration | None,
    schedules: ScheduleMemo,
) -> list[LayerCycles | CellError]:
    """Evaluate resolved cells through one tensorized grid call.

    Returns one result per cell, in order.  A cell whose schedule
    construction (or injected ``cell.error`` fault) raises yields its
    :class:`CellError`; the analytical model then runs once over a
    columnar :class:`~repro.simulator.analytical.grid.PhaseTable` covering
    every surviving cell.  Schedules and their table rows come from the
    engine's ``schedules`` memo.  Records are bit-identical to
    :func:`repro.algorithms.registry.layer_cycles` by the grid module's
    parity contract.
    """
    plan = faults.active_plan()
    tracing = obs.enabled()  # per-cell ``engine.point`` spans only when on
    hits, misses = schedules.hits, schedules.misses
    algos: dict[str, ConvAlgorithm] = {}  # one registry lookup per name
    out: list[LayerCycles | CellError | None] = []
    grid_cells = []  # (algorithm, rows, hw) for cells whose schedule built
    grid_slots: list[int] = []  # position in `out` to fill with the record
    with obs.span("engine.schedule", cat="engine", cells=len(items)):
        for (name, spec_json, _, _), spec, hw in items:
            with (
                obs.span("engine.point", cat="engine", algorithm=name,
                         layer=spec.index)
                if tracing
                else obs.NOOP_SPAN
            ):
                try:
                    if plan is not None and plan.cell_fails(
                        _cell_token(name, spec, hw)
                    ):
                        faults.mark_injected("engine.cell")
                        raise InjectedFaultError(
                            f"injected cell error for {_cell_token(name, spec, hw)}"
                        )
                    algo = algos.get(name)
                    if algo is None:
                        algo = algos[name] = get_algorithm(name)
                    rows = schedules.rows(algo, spec, spec_json, hw)
                except Exception as exc:  # per-cell isolation (not BaseException)
                    out.append(CellError.from_exception(name, spec, hw, exc))
                else:
                    grid_slots.append(len(out))
                    out.append(None)
                    grid_cells.append((algo.name, rows, hw))
    if tracing:
        obs.count("engine.schedule_memo.hits", schedules.hits - hits)
        obs.count("engine.schedule_memo.misses", schedules.misses - misses)
    if grid_cells:
        with obs.span("engine.grid", cat="engine", cells=len(grid_cells)):
            with obs.span("engine.table", cat="engine"):
                table = PhaseTable.from_cells(grid_cells, calibration=calibration)
            with obs.span("engine.evaluate", cat="engine", rows=table.n_rows):
                records = evaluate_phase_table(table)
        if tracing:
            obs.count("engine.grid_cells", len(grid_cells))
        with obs.span("engine.assemble", cat="engine", cells=len(records)):
            for slot, record in zip(grid_slots, records):
                out[slot] = record
    return cast("list[LayerCycles | CellError]", out)


class EvaluationEngine:
    """Content-addressed memo cache in front of the analytical model."""

    def __init__(
        self,
        cache: MemoCache | None = None,
        calibration: Calibration | None = None,
        use_cache: bool = True,
    ) -> None:
        self.cache = cache if cache is not None else MemoCache()
        self.calibration = calibration
        self.use_cache = use_cache
        self.schedules = ScheduleMemo()

    # ------------------------------------------------------------------ #
    # single cell
    # ------------------------------------------------------------------ #
    def key(self, task: EvalTask) -> str:
        """The content-addressed cache key of a task.

        Keyed after Winograd* fallback, so equal resolved cells share one
        cache entry (a ``winograd`` fallback cell aliases the direct
        ``im2col_gemm6`` cell).  The SHA-256 of the LRU's key tuple: two
        tasks' keys are equal exactly when they share an LRU entry.
        """
        algorithm = task.algorithm
        if task.fallback:
            algorithm = effective_algorithm(algorithm, task.spec).name
        return cache_key(algorithm, task.spec, task.hw, self.calibration)

    def evaluate(
        self,
        algorithm: str,
        spec: ConvSpec,
        hw: HardwareConfig,
        fallback: bool = True,
    ) -> LayerCycles:
        """Memoized equivalent of :func:`repro.algorithms.registry.layer_cycles`."""
        task = EvalTask(algorithm, spec, hw, fallback=fallback)
        return cast(LayerCycles, self.evaluate_many([task])[0])

    # ------------------------------------------------------------------ #
    # batches
    # ------------------------------------------------------------------ #
    def evaluate_many(
        self,
        tasks: Sequence[EvalTask] | Iterable[EvalTask],
        on_error: str = "raise",
    ) -> list[LayerCycles | CellError]:
        """Evaluate a batch of cells, returning records in task order.

        Cache hits are served immediately; distinct missing keys are
        computed once, in one grid call, and stored.

        ``on_error`` controls what a failing cell does: ``"raise"`` (the
        default) re-raises the first failure with the cell named in the
        message; ``"record"`` leaves a :class:`CellError` in that cell's
        result slots (duplicates of a failing cell share one error record)
        and never caches it.
        """
        return self._evaluate(
            [(t.algorithm, t.spec, t.hw, t.fallback) for t in tasks], on_error
        )

    def sweep(
        self,
        specs: Sequence[ConvSpec],
        configs: Sequence[HardwareConfig],
        algorithms: Sequence[str],
        fallback: bool = True,
    ) -> dict[tuple[int, int, str], LayerCycles]:
        """Evaluate a full (layer, config, algorithm) grid in one batch.

        Returns ``(spec_index, config_index, algorithm) -> record`` where the
        indices are positions in the input sequences, so callers reassemble
        any nesting order without re-evaluating.
        """
        order = [
            (si, ci, name)
            for si in range(len(specs))
            for ci in range(len(configs))
            for name in algorithms
        ]
        records = self._evaluate(
            [(name, specs[si], configs[ci], fallback) for si, ci, name in order],
            "raise",
        )
        return dict(zip(order, cast("list[LayerCycles]", records)))

    def _evaluate(
        self,
        tasks: list[tuple[str, ConvSpec, HardwareConfig, bool]],
        on_error: str,
    ) -> list[LayerCycles | CellError]:
        """:meth:`evaluate_many` over ``(algorithm, spec, hw, fallback)``."""
        if on_error not in ("raise", "record"):
            raise EngineError(f"on_error must be 'raise' or 'record', got {on_error!r}")
        cal = self.calibration
        with obs.span("engine.evaluate_many", cat="engine", tasks=len(tasks)):
            fingerprint = calibration_fingerprint(cal)
            encoded: dict[int, str] = {}  # id(spec or hw) -> its canonical JSON
            # (algorithm, spec JSON) -> the algorithm Winograd* runs there
            resolved: dict[tuple[str, str], str] = {}
            results: list[LayerCycles | CellError | None] = [None] * len(tasks)
            missing: dict[_Key, list[int]] = {}  # key -> task indices needing it
            use_cache, get, put = self.use_cache, self.cache.get, self.cache.put
            for i, (algorithm, spec, hw, fallback) in enumerate(tasks):
                spec_json = encoded.get(id(spec))
                if spec_json is None:
                    spec_json = encoded[id(spec)] = canonical_json(spec)
                hw_json = encoded.get(id(hw))
                if hw_json is None:
                    hw_json = encoded[id(hw)] = canonical_json(hw)
                if fallback:
                    pair = (algorithm, spec_json)
                    name = resolved.get(pair)
                    if name is None:
                        name = effective_algorithm(algorithm, spec).name
                        resolved[pair] = name
                    algorithm = name
                key = (algorithm, spec_json, hw_json, fingerprint)
                record = get(key) if use_cache else None
                if record is None:
                    missing.setdefault(key, []).append(i)
                else:
                    results[i] = record

            if obs.enabled():
                served = len(tasks) - sum(len(ix) for ix in missing.values())
                obs.count("engine.cache.memory_hits", served)
                obs.count("engine.cache.misses", len(missing))

            if missing:
                # one representative cell per distinct key, in first-seen order
                cells = [
                    (key, tasks[indices[0]][1], tasks[indices[0]][2])
                    for key, indices in missing.items()
                ]
                computed = _compute_grid(cells, cal, self.schedules)
                for (key, indices), record in zip(missing.items(), computed):
                    if isinstance(record, CellError):
                        obs.count("engine.cell_errors")
                        if on_error == "raise":
                            record.reraise()
                        # failed cells are never cached: a later retry of
                        # the same key recomputes instead of replaying the
                        # failure from the cache
                    elif use_cache:
                        put(key, record)
                    for i in indices:
                        results[i] = record
        return cast("list[LayerCycles | CellError]", results)
