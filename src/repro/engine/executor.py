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

Every batch takes one serial, in-memory path.  One pass over the tasks
derives each key (each distinct spec and config object encoded once) and
looks it up in the LRU (:class:`~repro.engine.cache.MemoCache`).  The
distinct cold cells then run as one array program (:func:`_compute_grid`):
one schedule-memo lookup per distinct entry, one candidate choice per
algorithm over all its cells, one gathered table and one evaluation.
Their records, which hold their own row values, enter the LRU in one
insert.

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
from dataclasses import dataclass
from typing import Iterable, NamedTuple, NoReturn, Sequence, cast

import numpy as np

from repro import faults, obs
from repro.algorithms.base import ConvAlgorithm
from repro.algorithms.registry import effective_algorithm, get_algorithm
from repro.engine.cache import MemoCache, ScheduleMemo
from repro.engine.keys import cache_key, calibration_fingerprint, canonical_json
from repro.errors import EngineError, InjectedFaultError
from repro.nn.layer import ConvSpec
from repro.simulator.analytical.calibration import DEFAULT_CALIBRATION, Calibration
from repro.simulator.analytical.grid import (
    PhaseRows,
    PhaseTable,
    evaluate_phase_table,
)
from repro.simulator.analytical.model import LayerCycles
from repro.simulator.hwconfig import HardwareConfig

#: A cell's key: (resolved algorithm, spec JSON, hw JSON, calibration
#: fingerprint); :func:`~repro.engine.keys.cache_key` is its SHA-256.
_Key = tuple[str, str, str, str]

#: A cell is one (key, spec, hardware) tuple of a batch.
_Cell = tuple[_Key, ConvSpec, HardwareConfig]


class EvalTask(NamedTuple):
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


def _compute_grid(
    cells: list[_Cell],
    calibration: Calibration | None,
    schedules: ScheduleMemo,
) -> list[LayerCycles | CellError]:
    """Evaluate distinct cells, one result per cell, in order.

    The cells become integer codes over the batch's distinct configs and
    schedule-memo entries.  Each entry is asked of ``schedules`` once, an
    algorithm with a choice of candidates picks for all its cells at once
    (:meth:`~repro.algorithms.base.ConvAlgorithm.choose_candidates`), and
    the analytical model runs once over a :class:`PhaseTable` gathered
    from the chosen rows.  A cell whose entry raises, or whose injected
    ``cell.error`` fault fires, yields its :class:`CellError`.
    """
    plan = faults.active_plan()
    hits, misses = schedules.hits, schedules.misses
    out: list[LayerCycles | CellError | None] = [None] * len(cells)
    with obs.span("engine.schedule", cat="engine", cells=len(cells)):
        algos: dict[str, ConvAlgorithm] = {}  # one registry lookup per name
        configs: dict[str, int] = {}  # hw JSON -> config code
        hws: list[HardwareConfig] = []
        # algorithm -> hw JSON -> (config code, the batch's entries, by spec
        # JSON, of the configs agreeing with it on the schedule reads)
        lanes: dict[str, dict[str, tuple[int, dict]]] = {}
        buckets: dict[tuple, dict] = {}  # (algorithm, read values) -> entries
        rows: list[PhaseRows] = []  # every entry's candidate rows
        # algorithm -> its entries' candidates, and per cell that chooses:
        # its table position, its entry among those, and its config
        choices: dict[str, tuple[list, list[int], list[int], list[int]]] = {}
        slots: list[int] = []  # the position in `out` of each table cell
        schedule_of_cell: list[int] = []
        config_of_cell: list[int] = []
        for slot, ((name, spec_json, hw_json, _), spec, hw) in enumerate(cells):
            if plan is not None and plan.cell_fails(_cell_token(name, spec, hw)):
                faults.mark_injected("engine.cell")
                token = _cell_token(name, spec, hw)
                exc = InjectedFaultError(f"injected cell error for {token}")
                out[slot] = CellError.from_exception(name, spec, hw, exc)
                continue
            lane = lanes.get(name)
            if lane is None:
                lane = lanes[name] = {}
                algos[name] = get_algorithm(name)
            found = lane.get(hw_json)
            if found is None:
                config = configs.setdefault(hw_json, len(hws))
                if config == len(hws):
                    hws.append(hw)
                reads = algos[name].schedule_reads
                if reads is None:  # undeclared: one config's own entries
                    signature: tuple = (config,)
                else:
                    signature = tuple([getattr(hw, field) for field in reads])
                bucket = buckets.setdefault((name, signature), {})
                found = lane[hw_json] = (config, bucket)
            config, bucket = found
            entry = bucket.get(spec_json)
            if entry is None:
                try:
                    candidates, entry_rows = schedules.entry(
                        algos[name], spec, spec_json, hw
                    )
                except Exception as exc:  # per-cell isolation (not BaseException)
                    entry = exc
                else:
                    choice = -1
                    if candidates is not None:
                        chosen = choices.setdefault(name, ([], [], [], []))[0]
                        choice = len(chosen)
                        chosen.append(candidates)
                    entry = (len(rows), choice)
                    rows.extend(entry_rows)
                bucket[spec_json] = entry
            if isinstance(entry, Exception):
                out[slot] = CellError.from_exception(name, spec, hw, entry)
                continue
            first, choice = entry
            if choice >= 0:
                _, positions, entries, of_config = choices[name]
                positions.append(len(slots))
                entries.append(choice)
                of_config.append(config)
            slots.append(slot)
            schedule_of_cell.append(first)
            config_of_cell.append(config)
        for name, (candidates, positions, entries, of_config) in choices.items():
            picks = algos[name].choose_candidates(
                candidates, hws, np.array(entries), np.array(of_config)
            )
            for position, pick in zip(positions, picks.tolist()):
                schedule_of_cell[position] += pick
    if obs.enabled():
        obs.count("engine.schedule_memo.hits", schedules.hits - hits)
        obs.count("engine.schedule_memo.misses", schedules.misses - misses)
        obs.count("engine.grid_cells", len(slots))
    if slots:
        cal = calibration or DEFAULT_CALIBRATION
        with obs.span("engine.grid", cat="engine", cells=len(slots)):
            with obs.span("engine.table", cat="engine"):
                table = PhaseTable.gather(
                    rows,
                    np.array(schedule_of_cell),
                    [(hw, cal) for hw in hws],
                    np.array(config_of_cell),
                    [cells[slot][0][0] for slot in slots],
                )
            with obs.span("engine.evaluate", cat="engine", rows=table.n_rows):
                records = evaluate_phase_table(table)
        with obs.span("engine.assemble", cat="engine", cells=len(records)):
            for slot, record in zip(slots, records):
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
        return self._evaluate(list(tasks), on_error)

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
        tasks: Sequence[tuple[str, ConvSpec, HardwareConfig, bool]],
        on_error: str,
    ) -> list[LayerCycles | CellError]:
        """:meth:`evaluate_many` over ``(algorithm, spec, hw, fallback)``."""
        if on_error not in ("raise", "record"):
            raise EngineError(f"on_error must be 'raise' or 'record', got {on_error!r}")
        cal = self.calibration
        with obs.span("engine.evaluate_many", cat="engine", tasks=len(tasks)):
            fingerprint = calibration_fingerprint(cal)
            encoded: dict[int, str] = {}  # id(spec or hw) -> its canonical JSON
            # spec JSON -> algorithm -> the algorithm Winograd* runs there
            resolved: dict[str, dict[str, str]] = {}
            results: list[LayerCycles | CellError | None] = [None] * len(tasks)
            missing: dict[_Key, int] = {}  # key -> first task index needing it
            repeats: list[tuple[int, _Key]] = []  # the later tasks needing one
            use_cache, get = self.use_cache, self.cache.get
            for i, (algorithm, spec, hw, fallback) in enumerate(tasks):
                spec_json = encoded.get(id(spec))
                if spec_json is None:
                    spec_json = encoded[id(spec)] = canonical_json(spec)
                hw_json = encoded.get(id(hw))
                if hw_json is None:
                    hw_json = encoded[id(hw)] = canonical_json(hw)
                if fallback:
                    runs = resolved.get(spec_json)
                    if runs is None:
                        runs = resolved[spec_json] = {}
                    name = runs.get(algorithm)
                    if name is None:
                        name = effective_algorithm(algorithm, spec).name
                        runs[algorithm] = name
                    algorithm = name
                key = (algorithm, spec_json, hw_json, fingerprint)
                record = get(key) if use_cache else None
                if record is not None:
                    results[i] = record
                elif missing.setdefault(key, i) != i:
                    repeats.append((i, key))

            if obs.enabled():
                served = len(tasks) - len(missing) - len(repeats)
                obs.count("engine.cache.memory_hits", served)
                obs.count("engine.cache.misses", len(missing))

            if missing:
                # one representative cell per distinct key, in first-seen order
                cells = [(key, tasks[i][1], tasks[i][2]) for key, i in missing.items()]
                computed = _compute_grid(cells, cal, self.schedules)
                keys: list[_Key] = []
                records: list[LayerCycles] = []
                failure = None
                for (key, i), record in zip(missing.items(), computed):
                    results[i] = record
                    if not isinstance(record, CellError):
                        keys.append(key)
                        records.append(record)
                        continue
                    obs.count("engine.cell_errors")
                    if on_error == "raise":
                        failure = record
                        break
                    # failed cells are never cached: a later retry of the
                    # same key recomputes instead of replaying the failure
                if use_cache:
                    self.cache.put_many(keys, records)
                if failure is not None:
                    failure.reraise()
                for i, key in repeats:
                    results[i] = results[missing[key]]
        return cast("list[LayerCycles | CellError]", results)
