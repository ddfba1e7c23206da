"""Memoized + parallel evaluation of analytical-model grid cells.

:class:`EvaluationEngine` is the single entry point the experiment
harnesses, the campaign runner and the selection dataset route through.
It guarantees:

* **bit-identical records** — a cached (memory or disk) or parallel
  evaluation returns exactly the floats a direct
  :func:`repro.algorithms.registry.layer_cycles` call produces;
* **deterministic ordering** — :meth:`evaluate_many` returns records in
  task-submission order regardless of worker completion order;
* **dedup** — a batch containing the same cell twice computes it once;
* **crash resilience** — a crashed or hung pool worker costs one bounded
  retry of the affected chunks on a fresh pool; chunks that already
  completed are preserved, never recomputed (see ``docs/ROBUSTNESS.md``).

``max_workers=1`` (the default) never touches ``multiprocessing``; larger
values fan misses out over a :class:`~concurrent.futures.
ProcessPoolExecutor`, falling back to serial execution when process
spawning is unavailable (sandboxes, restricted CI runners) — audibly, via
a one-time :class:`RuntimeWarning` and the ``engine.serial_fallbacks``
counter.

Failures are isolated per cell: a cell whose evaluation raises yields a
structured :class:`CellError` naming the cell instead of poisoning its
whole batch (``evaluate_many(..., on_error="record")`` returns the error
records in place; the default ``on_error="raise"`` re-raises the first
failure with the cell identity attached).
"""

from __future__ import annotations

import importlib
import os
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NoReturn, Sequence, cast

from repro import faults, obs
from repro.algorithms.base import ConvAlgorithm
from repro.algorithms.registry import (
    effective_algorithm,
    get_algorithm,
    layer_cycles,
)
from repro.engine import pool as pool_plumbing
from repro.engine.cache import MemoCache
from repro.engine.keys import cache_key
from repro.errors import EngineError, InjectedFaultError
from repro.nn.layer import ConvSpec
from repro.simulator.analytical.calibration import Calibration
from repro.simulator.analytical.grid import (
    GRID_BACKEND_CHOICES,
    PhaseRows,
    PhaseTable,
    evaluate_phase_table,
    resolve_grid_backend,
)
from repro.simulator.analytical.model import LayerCycles
from repro.simulator.hwconfig import HardwareConfig

#: Cells handed to one worker task (amortizes pickling/dispatch overhead).
_CHUNK = 32

#: Cold batches at or below this size never pay pool startup, regardless
#: of ``pool_min_batch`` (counted via ``engine.small_batch_serial``).
_SMALL_BATCH = 10

#: Default ``pool_min_batch``: cold batches must exceed this many cells
#: before ``workers > 1`` actually spins up the process pool — below it
#: the tensorized grid path beats pool startup by orders of magnitude.
_POOL_MIN_BATCH = 256

#: Exit code of an injected worker crash (recognizable in core-dump triage).
_CRASH_EXIT = 17

#: Bound of the process-wide task -> (resolved name, cache key) memo.
_KEY_MEMO_SIZE = 16384

#: Bound of each engine's schedule memo; the paper grid needs 412 entries
#: (28 layers x 4 algorithms x 4 vector lengths, less the layers Winograd
#: does not apply to).
_SCHEDULE_MEMO_SIZE = 4096

#: One-time flag for the serial-degradation warning (reset by tests).
_warned_serial_fallback = False

#: A cell is one (index, algorithm, spec, hardware) tuple in a chunk.
_Cell = tuple[int, str, ConvSpec, HardwareConfig]
#: A chunk evaluation yields records or per-cell structured errors.
_CellResult = tuple[int, "LayerCycles | CellError"]


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

    Picklable (it crosses the pool boundary) and reconstructable: in
    ``on_error="raise"`` mode the original exception type is re-raised
    with the cell identity prepended to the message.
    """

    algorithm: str
    layer: int
    vlen_bits: int
    l2_mib: float
    error_type: str
    error_module: str
    message: str

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


@lru_cache(maxsize=_KEY_MEMO_SIZE)
def _resolved_key(
    algorithm: str,
    spec: ConvSpec,
    hw: HardwareConfig,
    fallback: bool,
    calibration: Calibration | None,
) -> tuple[str, str]:
    """A task's algorithm after Winograd* fallback, and its cache key.

    One memo lookup per task on the warm path; a miss derives the key
    with :func:`~repro.engine.keys.cache_key`.  Process-wide, like that
    derivation: both are functions of the arguments alone (the registry
    maps a name to one algorithm for the life of the process).
    """
    if fallback:
        algorithm = effective_algorithm(algorithm, spec).name
    return algorithm, cache_key(algorithm, spec, hw, calibration)


class ScheduleMemo:
    """Bounded LRU of schedules and their PhaseTable rows, per engine.

    An entry is keyed on the algorithm instance, the layer, and the values
    of the hardware fields the algorithm declares its schedule reads
    (:attr:`~repro.algorithms.base.ConvAlgorithm.schedule_reads`), and
    holds each candidate schedule's :class:`PhaseRows` (and the candidates
    themselves when the algorithm chooses between several).  Cells
    that differ only in fields the schedule does not read — the L2 size,
    for most algorithms — share one entry; Direct, which reads the L2 size
    only to choose between its two tilings, makes that choice per cell.

    The memo lives in the engine's grid path only.  ``ConvAlgorithm.
    schedule``, ``layer_cycles`` and the per-cell path stay memo-free,
    an independent oracle for the parity suites and benchmark checks.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def rows(
        self, algo: ConvAlgorithm, spec: ConvSpec, hw: HardwareConfig
    ) -> PhaseRows:
        """The PhaseTable rows of ``algo.schedule(spec, hw)``."""
        reads = algo.schedule_reads
        if reads is None:  # undeclared: never memoized
            return PhaseRows.from_phases(algo.schedule(spec, hw))
        key = (algo, spec, *[getattr(hw, name) for name in reads])
        # pop + re-insert touches the entry with one key comparison
        entry = self._entries.pop(key, None)
        if entry is None:
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


def _compute_chunk(
    items: list[_Cell],
    calibration: Calibration | None,
    chunk_index: int = 0,
    attempt: int = 0,
    in_worker: bool = False,
) -> list[_CellResult]:
    """Worker-side evaluation of resolved cells (module-level: picklable).

    Worker-level faults (crash/hang) fire only when ``in_worker`` is set —
    the serial path must never ``os._exit`` the caller's process.  Cell
    evaluation errors are captured per cell as :class:`CellError` records
    so one bad cell cannot poison its chunk.
    """
    plan = faults.active_plan()
    if in_worker and plan is not None:
        kind = plan.worker_fault(chunk_index, attempt)
        if kind == "crash":
            os._exit(_CRASH_EXIT)
        elif kind == "hang":
            time.sleep(plan.hang_seconds)
    out: list[_CellResult] = []
    for idx, name, spec, hw in items:
        with obs.span("engine.point", cat="engine", algorithm=name, layer=spec.index):
            try:
                if plan is not None and plan.cell_fails(_cell_token(name, spec, hw)):
                    faults.mark_injected("engine.cell")
                    raise InjectedFaultError(
                        f"injected cell error for {_cell_token(name, spec, hw)}"
                    )
                record: LayerCycles | CellError = layer_cycles(
                    name, spec, hw, fallback=False, calibration=calibration
                )
            except Exception as exc:  # per-cell isolation (not BaseException)
                record = CellError(
                    algorithm=name,
                    layer=spec.index,
                    vlen_bits=hw.vlen_bits,
                    l2_mib=hw.l2_mib,
                    error_type=type(exc).__name__,
                    error_module=type(exc).__module__,
                    message=str(exc),
                )
            out.append((idx, record))
    return out


def _compute_grid(
    items: list[_Cell],
    calibration: Calibration | None,
    backend: str | None,
    schedules: ScheduleMemo,
) -> list[_CellResult]:
    """Serial evaluation of resolved cells through one tensorized grid call.

    Per-cell fault injection and error isolation match
    :func:`_compute_chunk` exactly — a cell whose schedule construction
    (or injected fault) raises yields its :class:`CellError` in place —
    but the analytical model itself runs once over a columnar
    :class:`~repro.simulator.analytical.grid.PhaseTable` covering every
    surviving cell, instead of per-phase Python per cell.  Schedules and
    their table rows come from the engine's ``schedules`` memo.  Records
    are bit-identical to :func:`repro.algorithms.registry.layer_cycles` by
    the grid module's parity contract.
    """
    plan = faults.active_plan()
    hits, misses = schedules.hits, schedules.misses
    out: list[_CellResult] = []
    grid_cells = []  # (algorithm, rows, hw) for cells whose schedule built
    grid_slots: list[int] = []  # position in `out` to fill with the record
    with obs.span("engine.schedule", cat="engine", cells=len(items)):
        for idx, name, spec, hw in items:
            with obs.span(
                "engine.point", cat="engine", algorithm=name, layer=spec.index
            ):
                try:
                    if plan is not None and plan.cell_fails(
                        _cell_token(name, spec, hw)
                    ):
                        faults.mark_injected("engine.cell")
                        raise InjectedFaultError(
                            f"injected cell error for {_cell_token(name, spec, hw)}"
                        )
                    algo = get_algorithm(name)
                    algo.check_applicable(spec)
                    rows = schedules.rows(algo, spec, hw)
                except Exception as exc:  # per-cell isolation (not BaseException)
                    err = CellError(
                        algorithm=name,
                        layer=spec.index,
                        vlen_bits=hw.vlen_bits,
                        l2_mib=hw.l2_mib,
                        error_type=type(exc).__name__,
                        error_module=type(exc).__module__,
                        message=str(exc),
                    )
                    out.append((idx, err))
                else:
                    grid_slots.append(len(out))
                    out.append((idx, None))  # type: ignore[arg-type]
                    grid_cells.append((algo.name, rows, hw))
    if obs.enabled():
        obs.count("engine.schedule_memo.hits", schedules.hits - hits)
        obs.count("engine.schedule_memo.misses", schedules.misses - misses)
    if grid_cells:
        with obs.span("engine.grid", cat="engine", cells=len(grid_cells)):
            with obs.span("engine.table", cat="engine"):
                table = PhaseTable.from_cells(grid_cells, calibration=calibration)
            with obs.span("engine.evaluate", cat="engine", rows=table.n_rows):
                records = evaluate_phase_table(table, backend=backend)
        if obs.enabled():
            obs.count("engine.grid_cells", len(grid_cells))
        with obs.span("engine.assemble", cat="engine", cells=len(records)):
            for slot, record in zip(grid_slots, records):
                out[slot] = (out[slot][0], record)
    return out


def _compute_chunk_profiled(
    items: list[_Cell],
    calibration: Calibration | None,
    chunk_index: int = 0,
    attempt: int = 0,
    in_worker: bool = False,
) -> tuple[list[_CellResult], dict]:
    """Worker-side chunk evaluation with a private recorder.

    Used instead of :func:`_compute_chunk` when the parent process is
    profiling: the worker records its per-point spans into a fresh
    recorder (replacing whatever the fork inherited) and ships the
    snapshot back for the parent to merge, so pool workers appear as
    separate pid lanes in the Chrome trace.
    """
    recorder = obs.enable()
    try:
        records = _compute_chunk(
            items, calibration,
            chunk_index=chunk_index, attempt=attempt, in_worker=in_worker,
        )
        return records, recorder.snapshot()
    finally:
        obs.disable()


class EvaluationEngine:
    """Content-addressed memo cache in front of the analytical model.

    The resilience knobs (``chunk_timeout_s``, ``max_retries``,
    ``retry_backoff_s``) govern the parallel path only: a chunk whose
    worker crashes (``BrokenProcessPool``) or exceeds the collection
    timeout is retried on a fresh pool with exponential backoff, while
    chunks that already completed are kept; a chunk that exhausts its
    retries is rescued serially in-process, so ``evaluate_many`` makes
    progress under any fault the pool can throw at it.
    """

    def __init__(
        self,
        cache: MemoCache | None = None,
        max_workers: int = 1,
        calibration: Calibration | None = None,
        use_cache: bool = True,
        chunk_timeout_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        pool_min_batch: int = _POOL_MIN_BATCH,
        grid_backend: str | None = None,
    ) -> None:
        if max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        if chunk_timeout_s is not None and chunk_timeout_s <= 0:
            raise EngineError(
                f"chunk_timeout_s must be positive or None, got {chunk_timeout_s}"
            )
        if max_retries < 0:
            raise EngineError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise EngineError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        if pool_min_batch < 0:
            raise EngineError(f"pool_min_batch must be >= 0, got {pool_min_batch}")
        if grid_backend is not None and grid_backend != "percell":
            if grid_backend not in GRID_BACKEND_CHOICES:
                raise EngineError(
                    f"grid_backend must be one of {GRID_BACKEND_CHOICES} or "
                    f"'percell', got {grid_backend!r}"
                )
            resolve_grid_backend(grid_backend)  # fail fast, not mid-batch
        self.cache = cache if cache is not None else MemoCache()
        self.max_workers = max_workers
        self.calibration = calibration
        self.use_cache = use_cache
        self.chunk_timeout_s = chunk_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.pool_min_batch = pool_min_batch
        self.grid_backend = grid_backend
        self.schedules = ScheduleMemo()

    # ------------------------------------------------------------------ #
    # single cell
    # ------------------------------------------------------------------ #
    def key(self, task: EvalTask) -> str:
        """The content-addressed cache key of a task.

        Keyed after Winograd* fallback, so equal resolved cells share one
        cache entry (a ``winograd`` fallback cell aliases the direct
        ``im2col_gemm6`` cell).
        """
        return _resolved_key(
            task.algorithm, task.spec, task.hw, task.fallback, self.calibration
        )[1]

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
        max_workers: int | None = None,
        on_error: str = "raise",
    ) -> list[LayerCycles | CellError]:
        """Evaluate a batch of cells, returning records in task order.

        Cache hits are served immediately; distinct missing keys are
        computed once (serially, or across a process pool when
        ``max_workers > 1``) and stored.

        ``on_error`` controls what a failing cell does: ``"raise"`` (the
        default) re-raises the first failure with the cell named in the
        message; ``"record"`` leaves a :class:`CellError` in that cell's
        result slots (duplicates of a failing cell share one error record)
        and never caches it.
        """
        return self._evaluate(
            [(t.algorithm, t.spec, t.hw, t.fallback) for t in tasks],
            max_workers,
            on_error,
        )

    def sweep(
        self,
        specs: Sequence[ConvSpec],
        configs: Sequence[HardwareConfig],
        algorithms: Sequence[str],
        fallback: bool = True,
        max_workers: int | None = None,
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
            max_workers,
            "raise",
        )
        return dict(zip(order, cast("list[LayerCycles]", records)))

    def _evaluate(
        self,
        tasks: list[tuple[str, ConvSpec, HardwareConfig, bool]],
        max_workers: int | None,
        on_error: str,
    ) -> list[LayerCycles | CellError]:
        """:meth:`evaluate_many` over ``(algorithm, spec, hw, fallback)``."""
        if on_error not in ("raise", "record"):
            raise EngineError(f"on_error must be 'raise' or 'record', got {on_error!r}")
        cal = self.calibration
        # one memo lookup per task: (resolved algorithm name, cache key)
        resolved = [_resolved_key(a, s, h, f, cal) for a, s, h, f in tasks]
        workers = self.max_workers if max_workers is None else max_workers
        if workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {workers}")

        with obs.span("engine.evaluate_many", cat="engine", tasks=len(tasks)):
            disk_hits_before = self.cache.stats.disk_hits
            results: list[LayerCycles | CellError | None] = [None] * len(tasks)
            missing: dict[str, list[int]] = {}  # key -> task indices needing it
            get = self.cache.get
            for i, (_, key) in enumerate(resolved):
                record = get(key) if self.use_cache else None
                if record is None:
                    missing.setdefault(key, []).append(i)
                else:
                    results[i] = record

            if obs.enabled():
                served = len(tasks) - sum(len(ix) for ix in missing.values())
                disk_hits = self.cache.stats.disk_hits - disk_hits_before
                obs.count("engine.cache.memory_hits", served - disk_hits)
                obs.count("engine.cache.disk_hits", disk_hits)
                obs.count("engine.cache.misses", len(missing))

            if missing:
                # one representative cell per distinct key, in first-seen order
                cells = [
                    (i, resolved[i][0], tasks[i][1], tasks[i][2])
                    for i in (indices[0] for indices in missing.values())
                ]
                computed = self._compute(cells, workers)
                for (key, indices), (_, record) in zip(missing.items(), computed):
                    if isinstance(record, CellError):
                        obs.count("engine.cell_errors")
                        if on_error == "raise":
                            record.reraise()
                        # failed cells are never cached: a later retry of
                        # the same key recomputes instead of replaying the
                        # failure from the cache
                    elif self.use_cache:
                        self.cache.put(key, record)
                    for i in indices:
                        results[i] = record
        return cast("list[LayerCycles | CellError]", results)

    # ------------------------------------------------------------------ #
    # execution backends
    # ------------------------------------------------------------------ #
    def _compute(
        self,
        cells: list[_Cell],
        workers: int,
    ) -> list[_CellResult]:
        """Compute cells (serially or in parallel), preserving input order.

        Serial batches (and parallel batches at or below
        ``pool_min_batch`` cells) go through the tensorized grid path —
        one columnar model call over every cold cell — which beats pool
        startup by orders of magnitude on analytical workloads.  The
        process pool engages only for ``workers > 1`` batches larger
        than ``pool_min_batch``, where its crash/hang resilience
        machinery earns its dispatch overhead.
        """
        if workers > 1 and len(cells) > 1:
            if len(cells) <= self.pool_min_batch:
                if len(cells) <= _SMALL_BATCH:
                    obs.count("engine.small_batch_serial")
                return self._compute_serial(cells)
            # The except is scoped to *pool acquisition* only — failures
            # mid-run go through the retry machinery in _compute_parallel
            # (or propagate) instead of being silently absorbed here.
            try:
                ctx = self._pool_context()
            except (OSError, ImportError, RuntimeError) as exc:
                self._serial_degrade(exc)
            else:
                return self._compute_parallel(cells, workers, ctx)
        return self._compute_serial(cells)

    def _compute_serial(self, cells: list[_Cell]) -> list[_CellResult]:
        """In-process evaluation: tensorized grid, per-cell on request.

        ``grid_backend="percell"`` pins the pre-grid per-cell path (for
        A/B parity checks and benchmarks); any grid-machinery failure —
        never a per-cell evaluation error, which the grid path isolates
        itself — falls back to the per-cell path, audibly via the
        ``engine.grid_fallbacks`` counter.
        """
        if self.grid_backend == "percell":
            return _compute_chunk(cells, self.calibration)
        try:
            return _compute_grid(
                cells, self.calibration, self.grid_backend, self.schedules
            )
        except Exception:
            obs.count("engine.grid_fallbacks")
            return _compute_chunk(cells, self.calibration)

    # Thin delegates to the shared plumbing in :mod:`repro.engine.pool`
    # (kept as staticmethods so tests can monkeypatch pool acquisition).
    @staticmethod
    def _pool_context():
        return pool_plumbing.pool_context()

    @staticmethod
    def _new_pool(ctx, size: int):
        return pool_plumbing.new_pool(ctx, size)

    @staticmethod
    def _stop_pool(pool) -> None:
        pool_plumbing.stop_pool(pool)

    @staticmethod
    def _serial_degrade(exc: BaseException) -> None:
        """Account (and warn once) for degrading to in-process execution."""
        global _warned_serial_fallback
        obs.count("engine.serial_fallbacks")
        if not _warned_serial_fallback:
            _warned_serial_fallback = True
            warnings.warn(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                "evaluating serially in-process",
                RuntimeWarning,
                stacklevel=4,
            )

    def _absorb(self, result, profiling: bool, dispatch) -> list[_CellResult]:
        """Unpack one chunk result, merging the worker recorder snapshot."""
        if not profiling:
            return result
        records, snapshot = result
        recorder = obs.get_recorder()
        if isinstance(recorder, obs.Recorder):
            recorder.merge(snapshot, parent_id=getattr(dispatch, "span_id", -1))
        # worker utilization: evaluated points per pool pid
        for row in snapshot["spans"]:
            if row[2] == "engine.point":
                obs.count(f"engine.worker.{row[6]}.points")
        return records

    def _compute_parallel(
        self,
        cells: list[_Cell],
        workers: int,
        ctx,
    ) -> list[_CellResult]:
        """Fan chunks over a process pool with bounded retry + salvage.

        One dispatch round submits every pending chunk; a crash
        (``BrokenProcessPool``) or a chunk exceeding ``chunk_timeout_s``
        kills the pool, *salvages every chunk that already finished*, and
        retries only the rest on a fresh pool with exponential backoff.
        Chunks that exhaust ``max_retries`` are rescued serially
        in-process, so this method always terminates with a full result.
        """
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        plan = faults.active_plan()
        profiling = obs.enabled()
        chunk_fn = _compute_chunk_profiled if profiling else _compute_chunk
        chunks = [cells[i:i + _CHUNK] for i in range(0, len(cells), _CHUNK)]
        pool_size = min(workers, len(chunks))
        pending: dict[int, list[_Cell]] = dict(enumerate(chunks))
        attempts: dict[int, int] = {i: 0 for i in pending}
        done: dict[int, list[_CellResult]] = {}

        with obs.span(
            "engine.parallel", cat="engine",
            chunks=len(chunks), workers=pool_size,
        ) as dispatch:
            while pending:
                try:
                    pool = self._new_pool(ctx, min(pool_size, len(pending)))
                except (OSError, ImportError, RuntimeError) as exc:
                    self._serial_degrade(exc)
                    break
                broken = False
                try:
                    futures = {}
                    for i in sorted(pending):
                        if plan is not None:
                            kind = plan.worker_fault(i, attempts[i])
                            if kind is not None:
                                faults.mark_injected(f"engine.worker.{kind}")
                        fut = pool.submit(
                            chunk_fn,
                            pending[i],
                            self.calibration,
                            chunk_index=i,
                            attempt=attempts[i],
                            in_worker=True,
                        )
                        futures[fut] = i
                    # collect in submission order — completion order is
                    # irrelevant for the (deterministic) output order
                    for future, i in futures.items():
                        try:
                            result = future.result(timeout=self.chunk_timeout_s)
                        except FuturesTimeout:
                            obs.count("engine.chunk_timeouts")
                            broken = True
                            break
                        except BrokenProcessPool:
                            broken = True
                            break
                        done[i] = self._absorb(result, profiling, dispatch)
                    if broken:
                        obs.count("engine.pool_restarts")
                        # keep every chunk that finished before the failure
                        for future, i in futures.items():
                            if i in done:
                                continue
                            if (
                                future.done()
                                and not future.cancelled()
                                and future.exception() is None
                            ):
                                done[i] = self._absorb(
                                    future.result(), profiling, dispatch
                                )
                                obs.count("engine.chunks_salvaged")
                finally:
                    self._stop_pool(pool)
                for i in list(done):
                    pending.pop(i, None)
                if not pending:
                    break
                # every still-pending chunk failed this round
                for i in pending:
                    attempts[i] += 1
                exhausted = sorted(i for i in pending if attempts[i] > self.max_retries)
                for i in exhausted:
                    # retry budget spent: rescue the chunk in-process
                    obs.count("engine.chunk_serial_rescues")
                    done[i] = _compute_chunk(pending.pop(i), self.calibration)
                if pending:
                    obs.count("engine.retries", len(pending))
                    round_no = min(attempts[i] for i in pending)
                    delay = self.retry_backoff_s * (2 ** (round_no - 1))
                    if delay > 0:
                        time.sleep(delay)
        # pool acquisition degraded mid-campaign: finish serially
        for i in sorted(pending):
            done[i] = _compute_chunk(pending[i], self.calibration)

        out = [pair for i in sorted(done) for pair in done[i]]
        if profiling:
            obs.gauge("engine.pool_workers", pool_size)
            obs.count("engine.parallel_chunks", len(chunks))
        return out
