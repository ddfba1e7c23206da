"""Tensorized whole-grid evaluation of the analytical timing model.

The co-design studies evaluate :class:`~repro.simulator.analytical.model.
AnalyticalTimingModel` over thousands of (layer, algorithm, hardware)
grid cells.  The per-cell path times each phase with plain Python
(``math.ceil``, per-stream loops, dataclass construction) — fine for one
cell, wasteful for a grid.  This module evaluates *every phase of every
cell at once*:

* :class:`PhaseTable` — a columnar structure-of-arrays with one row per
  (cell, phase), gathered by index from a batch's distinct schedules
  (:class:`PhaseRows`) and configurations: instruction-count columns
  straight from the :class:`~repro.simulator.analytical.phases.Phase`
  descriptors, zero-padded ``(rows, max_streams)`` stream columns, and
  per-cell hardware/calibration columns derived with the *same scalar
  Python expressions* the per-cell model uses;
* :func:`evaluate_phase_table` — evaluates all rows through one of two
  interchangeable backends (the :mod:`repro.simulator.replay_backend`
  idiom): ``numpy`` (always available) computes each
  :class:`~repro.simulator.analytical.model.PhaseCycles` column as a
  NumPy expression replicating the scalar code's float-op order exactly,
  ``compiled`` dispatches to the Numba kernel in
  :mod:`repro.simulator._compiled` (registered only when the
  ``[compiled]`` extra is installed), and ``auto`` picks the fastest
  registered.

Both backends are **bit-identical** to the per-cell path by contract:
every elementwise operation (``np.ceil`` chimes, lane ``np.maximum``,
the left-to-right per-stream folds) mirrors the exact IEEE-754 op
sequence of :meth:`AnalyticalTimingModel.phase_cycles`, so the assembled
:class:`LayerCycles` records compare equal field by field.  Records are
built from the row columns without :class:`PhaseCycles` objects
(:meth:`LayerCycles.from_rows`), each with its ``cycles`` and
``dram_bytes`` folded once, left to right, as the record folds its
phases.  Locked by
``tests/test_analytical_grid.py`` (full 448-point grid, both backends)
and the hypothesis suite in ``tests/test_property_analytical_grid.py``.

:func:`configure_grid` sets the process-wide backend default (the
``repro-experiments --grid-backend`` flag routes here).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.simulator import _compiled
from repro.simulator.analytical.cachemodel import effective_l2_bytes
from repro.simulator.analytical.calibration import DEFAULT_CALIBRATION, Calibration
from repro.simulator.analytical.model import LayerCycles
from repro.simulator.analytical.phases import Phase
from repro.simulator.hwconfig import HardwareConfig, VectorUnitStyle
from repro.simulator.memory import DramModel

#: Valid grid-backend arguments (``auto`` resolves to the fastest
#: registered, exactly like the replay backend registry).
GRID_BACKEND_CHOICES = ("auto", "compiled", "numpy")


class RowCycles(NamedTuple):
    """Per-(cell, phase) result columns — one value per PhaseTable row."""

    vector_cycles: np.ndarray
    scalar_cycles: np.ndarray
    l2_cycles: np.ndarray
    dram_cycles: np.ndarray
    latency_cycles: np.ndarray
    startup_cycles: np.ndarray
    dram_bytes: np.ndarray
    l2_bytes: np.ndarray


#: Instruction-count fields of a :class:`Phase`, in :attr:`PhaseRows.ops`
#: column order (and the :class:`PhaseTable` columns of the same names).
_OP_FIELDS = (
    "vector_ops", "vector_active", "vmem_ops", "vmem_active",
    "nonunit_fraction", "scalar_ops",
)

#: :class:`DataStream` fields, in :attr:`PhaseRows.streams` column order.
_STREAM_FIELDS = ("bytes", "passes", "reuse_ws", "scalar_access", "resident_source")

#: Per-cell :class:`PhaseTable` columns, in :func:`_hw_columns` order; the
#: flags travel as 0.0/1.0.
_HW_FIELDS = (
    "chime_den_unit", "chime_den_nonunit", "deadtime", "vector_issue",
    "vmem_issue", "scalar_cpi", "l2_bytes_per_cycle", "cache_bytes",
    "vec_exposure", "line_bytes", "dram_latency", "mlp", "dram_bw",
    "phase_startup", "scalar_exposure_on", "resident_source_on",
)


class PhaseRows(NamedTuple):
    """One schedule's :class:`PhaseTable` rows, extracted once.

    :meth:`PhaseTable.gather` indexes these, so a caller that evaluates
    one schedule on many configs (the engine's schedule memo) walks its
    phases and streams once, not once per config.
    """

    #: Phase name per row.
    names: tuple[str, ...]
    #: ``(phases, 6)`` instruction columns, in :data:`_OP_FIELDS` order.
    ops: np.ndarray
    #: ``(streams, 5)`` stream columns, in :data:`_STREAM_FIELDS` order
    #: (the flags as 0.0/1.0).
    streams: np.ndarray
    #: ``(streams, 2)``: (phase row, stream slot) of each stream.
    stream_at: np.ndarray

    @classmethod
    def from_phases(cls, phases: Sequence[Phase]) -> "PhaseRows":
        ops = [[getattr(ph, f) for f in _OP_FIELDS] for ph in phases]
        streams = []
        stream_at = []
        for r, ph in enumerate(phases):
            for j, s in enumerate(ph.streams):
                streams.append([getattr(s, f) for f in _STREAM_FIELDS])
                stream_at.append((r, j))
        return cls(
            names=tuple(ph.name for ph in phases),
            ops=np.array(ops, dtype=np.float64).reshape(-1, len(_OP_FIELDS)),
            streams=np.array(streams, dtype=np.float64).reshape(
                -1, len(_STREAM_FIELDS)
            ),
            stream_at=np.array(stream_at, dtype=np.int64).reshape(-1, 2),
        )


def _hw_columns(cfg: HardwareConfig, cal: Calibration) -> tuple:
    """One cell's :data:`_HW_FIELDS` values.

    The exact scalar expressions of :class:`AnalyticalTimingModel`, so the
    columns carry the same float64 values the per-cell path sees.
    """
    datapath = cfg.datapath_f32_per_cycle
    decoupled = cfg.style is VectorUnitStyle.DECOUPLED
    prefetch = cfg.software_prefetch or cfg.hardware_prefetch
    exposure = cal.latency_exposure * (
        cal.prefetch_latency_factor if prefetch else 1.0
    )
    return (
        max(1.0, datapath),
        max(1.0, datapath / cal.nonunit_penalty),
        cal.decoupled_deadtime if decoupled else 0.0,
        cal.vector_issue,
        cal.vmem_issue,
        cal.scalar_cpi,
        cal.l2_bytes_per_cycle,
        effective_l2_bytes(cfg),
        0.5 if decoupled else exposure,
        cfg.line_bytes,
        cfg.dram_latency,
        DramModel.from_config(cfg).mlp,
        cal.dram_efficiency * cfg.dram_bytes_per_cycle,
        cal.phase_startup,
        bool(cal.enable_scalar_exposure),
        bool(cal.enable_resident_source),
    )


@dataclass(frozen=True)
class PhaseTable:
    """Columnar (structure-of-arrays) form of a batch of schedules.

    One row per (cell, phase), cells contiguous in input order.  Each cell
    is one of the table's distinct schedules on one of its distinct
    configurations, and :meth:`gather` builds every column by indexing
    those, so a schedule or configuration shared by many cells is read
    once.  Stream columns are ``(max_streams, rows)`` matrices padded with
    neutral values (``bytes=0``, ``passes=1``, ``reuse_ws=0``, flags
    ``0.0``) so every padded term folds to exactly ``+0.0`` — the
    left-to-right per-stream accumulation therefore matches the per-cell
    ``sum()`` / ``+=`` loops bit for bit.  Per-cell hardware/calibration
    columns are derived with the same scalar expressions the per-cell
    model uses, so no precision is gained or lost on the way in.
    """

    n_cells: int
    n_rows: int
    #: Algorithm name per cell (the record label).
    algorithms: tuple[str, ...]
    #: Phases per cell, and the row each cell's rows start at.
    phase_counts: np.ndarray  # (n_cells,) int64
    row_start: np.ndarray  # (n_cells,) int64
    #: Row -> owning cell index.
    cell_of_row: np.ndarray  # (n_rows,) int64
    #: Phase names of each distinct schedule, and each cell's schedule.
    schedule_names: tuple[tuple[str, ...], ...]
    schedule_of_cell: np.ndarray  # (n_cells,) int64

    #: Instruction columns, ``(len(_OP_FIELDS), n_rows)``.
    ops: np.ndarray
    #: Stream columns, ``(len(_STREAM_FIELDS), max_streams, n_rows)``: a
    #: row's stream slots in order, the flags (consumed by scalar loads;
    #: produced by an earlier phase or layer) as 0.0/1.0.
    streams: np.ndarray
    #: Per-cell hardware/calibration columns, ``(len(_HW_FIELDS),
    #: n_cells)``, the flags as 0.0/1.0.
    config_columns: np.ndarray

    @classmethod
    def gather(
        cls,
        schedules: Sequence[PhaseRows],
        schedule_of_cell: np.ndarray,
        configs: Sequence[tuple[HardwareConfig, Calibration]],
        config_of_cell: np.ndarray,
        algorithms: Sequence[str],
    ) -> "PhaseTable":
        """Build the table by index: cell ``i`` is
        ``schedules[schedule_of_cell[i]]`` on the ``(hardware,
        calibration)`` pair ``configs[config_of_cell[i]]``, labelled
        ``algorithms[i]``.

        Each schedule's rows are stacked once and each configuration's
        columns derived once, then gathered for every cell that uses them.
        """
        counts = np.array([len(r.names) for r in schedules], dtype=np.int64)
        first = counts.cumsum() - counts  # first stacked row per schedule
        phase_counts = counts[schedule_of_cell]
        n_cells = len(phase_counts)
        row_end = phase_counts.cumsum()
        row_start = row_end - phase_counts
        n_rows = int(row_end[-1]) if n_cells else 0
        cell_of_row = np.arange(n_cells, dtype=np.int64).repeat(phase_counts)
        # the stacked schedule row behind each table row
        source = np.arange(n_rows, dtype=np.int64) + (
            first[schedule_of_cell] - row_start
        ).repeat(phase_counts)
        ops = _stack([r.ops for r in schedules], len(_OP_FIELDS))
        ops = ops.T.take(source, 1)
        # stream slots of every stacked row, padded, then gathered per row
        streams = _stack([r.streams for r in schedules], len(_STREAM_FIELDS))
        stream_at = _stack([r.stream_at for r in schedules], 2, np.int64)
        row = stream_at[:, 0] + first.repeat([len(r.streams) for r in schedules])
        col = stream_at[:, 1]
        s_width = max(1, int(col.max()) + 1 if len(col) else 0)
        padded = np.zeros((len(_STREAM_FIELDS), s_width, int(counts.sum())))
        padded[1] = 1.0  # passes
        padded[:, col, row] = streams.T
        padded = padded.take(source, 2)

        per_config = np.array(
            [_hw_columns(hw, cal) for hw, cal in configs], dtype=np.float64
        ).reshape(-1, len(_HW_FIELDS))
        return cls(
            n_cells=n_cells,
            n_rows=n_rows,
            algorithms=tuple(algorithms),
            phase_counts=phase_counts,
            row_start=row_start,
            cell_of_row=cell_of_row,
            schedule_names=tuple([r.names for r in schedules]),
            schedule_of_cell=schedule_of_cell,
            ops=ops,
            streams=padded,
            config_columns=np.ascontiguousarray(per_config[config_of_cell].T),
        )

    @classmethod
    def from_cells(
        cls,
        cells: Sequence,
        calibration: Calibration | None = None,
    ) -> "PhaseTable":
        """Build the table from ``(algorithm, phases, hw[, calibration])``.

        ``phases`` is a schedule's ``Phase`` list or its already extracted
        :class:`PhaseRows`.  ``calibration`` is the table-wide default
        (``None`` → :data:`DEFAULT_CALIBRATION`); a 4-tuple cell overrides
        it for that cell only.  Cells sharing a ``phases`` object share its
        rows, and cells sharing a (config, calibration) pair of objects
        share its columns (:meth:`gather`).
        """
        default_cal = calibration or DEFAULT_CALIBRATION
        schedules: list[PhaseRows] = []
        configs: list[tuple[HardwareConfig, Calibration]] = []
        schedule_index: dict[int, int] = {}  # id(phases) -> schedule
        config_index: dict[tuple[int, int], int] = {}  # (id(hw), id(cal))
        algorithms: list[str] = []
        schedule_of_cell: list[int] = []
        config_of_cell: list[int] = []
        for name, phases, hw, *override in cells:
            cal = (override[0] if override else None) or default_cal
            s = schedule_index.setdefault(id(phases), len(schedules))
            if s == len(schedules):
                if not isinstance(phases, PhaseRows):
                    phases = PhaseRows.from_phases(phases)
                schedules.append(phases)
            c = config_index.setdefault((id(hw), id(cal)), len(configs))
            if c == len(configs):
                configs.append((hw, cal))
            algorithms.append(name)
            schedule_of_cell.append(s)
            config_of_cell.append(c)
        return cls.gather(
            schedules,
            np.array(schedule_of_cell, dtype=np.int64),
            configs,
            np.array(config_of_cell, dtype=np.int64),
            algorithms,
        )


def fold(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis, left to right from 0.0: each element is what
    a Python ``total = 0.0; total += term`` loop gives (NumPy's own
    reductions add in other orders)."""
    total = terms[0] + 0.0  # 0.0 + x, which turns -0.0 into 0.0
    for term in terms[1:]:
        total += term
    return total


def _stack(blocks: list[np.ndarray], width: int, dtype=np.float64) -> np.ndarray:
    """Concatenate row blocks (an empty table has no blocks)."""
    return np.concatenate(blocks) if blocks else np.zeros((0, width), dtype)


# --------------------------------------------------------------------- #
# numpy backend
# --------------------------------------------------------------------- #
def _evaluate_rows_numpy(t: PhaseTable) -> RowCycles:
    """All rows at once with NumPy, replicating the scalar op order.

    Wrapped in ``np.errstate`` because Python scalar float division is
    silent where ndarray division warns (e.g. ``cache / ws`` overflowing
    to ``inf`` for a subnormal working set) — the *values* still match
    the per-cell path exactly, so the warning would be pure noise.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _rows_numpy_impl(t)


def _rows_numpy_impl(t: PhaseTable) -> RowCycles:
    """The numpy evaluation proper.

    Every expression below is the elementwise image of one line of
    :meth:`AnalyticalTimingModel.phase_cycles`; the per-stream terms are
    computed over the whole ``(max_streams, rows)`` matrices at once, and
    the per-stream loops become left-to-right folds over their slots
    (padded terms are exactly ``+0.0``, so ``acc + term`` reproduces the
    scalar ``+=`` accumulation bit for bit).
    """
    (
        den_unit, den_nonunit, deadtime, vissue, missue, scalar_cpi,
        l2_bytes_per_cycle, cache, vec_exposure, line_bytes, dram_latency,
        mlp, dram_bw, startup, scalar_on, resident_on,
    ) = t.config_columns.take(t.cell_of_row, 1)
    vector_ops, vector_active, vmem_ops, vmem_active, nonunit, scalar_ops = t.ops
    b, passes, ws, scalar_access, resident_source = t.streams

    # vec = vector_ops * (max(issue, chime(active)) + deadtime)
    chime_v = np.maximum(1.0, np.ceil(vector_active / den_unit))
    vec = vector_ops * (np.maximum(vissue, chime_v) + deadtime)
    # += unit/strided vmem terms, guarded exactly like `if phase.vmem_ops:`
    unit_ops = vmem_ops * (1.0 - nonunit)
    strided_ops = vmem_ops * nonunit
    chime_m = np.maximum(1.0, np.ceil(vmem_active / den_unit))
    chime_mn = np.maximum(1.0, np.ceil(vmem_active / den_nonunit))
    vec_full = (
        vec + unit_ops * ((missue + chime_m) + deadtime)
    ) + strided_ops * ((missue + chime_mn) + deadtime)
    vector_cycles = np.where(vmem_ops > 0.0, vec_full, vec)

    scalar_cycles = scalar_ops * scalar_cpi

    # fractional residency min(1.0, cache / ws), and 1.0 for ws <= 0: the
    # ratio is below 1.0 exactly where cache < ws
    res = np.divide(cache, ws, out=np.ones(ws.shape), where=cache < ws)
    res_src = np.divide(cache, b, out=np.ones(b.shape), where=cache < b)
    compulsory = np.where(resident_source * resident_on, b * (1.0 - res_src), b)
    sbytes = compulsory + b * (passes - 1.0) * (1.0 - res)
    exposure = np.where(scalar_access * scalar_on, 1.0, vec_exposure)
    # per stream slot: L2-port traffic (every pass streams through the L2
    # interface), DRAM traffic, exposed latency; each folded over the slots
    terms = np.empty((len(b), 3, t.n_rows))
    np.multiply(b, passes, out=terms[:, 0])
    terms[:, 1] = sbytes
    np.divide(
        exposure * (sbytes / line_bytes) * dram_latency, mlp, out=terms[:, 2]
    )
    l2_bytes, dram_bytes, latency = fold(terms)

    return RowCycles(
        vector_cycles=vector_cycles,
        scalar_cycles=scalar_cycles,
        l2_cycles=l2_bytes / l2_bytes_per_cycle,
        dram_cycles=dram_bytes / dram_bw,
        latency_cycles=latency,
        startup_cycles=startup,
        dram_bytes=dram_bytes,
        l2_bytes=l2_bytes,
    )


# --------------------------------------------------------------------- #
# compiled backend — thin wrapper over the njit kernel
# --------------------------------------------------------------------- #
def _evaluate_rows_compiled(t: PhaseTable) -> RowCycles:
    n = t.n_rows
    out = RowCycles(*np.zeros((len(RowCycles._fields), n)))
    if n:
        # the kernel indexes stream columns [row, slot]
        b, passes, ws, scalar_access, resident_source = t.streams.transpose(0, 2, 1)
        *config, scalar_on, resident_on = t.config_columns
        _compiled.analytical_grid_kernel(
            t.cell_of_row,
            *t.ops,
            b, passes, ws, scalar_access != 0.0, resident_source != 0.0,
            *config, scalar_on != 0.0, resident_on != 0.0,
            *out,
        )
    return out


# --------------------------------------------------------------------- #
# registry (the replay_backend.py idiom)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridBackend:
    """One interchangeable implementation of the row evaluator."""

    name: str
    evaluate_rows: Callable[[PhaseTable], RowCycles]


NUMPY_GRID_BACKEND = GridBackend("numpy", _evaluate_rows_numpy)

_REGISTRY: dict[str, GridBackend] = {"numpy": NUMPY_GRID_BACKEND}

if _compiled.HAVE_NUMBA:
    _REGISTRY["compiled"] = GridBackend("compiled", _evaluate_rows_compiled)


def available_grid_backends() -> tuple[str, ...]:
    """Names of the registered (directly runnable) grid backends."""
    return tuple(sorted(_REGISTRY))


def resolve_grid_backend(name: str | None = "auto") -> GridBackend:
    """Map a backend argument to an implementation.

    ``auto`` (or ``None``) prefers ``compiled`` when Numba is installed
    and falls back to ``numpy`` otherwise — both are bit-identical, so
    the choice only affects speed.  Asking for ``compiled`` explicitly
    without Numba raises a :class:`SimulationError` naming the extra.
    """
    if name is None or name == "auto":
        return _REGISTRY.get("compiled", NUMPY_GRID_BACKEND)
    backend = _REGISTRY.get(name)
    if backend is None:
        if name == "compiled":
            raise SimulationError(
                "grid backend 'compiled' needs Numba — install the "
                "[compiled] extra (pip install repro[compiled]) or use "
                "backend='auto'/'numpy'"
            )
        raise SimulationError(
            f"unknown grid backend {name!r}; choose from "
            f"{GRID_BACKEND_CHOICES} (registered: {available_grid_backends()})"
        )
    return backend


#: Process-wide default, set by :func:`configure_grid` (the CLI flag
#: lands here) and used whenever evaluation is invoked without an
#: explicit ``backend`` argument.
_DEFAULT_GRID_BACKEND = "auto"


def configure_grid(backend: str | None = None) -> str:
    """Set the process-wide default grid backend.

    ``backend`` must be one of :data:`GRID_BACKEND_CHOICES`; an explicit
    ``compiled`` is validated eagerly so a missing Numba fails at
    configuration time, not mid-experiment.  ``None`` leaves the value
    unchanged.  Returns the effective default.
    """
    global _DEFAULT_GRID_BACKEND
    if backend is not None:
        if backend not in GRID_BACKEND_CHOICES:
            raise SimulationError(
                f"unknown grid backend {backend!r}; choose from "
                f"{GRID_BACKEND_CHOICES}"
            )
        resolve_grid_backend(backend)  # fail fast on unavailable 'compiled'
        _DEFAULT_GRID_BACKEND = backend
    return _DEFAULT_GRID_BACKEND


def grid_defaults() -> str:
    """The current process-wide grid-backend default."""
    return _DEFAULT_GRID_BACKEND


# --------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------- #
def evaluate_phase_table(
    table: PhaseTable, backend: str | None = None
) -> list[LayerCycles]:
    """Evaluate every cell of a :class:`PhaseTable`, one record per cell.

    ``backend`` overrides the process-wide default
    (:func:`configure_grid`); records are assembled from the row columns
    and are bit-identical to per-cell
    :meth:`AnalyticalTimingModel.evaluate` output.
    """
    impl = resolve_grid_backend(
        backend if backend is not None else _DEFAULT_GRID_BACKEND
    )
    rows = impl.evaluate_rows(table)
    if obs.enabled():
        obs.count(f"analytical.grid_backend.{impl.name}")
        obs.count("analytical.grid_rows", table.n_rows)
    return _records(table, rows)


def _records(t: PhaseTable, rows: RowCycles) -> list[LayerCycles]:
    """Grid-built records of the evaluated rows (:meth:`LayerCycles.from_rows`).

    Each cell's ``cycles`` and ``dram_bytes`` fold its phases left to
    right from 0.0, as the record itself does: a phase's cycles are
    Python's ``max`` over its four lanes (the first of equal lanes wins)
    plus latency plus startup, and each cell's phases are padded to the
    widest cell with ``+0.0``, which leaves a fold unchanged.
    """
    lane = rows.vector_cycles
    for other in (rows.scalar_cycles, rows.l2_cycles, rows.dram_cycles):
        lane = np.where(other > lane, other, lane)
    per_row = np.zeros((2, t.n_rows + 1))  # the last column is the padding
    np.add(lane + rows.latency_cycles, rows.startup_cycles, out=per_row[0, :-1])
    per_row[1, :-1] = rows.dram_bytes
    counts, start = t.phase_counts, t.row_start
    phase = np.arange(max(1, int(counts.max()) if t.n_cells else 1))[:, None]
    padded = per_row[:, np.where(phase < counts, start + phase, t.n_rows)]
    cycles, dram_bytes = fold(padded.transpose(1, 0, 2)).tolist()
    # each record's row values, phase after phase, in an array('d') of its
    # own: one copy out of the batch's arrays, no float objects
    flat = array("d", np.array(rows).T.tobytes())
    bounds = (t.row_start * len(rows)).tolist() + [len(flat)]
    values = map(flat.__getitem__, map(slice, bounds, bounds[1:]))
    names = map(t.schedule_names.__getitem__, t.schedule_of_cell.tolist())
    return LayerCycles.from_rows(t.algorithms, names, values, cycles, dram_bytes)


def evaluate_cells(
    cells: Sequence,
    calibration: Calibration | None = None,
    backend: str | None = None,
) -> list[LayerCycles]:
    """Convenience: build a :class:`PhaseTable` and evaluate it.

    ``cells`` entries are ``(algorithm, phases, hw[, calibration])`` —
    see :meth:`PhaseTable.from_cells`.
    """
    return evaluate_phase_table(
        PhaseTable.from_cells(cells, calibration=calibration), backend=backend
    )
