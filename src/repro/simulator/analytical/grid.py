"""Tensorized whole-grid evaluation of the analytical timing model.

The co-design studies evaluate :class:`~repro.simulator.analytical.model.
AnalyticalTimingModel` over thousands of (layer, algorithm, hardware)
grid cells.  The per-cell path times each phase with plain Python
(``math.ceil``, per-stream loops, dataclass construction) — fine for one
cell, wasteful for a grid.  This module evaluates *every phase of every
cell at once*:

* :class:`PhaseTable` — a columnar structure-of-arrays with one row per
  (cell, phase): instruction-count columns straight from the
  :class:`~repro.simulator.analytical.phases.Phase` descriptors,
  zero-padded ``(rows, max_streams)`` stream columns, and per-cell
  hardware/calibration columns derived with the *same scalar Python
  expressions* the per-cell model uses;
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
:class:`LayerCycles` records compare equal field by field.  Locked by
``tests/test_analytical_grid.py`` (full 448-point grid, both backends)
and the hypothesis suite in ``tests/test_property_analytical_grid.py``.

:func:`configure_grid` sets the process-wide backend default (the
``repro-experiments --grid-backend`` flag routes here).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.simulator import _compiled
from repro.simulator.analytical.cachemodel import effective_l2_bytes
from repro.simulator.analytical.calibration import DEFAULT_CALIBRATION, Calibration
from repro.simulator.analytical.model import LayerCycles, PhaseCycles
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
#: flags travel as 0.0/1.0 until the table is built.
_HW_FIELDS = (
    "chime_den_unit", "chime_den_nonunit", "deadtime", "vector_issue",
    "vmem_issue", "scalar_cpi", "l2_bytes_per_cycle", "cache_bytes",
    "vec_exposure", "line_bytes", "dram_latency", "mlp", "dram_bw",
    "phase_startup", "scalar_exposure_on", "resident_source_on",
)
_HW_FLAGS = ("scalar_exposure_on", "resident_source_on")


class PhaseRows(NamedTuple):
    """One schedule's :class:`PhaseTable` rows, extracted once.

    :meth:`PhaseTable.from_cells` accepts these in place of a ``Phase``
    list, so a caller that evaluates one schedule on many configs (the
    engine's schedule memo) walks its phases and streams once, not once
    per config.
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

    One row per (cell, phase), cells contiguous in input order.  Stream
    columns are ``(rows, max_streams)`` matrices padded with neutral
    values (``bytes=0``, ``passes=1``, ``reuse_ws=0``, masks ``False``)
    so every padded term folds to exactly ``+0.0`` — the left-to-right
    per-stream accumulation therefore matches the per-cell ``sum()`` /
    ``+=`` loops bit for bit.  Per-cell hardware/calibration columns are
    derived with the same scalar expressions the per-cell model uses,
    so no precision is gained or lost on the way in.
    """

    n_cells: int
    n_rows: int
    #: Algorithm name per cell (the record label).
    algorithms: tuple[str, ...]
    #: Phases per cell; rows of cell ``i`` start at ``sum(counts[:i])``.
    phase_counts: np.ndarray  # (n_cells,) int64
    #: Row -> owning cell index.
    cell_of_row: np.ndarray  # (n_rows,) int64
    #: Phase name per row (kept as Python strings for record assembly).
    phase_names: tuple[str, ...]

    # -- phase instruction columns, one value per row ------------------- #
    vector_ops: np.ndarray
    vector_active: np.ndarray
    vmem_ops: np.ndarray
    vmem_active: np.ndarray
    nonunit_fraction: np.ndarray
    scalar_ops: np.ndarray

    # -- stream columns, (n_rows, max_streams) -------------------------- #
    stream_bytes: np.ndarray
    stream_passes: np.ndarray
    stream_reuse_ws: np.ndarray
    stream_scalar: np.ndarray  # bool: consumed by scalar loads
    stream_resident: np.ndarray  # bool: produced by an earlier phase/layer

    # -- per-cell hardware/calibration columns, (n_cells,) -------------- #
    chime_den_unit: np.ndarray  # max(1.0, datapath)
    chime_den_nonunit: np.ndarray  # max(1.0, datapath / nonunit_penalty)
    deadtime: np.ndarray
    vector_issue: np.ndarray
    vmem_issue: np.ndarray
    scalar_cpi: np.ndarray
    l2_bytes_per_cycle: np.ndarray
    cache_bytes: np.ndarray  # effective L2 capacity for residency
    vec_exposure: np.ndarray
    line_bytes: np.ndarray
    dram_latency: np.ndarray
    mlp: np.ndarray
    dram_bw: np.ndarray  # dram_efficiency * dram_bytes_per_cycle
    phase_startup: np.ndarray
    scalar_exposure_on: np.ndarray  # bool
    resident_source_on: np.ndarray  # bool

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
        it for that cell only.  The schedules themselves are built by the
        caller (``ConvAlgorithm.schedule``), so this constructor is pure
        data movement plus the per-config scalar derivations.
        """
        default_cal = calibration or DEFAULT_CALIBRATION
        algorithms: list[str] = []
        rows: list[PhaseRows] = []
        hw_index: dict[tuple[int, int], int] = {}  # (id(hw), id(cal)) -> row
        hw_rows: list[tuple] = []
        hw_of_cell: list[int] = []
        for cell in cells:
            if len(cell) == 4:
                name, phases, hw, cal = cell
            else:
                name, phases, hw = cell
                cal = None
            cal = cal or default_cal
            algorithms.append(name)
            if not isinstance(phases, PhaseRows):
                phases = PhaseRows.from_phases(phases)
            rows.append(phases)
            # one derivation per distinct (config, calibration) object
            slot = hw_index.setdefault((id(hw), id(cal)), len(hw_rows))
            if slot == len(hw_rows):
                hw_rows.append(_hw_columns(hw, cal))
            hw_of_cell.append(slot)

        n_cells = len(rows)
        phase_counts = np.array([len(r.names) for r in rows], dtype=np.int64)
        n_rows = int(phase_counts.sum())
        cell_of_row = np.repeat(np.arange(n_cells, dtype=np.int64), phase_counts)
        ops = _stack([r.ops for r in rows], len(_OP_FIELDS))
        streams = _stack([r.streams for r in rows], len(_STREAM_FIELDS))
        stream_at = _stack([r.stream_at for r in rows], 2, np.int64)
        # stream (row, slot) in the table: each cell's rows start after the
        # rows of the cells before it
        first_row = np.cumsum(phase_counts) - phase_counts
        row = stream_at[:, 0] + np.repeat(
            first_row, [len(r.streams) for r in rows]
        )
        col = stream_at[:, 1]
        s_width = max(1, int(col.max()) + 1 if len(col) else 0)
        stream_bytes = np.zeros((n_rows, s_width))
        stream_passes = np.ones((n_rows, s_width))
        stream_reuse_ws = np.zeros((n_rows, s_width))
        stream_scalar = np.zeros((n_rows, s_width), dtype=bool)
        stream_resident = np.zeros((n_rows, s_width), dtype=bool)
        stream_bytes[row, col] = streams[:, 0]
        stream_passes[row, col] = streams[:, 1]
        stream_reuse_ws[row, col] = streams[:, 2]
        stream_scalar[row, col] = streams[:, 3] != 0.0
        stream_resident[row, col] = streams[:, 4] != 0.0

        # one contiguous array per column, like the per-cell scalars
        op_columns = dict(zip(_OP_FIELDS, np.ascontiguousarray(ops.T)))
        per_config = np.array(hw_rows, dtype=np.float64).reshape(-1, len(_HW_FIELDS))
        hw_columns = dict(
            zip(_HW_FIELDS, np.ascontiguousarray(per_config[hw_of_cell].T))
        )
        for flag in _HW_FLAGS:
            hw_columns[flag] = hw_columns[flag] != 0.0

        return cls(
            n_cells=n_cells,
            n_rows=n_rows,
            algorithms=tuple(algorithms),
            phase_counts=phase_counts,
            cell_of_row=cell_of_row,
            phase_names=tuple(chain.from_iterable(r.names for r in rows)),
            stream_bytes=stream_bytes,
            stream_passes=stream_passes,
            stream_reuse_ws=stream_reuse_ws,
            stream_scalar=stream_scalar,
            stream_resident=stream_resident,
            **op_columns,
            **hw_columns,
        )


def _stack(blocks: list[np.ndarray], width: int, dtype=np.float64) -> np.ndarray:
    """Concatenate per-cell row blocks (an empty table has no blocks)."""
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
    :meth:`AnalyticalTimingModel.phase_cycles`; the per-stream loops
    become left-to-right folds over the padded stream columns (padded
    terms are exactly ``+0.0``, so ``acc + term`` reproduces the scalar
    ``+=`` accumulation bit for bit).
    """
    c = t.cell_of_row
    den_unit = t.chime_den_unit[c]
    den_nonunit = t.chime_den_nonunit[c]
    deadtime = t.deadtime[c]
    vissue = t.vector_issue[c]
    missue = t.vmem_issue[c]

    # vec = vector_ops * (max(issue, chime(active)) + deadtime)
    chime_v = np.maximum(1.0, np.ceil(t.vector_active / den_unit))
    vec = t.vector_ops * (np.maximum(vissue, chime_v) + deadtime)
    # += unit/strided vmem terms, guarded exactly like `if phase.vmem_ops:`
    unit_ops = t.vmem_ops * (1.0 - t.nonunit_fraction)
    strided_ops = t.vmem_ops * t.nonunit_fraction
    chime_m = np.maximum(1.0, np.ceil(t.vmem_active / den_unit))
    chime_mn = np.maximum(1.0, np.ceil(t.vmem_active / den_nonunit))
    vec_full = (
        vec + unit_ops * ((missue + chime_m) + deadtime)
    ) + strided_ops * ((missue + chime_mn) + deadtime)
    vector_cycles = np.where(t.vmem_ops > 0.0, vec_full, vec)

    scalar_cycles = t.scalar_ops * t.scalar_cpi[c]

    cache = t.cache_bytes[c]
    vec_exposure = t.vec_exposure[c]
    scalar_on = t.scalar_exposure_on[c]
    resident_on = t.resident_source_on[c]
    line_bytes = t.line_bytes[c]
    dram_latency = t.dram_latency[c]
    mlp = t.mlp[c]

    n = t.n_rows
    l2_bytes = np.zeros(n)
    dram_bytes = np.zeros(n)
    latency = np.zeros(n)
    for j in range(t.stream_bytes.shape[1]):
        b = t.stream_bytes[:, j]
        passes = t.stream_passes[:, j]
        ws = t.stream_reuse_ws[:, j]
        # L2-port traffic: every pass streams through the L2 interface
        l2_bytes = l2_bytes + b * passes
        # fractional residency (reuse_ws <= 0 -> fully resident)
        pos_ws = ws > 0.0
        res = np.where(
            pos_ws, np.minimum(1.0, cache / np.where(pos_ws, ws, 1.0)), 1.0
        )
        pos_b = b > 0.0
        res_src = np.where(
            pos_b, np.minimum(1.0, cache / np.where(pos_b, b, 1.0)), 1.0
        )
        compulsory = np.where(
            t.stream_resident[:, j] & resident_on, b * (1.0 - res_src), b
        )
        extra = b * (passes - 1.0) * (1.0 - res)
        sbytes = compulsory + extra
        dram_bytes = dram_bytes + sbytes
        exposure = np.where(
            t.stream_scalar[:, j] & scalar_on, 1.0, vec_exposure
        )
        latency = latency + (
            exposure * (sbytes / line_bytes) * dram_latency / mlp
        )

    l2_cycles = l2_bytes / t.l2_bytes_per_cycle[c]
    dram_cycles = dram_bytes / t.dram_bw[c]
    startup_cycles = t.phase_startup[c] + np.zeros(n)

    return RowCycles(
        vector_cycles=vector_cycles,
        scalar_cycles=scalar_cycles,
        l2_cycles=l2_cycles,
        dram_cycles=dram_cycles,
        latency_cycles=latency,
        startup_cycles=startup_cycles,
        dram_bytes=dram_bytes,
        l2_bytes=l2_bytes,
    )


# --------------------------------------------------------------------- #
# compiled backend — thin wrapper over the njit kernel
# --------------------------------------------------------------------- #
def _evaluate_rows_compiled(t: PhaseTable) -> RowCycles:
    n = t.n_rows
    out = RowCycles(*(np.zeros(n) for _ in range(8)))
    if n:
        _compiled.analytical_grid_kernel(
            t.cell_of_row,
            t.vector_ops, t.vector_active, t.vmem_ops, t.vmem_active,
            t.nonunit_fraction, t.scalar_ops,
            t.stream_bytes, t.stream_passes, t.stream_reuse_ws,
            t.stream_scalar, t.stream_resident,
            t.chime_den_unit, t.chime_den_nonunit, t.deadtime,
            t.vector_issue, t.vmem_issue, t.scalar_cpi,
            t.l2_bytes_per_cycle, t.cache_bytes, t.vec_exposure,
            t.line_bytes, t.dram_latency, t.mlp, t.dram_bw,
            t.phase_startup, t.scalar_exposure_on, t.resident_source_on,
            out.vector_cycles, out.scalar_cycles, out.l2_cycles,
            out.dram_cycles, out.latency_cycles, out.startup_cycles,
            out.dram_bytes, out.l2_bytes,
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
    # bulk ndarray -> Python-float conversion (one C pass per column)
    cols = [col.tolist() for col in rows]
    phases = list(map(PhaseCycles, table.phase_names, *cols))
    stops = np.cumsum(table.phase_counts).tolist()
    return [
        LayerCycles(name, phases[start:stop])
        for name, start, stop in zip(table.algorithms, [0] + stops[:-1], stops)
    ]


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
