"""The analytical timing engine: schedules -> cycles.

Per phase::

    vec    = vector_ops * max(issue, chime(active))            # VPU
           + vmem_ops * (vmem_issue + chime'(active, stride))
    scalar = scalar_ops * cpi                                  # scalar pipe
    l2     = L2 traffic / L2 bytes-per-cycle                   # L2 port
    dram   = DRAM traffic / (efficiency * peak bytes-per-cycle)

    cycles = max(vec, scalar, l2, dram)
           + latency_exposure * dram-line-misses * dram-latency / MLP
           + phase_startup

The four ``max`` lanes model the four independent resources (vector unit,
scalar pipe, L2 port, DRAM channel) that pipeline against each other; the
latency adder models the fraction of miss latency an in-order core cannot
hide (reduced by prefetching).  Layer cycles are the sum over phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.simulator.analytical.cachemodel import (
    phase_l2_bytes,
    stream_dram_bytes,
)
from repro.simulator.analytical.calibration import DEFAULT_CALIBRATION, Calibration
from repro.simulator.analytical.phases import Phase
from repro.simulator.hwconfig import HardwareConfig, VectorUnitStyle
from repro.simulator.memory import DramModel


@dataclass(slots=True)
class PhaseCycles:
    """Cycle breakdown for one phase."""

    name: str
    vector_cycles: float
    scalar_cycles: float
    l2_cycles: float
    dram_cycles: float
    latency_cycles: float
    startup_cycles: float
    dram_bytes: float
    l2_bytes: float

    @property
    def cycles(self) -> float:
        return (
            max(self.vector_cycles, self.scalar_cycles, self.l2_cycles,
                self.dram_cycles)
            + self.latency_cycles
            + self.startup_cycles
        )

    @property
    def bound(self) -> str:
        """Which resource dominates this phase."""
        lanes = {
            "vector": self.vector_cycles,
            "scalar": self.scalar_cycles,
            "l2": self.l2_cycles,
            "dram": self.dram_cycles,
        }
        return max(lanes, key=lanes.get)


def _fold(values: Iterable[float]) -> float:
    """Left-to-right float sum, the order the grid folds its per-cell totals
    in (``sum`` compensates float additions on Python 3.12 and later)."""
    total = 0.0
    for value in values:
        total += value
    return total


#: Floats per phase in a grid-built record's values: the :class:`PhaseCycles`
#: fields after ``name``, in declaration order.
_PHASE_WIDTH = 8


def _read_phases(record: LayerCycles) -> list[PhaseCycles]:
    if record._values is not None:  # first read of a grid-built record
        record._phases = record._phase_list()
        record._values = None
    return record._phases


def _write_phases(record: LayerCycles, phases: list[PhaseCycles]) -> None:
    record._phases = phases
    record._values = None


@dataclass(init=False, repr=False, eq=False)
class LayerCycles:
    """Cycle estimate for one layer under one algorithm and config.

    A constructor-built record holds its ``phases`` list, and ``cycles``
    and ``dram_bytes`` fold it on every read.  A grid-built record
    (:meth:`from_rows`) holds its phase names, its row values (an
    ``array('d')``) and both totals instead: no :class:`PhaseCycles` or
    float objects, so a cache of them keeps one collector-tracked object
    per record.  It builds its ``phases`` list the first time that is read
    and is list-backed from then on, so a later edit of the list shows in
    ``cycles``.  Either kind compares, prints, copies and pickles as the
    same record.
    """

    __slots__ = (
        "algorithm", "_phases", "_names", "_values", "_cycles", "_dram_bytes",
    )

    algorithm: str
    # a dataclass field (``fields``, ``asdict``) stored in ``_phases``
    phases: list[PhaseCycles] = property(  # type: ignore[assignment]
        _read_phases, _write_phases
    )

    def __init__(
        self, algorithm: str, phases: list[PhaseCycles] | None = None
    ) -> None:
        self.algorithm = algorithm
        self._phases = [] if phases is None else phases
        self._values: Sequence[float] | None = None
        # the other slots, which only from_rows sets
        self._names: tuple[str, ...]
        self._cycles: float
        self._dram_bytes: float

    @classmethod
    def from_rows(
        cls,
        algorithms: Iterable[str],
        names: Iterable[tuple[str, ...]],
        values: Iterable[Sequence[float]],
        cycles: Iterable[float],
        dram_bytes: Iterable[float],
    ) -> list[LayerCycles]:
        """Grid-built records, one per item of the zipped columns.

        ``values`` holds a record's :data:`_PHASE_WIDTH` floats per phase,
        phase after phase; ``cycles`` and ``dram_bytes`` are the
        :func:`_fold` of its phases' values.
        """
        records = []
        new = object.__new__
        for algorithm, n, v, c, d in zip(
            algorithms, names, values, cycles, dram_bytes
        ):
            record = new(cls)
            record.algorithm = algorithm
            record._names = n
            record._values = v
            record._cycles = c
            record._dram_bytes = d
            records.append(record)
        return records

    def _phase_list(self) -> list[PhaseCycles]:
        """The phases; built afresh, and not kept, for a grid-built record."""
        values = self._values
        if values is None:
            return self._phases
        w = _PHASE_WIDTH
        return [
            PhaseCycles(name, *values[k * w : (k + 1) * w])
            for k, name in enumerate(self._names)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerCycles):
            return NotImplemented
        return (self.algorithm, self._phase_list()) == (
            other.algorithm,
            other._phase_list(),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(algorithm={self.algorithm!r}, "
            f"phases={self._phase_list()!r})"
        )

    @property
    def cycles(self) -> float:
        if self._values is None:
            return _fold(p.cycles for p in self._phases)
        return self._cycles

    @property
    def dram_bytes(self) -> float:
        if self._values is None:
            return _fold(p.dram_bytes for p in self._phases)
        return self._dram_bytes

    def seconds(self, freq_ghz: float) -> float:
        return self.cycles / (freq_ghz * 1e9)

    def dominant_bound(self) -> str:
        """The resource bound of the most expensive phase."""
        if not self.phases:
            return "none"
        top = max(self.phases, key=lambda p: p.cycles)
        return top.bound

    def breakdown(self) -> dict[str, float]:
        return {p.name: p.cycles for p in self.phases}


class AnalyticalTimingModel:
    """Evaluate algorithm schedules on a hardware configuration."""

    def __init__(
        self,
        config: HardwareConfig,
        calibration: Calibration | None = None,
    ) -> None:
        self.config = config
        self.cal = calibration or DEFAULT_CALIBRATION
        self.dram = DramModel.from_config(config)

    # ------------------------------------------------------------------ #
    def _chime(self, active: float, nonunit: bool = False) -> float:
        """Execution cycles of one vector instruction with ``active`` elems."""
        datapath = self.config.datapath_f32_per_cycle
        if nonunit:
            datapath = datapath / self.cal.nonunit_penalty
        return max(1.0, math.ceil(active / max(1.0, datapath)))

    def phase_cycles(self, phase: Phase) -> PhaseCycles:
        """Time one phase."""
        cal = self.cal
        cfg = self.config

        deadtime = (
            cal.decoupled_deadtime
            if cfg.style is VectorUnitStyle.DECOUPLED
            else 0.0
        )
        vec = phase.vector_ops * (
            max(cal.vector_issue, self._chime(phase.vector_active)) + deadtime
        )
        if phase.vmem_ops:
            unit_ops = phase.vmem_ops * (1.0 - phase.nonunit_fraction)
            strided_ops = phase.vmem_ops * phase.nonunit_fraction
            vec += unit_ops * (
                cal.vmem_issue + self._chime(phase.vmem_active) + deadtime
            )
            vec += strided_ops * (
                cal.vmem_issue
                + self._chime(phase.vmem_active, nonunit=True)
                + deadtime
            )

        scalar = phase.scalar_ops * cal.scalar_cpi

        l2_bytes = phase_l2_bytes(phase.streams)
        l2_cycles = l2_bytes / cal.l2_bytes_per_cycle

        prefetch = cfg.software_prefetch or cfg.hardware_prefetch
        vec_exposure = cal.latency_exposure * (
            cal.prefetch_latency_factor if prefetch else 1.0
        )
        if cfg.style is VectorUnitStyle.DECOUPLED:
            # the decoupled VPU has no run-ahead core prefetching for it and
            # no L1 buffering, but long vector loads carry their own MLP:
            # intermediate exposure
            vec_exposure = 0.5
        dram_bytes = 0.0
        latency = 0.0
        for stream in phase.streams:
            sbytes = stream_dram_bytes(stream, cfg, cal)
            dram_bytes += sbytes
            # scalar-load misses stall the in-order pipe; vector/prefetched
            # misses overlap up to the DRAM model's MLP
            scalar_stall = stream.scalar_access and cal.enable_scalar_exposure
            exposure = 1.0 if scalar_stall else vec_exposure
            latency += (
                exposure * (sbytes / cfg.line_bytes) * cfg.dram_latency / self.dram.mlp
            )
        dram_bw = cal.dram_efficiency * cfg.dram_bytes_per_cycle
        dram_cycles = dram_bytes / dram_bw

        return PhaseCycles(
            name=phase.name,
            vector_cycles=vec,
            scalar_cycles=scalar,
            l2_cycles=l2_cycles,
            dram_cycles=dram_cycles,
            latency_cycles=latency,
            startup_cycles=cal.phase_startup,
            dram_bytes=dram_bytes,
            l2_bytes=l2_bytes,
        )

    def evaluate(self, algorithm_name: str, phases: Sequence[Phase]) -> LayerCycles:
        """Time a whole schedule (list of phases)."""
        result = LayerCycles(algorithm=algorithm_name)
        for phase in phases:
            result.phases.append(self.phase_cycles(phase))
        return result
