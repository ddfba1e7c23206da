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
from dataclasses import dataclass, field
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


@dataclass(slots=True)
class LayerCycles:
    """Cycle estimate for one layer under one algorithm and config."""

    algorithm: str
    phases: list[PhaseCycles] = field(default_factory=list)

    @property
    def cycles(self) -> float:
        return sum(p.cycles for p in self.phases)

    @property
    def dram_bytes(self) -> float:
        return sum(p.dram_bytes for p in self.phases)

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
