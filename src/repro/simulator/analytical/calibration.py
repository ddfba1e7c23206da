"""Calibration constants for the analytical model — single source of truth.

These constants pin the model's free parameters to the anchors listed in
DESIGN.md §6 (the paper's reported ratios).  They are *not* per-layer fudge
factors: every layer/algorithm/config shares them, and the shape targets in
``tests/test_calibration_targets.py`` hold across the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: The fields the model divides by (or whose product it divides by).
_POSITIVE_FIELDS = ("nonunit_penalty", "dram_efficiency", "l2_bytes_per_cycle")


@dataclass(frozen=True)
class Calibration:
    """Model-wide timing constants."""

    #: Issue/dispatch cycles per vector arithmetic instruction (the gem5
    #: fork models constant per-instruction latency; with a full-VL datapath
    #: this is the whole cost of a fully-active instruction).
    vector_issue: float = 1.0

    #: Extra cycles per vector *memory* instruction (address generation /
    #: TLB / port arbitration in the MinorCPU LSQ).
    vmem_issue: float = 2.0

    #: Slowdown of strided/indexed vector memory relative to unit stride
    #: (elements per cycle divisor).
    nonunit_penalty: float = 4.0

    #: Cycles per scalar bookkeeping instruction (scalar pipe IPC = 1).
    scalar_cpi: float = 1.0

    #: Fraction of peak DRAM bandwidth sustainable by the single in-order
    #: core (row misses, read/write turnarounds).
    dram_efficiency: float = 0.70

    #: Effective L2 port bandwidth in bytes/cycle seen by the vector unit.
    l2_bytes_per_cycle: float = 32.0

    #: Per-phase fixed startup cost (drain/fill, function-call overheads).
    phase_startup: float = 2000.0

    #: Multiplier converting exposed DRAM line-fill latency into cycles not
    #: hidden by the in-order pipeline (latency adder on top of bandwidth).
    latency_exposure: float = 0.30

    #: With software/hardware prefetch, the exposed-latency adder shrinks.
    prefetch_latency_factor: float = 0.25

    #: Extra dispatch/launch cycles per vector instruction on a *decoupled*
    #: vector unit (Paper I's RISC-VV@gem5: the VPU sits at the L2 and each
    #: instruction pays a launch handshake).  Longer vectors amortize this —
    #: the mechanism behind Paper I Fig. 6's 2.5x gain that saturates beyond
    #: 8192 bits.
    decoupled_deadtime: float = 2.0

    # -- mechanism toggles (for the model ablation study) ----------------- #
    #: When False, scalar-consumed streams get the same (overlappable)
    #: latency exposure as vector streams — removes the mechanism that makes
    #: GEMM-3's thrashing A panel expensive on deep layers.
    enable_scalar_exposure: bool = True
    #: When False, producer-consumer residency is ignored (every stream's
    #: first pass fetches from DRAM) — removes the mechanism behind the
    #: large-cache benefits of multi-phase algorithms and big activations.
    enable_resident_source: bool = True

    def __post_init__(self) -> None:
        # zero, negative or NaN divisors would price layers at inf,
        # negative or NaN cycles (or raise ZeroDivisionError mid-grid)
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(
                    f"Calibration.{name} must be > 0, got {value!r}"
                )


#: The default calibration used everywhere.
DEFAULT_CALIBRATION = Calibration()
