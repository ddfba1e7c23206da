"""Ablation — re-tuning the 6-loop blocks per cache size.

The papers fix the BLIS-like blocks at the 1 MB-tuned 16x512x128 throughout
the L2 sweep.  This study re-tunes them per configuration with the
analytical model: at 1 MB the paper's choice is (near-)optimal — validating
their tuning — while larger caches admit bigger packed panels and recover a
few percent on the deep layers.  The gains stay small, which is itself a
finding: the 6-loop kernel's cache behaviour is dominated by *having*
blocking at all, not by the exact sizes (consistent with Paper I Table II's
~2 % spread).
"""

from __future__ import annotations

from repro.algorithms.gemm_kernels import BLOCK_K, BLOCK_M, BLOCK_N, gemm6_phases
from repro.errors import ConfigError
from repro.experiments.configs import workload
from repro.experiments.report import ExperimentResult
from repro.schedule.templates import gemm6_block_candidates
from repro.simulator.analytical.model import AnalyticalTimingModel
from repro.simulator.hwconfig import HardwareConfig
from repro.utils.tables import Table

L2_SIZES_MIB: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0)
#: Deep VGG-16 layers (where GEMM-6 is the paper's winner).
LAYER_INDICES: tuple[int, ...] = (5, 8, 9, 11)

#: The papers' fixed (blockM, blockN, blockK).
PAPER_BLOCKS: tuple[int, int, int] = (BLOCK_M, BLOCK_N, BLOCK_K)


def gemm6_cycles(
    m: int, k: int, n: int, hw: HardwareConfig, blocks: tuple[int, int, int]
) -> float:
    """Analytical 6-loop GEMM cycles at the given block sizes."""
    bm, bn, bk = blocks
    if min(bm, bn, bk) < 1:
        raise ConfigError(f"block sizes must be positive, got {blocks}")
    phases = gemm6_phases(m, k, n, hw, block_m=bm, block_n=bn, block_k=bk)
    return AnalyticalTimingModel(hw).evaluate("gemm6", phases).cycles


def tune_blocks(
    m: int, k: int, n: int, hw: HardwareConfig
) -> tuple[tuple[int, int, int], float]:
    """(best blocks, fixed-blocks time / tuned time) for one GEMM.

    Exhaustive over the 6-loop template's candidates, the papers' blocks
    first; a candidate must be strictly faster to displace the best so far.
    """
    candidates = gemm6_block_candidates(hw)
    fixed = gemm6_cycles(m, k, n, hw, candidates[0])
    best, best_cycles = candidates[0], fixed
    for blocks in candidates[1:]:
        cycles = gemm6_cycles(m, k, n, hw, blocks)
        if cycles < best_cycles:
            best, best_cycles = blocks, cycles
    return best, fixed / best_cycles


def run(vlen_bits: int = 512) -> ExperimentResult:
    specs = {s.index: s for s in workload("vgg16")}
    table = Table(
        ["layer", "L2", "tuned blocks (MxNxK)", "speedup vs 16x512x128"],
        title=f"Block re-tuning across cache sizes, VGG-16 deep layers @ "
              f"{vlen_bits}b",
    )
    speedups: dict[tuple[int, float], float] = {}
    blocks_used: dict[tuple[int, float], tuple] = {}
    for idx in LAYER_INDICES:
        spec = specs[idx]
        for l2 in L2_SIZES_MIB:
            hw = HardwareConfig.paper2_rvv(vlen_bits, l2)
            blocks, gain = tune_blocks(spec.gemm_m, spec.gemm_k, spec.gemm_n, hw)
            speedups[(idx, l2)] = gain
            blocks_used[(idx, l2)] = blocks
            table.add_row(
                [f"L{idx}", f"{l2:g}MB", "x".join(map(str, blocks)), gain]
            )
    return ExperimentResult(
        experiment="ablation-blocks",
        description="Per-cache block tuning vs the paper's fixed blocks",
        table=table,
        data={"speedups": speedups, "blocks": blocks_used,
              "paper_blocks": PAPER_BLOCKS},
    )
