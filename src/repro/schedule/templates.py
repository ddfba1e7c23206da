"""Kernel templates: the menu algorithms' loop nests as schedule-IR instances.

Each :class:`KernelTemplate` re-expresses one contender's hand-written
schedule through :mod:`repro.schedule.ir`:

* :meth:`~KernelTemplate.nest` — the algorithm's base iteration space for a
  layer;
* :meth:`~KernelTemplate.transforms` — the tile/reorder/unroll/vectorize
  sequence that turns the base nest into the kernel's actual loop
  structure, parameterized by the template's knobs;
* :meth:`~KernelTemplate.lower` — a :class:`~repro.algorithms.base.ConvAlgorithm`
  instance carrying those knobs.  Default knobs lower to instances whose
  three faces are bit-identical to the registry's menu entries (the
  kernels read the same parameters the templates emit).

The knob grids are the 6-loop template's block sizes (powers of two
around Paper I Table II's 16x512x128), the 3-loop unroll and Direct's
output-row unroll.  Candidate enumeration is deterministic:
grids are sorted tuples and the default always enumerates first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms import gemm_kernels as gk
from repro.algorithms.base import ConvAlgorithm
from repro.algorithms.direct import _ACC_REGS, DirectConv, _unroll_ow
from repro.algorithms.im2col_gemm import Im2colGemm3, Im2colGemm6
from repro.algorithms.winograd import TILE_M, TUPLE_ELEMS, WinogradConv
from repro.errors import ScheduleError
from repro.nn.layer import ConvSpec
from repro.schedule.ir import (
    LoopNest,
    Reorder,
    ScheduledNest,
    Tile,
    Transform,
    Unroll,
    Vectorize,
    apply_transforms,
)
from repro.simulator.hwconfig import HardwareConfig

Params = dict[str, int]

#: Direct output-row unroll candidates (the paper's choice is the full
#: 24-register accumulator budget).
DIRECT_UW_GRID: tuple[int, ...] = (4, 8, 12, 16, 20, 24)

#: 3-loop i-block unroll candidates (paper: 16; 28 is the register cap).
GEMM3_UNROLL_GRID: tuple[int, ...] = (4, 8, 12, 16, 20, 24, 28)

#: 6-loop block-size candidates (powers of two around 16x512x128).
GEMM6_BM_GRID: tuple[int, ...] = (16, 32)
GEMM6_BN_GRID: tuple[int, ...] = (256, 512, 1024, 2048)
GEMM6_BK_GRID: tuple[int, ...] = (64, 128, 256, 512)

#: Micro-kernel register-tile cap (32 vector regs minus B/scratch).
_REG_TILE_CAP = 28


def gemm6_block_candidates(
    hw: HardwareConfig,
) -> list[tuple[int, int, int]]:
    """6-loop (bm, bn, bk) candidates for one config, default first.

    The grid and the L2-residency filter (``bk * bn * 4 <= l2_bytes``:
    an over-L2 packed-B block always thrashes) are the search space the
    ``ablation-blocks`` experiment tunes over, in this order.
    """
    default = (gk.BLOCK_M, gk.BLOCK_N, gk.BLOCK_K)
    out = [default]
    for bm in GEMM6_BM_GRID:
        for bn in GEMM6_BN_GRID:
            for bk in GEMM6_BK_GRID:
                if bk * bn * 4 > hw.l2_bytes:
                    continue
                if (bm, bn, bk) != default:
                    out.append((bm, bn, bk))
    return out


class KernelTemplate:
    """One menu algorithm's schedule, as data.

    Subclasses define the knob grid and the IR mapping; the base class
    provides candidate enumeration and validation glue.
    """

    #: Registry name of the algorithm this template parameterizes.
    algorithm: str = ""
    #: Canonical knob order (used by variant names and tokens).
    param_keys: tuple[str, ...] = ()

    def default_params(self, spec: ConvSpec, hw: HardwareConfig) -> Params:
        """Knob values reproducing the hand-written schedule bit-identically."""
        raise NotImplementedError

    def candidate_params(self, spec: ConvSpec, hw: HardwareConfig) -> list[Params]:
        """All legal knob settings for this layer/hardware, default first.

        Deterministic: candidates follow the sorted grids, with the
        default hoisted to position 0 so ties resolve toward the menu.
        """
        raise NotImplementedError

    def nest(self, spec: ConvSpec, hw: HardwareConfig) -> LoopNest:
        """The algorithm's base iteration space for ``spec``."""
        raise NotImplementedError

    def transforms(
        self, spec: ConvSpec, hw: HardwareConfig, params: Params
    ) -> tuple[Transform, ...]:
        """The transform sequence realizing ``params`` on the base nest."""
        raise NotImplementedError

    def lower(self, params: Params) -> ConvAlgorithm:
        """A ConvAlgorithm instance carrying ``params``."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def scheduled(
        self, spec: ConvSpec, hw: HardwareConfig, params: Params
    ) -> ScheduledNest:
        """Apply the params' transforms to the base nest (legality-checked)."""
        self.validate(params)
        return apply_transforms(self.nest(spec, hw), self.transforms(spec, hw, params))

    def validate(self, params: Params) -> None:
        if set(params) != set(self.param_keys):
            raise ScheduleError(
                f"{self.algorithm}: params must be exactly "
                f"{self.param_keys}, got {sorted(params)}"
            )


# --------------------------------------------------------------------- #
# Direct
# --------------------------------------------------------------------- #
class DirectTemplate(KernelTemplate):
    """NHWC direct convolution: OC-group x OH x OW-block, taps inner.

    Knob ``uw``: the output-row unroll cap (accumulator registers per
    OC-group).  The kernel clamps it to ``min(ow, uw, 24)``.
    """

    algorithm = "direct"
    param_keys = ("uw",)

    def default_params(self, spec: ConvSpec, hw: HardwareConfig) -> Params:
        return {"uw": _ACC_REGS}

    def candidate_params(self, spec: ConvSpec, hw: HardwareConfig) -> list[Params]:
        default = self.default_params(spec, hw)
        out = [default]
        for uw in DIRECT_UW_GRID:
            # settings that clamp to the same effective unroll are duplicates
            if uw != default["uw"] and _unroll_ow(spec.ow, uw) != _unroll_ow(
                spec.ow, default["uw"]
            ):
                out.append({"uw": uw})
        return out

    def nest(self, spec: ConvSpec, hw: HardwareConfig) -> LoopNest:
        return LoopNest(
            name="direct",
            axes=("oc", "oh", "ow", "ic", "kh", "kw"),
            extents=(spec.oc, spec.oh, spec.ow, spec.ic, spec.kh, spec.kw),
        )

    def transforms(
        self, spec: ConvSpec, hw: HardwareConfig, params: Params
    ) -> tuple[Transform, ...]:
        uw = _unroll_ow(spec.ow, params["uw"])
        return (
            Tile("oc", hw.vlmax_f32),
            Tile("ow", uw),
            Reorder(("oc.o", "oh", "ow.o", "ic", "kh", "kw", "ow.i", "oc.i")),
            Unroll("ow.i"),
            Vectorize("oc.i"),
        )

    def lower(self, params: Params) -> ConvAlgorithm:
        self.validate(params)
        return DirectConv(unroll_ow=params["uw"])


# --------------------------------------------------------------------- #
# im2col + 3-loop GEMM
# --------------------------------------------------------------------- #
class Gemm3Template(KernelTemplate):
    """im2col + jik GEMM: N-strips x unrolled M-blocks x K inner.

    Knob ``u``: the i-block unroll factor (accumulator registers).  The
    analytical face additionally clamps it to the LMUL register budget.
    """

    algorithm = "im2col_gemm3"
    param_keys = ("u",)

    def default_params(self, spec: ConvSpec, hw: HardwareConfig) -> Params:
        return {"u": gk.UNROLL}

    def candidate_params(self, spec: ConvSpec, hw: HardwareConfig) -> list[Params]:
        default = self.default_params(spec, hw)
        cap = max(1, min(gk.MAX_UNROLL, 32 // hw.lmul - 4))

        def effective(u: int) -> int:
            return min(u, cap, spec.gemm_m)

        out = [default]
        seen = {effective(default["u"])}
        for u in GEMM3_UNROLL_GRID:
            if effective(u) not in seen:
                seen.add(effective(u))
                out.append({"u": u})
        return out

    def nest(self, spec: ConvSpec, hw: HardwareConfig) -> LoopNest:
        return LoopNest(
            name="gemm3",
            axes=("j", "i", "k"),
            extents=(spec.gemm_n, spec.gemm_m, spec.gemm_k),
        )

    def transforms(
        self, spec: ConvSpec, hw: HardwareConfig, params: Params
    ) -> tuple[Transform, ...]:
        u = min(params["u"], spec.gemm_m)
        return (
            Tile("j", hw.vlmax_f32),
            Tile("i", u),
            Reorder(("j.o", "i.o", "k", "i.i", "j.i")),
            Unroll("i.i"),
            Vectorize("j.i"),
        )

    def lower(self, params: Params) -> ConvAlgorithm:
        self.validate(params)
        return Im2colGemm3(unroll=params["u"])


# --------------------------------------------------------------------- #
# im2col + 6-loop GEMM
# --------------------------------------------------------------------- #
class Gemm6Template(KernelTemplate):
    """im2col + BLIS-like GEMM: (bn, bk, bm) blocking over (j, k, i).

    Knobs ``bm``/``bn``/``bk``: the block sizes, over the
    ``GEMM6_B*_GRID`` grids, filtered by the L2-residency constraint on the
    packed-B block (``bk * bn * 4 <= l2_bytes``).  Blocks larger than the
    register file strip-mine the micro-kernel (``i.i`` is register-tiled
    before unrolling), so ``bm = 32`` stays legal in the IR.
    """

    algorithm = "im2col_gemm6"
    param_keys = ("bm", "bn", "bk")

    def default_params(self, spec: ConvSpec, hw: HardwareConfig) -> Params:
        return {"bm": gk.BLOCK_M, "bn": gk.BLOCK_N, "bk": gk.BLOCK_K}

    def candidate_params(self, spec: ConvSpec, hw: HardwareConfig) -> list[Params]:
        return [
            {"bm": bm, "bn": bn, "bk": bk}
            for bm, bn, bk in gemm6_block_candidates(hw)
        ]

    def nest(self, spec: ConvSpec, hw: HardwareConfig) -> LoopNest:
        return LoopNest(
            name="gemm6",
            axes=("j", "k", "i"),
            extents=(spec.gemm_n, spec.gemm_k, spec.gemm_m),
        )

    def transforms(
        self, spec: ConvSpec, hw: HardwareConfig, params: Params
    ) -> tuple[Transform, ...]:
        bm = min(params["bm"], spec.gemm_m)
        ru = min(bm, _REG_TILE_CAP)
        return (
            Tile("j", params["bn"]),
            Tile("k", params["bk"]),
            Tile("i", bm),
            Tile("j.i", hw.vlmax_f32),
            Tile("i.i", ru),
            Reorder(
                ("j.o", "k.o", "i.o", "j.i.o", "k.i", "i.i.o", "i.i.i", "j.i.i")
            ),
            Unroll("i.i.i"),
            Vectorize("j.i.i"),
        )

    def lower(self, params: Params) -> ConvAlgorithm:
        self.validate(params)
        return Im2colGemm6(blocks=(params["bm"], params["bn"], params["bk"]))


# --------------------------------------------------------------------- #
# Winograd
# --------------------------------------------------------------------- #
class WinogradTemplate(KernelTemplate):
    """Winograd F(6x6, 3x3): fixed tiles, inter-tile channel parallelism.

    No knobs: the 8x8 tile is pinned by fp32 accuracy (Paper I), so the
    template contributes only the menu default.  Its nest still documents
    the tuple-multiplication loop structure for the IR consumers.
    """

    algorithm = "winograd"
    param_keys = ()

    def default_params(self, spec: ConvSpec, hw: HardwareConfig) -> Params:
        return {}

    def candidate_params(self, spec: ConvSpec, hw: HardwareConfig) -> list[Params]:
        return [{}]

    def nest(self, spec: ConvSpec, hw: HardwareConfig) -> LoopNest:
        tiles_h = -(-spec.oh // TILE_M)
        tiles_w = -(-spec.ow // TILE_M)
        return LoopNest(
            name="winograd",
            axes=("oc", "tile", "ic", "elem"),
            extents=(spec.oc, max(1, tiles_h * tiles_w), spec.ic, TUPLE_ELEMS),
        )

    def transforms(
        self, spec: ConvSpec, hw: HardwareConfig, params: Params
    ) -> tuple[Transform, ...]:
        return (Vectorize("elem"),)

    def lower(self, params: Params) -> ConvAlgorithm:
        self.validate(params)
        return WinogradConv()


#: Templates in menu order (matching ``ALGORITHM_NAMES``).
TEMPLATES: dict[str, KernelTemplate] = {
    t.algorithm: t
    for t in (DirectTemplate(), Gemm3Template(), Gemm6Template(), WinogradTemplate())
}


def get_template(algorithm: str) -> KernelTemplate:
    """The template for a menu algorithm (ScheduleError if there is none)."""
    try:
        return TEMPLATES[algorithm]
    except KeyError:
        raise ScheduleError(
            f"no schedule template for {algorithm!r}; "
            f"templates exist for {sorted(TEMPLATES)}"
        )


__all__ = [
    "DIRECT_UW_GRID",
    "GEMM3_UNROLL_GRID",
    "GEMM6_BK_GRID",
    "GEMM6_BM_GRID",
    "GEMM6_BN_GRID",
    "DirectTemplate",
    "Gemm3Template",
    "Gemm6Template",
    "KernelTemplate",
    "Params",
    "TEMPLATES",
    "WinogradTemplate",
    "gemm6_block_candidates",
    "get_template",
]
