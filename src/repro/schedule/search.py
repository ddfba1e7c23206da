"""Deterministic, seeded search over the schedule space.

For every (layer, VL, L2) cell the driver enumerates each applicable
template's candidate schedules (exhaustive within the knob grids, with a
seeded subsample only when a cell exceeds the candidate cap), scores
them through the memoized :class:`~repro.engine.EvaluationEngine`
(analytical/PhaseTable oracle — one batch across all cells, so the
engine's cache and schedule memo apply), and reports
the best schedule per cell against the fixed four-algorithm menu.

Guarantees, relied on by the CI smoke gate:

* **match-or-beat** — the menu defaults are always candidates and lower
  to bit-identical phases, so ``best_cycles <= menu_cycles`` on every
  cell (the ratio is >= 1.0 by construction);
* **menu-sticky ties** — a variant must be *strictly* faster to displace
  the menu winner;
* **bit-determinism** — candidate enumeration is sorted, subsampling is
  seeded per cell (independent of cell iteration order), and scoring is
  pure, so two runs with one seed produce identical reports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro import obs
from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.engine import EvalTask, EvaluationEngine, default_engine
from repro.errors import ScheduleError
from repro.nn.layer import ConvSpec
from repro.schedule.templates import get_template
from repro.schedule.variants import variant_name
from repro.simulator.hwconfig import HardwareConfig
from repro.utils.prng import DEFAULT_SEED, make_rng


@dataclass(frozen=True)
class SearchBounds:
    """Bounds of the exhaustive-within-grids search.

    ``max_candidates_per_cell`` caps the per-cell candidate count; cells
    over the cap keep every menu default and a seeded subsample of the
    variants (deterministic per cell).  ``seed`` drives only that
    subsampling — under the default bounds the grids fit the cap and the
    search is exhaustive, so the seed never changes the result.
    """

    algorithms: tuple[str, ...] = ALGORITHM_NAMES
    max_candidates_per_cell: int = 64
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class CellSearchResult:
    """Best searched schedule vs the menu for one (layer, VL, L2) cell."""

    layer: int
    vlen_bits: int
    l2_mib: float
    menu_best: str
    menu_cycles: float
    best: str
    best_cycles: float
    candidates: int

    @property
    def ratio(self) -> float:
        """Menu-best over searched-best predicted cycles (>= 1.0)."""
        return self.menu_cycles / self.best_cycles

    @property
    def improved(self) -> bool:
        return self.best_cycles < self.menu_cycles


@dataclass(frozen=True)
class SearchReport:
    """All cells of one search run, with the aggregate CI-gated metrics."""

    cells: tuple[CellSearchResult, ...]
    bounds: SearchBounds = field(default_factory=SearchBounds)

    @property
    def beat_fraction(self) -> float:
        """Fraction of cells where a variant strictly beats the menu."""
        if not self.cells:
            return 0.0
        return sum(c.improved for c in self.cells) / len(self.cells)

    @property
    def geomean_ratio(self) -> float:
        """Geometric-mean menu/searched cycle ratio across cells."""
        if not self.cells:
            return 1.0
        return math.exp(sum(math.log(c.ratio) for c in self.cells) / len(self.cells))

    @property
    def min_ratio(self) -> float:
        """Worst-cell ratio — must be >= 1.0 (match-or-beat)."""
        return min((c.ratio for c in self.cells), default=1.0)

    def winner_names(self) -> tuple[str, ...]:
        """Distinct winning schedule names, sorted (menu + variants)."""
        return tuple(sorted({c.best for c in self.cells}))

    def rows(self) -> list[dict[str, object]]:
        """Flat per-cell rows for tables/CSV artifacts."""
        return [
            {
                "layer": c.layer,
                "vlen_bits": c.vlen_bits,
                "l2_mib": c.l2_mib,
                "menu_best": c.menu_best,
                "menu_cycles": round(c.menu_cycles, 3),
                "best": c.best,
                "best_cycles": round(c.best_cycles, 3),
                "ratio": round(c.ratio, 6),
                "candidates": c.candidates,
            }
            for c in self.cells
        ]


def _cell_seed(seed: int, spec: ConvSpec, hw: HardwareConfig) -> int:
    """Per-cell subsampling seed, independent of cell iteration order."""
    token = f"{seed}:{spec.index}:{hw.vlen_bits}:{hw.l2_mib:g}"
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big")


def cell_candidates(
    spec: ConvSpec, hw: HardwareConfig, bounds: SearchBounds
) -> tuple[list[str], list[str]]:
    """(menu defaults, all candidates) for one cell, deterministic order.

    Menu defaults keep their bare registry names — they score through the
    same cache entries the rest of the repo uses and anchor the
    match-or-beat guarantee.  Variants that fail a legality check are
    skipped (the grids are constructed legal; this guards template
    evolution).  Over-cap cells keep all defaults and a seeded subsample
    of the variants.
    """
    menu: list[str] = []
    variants: list[str] = []
    for algo_name in bounds.algorithms:
        if not get_algorithm(algo_name).applicable(spec):
            continue
        template = get_template(algo_name)
        params_list = template.candidate_params(spec, hw)
        menu.append(algo_name)  # candidate_params()[0] is the default
        for params in params_list[1:]:
            try:
                template.scheduled(spec, hw, params)
            except ScheduleError:
                continue
            variants.append(variant_name(algo_name, params))
    budget = max(0, bounds.max_candidates_per_cell - len(menu))
    if len(variants) > budget:
        rng = make_rng(_cell_seed(bounds.seed, spec, hw))
        keep = sorted(rng.choice(len(variants), size=budget, replace=False))
        variants = [variants[i] for i in keep]
    return menu, menu + variants


def search_schedules(
    specs: list[ConvSpec],
    configs: list[HardwareConfig],
    engine: EvaluationEngine | None = None,
    bounds: SearchBounds | None = None,
) -> SearchReport:
    """Search every (spec, config) cell and report best-vs-menu schedules.

    All candidate scores are requested as one ``evaluate_many`` batch with
    ``fallback=False`` (inapplicable algorithms are filtered during
    enumeration), so memoization is the engine's concern; a repeated run
    with a warm cache re-reads the same records.
    """
    bounds = bounds if bounds is not None else SearchBounds()
    engine = engine if engine is not None else default_engine()
    points = [(spec, hw) for spec in specs for hw in configs]
    with obs.span(
        "schedule.search",
        cat="schedule",
        cells=len(points),
        algorithms=len(bounds.algorithms),
    ):
        per_cell: list[tuple[list[str], list[str]]] = []
        tasks: list[EvalTask] = []
        for spec, hw in points:
            menu, names = cell_candidates(spec, hw, bounds)
            per_cell.append((menu, names))
            tasks.extend(EvalTask(n, spec, hw, fallback=False) for n in names)
        obs.count("schedule.search.cells", len(points))
        obs.count("schedule.search.candidates", len(tasks))

        records = engine.evaluate_many(tasks)

        cells: list[CellSearchResult] = []
        improved = 0
        cursor = 0
        for (spec, hw), (menu, names) in zip(points, per_cell):
            scores = {}
            for name in names:
                scores[name] = records[cursor].cycles  # type: ignore[union-attr]
                cursor += 1
            if not menu:
                continue  # no applicable algorithm: nothing to compare
            menu_best = min(menu, key=lambda n: scores[n])
            menu_cycles = scores[menu_best]
            best, best_cycles = menu_best, menu_cycles
            for name in names:
                if scores[name] < best_cycles:
                    best, best_cycles = name, scores[name]
            improved += best_cycles < menu_cycles
            obs.observe("schedule.search.ratio", menu_cycles / best_cycles)
            cells.append(
                CellSearchResult(
                    layer=spec.index,
                    vlen_bits=hw.vlen_bits,
                    l2_mib=hw.l2_mib,
                    menu_best=menu_best,
                    menu_cycles=menu_cycles,
                    best=best,
                    best_cycles=best_cycles,
                    candidates=len(names),
                )
            )
        obs.count("schedule.search.improved", improved)
    return SearchReport(cells=tuple(cells), bounds=bounds)


__all__ = [
    "CellSearchResult",
    "SearchBounds",
    "SearchReport",
    "cell_candidates",
    "search_schedules",
]
