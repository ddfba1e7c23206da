"""The 448-point algorithm-selection dataset.

Paper II §4.3: 28 convolutional layers (13 VGG-16 + 15 YOLOv3) x 16 hardware
configurations (VL in {512, 1024, 2048, 4096} bits x L2 in {1, 4, 16, 64} MB)
with 12 features — 2 architectural (vector length, L2 size) and 10 from the
convolution dimensions — labelled with the fastest algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.engine import EvalTask, EvaluationEngine, default_engine
from repro.errors import AlgorithmError
from repro.nn.layer import ConvSpec
from repro.nn.models import vgg16_conv_specs, yolov3_conv_specs
from repro.simulator.hwconfig import HardwareConfig

if TYPE_CHECKING:  # import cycle: repro.schedule builds on the engine
    from repro.schedule.search import SearchBounds

#: The paper's hardware grid.
VECTOR_LENGTHS: tuple[int, ...] = (512, 1024, 2048, 4096)
L2_SIZES_MIB: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0)

#: Feature names, in column order.
FEATURE_NAMES: tuple[str, ...] = ("vlen_bits", "l2_mib") + ConvSpec.FEATURE_NAMES


@dataclass
class SelectionDataset:
    """Features, labels and the full cycles matrix for regret metrics.

    ``algorithm_names`` are the cycles-matrix columns — the fixed menu by
    default, widened with ``base@knob=value`` schedule variants by
    :func:`build_searched_dataset`.
    """

    X: np.ndarray  # (n, 12)
    y: np.ndarray  # (n,) algorithm names (str dtype)
    cycles: np.ndarray  # (n, len(algorithm_names)); inf if not applicable
    specs: list[ConvSpec]  # layer spec per row
    configs: list[HardwareConfig]  # config per row
    algorithm_names: tuple[str, ...] = ALGORITHM_NAMES  # cycles columns

    def __post_init__(self) -> None:
        assert len(self.X) == len(self.y) == len(self.cycles)
        assert self.cycles.shape[1] == len(self.algorithm_names)

    def __len__(self) -> int:
        return len(self.X)

    def cycles_for(self, row: int, algorithm: str) -> float:
        """Cycles of one algorithm on one row (inf if not applicable)."""
        return float(self.cycles[row, self.algorithm_names.index(algorithm)])

    def regret(self, row: int, predicted: str) -> float:
        """Relative slowdown of the predicted vs the optimal algorithm."""
        best = self.cycles[row].min()
        return float(self.cycles_for(row, predicted) / best - 1.0)


def paper_grid() -> list[HardwareConfig]:
    """The 16 Paper II hardware configurations, VL-major order."""
    return [
        HardwareConfig.paper2_rvv(vl, l2)
        for vl in VECTOR_LENGTHS
        for l2 in L2_SIZES_MIB
    ]


def paper_layers() -> list[ConvSpec]:
    """The 28 evaluated convolutional layers (13 VGG-16 + 15 YOLOv3)."""
    return list(vgg16_conv_specs()) + list(yolov3_conv_specs())


def build_dataset(
    specs: list[ConvSpec] | None = None,
    configs: list[HardwareConfig] | None = None,
    engine: EvaluationEngine | None = None,
    algorithms: tuple[str, ...] | None = None,
) -> SelectionDataset:
    """Evaluate the full grid through the memoized engine and label each point.

    With the defaults this is the paper's 28 x 16 = 448-point dataset.  All
    applicable cells are submitted as one batch, so the engine serves them
    from cache or one grid call (bit-identical to direct ``layer_cycles``
    calls); labels use the same first-wins ``min`` tie-break as
    :func:`repro.algorithms.registry.best_algorithm`.

    ``algorithms`` widens (or narrows) the candidate columns — schedule
    variant names (``base@knob=value``) are materialized through the
    registry, so a searched dataset trains the selector on a richer label
    space than the four-entry menu.
    """
    specs = paper_layers() if specs is None else specs
    configs = paper_grid() if configs is None else configs
    engine = engine if engine is not None else default_engine()
    names = ALGORITHM_NAMES if algorithms is None else tuple(algorithms)
    algos = {name: get_algorithm(name) for name in names}
    points = [(spec, hw) for spec in specs for hw in configs]
    cells = [
        (i, name)
        for i, (spec, hw) in enumerate(points)
        for name in names
        if algos[name].applicable(spec)
    ]
    records = engine.evaluate_many(
        [EvalTask(name, points[i][0], points[i][1], fallback=False)
         for i, name in cells]
    )
    cycles_by_point: list[dict[str, float]] = [{} for _ in points]
    for (i, name), record in zip(cells, records):
        cycles_by_point[i][name] = record.cycles
    rows_x: list[list[float]] = []
    rows_y: list[str] = []
    rows_c: list[list[float]] = []
    row_specs: list[ConvSpec] = []
    row_cfgs: list[HardwareConfig] = []
    for (spec, hw), cycles in zip(points, cycles_by_point):
        if not cycles:
            raise AlgorithmError(f"no applicable algorithm for {spec.describe()}")
        winner = min(cycles, key=cycles.get)
        rows_x.append([float(hw.vlen_bits), float(hw.l2_mib)] + spec.features())
        rows_y.append(winner)
        rows_c.append(
            [cycles.get(name, np.inf) for name in names]
        )
        row_specs.append(spec)
        row_cfgs.append(hw)
    return SelectionDataset(
        X=np.asarray(rows_x, dtype=np.float64),
        y=np.asarray(rows_y, dtype=object),
        cycles=np.asarray(rows_c, dtype=np.float64),
        specs=row_specs,
        configs=row_cfgs,
        algorithm_names=names,
    )


def build_searched_dataset(
    specs: list[ConvSpec] | None = None,
    configs: list[HardwareConfig] | None = None,
    engine: EvaluationEngine | None = None,
    bounds: "SearchBounds | None" = None,
) -> SelectionDataset:
    """The selection dataset over the menu *plus* searched schedule variants.

    Runs :func:`repro.schedule.search.search_schedules` over the grid and
    widens the candidate columns with every variant that won at least one
    cell.  Menu entries always stay in the label space (the search is
    match-or-beat, so menu labels survive exactly where no variant is
    strictly faster); the engine cache is shared between the search and
    the dataset build, so the widened dataset costs one extra ``min``
    scan, not a re-evaluation.
    """
    from repro.schedule.search import search_schedules

    specs = paper_layers() if specs is None else specs
    configs = paper_grid() if configs is None else configs
    engine = engine if engine is not None else default_engine()
    report = search_schedules(specs, configs, engine=engine, bounds=bounds)
    variants = tuple(
        name for name in report.winner_names() if name not in ALGORITHM_NAMES
    )
    return build_dataset(
        specs,
        configs,
        engine=engine,
        algorithms=ALGORITHM_NAMES + variants,
    )
