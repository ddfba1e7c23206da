"""Simulation campaigns: grid evaluation with persistent artifacts.

The figure harnesses answer fixed questions; a *campaign* is the raw
material — every (workload, layer, algorithm, hardware config) cell of a
grid, evaluated once and saved, so new questions can be answered from the
records without re-simulation (what gem5 users do with stats files).

Records are plain dicts; persistence is JSON (self-describing) with a CSV
exporter for spreadsheet/plotting tools.  The full Paper II grid evaluates
in well under a second, so a killed campaign is simply rerun.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.engine import CellError, EvalTask, EvaluationEngine, default_engine
from repro.errors import ExperimentError
from repro.nn.layer import ConvSpec
from repro.simulator.hwconfig import HardwareConfig

#: The record schema, in column order.
FIELDS: tuple[str, ...] = (
    "workload", "layer", "algorithm", "vlen_bits", "l2_mib",
    "cycles", "dram_bytes", "bound", "applicable",
)


@dataclass
class Campaign:
    """An evaluated grid of simulation records."""

    name: str
    records: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def filter(self, **criteria) -> list[dict]:
        """Records matching all keyword criteria exactly."""
        unknown = set(criteria) - set(FIELDS)
        if unknown:
            raise ExperimentError(f"unknown campaign fields: {sorted(unknown)}")
        return [
            r for r in self.records
            if all(r[k] == v for k, v in criteria.items())
        ]

    def best_per_layer(self, workload: str, vlen_bits: int, l2_mib: float) -> dict:
        """layer -> winning algorithm name for one configuration."""
        rows = self.filter(
            workload=workload, vlen_bits=vlen_bits, l2_mib=l2_mib,
            applicable=True,
        )
        best: dict[int, dict] = {}
        for r in rows:
            cur = best.get(r["layer"])
            if cur is None or r["cycles"] < cur["cycles"]:
                best[r["layer"]] = r
        return {layer: r["algorithm"] for layer, r in sorted(best.items())}

    def total_cycles(self, workload: str, algorithm: str, vlen_bits: int,
                     l2_mib: float) -> float:
        rows = self.filter(
            workload=workload, algorithm=algorithm, vlen_bits=vlen_bits,
            l2_mib=l2_mib,
        )
        if not rows:
            raise ExperimentError(
                f"no records for {workload}/{algorithm}/{vlen_bits}b/{l2_mib}MB"
            )
        return sum(r["cycles"] for r in rows)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Write the campaign as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"name": self.name, "fields": FIELDS, "records": self.records}
        path.write_text(json.dumps(payload, indent=1))
        return path

    @staticmethod
    def load(path: str | Path) -> "Campaign":
        payload = json.loads(Path(path).read_text())
        missing = set(FIELDS) - set(payload.get("fields", ()))
        if missing:
            raise ExperimentError(f"campaign file missing fields {sorted(missing)}")
        return Campaign(name=payload["name"], records=payload["records"])

    def to_csv(self) -> str:
        lines = [",".join(FIELDS)]
        for r in self.records:
            lines.append(",".join(str(r[f]) for f in FIELDS))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv())
        return path


def _record_dict(
    wname: str, spec: ConvSpec, hw: HardwareConfig, algo_name: str, lc
) -> dict:
    """One campaign record (``lc`` is a LayerCycles, CellError or None)."""
    if isinstance(lc, CellError):
        # the cell was applicable but its evaluation failed: keep the
        # grid position with an explicit error marker instead of
        # poisoning the whole campaign
        return {
            "workload": wname,
            "layer": spec.index,
            "algorithm": algo_name,
            "vlen_bits": hw.vlen_bits,
            "l2_mib": hw.l2_mib,
            "cycles": float("inf"),
            "dram_bytes": 0.0,
            "bound": "error",
            "applicable": True,
        }
    return {
        "workload": wname,
        "layer": spec.index,
        "algorithm": algo_name,
        "vlen_bits": hw.vlen_bits,
        "l2_mib": hw.l2_mib,
        "cycles": lc.cycles if lc else float("inf"),
        "dram_bytes": lc.dram_bytes if lc else 0.0,
        "bound": lc.dominant_bound() if lc else "n/a",
        "applicable": lc is not None,
    }


def run_campaign(
    workloads: dict[str, list[ConvSpec]],
    configs: Iterable[HardwareConfig],
    algorithms: tuple[str, ...] = ALGORITHM_NAMES,
    name: str = "campaign",
    progress: Callable[[str], None] | None = None,
    engine: EvaluationEngine | None = None,
) -> Campaign:
    """Evaluate the full grid through the shared memoized engine.

    Every applicable cell goes to the engine in one batch; record order is
    the deterministic nested loop order.  A failing cell becomes an
    explicit ``bound="error"`` record (per-cell isolation) rather than
    aborting the campaign.
    """
    engine = engine if engine is not None else default_engine()
    configs = list(configs)
    algos = {n: get_algorithm(n) for n in algorithms}
    cells: list[tuple[str, ConvSpec, HardwareConfig, str]] = []
    for wname, specs in workloads.items():
        if progress:
            progress(f"{wname}: {len(specs)} layers x {len(configs)} configs")
        cells.extend(
            (wname, spec, hw, algo_name)
            for spec in specs
            for hw in configs
            for algo_name in algorithms
        )
    tasks = {
        i: EvalTask(algo_name, spec, hw, fallback=False)
        for i, (_, spec, hw, algo_name) in enumerate(cells)
        if algos[algo_name].applicable(spec)
    }
    records = engine.evaluate_many(list(tasks.values()), on_error="record")
    by_cell = dict(zip(tasks.keys(), records))
    return Campaign(
        name=name,
        records=[
            _record_dict(wname, spec, hw, algo_name, by_cell.get(i))
            for i, (wname, spec, hw, algo_name) in enumerate(cells)
        ],
    )


def paper2_campaign(
    progress: Callable[[str], None] | None = None,
    engine: EvaluationEngine | None = None,
) -> Campaign:
    """The full Paper II grid: 28 layers x 16 configs x 4 algorithms."""
    from repro.experiments.configs import grid, workload

    return run_campaign(
        {"vgg16": workload("vgg16"), "yolov3": workload("yolov3")},
        grid(),
        name="paper2",
        progress=progress,
        engine=engine,
    )
