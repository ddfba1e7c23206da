"""Command-line entry point: ``repro-experiments [names...]``.

Runs the requested experiment harnesses (default: all Paper II artifacts)
and prints their tables — the textual equivalent of regenerating every
figure/table in the paper's evaluation.

``repro-experiments campaign`` runs the full raw-record grid and saves it
as JSON and CSV.  Failures surface as one-line messages with distinct exit
codes (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

from repro.errors import (
    ConfigError,
    EngineError,
    ExperimentError,
    FaultSpecError,
    ReproError,
)
from repro.simulator.analytical.grid import GRID_BACKEND_CHOICES

#: ReproError subclass -> process exit code (first match wins; order from
#: most to least specific so subclasses beat their bases).
ERROR_EXIT_CODES: tuple[tuple[type[ReproError], int], ...] = (
    (FaultSpecError, 6),
    (EngineError, 5),
    (ExperimentError, 4),
    (ConfigError, 3),
    (ReproError, 10),
)

#: Experiment name -> harness module (each exposes ``run()``).
EXPERIMENTS: dict[str, str] = {
    "table1": "repro.experiments.table1_layers",
    "fig01": "repro.experiments.fig01_vgg_baseline",
    "fig02": "repro.experiments.fig02_yolo_baseline",
    "fig03": "repro.experiments.fig03_vgg_vl_sweep",
    "fig04": "repro.experiments.fig04_yolo_vl_sweep",
    "fig05": "repro.experiments.fig05_vgg_cache_sweep",
    "fig06": "repro.experiments.fig06_vgg_cache_sweep_4096",
    "fig07": "repro.experiments.fig07_yolo_cache_sweep",
    "fig08": "repro.experiments.fig08_yolo_cache_sweep_4096",
    "selection": "repro.experiments.selection_study",
    "selection-features": "repro.experiments.selection_features",
    "fig09": "repro.experiments.fig09_vgg_selection",
    "fig10": "repro.experiments.fig10_yolo_selection",
    "fig11": "repro.experiments.fig11_pareto",
    "fig12": "repro.experiments.fig12_colocation",
    "paper1-table2": "repro.experiments.paper1.table2_blocksize",
    "paper1-vl": "repro.experiments.paper1.vl_sweep",
    "paper1-cache": "repro.experiments.paper1.cache_sweep",
    "paper1-lanes": "repro.experiments.paper1.lanes",
    "paper1-winograd": "repro.experiments.paper1.winograd_sweep",
    "paper1-winograd-a64fx": "repro.experiments.paper1.winograd_a64fx",
    "paper1-pareto": "repro.experiments.paper1.pareto",
    "paper1-table3": "repro.experiments.paper1.table3_missrates",
    "paper1-roofline": "repro.experiments.paper1.roofline_table4",
    "paper1-speedups": "repro.experiments.paper1.speedups",
    "paper1-archcompare": "repro.experiments.paper1.arch_compare",
    "ablation-fft": "repro.experiments.ablation_fft",
    "ablation-model": "repro.experiments.ablation_model",
    "ablation-contention": "repro.experiments.ablation_contention",
    "ablation-winograd-tiles": "repro.experiments.ablation_winograd_tiles",
    "ablation-fusion": "repro.experiments.ablation_fusion",
    "ablation-blocks": "repro.experiments.ablation_blocks",
    "schedule-search": "repro.experiments.schedule_search",
    "serving-latency": "repro.experiments.serving_latency",
    "serving-mixed": "repro.experiments.serving_mixed",
    "extension-vit": "repro.experiments.extension_vit",
    "extension-depthwise": "repro.experiments.extension_depthwise",
    "extension-energy": "repro.experiments.extension_energy",
    "extension-l1": "repro.experiments.extension_l1",
    "extension-tile-tradeoff": "repro.experiments.extension_tile_tradeoff",
    "extension-lmul": "repro.experiments.extension_lmul",
    "layer-report": "repro.experiments.layer_report",
    "trace-report": "repro.experiments.trace_report",
    "profile-breakdown": "repro.experiments.profile_breakdown",
    "verdict": "repro.experiments.verdict",
}


def run_experiment(name: str):
    """Import and run one experiment harness by name."""
    module = importlib.import_module(EXPERIMENTS[name])
    return module.run()


def _run_campaign_command(out_dir: Path | None) -> None:
    """``repro-experiments campaign``: the full grid, saved as JSON + CSV."""
    from repro.experiments.campaign import paper2_campaign

    start = time.time()
    campaign = paper2_campaign(
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    errors = sum(1 for r in campaign.records if r["bound"] == "error")
    applicable = sum(1 for r in campaign.records if r["applicable"])
    print(f"campaign {campaign.name}: {len(campaign)} records "
          f"({applicable} applicable, {errors} errored)")
    target = out_dir if out_dir is not None else Path("results")
    json_path = campaign.save(target / f"{campaign.name}_campaign.json")
    csv_path = campaign.write_csv(target / f"{campaign.name}_campaign.csv")
    print(f"saved {json_path} and {csv_path}")
    print(f"[campaign completed in {time.time() - start:.1f}s]\n")


def main(argv: list[str] | None = None) -> int:
    """Parse args and dispatch; maps :class:`ReproError` to exit codes."""
    try:
        return _main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        line = str(exc).splitlines()[0] if str(exc) else "(no detail)"
        print(f"error [{type(exc).__name__}]: {line}", file=sys.stderr)
        for cls, code in ERROR_EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 10  # pragma: no cover - ReproError entry is the catch-all


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures (as text).",
    )
    parser.add_argument(
        "names",
        nargs="*",
        default=[],
        help=f"experiments to run (default: all Paper II). Known: "
             f"{', '.join(EXPERIMENTS)}",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead")
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="also write each experiment's table as DIR/<name>.csv",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the shared memo cache (recompute every grid cell)",
    )
    parser.add_argument(
        "--trace-timing", metavar="MODEL:LAYER", default=None,
        help="also run the trace-driven timing report (full-trace "
             "replay) for the given layer, e.g. vgg16:1",
    )
    parser.add_argument(
        "--grid-backend", choices=list(GRID_BACKEND_CHOICES), default=None,
        metavar="NAME",
        help="backend for tensorized analytical-grid evaluation "
             "(auto/compiled/numpy; 'compiled' needs the [compiled] extra, "
             "results are bit-identical either way)",
    )
    parser.add_argument(
        "--profile", nargs="?", const="trace.json", default=None,
        metavar="PATH",
        help="collect spans/counters while running, print the span table, "
             "and write a Chrome trace_event file to PATH (default "
             "trace.json; open in https://ui.perfetto.dev). Use the "
             "--profile=PATH form when experiment names follow the flag.",
    )
    args = parser.parse_args(argv)

    if args.list:
        print("campaign")
        for name in EXPERIMENTS:
            print(name)
        return 0

    from repro import faults, obs
    from repro.engine import configure_default
    from repro.simulator.analytical import grid as analytical_grid_mod

    if args.grid_backend is not None:
        # validates eagerly: --grid-backend compiled without Numba is a
        # ConfigError-style exit, not a mid-experiment surprise
        analytical_grid_mod.configure_grid(backend=args.grid_backend)

    faults.active_plan()  # fail fast (exit 6) on a malformed REPRO_FAULTS
    configure_default(use_cache=not args.no_cache)
    if args.profile is not None:
        obs.enable()

    names = args.names or [
        n for n in EXPERIMENTS
        if not n.startswith(
            ("paper1", "ablation", "serving", "extension", "layer",
             "verdict", "profile", "trace")
        )
    ]
    run_campaign_cmd = "campaign" in names
    names = [n for n in names if n != "campaign"]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    if run_campaign_cmd:
        _run_campaign_command(out_dir)
    for name in names:
        start = time.time()
        with obs.span(f"experiment.{name}", cat="experiment"):
            result = run_experiment(name)
        if args.csv:
            print(result.table.to_csv())
        else:
            print(result.render())
        if out_dir:
            (out_dir / f"{name}.csv").write_text(result.table.to_csv())
        print(f"[{name} completed in {time.time() - start:.1f}s]\n")
    if args.trace_timing:
        from repro.experiments import trace_report

        start = time.time()
        with obs.span("experiment.trace-report", cat="experiment"):
            result = trace_report.run(args.trace_timing)
        if args.csv:
            print(result.table.to_csv())
        else:
            print(result.render())
        if out_dir:
            (out_dir / "trace-report.csv").write_text(result.table.to_csv())
        print(f"[trace-report completed in {time.time() - start:.1f}s]\n")
    if args.profile is not None:
        recorder = obs.get_recorder()
        if isinstance(recorder, obs.Recorder):
            print(obs.render_table(recorder))
            obs.write_chrome_trace(recorder, args.profile)
            print(f"\n[chrome trace written to {args.profile} — open in "
                  f"https://ui.perfetto.dev]")
        obs.disable()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
