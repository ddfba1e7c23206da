"""Tensorized analytical-grid evaluation: exact parity + engine fast path.

The contract under test (ISSUE 8 / docs/PERF.md): evaluating a columnar
``PhaseTable`` through :func:`repro.simulator.analytical.grid.
evaluate_phase_table` — with either registered backend — produces
``LayerCycles``/``PhaseCycles`` records **bit-identical** to the per-cell
:class:`AnalyticalTimingModel`, over the paper's full 448-point grid; and
the :class:`EvaluationEngine` routes every cold batch through that path
without changing a single output float.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro import faults, obs
from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.engine import EvalTask, EvaluationEngine
from repro.errors import SimulationError
from repro.nn.layer import ConvSpec
from repro.simulator._compiled import HAVE_NUMBA
from repro.simulator.analytical import grid
from repro.simulator.analytical.calibration import Calibration
from repro.simulator.analytical.model import AnalyticalTimingModel
from repro.simulator.hwconfig import HardwareConfig
from tests.oracle import percell_records, records_identical

def _assert_record_contract(record, expected) -> None:
    """``record`` behaves as the constructor-built ``expected`` does."""
    from repro.simulator.analytical.model import LayerCycles, PhaseCycles

    assert type(record) is LayerCycles and not hasattr(record, "__dict__")
    assert record == expected and not record != expected
    assert repr(record) == repr(expected)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert copied == expected and copied is not record
        assert records_identical(copied, expected)
        assert copied.cycles == expected.cycles
    assert dataclasses.asdict(record) == dataclasses.asdict(expected)
    assert not any(hasattr(p, "__dict__") for p in record.phases)
    # an edit of the list shows in the totals, as for a constructor-built one
    extra = PhaseCycles("extra", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    record.phases.append(extra)
    grown = LayerCycles(expected.algorithm, [*expected.phases, extra])
    assert record.cycles == grown.cycles
    assert record.dram_bytes == grown.dram_bytes


needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA,
    reason="Numba not installed (the [compiled] extra); CI's compiled "
           "job runs these",
)


@pytest.fixture(scope="module")
def paper_grid_cells():
    """Every applicable (algorithm, schedule, hw) cell of the 448-point
    grid, with its per-cell reference record."""
    from repro.experiments.configs import workload

    specs = workload("vgg16") + workload("yolov3")
    configs = [
        HardwareConfig.paper2_rvv(v, l2)
        for v in (512, 1024, 2048, 4096)
        for l2 in (1.0, 64.0)
    ]
    cells, expected = [], []
    for hw in configs:
        for spec in specs:
            for name in ALGORITHM_NAMES:
                algo = get_algorithm(name)
                if not algo.applicable(spec):
                    continue
                phases = algo.schedule(spec, hw)
                cells.append((algo.name, phases, hw))
                expected.append(
                    AnalyticalTimingModel(hw).evaluate(algo.name, phases)
                )
    return cells, expected


@pytest.fixture
def _restore_grid_default():
    yield
    grid.configure_grid(backend="auto")


# --------------------------------------------------------------------- #
# bit-exact parity over the paper grid
# --------------------------------------------------------------------- #
class TestGridParity:
    def assert_full_parity(self, cells, expected, backend):
        table = grid.PhaseTable.from_cells(cells)
        got = grid.evaluate_phase_table(table, backend=backend)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert records_identical(g, e)
            assert g.cycles == e.cycles
            assert g.dram_bytes == e.dram_bytes
            for gp, ep in zip(g.phases, e.phases):
                assert gp.cycles == ep.cycles
                assert gp.bound == ep.bound

    def test_numpy_backend_bit_identical_on_paper_grid(self, paper_grid_cells):
        cells, expected = paper_grid_cells
        assert len(cells) > 400  # the full grid, not a sample
        self.assert_full_parity(cells, expected, "numpy")

    @needs_numba
    def test_compiled_backend_bit_identical_on_paper_grid(
        self, paper_grid_cells
    ):
        cells, expected = paper_grid_cells
        self.assert_full_parity(cells, expected, "compiled")

    def test_compiled_kernel_algorithm_matches_numpy_uncompiled(
        self, paper_grid_cells
    ):
        """The kernel *algorithm* is validated on every machine: without
        Numba the undecorated Python function runs (slowly) and must
        produce the numpy backend's columns bit for bit."""
        cells, _ = paper_grid_cells
        table = grid.PhaseTable.from_cells(cells[:120])
        rows_np = grid._evaluate_rows_numpy(table)
        rows_c = grid._evaluate_rows_compiled(table)
        for a, b, name in zip(rows_np, rows_c, rows_np._fields):
            assert (a == b).all(), f"column {name} diverged"

    def test_grid_records_keep_the_record_contract(self, paper_grid_cells):
        """Grid-built records — from the table and from the engine, before
        and after ``phases`` is first read — behave like constructor-built
        ones under ``==``, ``repr``, ``asdict``, pickle and ``deepcopy``,
        are ``LayerCycles`` with no per-record ``__dict__``, and show an
        edit of their ``phases`` list in ``cycles``."""
        cells, expected = paper_grid_cells
        specs = [ConvSpec(ic=8, oc=16, ih=12, iw=12, index=i) for i in (1, 2)]
        hws = [HardwareConfig.paper2_rvv(v, 3.0) for v in (512, 4096)]
        tasks = [
            EvalTask(name, spec, hw, fallback=False)
            for spec in specs for hw in hws for name in ALGORITHM_NAMES
        ]
        built = [
            AnalyticalTimingModel(t.hw).evaluate(
                t.algorithm, get_algorithm(t.algorithm).schedule(t.spec, t.hw)
            )
            for t in tasks
        ]
        for read_first in (False, True):
            sources = [
                (grid.evaluate_cells(cells[:64]), expected[:64]),
                (EvaluationEngine(use_cache=False).evaluate_many(tasks), built),
            ]
            for got, want in sources:
                for g, e in zip(got, want):
                    if read_first:
                        assert g.phases == e.phases
                    _assert_record_contract(g, e)

    def test_engine_records_keep_no_batch_arrays_alive(self, monkeypatch):
        """After a full-grid batch into a capacity-1 engine, the record the
        LRU keeps reaches only its own strings, tuples, floats and row
        values: none of its batch's table or row arrays survive it."""
        import gc
        import weakref
        from array import array

        import numpy as np

        import repro.engine.executor as executor
        from repro.engine import MemoCache
        from repro.nn.models import vgg16_conv_specs, yolov3_conv_specs
        from repro.simulator.analytical.model import LayerCycles

        arrays = []
        records_of = grid._records

        def spy(table, rows):
            arrays.extend(
                weakref.ref(a)
                for a in (*vars(table).values(), *rows)
                if isinstance(a, np.ndarray)
            )
            return records_of(table, rows)

        monkeypatch.setattr(grid, "_records", spy)
        engine = EvaluationEngine(cache=MemoCache(capacity=1))
        hws = [
            HardwareConfig.paper2_rvv(v, l2)
            for v in (512, 1024, 2048, 4096) for l2 in (1.5, 3.0, 6.0, 12.0)
        ]
        tasks = [
            EvalTask(name, spec, hw)
            for spec in vgg16_conv_specs() + yolov3_conv_specs()
            for hw in hws for name in ALGORITHM_NAMES
        ]
        assert len(tasks) == 1792
        del executor  # the spy reaches the engine through the grid module
        records = engine.evaluate_many(tasks)
        survivor = records[-1]
        del records
        gc.collect()
        assert len(engine.cache) == 1 and arrays
        assert all(ref() is None for ref in arrays)
        # everything the survivor reaches, short of its class
        seen, stack = {}, [survivor]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
        kinds = {type(obj) for obj in seen.values()}
        assert kinds <= {LayerCycles, str, tuple, float, array}, kinds
        # its row values are its own copy, not the batch's flat array
        width = len(grid.RowCycles._fields)
        assert all(
            len(obj) == width * len(survivor.phases)
            for obj in seen.values() if isinstance(obj, array)
        )

    def test_calibration_column_parity(self):
        """Non-default and per-cell calibrations flow through the table."""
        spec = ConvSpec(ic=16, oc=32, ih=28, iw=28, kh=3, kw=3, index=2)
        hw = HardwareConfig.paper1_riscvv(1024, 4.0)  # DECOUPLED style
        cal = Calibration(
            nonunit_penalty=2.0, latency_exposure=0.9,
            enable_scalar_exposure=False, phase_startup=123.0,
        )
        algo = get_algorithm("im2col_gemm6")
        phases = algo.schedule(spec, hw)
        expected = AnalyticalTimingModel(hw, cal).evaluate(algo.name, phases)
        # table-wide calibration
        [got] = grid.evaluate_cells([(algo.name, phases, hw)], calibration=cal)
        assert records_identical(got, expected)
        # per-cell override beats the table-wide default
        [got2] = grid.evaluate_cells([(algo.name, phases, hw, cal)])
        assert records_identical(got2, expected)

    def test_empty_and_streamless_cells(self):
        assert grid.evaluate_cells([]) == []
        hw = HardwareConfig.paper2_rvv(512, 1.0)
        from repro.simulator.analytical.phases import Phase

        phases = [Phase("bare", scalar_ops=100.0)]  # no streams at all
        expected = AnalyticalTimingModel(hw).evaluate("x", phases)
        [got] = grid.evaluate_cells([("x", phases, hw)])
        assert got.cycles == expected.cycles
        assert got.dram_bytes == expected.dram_bytes


# --------------------------------------------------------------------- #
# backend registry + process default
# --------------------------------------------------------------------- #
class TestGridBackendRegistry:
    def test_numpy_always_registered(self):
        assert "numpy" in grid.available_grid_backends()
        assert grid.resolve_grid_backend("numpy").name == "numpy"

    def test_auto_resolves_to_a_registered_backend(self):
        assert grid.resolve_grid_backend("auto").name in (
            grid.available_grid_backends()
        )
        assert grid.resolve_grid_backend(None).name in (
            grid.available_grid_backends()
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown grid backend"):
            grid.resolve_grid_backend("warp")

    @pytest.mark.skipif(HAVE_NUMBA, reason="only without Numba")
    def test_compiled_without_numba_names_the_extra(self):
        with pytest.raises(SimulationError, match=r"\[compiled\] extra"):
            grid.resolve_grid_backend("compiled")

    @needs_numba
    def test_compiled_registered_and_preferred_by_auto(self):
        assert "compiled" in grid.available_grid_backends()
        assert grid.resolve_grid_backend("auto").name == "compiled"

    def test_configure_grid_sets_process_default(self, _restore_grid_default):
        assert grid.grid_defaults() == "auto"
        assert grid.configure_grid(backend="numpy") == "numpy"
        assert grid.grid_defaults() == "numpy"
        assert grid.configure_grid() == "numpy"  # None leaves it unchanged
        with pytest.raises(SimulationError, match="unknown grid backend"):
            grid.configure_grid(backend="warp")
        if not HAVE_NUMBA:  # eager validation: fails at config time
            with pytest.raises(SimulationError, match=r"\[compiled\] extra"):
                grid.configure_grid(backend="compiled")

    def test_grid_backend_counter_recorded(self):
        hw = HardwareConfig.paper2_rvv(512, 1.0)
        spec = ConvSpec(ic=8, oc=8, ih=16, iw=16, index=1)
        algo = get_algorithm("direct")
        rec = obs.enable()
        try:
            grid.evaluate_cells(
                [(algo.name, algo.schedule(spec, hw), hw)], backend="numpy"
            )
            assert rec.counters.get("analytical.grid_backend.numpy") == 1
        finally:
            obs.disable()


# --------------------------------------------------------------------- #
# engine fast path
# --------------------------------------------------------------------- #
class TestEngineGridFastPath:
    @pytest.fixture
    def tasks(self):
        hw = HardwareConfig.paper2_rvv(512, 1.0)
        specs = [ConvSpec(ic=8, oc=8, ih=16, iw=16, index=i) for i in range(4)]
        return [
            EvalTask(name, s, hw) for s in specs for name in ALGORITHM_NAMES
        ]

    def test_cold_serial_batch_routes_through_grid(self, tasks):
        rec = obs.enable()
        try:
            records = EvaluationEngine().evaluate_many(tasks)
            assert (rec.counters.get("engine.grid_cells") or 0) > 0
            names = [s.name for s in rec.spans]
            for stage in ("engine.grid", "engine.schedule", "engine.table",
                          "engine.evaluate", "engine.assemble"):
                assert names.count(stage) == 1, stage  # one span per batch
            assert "engine.point" not in names  # no per-cell spans
        finally:
            obs.disable()
        for got, want in zip(records, percell_records(tasks)):
            assert records_identical(got, want)

    def test_cell_errors_isolated_in_grid_path(self, tasks):
        from repro.engine import CellError

        hw = tasks[0].hw
        one_by_one = ConvSpec(ic=8, oc=8, ih=14, iw=14, kh=1, kw=1, index=9)
        bad = EvalTask("winograd", one_by_one, hw, fallback=False)
        records = EvaluationEngine().evaluate_many(
            [bad] + tasks[:3], on_error="record"
        )
        assert isinstance(records[0], CellError)
        assert records[0].error_type == "NotApplicableError"
        assert all(not isinstance(r, CellError) for r in records[1:])
        assert records == percell_records([bad] + tasks[:3])

    def test_injected_cell_faults_surface_in_grid_path(self, tasks):
        from repro.engine import CellError

        with faults.inject("seed=5,cell.error=1.0"):
            records = EvaluationEngine(use_cache=False).evaluate_many(
                tasks[:4], on_error="record"
            )
        assert all(isinstance(r, CellError) for r in records)
        assert all(r.error_type == "InjectedFaultError" for r in records)

    def test_grid_machinery_failure_surfaces(self, tasks, monkeypatch):
        """A grid-stage exception is a bug: it propagates, even when
        failing cells are recorded, and nothing is cached."""
        import repro.engine.executor as executor

        def explode(items, calibration, schedules):
            raise RuntimeError("grid machinery broke")

        monkeypatch.setattr(executor, "_compute_grid", explode)
        engine = EvaluationEngine()
        with pytest.raises(RuntimeError, match="grid machinery broke"):
            engine.evaluate_many(tasks, on_error="record")
        assert len(engine.cache) == 0

    def test_engine_grid_backend_pins_evaluation_backend(
        self, tasks, _restore_grid_default
    ):
        """The process-wide grid backend (``configure_grid``, the CLI's
        ``--grid-backend``) is the one the engine's grid call runs on."""
        grid.configure_grid(backend="numpy")
        rec = obs.enable()
        try:
            EvaluationEngine().evaluate_many(tasks)
            assert (rec.counters.get("analytical.grid_backend.numpy") or 0) >= 1
        finally:
            obs.disable()

    def test_cold_campaign_grid_matches_percell_with_cache(self):
        """Cold cache-disabled sweep: tensorized records == per-cell ones."""
        hw = [HardwareConfig.paper2_rvv(v, 1.0) for v in (512, 2048)]
        specs = [
            ConvSpec(ic=8, oc=16, ih=20, iw=20, kh=3, kw=3, index=i)
            for i in range(3)
        ]
        a = EvaluationEngine(use_cache=False).sweep(specs, hw, ALGORITHM_NAMES)
        order = [
            (si, ci, name)
            for si in range(len(specs))
            for ci in range(len(hw))
            for name in ALGORITHM_NAMES
        ]
        b = percell_records(
            [EvalTask(name, specs[si], hw[ci]) for si, ci, name in order]
        )
        assert list(a) == order
        for key, want in zip(order, b):
            assert records_identical(a[key], want)
        # and records cached by the grid path replay identically
        cached = EvaluationEngine()
        first = cached.sweep(specs, hw, ALGORITHM_NAMES)
        again = cached.sweep(specs, hw, ALGORITHM_NAMES)
        for key in first:
            assert records_identical(first[key], again[key])
