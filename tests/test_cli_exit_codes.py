"""The CLI error contract: exception type -> exit code, docs in sync.

``docs/ROBUSTNESS.md`` documents the mapping; ``ERROR_EXIT_CODES`` in
:mod:`repro.experiments.cli` implements it; ``repro-serve`` reuses it.
These tests pin all three to each other so the table can never silently
drift from the code.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.errors import (
    ConfigError,
    EngineError,
    ExperimentError,
    FaultSpecError,
    ReproError,
)
from repro.experiments import cli

ROBUSTNESS_MD = Path(__file__).resolve().parent.parent / "docs/ROBUSTNESS.md"


class TestExperimentsCliExitCodes:
    @pytest.mark.parametrize("exc, code", [
        (ConfigError("bad vlen"), 3),
        (ExperimentError("no table"), 4),
        (EngineError("pool died"), 5),
        (FaultSpecError("bad spec"), 6),
        (ReproError("generic"), 10),
    ])
    def test_each_error_type_maps_to_its_code(self, monkeypatch, capsys,
                                              exc, code):
        def explode(name):
            raise exc
        monkeypatch.setattr(cli, "run_experiment", explode)
        assert cli.main(["table1"]) == code
        err = capsys.readouterr().err
        assert f"error [{type(exc).__name__}]" in err

    def test_specific_classes_beat_the_repro_error_catch_all(self):
        # Every specific class is a ReproError; the table is ordered
        # most-specific-first so each must match before the catch-all.
        specific = [cls for cls, _ in cli.ERROR_EXIT_CODES
                    if cls is not ReproError]
        assert all(issubclass(cls, ReproError) for cls in specific)
        catch_all_pos = [cls for cls, _ in cli.ERROR_EXIT_CODES].index(
            ReproError
        )
        assert catch_all_pos == len(cli.ERROR_EXIT_CODES) - 1

    def test_keyboard_interrupt_is_130(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_experiment",
            lambda name: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        assert cli.main(["table1"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_unknown_experiment_is_usage_error_2(self, capsys):
        assert cli.main(["definitely-not-an-experiment"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_malformed_repro_faults_is_6(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "not=a,valid.spec")
        assert cli.main(["table1"]) == 6
        assert "error [FaultSpecError]" in capsys.readouterr().err

    def test_success_path_is_0(self, capsys):
        assert cli.main(["--list"]) == 0


class TestGridBackendFlag:
    """``--grid-backend`` validates eagerly, before any experiment work."""

    @pytest.fixture(autouse=True)
    def _restore_grid_default(self):
        from repro.simulator.analytical import grid

        before = grid.grid_defaults()
        yield
        grid.configure_grid(backend=before)

    def test_invalid_choice_is_argparse_usage_error_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table1", "--grid-backend", "simd"])
        assert excinfo.value.code == 2
        assert "--grid-backend" in capsys.readouterr().err

    def test_compiled_without_numba_fails_fast_with_10(self, capsys):
        from repro.simulator._compiled import HAVE_NUMBA

        if HAVE_NUMBA:
            pytest.skip("Numba installed; 'compiled' is valid here")
        # the bogus experiment name proves eagerness: the backend is
        # rejected before dispatch even looks at the experiment list
        assert cli.main(
            ["definitely-not-an-experiment", "--grid-backend", "compiled"]
        ) == 10
        assert "error [SimulationError]" in capsys.readouterr().err

    def test_valid_backend_is_applied_before_dispatch(self, capsys):
        from repro.simulator.analytical import grid

        assert cli.main(
            ["definitely-not-an-experiment", "--grid-backend", "numpy"]
        ) == 2
        assert "unknown experiments" in capsys.readouterr().err
        assert grid.grid_defaults() == "numpy"


class TestServeCliExitCodes:
    def test_malformed_repro_faults_is_6(self, monkeypatch, capsys):
        from repro.serve import server

        monkeypatch.setenv("REPRO_FAULTS", "not=a,valid.spec")
        assert server.main([]) == 6
        assert "error [FaultSpecError]" in capsys.readouterr().err

    def test_serve_error_is_repro_error_catch_all_10(self, capsys):
        from repro.serve import server

        assert server.main(["--queue-limit", "-1"]) == 10
        assert "error [ServeError]" in capsys.readouterr().err


class TestDocsTableParity:
    def _documented_codes(self) -> dict[str, int]:
        """Error-class rows of the 'CLI error contract' table."""
        text = ROBUSTNESS_MD.read_text()
        section = text.split("## CLI error contract", 1)[1]
        section = section.split("\n## ", 1)[0]
        out: dict[str, int] = {}
        for condition, code in re.findall(
            r"^\|\s*(.+?)\s*\|\s*(\d+)\s*\|\s*$", section, flags=re.M
        ):
            match = re.search(r"`(\w*Error)`", condition)
            if match:
                out[match.group(1)] = int(code)
        return out

    def test_table_exists_and_matches_error_exit_codes(self):
        documented = self._documented_codes()
        assert documented, "ROBUSTNESS.md lost its CLI error contract table"
        for exc_class, code in cli.ERROR_EXIT_CODES:
            name = (
                "ReproError" if exc_class is ReproError else exc_class.__name__
            )
            assert documented.get(name) == code, (
                f"docs/ROBUSTNESS.md documents {name} -> "
                f"{documented.get(name)}, code says {code}"
            )
        # and nothing documented that the code no longer implements
        implemented = {
            cls.__name__: code for cls, code in cli.ERROR_EXIT_CODES
        }
        for name, code in documented.items():
            assert implemented.get(name) == code
