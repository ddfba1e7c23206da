"""The package starts no process pool.

Every path in ``src/repro`` runs in one process: the analytical grid is one
tensorized call and trace replay is in-process (compiled or NumPy).  A pool
that is never needed cannot crash, leak workers or skew a benchmark, so no
module may import ``multiprocessing`` or ``concurrent.futures``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

FORBIDDEN = ("multiprocessing", "concurrent.futures")


def _imported_modules(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            # ``from concurrent import futures``
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_a_process_pool():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_modules(tree):
            if any(name == f or name.startswith(f + ".") for f in FORBIDDEN):
                offenders.append(f"{path.relative_to(root.parent)}: {name}")
    assert offenders == []
