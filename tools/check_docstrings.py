#!/usr/bin/env python
"""CI gate: every public symbol in the agent's API surface has a docstring.

Walks the checked files with ``ast`` (no imports, so it runs before the
package is installable) and reports any public module, class, function,
or method whose docstring is missing or empty.  "Public" means the name
does not start with an underscore and is not an enclosed (nested)
function.  Exit status 0 when clean, 1 with a per-symbol report when not.

Usage::

    python tools/check_docstrings.py            # check the default surface
    python tools/check_docstrings.py src/my.py  # check specific files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The public API surface the docs suite documents (docs/ARCHITECTURE.md);
#: additions here are additions to the operator-facing contract.
DEFAULT_SURFACE = [
    "src/repro/__init__.py",
    "src/repro/agent/agent.py",
    "src/repro/agent/gateway.py",
    "src/repro/agent/persistence.py",
    "src/repro/agent/session.py",
    "src/repro/agent/workers.py",
    "src/repro/sqlengine/locks.py",
    "src/repro/sqlengine/evaluator.py",
    "src/repro/sqlengine/planner.py",
    "src/repro/sqlengine/dagexec.py",
    "src/repro/difftest/sqlref.py",
    "src/repro/faults/__init__.py",
    "src/repro/faults/injector.py",
    "src/repro/faults/retry.py",
    "src/repro/obs/ambient.py",
    "src/repro/obs/boundedlog.py",
    "src/repro/obs/events.py",
    "src/repro/obs/provenance.py",
    "src/repro/obs/export.py",
    "src/repro/ged/__init__.py",
    "src/repro/ged/partitioning.py",
    "src/repro/ged/transport.py",
    "src/repro/ged/sharded.py",
    "src/repro/led/remote.py",
]

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _missing_in(tree: ast.Module, path: str) -> list[str]:
    """The public symbols in one parsed module lacking docstrings."""
    problems: list[str] = []
    if not (ast.get_docstring(tree) or "").strip():
        problems.append(f"{path}: module docstring missing")

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                name = f"{prefix}{child.name}"
                if not child.name.startswith("_") and not (
                        ast.get_docstring(child) or "").strip():
                    problems.append(
                        f"{path}:{child.lineno}: class {name} "
                        "docstring missing")
                visit(child, f"{name}.")
            elif isinstance(child, _DEF_NODES):
                name = f"{prefix}{child.name}"
                public = not child.name.startswith("_")
                overload = any(
                    isinstance(d, ast.Name) and d.id == "overload"
                    for d in child.decorator_list)
                if public and not overload and not (
                        ast.get_docstring(child) or "").strip():
                    problems.append(
                        f"{path}:{child.lineno}: def {name} "
                        "docstring missing")
                # do not descend: enclosed functions are implementation

    visit(tree, "")
    return problems


def check(paths: list[str]) -> list[str]:
    """Check the given files; returns the list of problem strings."""
    problems: list[str] = []
    for rel in paths:
        target = (REPO_ROOT / rel) if not Path(rel).is_absolute() else Path(rel)
        if not target.exists():
            problems.append(f"{rel}: file not found")
            continue
        tree = ast.parse(target.read_text(), filename=str(target))
        problems.extend(_missing_in(tree, rel))
    return problems


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit status."""
    paths = argv or DEFAULT_SURFACE
    problems = check(paths)
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} public symbol(s) missing docstrings")
        return 1
    print(f"docstring check: {len(paths)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
