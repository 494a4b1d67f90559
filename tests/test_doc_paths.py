"""Every repo-relative path the documentation names must exist.

Docs point readers at test, source, bench and tool files; when one of
those moves or is deleted, the doc keeps pointing at nothing.  This
scans the living docs (README, DESIGN, EXPERIMENTS, ``docs/*.md`` and
the repo's skill notes) for ``tests/``, ``src/``, ``benchmarks/``,
``tools/``, ``docs/`` and ``examples/`` paths (globs allowed, a
``::Test`` node suffix ignored) and requires each to resolve.
``CHANGES.md`` and ``ROADMAP.md`` are history and may name what is gone.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

DOCS = [REPO_ROOT / name for name in ("README.md", "DESIGN.md",
                                      "EXPERIMENTS.md")]
DOCS += sorted((REPO_ROOT / "docs").glob("*.md"))
DOCS += sorted(REPO_ROOT.glob(".*/skills/*/SKILL.md"))

PATH = re.compile(
    r"(?<![\w/.-])((?:tests|src|benchmarks|tools|docs|examples)/[\w./*-]*)")


def named_paths(text: str) -> set[str]:
    """The repo-relative paths mentioned in one document."""
    return {match.rstrip(".") for match in PATH.findall(text)}


def test_named_paths_exist():
    missing = []
    for doc in DOCS:
        for path in sorted(named_paths(doc.read_text(encoding="utf-8"))):
            if not any(REPO_ROOT.glob(path.rstrip("/"))):
                missing.append(f"{doc.relative_to(REPO_ROOT)}: {path}")
    assert not missing, "docs name missing paths:\n" + "\n".join(missing)


def test_the_scan_sees_paths():
    found = named_paths(
        "see `tests/agent/test_flows.py::TestFig2Assembly`, tests/snoop/* "
        "and docs/OPERATORS.md. Not a/tests/x or https://h/src/y.")
    assert found == {"tests/agent/test_flows.py", "tests/snoop/*",
                     "docs/OPERATORS.md"}
