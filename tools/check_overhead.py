#!/usr/bin/env python
"""CI gate: the observability plane must stay cheap.

Reads the ``BENCH_overhead.json`` artifact produced by
``benchmarks/bench_overhead.py`` and compares each observed series
against the same stack with the observability plane off (series 4).
Each mean-latency ratio must stay under one threshold (default 1.5x,
overridable through the ``OBS_OVERHEAD_RATIO`` environment variable) —
catching any change that moves real work onto the instrumented hot path:

- series 5, everything on (stats + trace + provenance);
- series 6, the health plane (stats + accounting + slow-op capture
  armed, trace and provenance off), so the always-on health surface can
  never quietly grow more expensive than the full debugging plane;
- series 7, tracing only — what a sampled command pays under ``trace
  next`` (its connectivity half is ``tools/check_trace.py``).

Usage::

    python tools/check_overhead.py                   # ./BENCH_overhead.json
    python tools/check_overhead.py path/to/BENCH_overhead.json
    OBS_OVERHEAD_RATIO=1.5 python tools/check_overhead.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Series labels written by benchmarks/bench_overhead.py.
BASELINE_SERIES = "4 + composite detection (Example 2)"
#: (name printed, series label) of every gated series.
GATED_SERIES = (
    ("observability", "5 + observability on (stats+trace+provenance)"),
    ("health plane", "6 + health plane (accounting+slowlog+stats)"),
    ("tracing", "7 + trace context (sampled commands)"),
)

#: Default ceiling for observed/baseline mean latency.
DEFAULT_RATIO = 1.5


def check(path: Path, max_ratio: float) -> list[str]:
    """Validate one overhead artifact; returns the list of problems."""
    if not path.exists():
        return [f"{path}: artifact not found (run benchmarks/"
                "bench_overhead.py first)"]
    payload = json.loads(path.read_text())
    series = payload.get("series", {})
    problems = []
    for label in (BASELINE_SERIES, *(label for _, label in GATED_SERIES)):
        if label not in series:
            problems.append(f"{path}: series {label!r} missing")
    if problems:
        return problems
    baseline = series[BASELINE_SERIES]["mean"]
    if baseline <= 0:
        return [f"{path}: baseline mean is {baseline}; artifact corrupt"]
    for name, label in GATED_SERIES:
        observed = series[label]["mean"]
        ratio = observed / baseline
        print(f"{name} overhead: {observed:.4f}ms / {baseline:.4f}ms "
              f"= {ratio:.2f}x (limit {max_ratio:.2f}x)")
        if ratio > max_ratio:
            problems.append(
                f"{path}: {name} mean latency is {ratio:.2f}x the "
                f"baseline, over the {max_ratio:.2f}x limit")
    return problems


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit status."""
    path = Path(argv[0]) if argv else REPO_ROOT / "BENCH_overhead.json"
    max_ratio = float(os.environ.get("OBS_OVERHEAD_RATIO", DEFAULT_RATIO))
    problems = check(path, max_ratio)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print("overhead check: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
