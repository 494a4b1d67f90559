#!/usr/bin/env python
"""CI gate: the plan cache must keep paying for itself.

Reads the ``BENCH_hotpath.json`` artifact produced by
``benchmarks/bench_hotpath.py`` and compares the median latency of the
same repeated batch with the plan cache off vs on.  The cached path must
be at least ``HOTPATH_RATIO`` times faster (default 1.3x) — catching any
change that re-introduces per-execution parsing onto the hot path.  The
indexed point-select series is also required to beat the full scan.

Usage::

    python tools/check_hotpath.py                  # ./BENCH_hotpath.json
    python tools/check_hotpath.py path/to/BENCH_hotpath.json
    HOTPATH_RATIO=1.1 python tools/check_hotpath.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Series labels written by benchmarks/bench_hotpath.py.
CACHE_OFF_SERIES = "1 repeated batch, plan cache off"
CACHE_ON_SERIES = "2 repeated batch, plan cache on"
SCAN_SERIES = "3 point select, full scan"
INDEX_SERIES = "4 point select, indexed"

#: Default floor for the cache-off/cache-on median-latency ratio.
DEFAULT_RATIO = 1.3


def check(path: Path, min_ratio: float) -> list[str]:
    """Validate one hotpath artifact; returns the list of problems."""
    if not path.exists():
        return [f"{path}: artifact not found (run benchmarks/"
                "bench_hotpath.py first)"]
    payload = json.loads(path.read_text())
    series = payload.get("series", {})
    problems = []
    for label in (CACHE_OFF_SERIES, CACHE_ON_SERIES, SCAN_SERIES,
                  INDEX_SERIES):
        if label not in series:
            problems.append(f"{path}: series {label!r} missing")
    if problems:
        return problems
    off = series[CACHE_OFF_SERIES]["p50"]
    on = series[CACHE_ON_SERIES]["p50"]
    if on <= 0:
        return [f"{path}: cached p50 is {on}; artifact corrupt"]
    ratio = off / on
    print(f"plan-cache speedup: {off:.4f}ms / {on:.4f}ms = {ratio:.2f}x "
          f"(floor {min_ratio:.2f}x)")
    if ratio < min_ratio:
        problems.append(
            f"{path}: cached-path p50 speedup is {ratio:.2f}x, under the "
            f"{min_ratio:.2f}x floor")
    scan = series[SCAN_SERIES]["p50"]
    indexed = series[INDEX_SERIES]["p50"]
    print(f"index-scan speedup: {scan:.4f}ms / {indexed:.4f}ms = "
          f"{scan / indexed:.2f}x" if indexed > 0 else
          f"index-scan p50 is {indexed}")
    if indexed <= 0 or indexed >= scan:
        problems.append(
            f"{path}: indexed point select ({indexed}ms p50) does not beat "
            f"the full scan ({scan}ms p50)")
    return problems


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit status."""
    path = Path(argv[0]) if argv else REPO_ROOT / "BENCH_hotpath.json"
    min_ratio = float(os.environ.get("HOTPATH_RATIO", DEFAULT_RATIO))
    problems = check(path, min_ratio)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print("hotpath check: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
