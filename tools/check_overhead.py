#!/usr/bin/env python
"""CI gate: the observability plane must stay cheap.

Builds the paper's Example 2 stack four times and times the same insert
on each: everything off (the baseline), everything on (stats + trace +
provenance, with a telemetry exporter attached), the health plane alone
(stats + accounting + the slow-op recorder armed at 0 ms, its worst
case: every command is captured) and tracing alone (what a sampled
command pays under ``trace next``).  Each observed stack's ratio to the
baseline must stay under ``MAX_RATIO`` (1.35), catching any change that
moves real work onto the instrumented hot path.  The observability and
health-plane stacks read about 1.3x since the SQL engine reports only
through the accounting frame, which the agent folds into three counters
per command; they read about 1.43x while the engine fed the registry on
every statement, so that cost coming back fails.

The stacks run round-robin, ``ROUNDS`` rounds of one ``BLOCK``-insert
block each, with the starting stack rotating every round.  A stack's
ratio is the median, over the rounds, of its block mean divided by the
baseline's block mean from the same round.  Some hosts flip between
speed modes about 1.5x apart for stretches of seconds.  A round's four
blocks run within milliseconds of each other, so a flip scales both
sides of that round's ratio, and the median discards the rounds a flip
cuts through; a ratio of two readings taken at different times, such as
each stack's fastest block, can compare two modes and move by more than
the margin the gate has.

Two functional checks ride along: on the health-plane stack, the gateway
histogram's pass-through p50 must agree with the wall-clock p50 within
one histogram bucket width, and the observed stack's telemetry export
must write at least one line.  ``BENCH_overhead.json`` (every sample,
the readings, ratios and the p50 cross-check) and
``BENCH_telemetry.jsonl`` are written at the repo root for CI to upload.

Usage::

    python tools/check_overhead.py
"""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _helpers import (  # noqa: E402  (path bootstrap above)
    example_2_stack,
    measure_ms,
    write_bench_json,
)
from repro.obs import TelemetryExporter, bucket_bounds  # noqa: E402

INSERT = "insert stock values ('X', 1.0, 1)"
TELEMETRY_PATH = REPO_ROOT / "BENCH_telemetry.jsonl"

#: Ceiling for an observed stack's ratio to the baseline.
MAX_RATIO = 1.35
ROUNDS = 40
BLOCK = 10


def build_stacks() -> dict:
    """name -> (agent, conn); the baseline first, then the gated planes."""
    TELEMETRY_PATH.unlink(missing_ok=True)  # the exporter appends
    stacks = {}
    _server, agent, conn = example_2_stack()
    stacks["baseline"] = agent, conn
    _server, agent, conn = example_2_stack(
        exporter=TelemetryExporter(str(TELEMETRY_PATH), max_bytes=0))
    agent.metrics.enabled = True
    agent.trace.enabled = True
    agent.journal.enabled = True
    stacks["observability"] = agent, conn
    _server, agent, conn = example_2_stack()
    agent.metrics.enabled = True
    conn.execute("set agent slowlog 0")
    stacks["health plane"] = agent, conn
    _server, agent, conn = example_2_stack()
    agent.trace.enabled = True
    stacks["tracing"] = agent, conn
    for _agent, conn in stacks.values():
        conn.execute("delete stock")  # every insert now completes the AND
        measure_ms(conn.execute, BLOCK, INSERT)  # warm the plan cache
    return stacks


def measure(stacks: dict) -> dict[str, list[list[float]]]:
    """Per stack, its ``ROUNDS`` blocks of per-insert latencies (ms)."""
    names = list(stacks)
    blocks = {name: [] for name in names}
    for round_no in range(ROUNDS):
        for offset in range(len(names)):
            name = names[(round_no + offset) % len(names)]
            _agent, conn = stacks[name]
            blocks[name].append(measure_ms(conn.execute, BLOCK, INSERT))
    return blocks


def check(stacks: dict, blocks: dict) -> tuple[list[str], dict]:
    """Judge one measurement; returns (problems, artifact extras)."""
    problems = []
    means = {name: [statistics.mean(block) for block in name_blocks]
             for name, name_blocks in blocks.items()}
    reading = {name: statistics.median(values)
               for name, values in means.items()}
    ratios = {}
    for name in list(stacks)[1:]:
        ratios[name] = ratio = statistics.median(
            mean / base for mean, base in zip(means[name], means["baseline"]))
        print(f"{name} overhead: median of {ROUNDS} same-round ratios "
              f"{ratio:.2f}x (limit {MAX_RATIO:.2f}x; median block "
              f"{reading[name]:.4f}ms / {reading['baseline']:.4f}ms)")
        if ratio > MAX_RATIO:
            problems.append(
                f"{name} ratio is {ratio:.2f}x the baseline, over the "
                f"{MAX_RATIO:.2f}x limit")

    health_agent, _conn = stacks["health plane"]
    wall_p50_ms = statistics.median(
        sample for block in blocks["health plane"] for sample in block)
    hist_p50_ms = health_agent.metrics.get("agent_command_seconds").labels(
        "passthrough").quantile(50) * 1e3
    lo, hi = bucket_bounds(wall_p50_ms / 1e3)
    width_ms = (hi - lo) * 1e3 if math.isfinite(hi) else lo * 1e3
    print(f"p50 agreement: wall={wall_p50_ms:.4f}ms "
          f"hist={hist_p50_ms:.4f}ms bucket_width={width_ms:.4f}ms")
    if abs(hist_p50_ms - wall_p50_ms) > width_ms:
        problems.append(
            f"histogram p50 {hist_p50_ms:.4f}ms is more than one bucket "
            f"({width_ms:.4f}ms) from the wall-clock p50 {wall_p50_ms:.4f}ms")

    observed_agent, _conn = stacks["observability"]
    lines = observed_agent.export_telemetry(label="check_overhead")
    print(f"telemetry: {lines} lines -> {TELEMETRY_PATH.name}")
    if lines <= 0:
        problems.append("the telemetry export wrote no lines")

    extra = {
        "reading_ms": reading,
        "ratios": ratios,
        "max_ratio": MAX_RATIO,
        "p50_agreement": {"wall_p50_ms": wall_p50_ms,
                          "hist_p50_ms": hist_p50_ms,
                          "bucket_width_ms": width_ms},
        "telemetry_lines": lines,
    }
    return problems, extra


def main() -> int:
    """CLI entry point; returns the process exit status."""
    stacks = build_stacks()
    try:
        blocks = measure(stacks)
        problems, extra = check(stacks, blocks)
    finally:
        for agent, _conn in stacks.values():
            agent.close()
    write_bench_json(
        "overhead",
        {name: [sample for block in name_blocks for sample in block]
         for name, name_blocks in blocks.items()},
        extra=extra)
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print("overhead check: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
