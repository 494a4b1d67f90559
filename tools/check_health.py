#!/usr/bin/env python
"""CI gate: the agent must report itself healthy under a clean workload.

Builds the paper's Example 1 + Example 2 stack in-process, drives a
representative workload through the gateway with the full health plane
hot (stats, accounting, slow-op capture armed), and evaluates the
watchdog (:mod:`repro.obs.health`).  The resulting report — status,
per-rule findings, the raw sample, the top sessions/rules, and any
captured slow ops — is written to ``BENCH_health.json`` for CI to
archive.

Exit status: 0 when the report is ``ok`` or ``degraded`` (a degraded
report is printed loudly but does not fail the build — thresholds like
plan-cache hit rate depend on runner speed), 1 when any rule reports
``critical`` or the workload itself errors.  ``HEALTH_STRICT=1``
promotes ``degraded`` to a failure for local runs.

Usage::

    python tools/check_health.py
    HEALTH_STRICT=1 python tools/check_health.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _helpers import example_2_stack  # noqa: E402  (path bootstrap above)
from repro.obs.export import event_payload  # noqa: E402

ARTIFACT = REPO_ROOT / "BENCH_health.json"

#: Slow-op threshold for the gate workload: generous enough that only a
#: pathological regression records commands on a CI runner.
SLOWLOG_MS = 250.0


def drive_workload(conn, rounds: int = 50) -> None:
    """A clean mixed workload: inserts and deletes that raise both
    primitive events and the Example 2 composite, plus reads.  The
    statement texts repeat so a healthy plan cache hits."""
    for index in range(rounds):
        conn.execute("insert stock values ('IBM', 100, 10)")
        conn.execute("select symbol, price from stock")
        conn.execute("select symbol from stock where qty = 10")
        conn.execute("select qty from stock")
        if index % 5 == 4:
            conn.execute("delete stock where symbol = 'IBM'")


def main() -> int:
    """Run the gate; returns the process exit status."""
    _server, agent, conn = example_2_stack()
    agent.metrics.enabled = True
    conn.execute(f"set agent slowlog {SLOWLOG_MS:g}")
    drive_workload(conn)

    report = agent.health()
    payload = {
        "report": report.as_dict(),
        "top_sessions": [
            totals.as_dict() for totals in agent.accounting.top_sessions(5)],
        "top_rules": [
            totals.as_dict() for totals in agent.accounting.top_rules(5)],
        "slow_ops": [event_payload(record)
                     for record in agent.flightrec.tail(5)],
    }
    ARTIFACT.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8")

    print(f"agent health: {report.status}  (artifact: {ARTIFACT.name})")
    for finding in report.findings:
        marker = "  " if finding.status == "ok" else "! "
        print(f"{marker}{finding.rule}: {finding.status} "
              f"(value={finding.value:g}, {finding.direction} "
              f"{finding.threshold:g})")

    if report.status == "critical":
        print("health check: CRITICAL — failing the build")
        return 1
    if report.status == "degraded":
        print("health check: degraded")
        if os.environ.get("HEALTH_STRICT") == "1":
            print("HEALTH_STRICT=1 — failing the build")
            return 1
        return 0
    print("health check: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
