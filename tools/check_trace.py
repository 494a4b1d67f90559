#!/usr/bin/env python
"""CI gate: trace-context propagation must stay connected.

Drives a pooled multi-session workload in process (4 gateway workers,
tracing on): per-session deletes and inserts fire the Example 1/2 rules
plus two DETACHED triggers, so every client command crosses the session
queue, the worker pool, the ``syb_sendmsg`` datagram hop, and the
detached action threads.  Every trace retained in the store must then
form a *single connected span tree*: exactly one root span (no parent)
and every other span's parent resolving inside the same trace — an
orphan span means some hand-off dropped the
:class:`~repro.obs.tracing.TraceContext`.  At least one trace must also
contain a queue-wait span and two concurrent action spans, so the gate
is known to have exercised the paths it guards.

What tracing *costs* (bench series 7) is gated with the other planes by
``tools/check_overhead.py``.

Usage::

    python tools/check_trace.py
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _helpers import (  # noqa: E402
    EXAMPLE_1,
    EXAMPLE_2_AND,
    EXAMPLE_2_DEL,
    STOCK_DDL,
)
from repro.agent import EcaAgent  # noqa: E402
from repro.led import ManualClock  # noqa: E402
from repro.obs.tracing import (  # noqa: E402
    FIG4_ACTION_RUN,
    SPAN_QUEUE_WAIT,
)
from repro.sqlengine import SqlServer  # noqa: E402

WORKERS = 4
SESSIONS = 6
ROUNDS = 3

USER = "sharma"
DATABASE = "sentineldb"

DETACHED_TRIGGERS = (
    "create trigger t_det_a event addStk DETACHED as print 'det a'",
    "create trigger t_det_b event addStk DETACHED as print 'det b'",
)


def _tree_problems(trace_id: str, spans) -> list[str]:
    """Single-connected-tree violations for one trace's pinned spans."""
    if not spans:
        return [f"trace {trace_id}: retained but has no spans"]
    problems = []
    seqs = {span.seq for span in spans}
    roots = [span for span in spans if span.parent is None]
    if len(roots) != 1:
        problems.append(
            f"trace {trace_id}: {len(roots)} root spans "
            f"({[span.step for span in roots]}); a command must yield "
            "exactly one")
    for span in spans:
        if span.parent is not None and span.parent not in seqs:
            problems.append(
                f"trace {trace_id}: span #{span.seq} {span.step!r} is "
                f"orphaned (parent #{span.parent} is not in this trace)")
    return problems


def check_connectivity() -> list[str]:
    """Run the pooled workload; returns the list of problems."""
    server = SqlServer(default_database=DATABASE)
    agent = EcaAgent(server, clock=ManualClock(), channel="sync",
                     workers=WORKERS)
    agent.trace.enabled = True
    try:
        conn = agent.connect(user=USER, database=DATABASE)
        for ddl in (STOCK_DDL, EXAMPLE_1, EXAMPLE_2_DEL, EXAMPLE_2_AND,
                    *DETACHED_TRIGGERS):
            conn.execute(ddl)

        gateway = agent.gateway
        sessions = [gateway.open_session(USER, DATABASE)
                    for _ in range(SESSIONS)]
        futures = []
        for round_no in range(ROUNDS):
            for index, session in enumerate(sessions):
                # delete then insert per session: the insert raises
                # addStk (IMMEDIATE rule + both DETACHED rules) and
                # completes the addDel composite opened by the delete.
                futures.append(gateway.submit_for(session, "delete stock"))
                futures.append(gateway.submit_for(
                    session,
                    f"insert stock values ('S{index}', {round_no}.0, 1)"))
                futures.append(gateway.submit_for(
                    session, "select symbol, price from stock"))
        for future in futures:
            future.result()
        agent.action_handler.join_detached()
        agent.drain()
        for session in sessions:
            session.closed = True

        trace = agent.trace
        trace_ids = trace.trace_ids()
        problems = []
        if not trace_ids:
            return ["trace store is empty after a traced workload; "
                    "command contexts are not being minted"]
        total_spans = 0
        richest = False
        for trace_id in trace_ids:
            spans = trace.spans_for(trace_id)
            total_spans += len(spans)
            problems.extend(_tree_problems(trace_id, spans))
            steps = [span.step for span in spans]
            if (SPAN_QUEUE_WAIT in steps
                    and steps.count(FIG4_ACTION_RUN) >= 2):
                richest = True
        print(f"connectivity: {len(trace_ids)} traces / {total_spans} "
              f"spans across {SESSIONS} sessions at {WORKERS} workers")
        if not richest:
            problems.append(
                "no trace contains both a queue-wait span and two action "
                "spans; the workload did not exercise the pooled active "
                "path end to end")
        return problems
    finally:
        agent.close()


def main() -> int:
    """CLI entry point; returns the process exit status."""
    problems = check_connectivity()
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print("trace gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
