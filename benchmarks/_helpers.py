"""Shared builders for the benchmark suite.

Each bench constructs an isolated stack so runs never interfere.  All
stacks use the synchronous notification channel and a manual clock: the
numbers then measure computation, not sleeping.
"""

from __future__ import annotations

import json
import os
import time

from repro.agent import EcaAgent
from repro.led import ManualClock
from repro.obs import summarize
from repro.sqlengine import SqlServer, connect

STOCK_DDL = (
    "create table stock ("
    "symbol varchar(10) not null, price float null, qty int null)"
)

EXAMPLE_1 = (
    "create trigger t_addStk on stock for insert\n"
    "event addStk\n"
    "as print ' trigger t_addStk on primitive event addStk occurs'"
)

EXAMPLE_2_DEL = (
    "create trigger t_delStk on stock for delete\n"
    "event delStk\n"
    "as print 'delStk'"
)

EXAMPLE_2_AND = (
    "create trigger t_and\n"
    "event addDel = delStk ^ addStk\n"
    "RECENT\n"
    "as\n"
    "print 'trigger t_and on composite event addDel'\n"
    "select symbol, price from stock.inserted"
)


def fresh_server() -> SqlServer:
    return SqlServer(default_database="sentineldb")


def direct_stack():
    """(server, direct connection) with the stock table created."""
    server = fresh_server()
    conn = connect(server, user="sharma", database="sentineldb")
    conn.execute(STOCK_DDL)
    return server, conn


def agent_stack(**agent_kwargs):
    """(server, agent, mediated connection) with the stock table created."""
    server = fresh_server()
    agent = EcaAgent(server, clock=ManualClock(), **agent_kwargs)
    conn = agent.connect(user="sharma", database="sentineldb")
    conn.execute(STOCK_DDL)
    return server, agent, conn


def example_2_stack(**agent_kwargs):
    server, agent, conn = agent_stack(**agent_kwargs)
    conn.execute(EXAMPLE_1)
    conn.execute(EXAMPLE_2_DEL)
    conn.execute(EXAMPLE_2_AND)
    return server, agent, conn


def measure_ms(fn, n: int, *args) -> list[float]:
    """Call ``fn(*args)`` ``n`` times; per-call wall time in milliseconds."""
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        fn(*args)
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def write_bench_json(name: str, series: dict[str, list[float]],
                     extra: dict | None = None) -> str:
    """Write ``BENCH_<name>.json`` capturing full latency summaries
    (mean/median/p95/p99/max) per series, next to the repo root."""
    payload = {"bench": name, "series": {}}
    for label, samples_ms in series.items():
        payload["series"][label] = summarize(samples_ms).as_dict()
    if extra:
        payload.update(extra)
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


def print_series(title: str, rows: list[tuple], headers: tuple) -> None:
    """Print a small aligned table (the 'figure series' of each bench)."""
    rendered = [tuple(str(value) for value in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    print(f"\n[{title}]")
    print("  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rendered:
        print("  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
