"""E-PERF2: the hot-path overhaul — plan cache, index scans, coalescing.

Six series quantify each layer of the PR:

1/2. The same parse-heavy batch repeated with the plan cache force-off
     vs force-on.  The cached path must be >= 1.3x faster at the median
     (``tools/check_hotpath.py`` gates the artifact in CI).
3/4. A point SELECT against a populated table with no index vs an
     equality index (the planner's index-selection rule).
5.   An active insert whose table carries TWO primitive events on the
     same (table, operation): the generated trigger coalesces both
     segments into one datagram, so the agent decodes/locks once.
6.   A composite rule fired repeatedly: the ``sysContext`` refresh the
     action handler generates per firing uses ``@eca_vno<i>`` parameter
     slots instead of inlined occurrence numbers, so its batch *text*
     is constant across firings and the rule-origin cache hit rate must
     be as healthy as the client-origin one (it languished near 0.45
     when every firing inlined a fresh ``vNo`` literal).

Join and aggregate latency over larger tables is the perf ledger's
``sql_scan`` workload (``python3 -m benchmarks.ledger``:
``client.op.join_p50_us``, ``client.op.agg_p50_us``).

The artifact ``BENCH_hotpath.json`` also records the plan-cache stats
(with per-origin hit rates), index-scan totals, and coalescing counters
each series produced.
"""

from _helpers import (
    LATENCY_HEADERS,
    agent_stack,
    direct_stack,
    latency_row,
    measure_ms,
    print_series,
    write_bench_json,
)
from repro.obs import summarize

#: One parse-heavy batch, re-issued verbatim — the plan cache's best case
#: and exactly what the agent's generated SQL does to the engine.
HOT_BATCH = "\n".join([
    "select symbol, price, qty from stock where symbol = 'S1'",
    "select symbol from stock where symbol in ('S1', 'S2', 'S3')",
    "update stock set price = price + 0.25 where symbol = 'S2'",
    "select symbol, qty from stock where qty >= 0 and symbol = 'S3'",
    "select symbol, price from stock where symbol = 'S4'",
    "delete stock where symbol = 'S999'",
])

POINT_SELECT = "select symbol, price, qty from stock where symbol = 'S777'"

TABLE_ROWS = 2000


def _cached_stack(enabled: bool):
    """A direct stack, plan cache forced on/off, stock indexed + seeded."""
    server, conn = direct_stack()
    server.plan_cache.enabled = enabled
    server.plan_cache.clear()
    conn.execute("create index idx_symbol on stock (symbol)")
    for i in range(8):
        conn.execute(f"insert stock values ('S{i}', {i}.0, {i})")
    return server, conn


def _scan_stack(indexed: bool):
    """A direct stack with a populated table, optionally indexed."""
    server, conn = direct_stack()
    if indexed:
        conn.execute("create index idx_symbol on stock (symbol)")
    batch = "\n".join(
        f"insert stock values ('S{i}', {i % 97}.0, {i})"
        for i in range(TABLE_ROWS))
    conn.execute(batch)
    conn.execute(POINT_SELECT)  # build the index outside the timed loop
    return server, conn


def _coalesced_stack():
    """An agent stack with two primitive events on (stock, insert)."""
    server, agent, conn = agent_stack()
    conn.execute(
        "create trigger t_a on stock for insert event evA as print 'a'")
    conn.execute(
        "create trigger t_b on stock for insert event evB as print 'b'")
    return server, agent, conn


def _rule_firing_stack():
    """An agent stack with a composite rule whose action joins contexts.

    Every ``^`` detection makes the action handler emit the sysContext
    refresh + procedure call — the generated, rule-origin hot path the
    parameter-slot keying exists for.
    """
    server, agent, conn = agent_stack()
    conn.execute(
        "create trigger t_add on stock for insert event hpAdd as print 'a'")
    conn.execute(
        "create trigger t_del on stock for delete event hpDel as print 'd'")
    conn.execute(
        "create trigger t_pair\n"
        "event hpPair = hpDel ^ hpAdd\n"
        "RECENT\n"
        "as\n"
        "select symbol from stock.inserted")
    return server, agent, conn


def _fire_rule(conn, state=[0]):
    """One insert+delete pair — raises both primitives, fires the rule."""
    state[0] += 1
    conn.execute(f"insert stock values ('R{state[0]}', 1.0, {state[0]})")
    conn.execute(f"delete stock where symbol = 'R{state[0]}'")


def test_hotpath_series(benchmark):
    server_off, conn_off = _cached_stack(enabled=False)
    server_on, conn_on = _cached_stack(enabled=True)
    server_scan, conn_scan = _scan_stack(indexed=False)
    server_idx, conn_idx = _scan_stack(indexed=True)
    server_act, agent, conn_act = _coalesced_stack()
    server_rule, agent_rule, conn_rule = _rule_firing_stack()

    conn_on.execute(HOT_BATCH)  # warm: the one unavoidable miss
    _fire_rule(conn_rule)  # warm: the refresh/proc batches' first miss

    series = {
        "1 repeated batch, plan cache off": measure_ms(
            conn_off.execute, 300, HOT_BATCH),
        "2 repeated batch, plan cache on": measure_ms(
            conn_on.execute, 300, HOT_BATCH),
        "3 point select, full scan": measure_ms(
            conn_scan.execute, 200, POINT_SELECT),
        "4 point select, indexed": measure_ms(
            conn_idx.execute, 200, POINT_SELECT),
        "5 active insert, 2 events coalesced": measure_ms(
            conn_act.execute, 200, "insert stock values ('X', 1.0, 1)"),
        "6 composite rule firing, slotted refresh": measure_ms(
            _fire_rule, 100, conn_rule),
    }

    off_p50 = summarize(series["1 repeated batch, plan cache off"]).p50
    on_p50 = summarize(series["2 repeated batch, plan cache on"]).p50
    scan_p50 = summarize(series["3 point select, full scan"]).p50
    idx_p50 = summarize(series["4 point select, indexed"]).p50

    rows = [latency_row(label, samples) for label, samples in series.items()]
    print_series("E-PERF2 hot-path overhaul", rows, LATENCY_HEADERS)
    print(f"\n[plan cache]  off p50 {off_p50:.3f}ms / on p50 {on_p50:.3f}ms "
          f"= {off_p50 / on_p50:.2f}x speedup "
          f"(hit rate {server_on.plan_cache.hit_rate:.3f})")
    print(f"[index scan]  full {scan_p50:.3f}ms / indexed {idx_p50:.3f}ms "
          f"= {scan_p50 / idx_p50:.2f}x speedup "
          f"({server_idx.index_scans} indexed scans)")
    print(f"[coalescing]  {agent.notifier.coalesced_payloads} payloads "
          f"carried {agent.notifier.coalesced_events} events")
    rule_origins = server_rule.plan_cache.stats()["origins"]
    rule_hit_rate = rule_origins.get("rule", {}).get("hit_rate", 0.0)
    print(f"[rule origin] cache hit rate {rule_hit_rate:.3f} "
          f"({rule_origins})")

    write_bench_json("hotpath", series, extra={
        "plan_cache": {
            "off": server_off.plan_cache.stats(),
            "on": server_on.plan_cache.stats(),
            "speedup_p50": round(off_p50 / on_p50, 4),
            "rule_origin": rule_origins,
        },
        "index": {
            "scan_p50_ms": round(scan_p50, 4),
            "indexed_p50_ms": round(idx_p50, 4),
            "index_scans": server_idx.index_scans,
            "speedup_p50": round(scan_p50 / idx_p50, 4),
        },
        "coalescing": {
            "payloads": agent.notifier.coalesced_payloads,
            "events": agent.notifier.coalesced_events,
            "received": agent.notifier.received,
        },
    })

    # Sanity (the hard >= 1.3x gate lives in tools/check_hotpath.py,
    # where CI can tune it for noisy runners):
    assert server_on.plan_cache.hit_rate > 0.9
    assert server_off.plan_cache.hits == 0
    # The parameter-slot keying of the generated sysContext refresh must
    # keep rule-origin SQL as cacheable as client-origin SQL (it sat
    # near 0.45 when occurrence numbers were inlined as literals).
    assert rule_hit_rate > 0.9, rule_origins
    assert idx_p50 < scan_p50
    assert agent.notifier.coalesced_events == 2 * agent.notifier.coalesced_payloads
    benchmark(lambda: None)


def test_cached_batch(benchmark):
    _server, conn = _cached_stack(enabled=True)
    conn.execute(HOT_BATCH)
    benchmark(conn.execute, HOT_BATCH)


def test_uncached_batch(benchmark):
    _server, conn = _cached_stack(enabled=False)
    benchmark(conn.execute, HOT_BATCH)


def test_indexed_point_select(benchmark):
    _server, conn = _scan_stack(indexed=True)
    benchmark(conn.execute, POINT_SELECT)
