"""E2E: the runtime health plane through the gateway admin surface.

``show agent top`` (who is expensive), ``show agent slow`` (what was
slow), and ``show agent health`` (is the agent ok) are ordinary
commands over the client's existing connection, like the rest of the
``show agent ...`` family.
"""

import pytest

EX_ADD = (
    "create trigger t_add on stock for insert event addStk as print 'add'")
EX_DEL = (
    "create trigger t_del on stock for delete event delStk as print 'del'")
EX_AND = (
    "create trigger t_and event addDel = delStk ^ addStk RECENT\n"
    "as print 'composite'")


@pytest.fixture
def active(astock):
    """A mediated connection with the Example 2 rules loaded and a
    workload that fires the composite (so a rule action has run)."""
    astock.execute(EX_ADD)
    astock.execute(EX_DEL)
    astock.execute(EX_AND)
    astock.execute("insert stock values ('IBM', 100, 10)")
    astock.execute("delete stock where symbol = 'IBM'")
    return astock


def _rows(result, index=0):
    return result.result_sets[index].rows


def _error_of(result):
    [result_set] = result.result_sets
    assert result_set.columns == ["error"]
    [[message]] = result_set.rows
    return message


# ----------------------------------------------------------------------
# show agent top

def test_top_rules_charges_the_composite_action(active):
    result = active.execute("show agent top rules 5")
    [result_set] = result.result_sets
    assert result_set.columns[0] == "rule"
    by_rule = {row[0]: row for row in result_set.rows}
    row = by_rule["sentineldb.sharma.t_and"]
    assert row[result_set.columns.index("actions")] == 1
    assert row[result_set.columns.index("errors")] == 0
    assert row[result_set.columns.index("action_ms")] > 0


def test_top_sessions_accounts_the_client_connection(active):
    result = active.execute("show agent top sessions 5")
    [result_set] = result.result_sets
    [row] = result_set.rows
    columns = result_set.columns
    assert row[columns.index("user")] == "sharma"
    assert row[columns.index("commands")] >= 5
    assert row[columns.index("sql_statements")] >= 5
    # The session pays for the composite action it triggered.
    assert row[columns.index("actions")] == 1


def test_top_without_scope_shows_both_result_sets(active):
    result = active.execute("show agent top")
    assert len(result.result_sets) == 2
    assert result.result_sets[0].columns[0] == "rule"
    assert result.result_sets[1].columns[0] == "session"


def test_top_count_is_clamped_and_validated(active):
    assert _rows(active.execute("show agent top sessions 9999"))
    message = _error_of(active.execute("show agent top rules abc"))
    assert "row count" in message
    message = _error_of(active.execute("show agent top bogus"))
    assert "row count" in message


def test_top_reports_when_accounting_is_off(active):
    active.execute("set agent accounting off")
    result = active.execute("show agent top")
    assert any("accounting is off" in m for m in result.messages)
    active.execute("set agent accounting on")


def test_reset_accounting_clears_totals(active):
    active.execute("reset agent accounting")
    result = active.execute("show agent top rules 5")
    # The reset command itself opens a fresh frame, so sessions may
    # reappear immediately — rules only return with new firings.
    assert _rows(result) == []


# ----------------------------------------------------------------------
# show agent slow / set agent slowlog

def test_slowlog_captures_and_disarms(active):
    active.execute("set agent slowlog 0")
    active.execute("insert stock values ('T', 1, 1)")
    result = active.execute("show agent slow 5")
    [result_set] = result.result_sets
    columns = result_set.columns
    statements = [row[columns.index("statement")] for row in result_set.rows]
    assert "insert stock values ('T', 1, 1)" in statements
    row = result_set.rows[
        statements.index("insert stock values ('T', 1, 1)")]
    assert row[columns.index("kind")] == "passthrough"
    assert row[columns.index("duration_ms")] >= 0
    assert row[columns.index("user")] == "sharma"

    off = active.execute("set agent slowlog off")
    assert any("disarmed" in m for m in off.messages)
    result = active.execute("show agent slow")
    assert any("disarmed" in m for m in result.messages)


def test_slowlog_captures_the_statements_plan(active):
    active.execute("set agent slowlog 0")
    active.execute("select * from stock where symbol = 'T'")
    active.execute("show agent status")
    result = active.execute("show agent slow 10")
    active.execute("set agent slowlog off")
    [result_set] = result.result_sets
    columns = result_set.columns
    assert "plan" in columns
    by_statement = {row[columns.index("statement")]: row
                    for row in result_set.rows}
    plan = by_statement["select * from stock where symbol = 'T'"][
        columns.index("plan")]
    assert plan is not None and "Scan stock" in plan
    # admin commands have no plannable SQL: the column stays NULL
    admin_plan = by_statement["show agent status"][columns.index("plan")]
    assert admin_plan is None


def test_slow_records_carry_the_threshold_they_were_judged_against(active):
    """Regression: the gateway snapshots the threshold before routing,
    but the recorder used to re-read its *current* threshold at capture
    time — so the command that re-armed the recorder at 5000 ms was
    stored as ``duration 0.01 ms >= threshold 5000 ms``, and the one
    that disarmed it only read 0.0 by accident."""
    for command in ("set agent slowlog 0",      # arm
                    "insert stock values ('T', 1, 1)",
                    "set agent slowlog 5000",   # re-arm: judged against 0
                    "select * from stock",      # fast: not captured
                    "set agent slowlog 0",      # judged against 5000: not
                    "set agent slowlog off",    # disarm: judged against 0
                    "select * from stock"):     # disarmed: not captured
        active.execute(command)
    result = active.execute("show agent slow 50")
    [result_set] = result.result_sets
    columns = result_set.columns
    captured = {row[columns.index("statement")]: row
                for row in result_set.rows}
    assert set(captured) == {
        "insert stock values ('T', 1, 1)", "set agent slowlog 5000",
        "set agent slowlog off"}
    for row in result_set.rows:
        assert (row[columns.index("duration_ms")]
                >= row[columns.index("threshold_ms")]), row
        assert row[columns.index("threshold_ms")] == 0.0


def test_slowlog_validation(active):
    message = _error_of(active.execute("set agent slowlog -5"))
    assert ">= 0" in message
    message = _error_of(active.execute("set agent slowlog nope"))
    assert "threshold" in message


def test_reset_slow_clears_the_ring(active):
    active.execute("set agent slowlog 0")
    active.execute("insert stock values ('T', 1, 1)")
    active.execute("reset agent slow")
    active.execute("set agent slowlog off")
    result = active.execute("show agent slow 5")
    assert any("disarmed" in m for m in result.messages)


def test_slow_count_is_validated(active):
    active.execute("set agent slowlog 0")
    message = _error_of(active.execute("show agent slow abc"))
    assert "row count" in message
    active.execute("set agent slowlog off")


# ----------------------------------------------------------------------
# show agent health

def test_health_is_ok_on_a_clean_workload(active):
    result = active.execute("show agent health")
    status_set, findings_set, sample_set = result.result_sets
    assert status_set.rows == [["ok"]]
    rules = {row[0] for row in findings_set.rows}
    assert "plan-cache-hit-rate" in rules
    assert "notification-backlog" in rules
    statuses = {row[2] for row in findings_set.rows}
    assert statuses <= {"ok", "skipped"}
    samples = {row[0] for row in sample_set.rows}
    assert "actions_total" in samples
    assert "notification_backlog" in samples


def test_health_is_never_critical_under_a_mixed_workload(active):
    """Metrics on, slowlog armed at 250 ms, 50 rounds of inserts,
    deletes and repeated reads that raise both primitives and the
    composite: no watchdog rule may report ``critical``."""
    agent = active.endpoint.agent
    agent.metrics.enabled = True
    active.execute("set agent slowlog 250")
    for index in range(50):
        active.execute("insert stock values ('IBM', 100, 10)")
        active.execute("select symbol, price from stock")
        active.execute("select symbol from stock where qty = 10")
        active.execute("select qty from stock")
        if index % 5 == 4:
            active.execute("delete stock where symbol = 'IBM'")
    report = agent.health()
    assert report.status != "critical", [
        (finding.rule, finding.status, finding.value)
        for finding in report.findings]


def test_health_is_deterministic(active):
    first = active.execute("show agent health")
    second = active.execute("show agent health")
    assert (first.result_sets[0].rows == second.result_sets[0].rows)
    assert ([row[:3] for row in first.result_sets[1].rows]
            == [row[:3] for row in second.result_sets[1].rows])


# ----------------------------------------------------------------------
# status / cache / stats surfaces

def test_status_reports_health_plane_state(active):
    rows = dict((row[0], row[1])
                for row in _rows(active.execute("show agent status")))
    assert rows["accounting"] == "on"
    assert int(rows["accounted_sessions"]) >= 1
    assert rows["slowlog_ms"] == "off"
    active.execute("set agent slowlog 2.5")
    rows = dict((row[0], row[1])
                for row in _rows(active.execute("show agent status")))
    assert rows["slowlog_ms"] == 2.5
    active.execute("set agent slowlog off")


def test_cache_splices_origin_rows(active):
    rows = dict((row[0], row[1])
                for row in _rows(active.execute("show agent cache")))
    if rows["plan_cache"] == "on":
        assert "plan_cache_client_hits" in rows
        assert "plan_cache_client_hit_rate" in rows
        total = rows["plan_cache_hits"] + rows["plan_cache_misses"]
        by_origin = sum(
            rows.get(f"plan_cache_{origin}_{outcome}", 0)
            for origin in ("client", "rule", "system")
            for outcome in ("hits", "misses"))
        assert by_origin == total
    else:
        assert "plan_cache_client_hits" not in rows


def test_rule_origin_sql_stays_cacheable(active):
    """Over 20 repeated ``^`` firings the generated (rule-origin) SQL
    hits the plan cache: the per-firing ``sysContext`` refresh binds
    occurrence numbers through ``@eca_vno<i>`` slots, so its text
    repeats.  The rate sat near 0.45 when every firing inlined a fresh
    ``vNo`` literal."""
    agent = active.endpoint.agent
    server = agent.server
    server.plan_cache.enabled = True
    server.plan_cache.clear()

    def and_firings():
        return sum(firing.rule_name.endswith("t_and")
                   for firing in agent.firing_history())

    before = and_firings()
    for index in range(20):
        active.execute(f"insert stock values ('R{index}', 1.0, {index})")
        active.execute(f"delete stock where symbol = 'R{index}'")
    assert and_firings() - before >= 20
    rule = server.plan_cache.stats()["origins"]["rule"]
    assert rule["hit_rate"] > 0.9, rule


def test_stats_top_truncates_to_n(active):
    active.execute("set agent stats on")
    active.execute("insert stock values ('T', 2, 1)")
    result = active.execute("show agent stats top 2")
    counters, latencies = result.result_sets
    assert len(counters.rows) <= 2
    assert len(latencies.rows) <= 2
    # Rows come ordered by count, so the top row dominates.
    if len(counters.rows) == 2:
        assert counters.rows[0][2] >= counters.rows[1][2]
    message = _error_of(active.execute("show agent stats top zero"))
    assert "row count" in message


def test_slow_op_captures_only_its_own_commands_records():
    """Regression: the capture used to slice two shared logs by position
    (everything recorded since the command's marks), so under a worker
    pool a slow command stored whatever *other sessions* recorded while
    it ran — and, past the 200-span cap, none of its own.  Records are
    now found by the command's id."""
    import threading

    from repro.agent import EcaAgent
    from repro.obs.tracing import FIG3_COMMAND_RECEIVED
    from repro.sqlengine import SqlServer

    agent = EcaAgent(SqlServer(default_database="sentineldb"), workers=2)
    try:
        quiet = agent.connect(user="sharma", database="sentineldb")
        noisy = agent.connect(user="sharma", database="sentineldb")
        for sql in ("create table stock (symbol varchar(10), qty int)",
                    EX_ADD, EX_DEL,
                    "create trigger t_and event addDel = delStk ^ addStk "
                    "RECENT\nas waitfor delay '00:00:00.3'",
                    "insert stock values ('IBM', 1)",
                    "set agent trace on", "set agent provenance on",
                    "set agent slowlog 100"):
            quiet.execute(sql)
        done = threading.Event()
        chatter = []

        def chat():
            # admin commands never touch the engine, so they run (and
            # record spans) while the slow command holds its locks
            while not done.is_set():
                noisy.execute("show agent workers")
                chatter.append(1)

        thread = threading.Thread(target=chat)
        thread.start()
        try:
            # completes the composite, whose action takes 300 ms
            slow = "delete stock where symbol = 'IBM'"
            quiet.execute(slow)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and len(chatter) > 50
        [op] = [op for op in agent.flightrec.tail(50)
                if op.attrs["statement"] == slow]
        spans, hops = op.attrs["spans"], op.attrs["provenance"]
        assert op.trace_id is not None
        assert spans and {span.trace_id for span in spans} == {op.trace_id}
        assert hops and {hop.trace_id for hop in hops} == {op.trace_id}
        assert (spans[0].step, spans[0].detail) == (
            FIG3_COMMAND_RECEIVED, slow)
        assert "action" in {hop.kind for hop in hops}
        # ... and nothing of the noisy session rode along
        assert not any("show agent" in span.detail for span in spans)
    finally:
        agent.close()
