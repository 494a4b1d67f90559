"""E2E: the operator introspection commands through the gateway.

``show agent stats`` / ``show agent trace`` / ``reset agent stats`` are
ordinary commands a client sends over its existing connection — the
Language Filter intercepts them (the agent's ``sp_monitor`` analogue),
so the DBMS engine never sees them.
"""

import pytest

from repro.agent import AgentError

EX_ADD = (
    "create trigger t_add on stock for insert event addStk as print 'add'")
EX_DEL = (
    "create trigger t_del on stock for delete event delStk as print 'del'")
EX_AND = (
    "create trigger t_and event addDel = delStk ^ addStk RECENT\n"
    "as print 'composite'")


def _counter(result, metric, labels):
    """Value of one counter row in a ``show agent stats`` result."""
    for row in result.result_sets[0].as_dicts():
        if row["metric"] == metric and row["labels"] == labels:
            return row["value"]
    raise AssertionError(
        f"no counter row {metric}{{{labels}}} in:\n"
        + result.result_sets[0].format_table())


def _latency(result, metric, labels=""):
    """The latency-summary row for one histogram child."""
    for row in result.result_sets[1].as_dicts():
        if row["metric"] == metric and row["labels"] == labels:
            return row
    raise AssertionError(
        f"no latency row {metric}{{{labels}}} in:\n"
        + result.result_sets[1].format_table())


@pytest.fixture
def active(astock):
    """A mediated connection with stats+trace on and a workload executed:
    two primitive events, one RECENT composite, inserts and a delete."""
    astock.execute("set agent stats on")
    astock.execute("set agent trace on")
    astock.execute(EX_ADD)
    astock.execute(EX_DEL)
    astock.execute(EX_AND)
    astock.execute("insert stock values ('IBM', 101.5, 10)")
    astock.execute("delete stock where symbol = 'IBM'")
    return astock


class TestShowAgentStats:
    def test_commands_classified_eca_vs_passthrough(self, active):
        result = active.execute("show agent stats")
        assert _counter(result, "agent_commands_total", "kind=eca") == 3
        # stock DDL happened before stats were enabled; the two DML
        # statements and this very command's predecessors passed through.
        assert _counter(
            result, "agent_commands_total", "kind=passthrough") == 2
        assert _counter(result, "agent_commands_total", "kind=admin") >= 1

    def test_eca_commands_by_kind(self, active):
        result = active.execute("show agent stats")
        assert _counter(
            result, "agent_eca_commands_total", "kind=create_primitive") == 2
        assert _counter(
            result, "agent_eca_commands_total", "kind=create_composite") == 1

    def test_events_detected_by_kind_and_context(self, active):
        result = active.execute("show agent stats")
        assert _counter(
            result, "led_events_detected_total",
            "kind=primitive,context=-") == 2
        assert _counter(
            result, "led_events_detected_total",
            "kind=composite,context=RECENT") == 1

    def test_rules_fired_and_actions_executed(self, active):
        result = active.execute("show agent stats")
        assert _counter(
            result, "led_rules_fired_total", "coupling=IMMEDIATE") == 1
        assert _counter(result, "agent_actions_total", "status=ok") == 1

    def test_sql_statements_by_type(self, active):
        # Folded from closed command frames, which carry no statement
        # type: one unlabeled total covering the insert and the delete.
        result = active.execute("show agent stats")
        assert _counter(result, "sql_statements_total", "") >= 2

    def test_latency_summaries_present(self, active):
        result = active.execute("show agent stats")
        row = _latency(result, "agent_command_seconds", "kind=eca")
        assert row["count"] == 3
        assert 0 <= row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
        assert row["max_ms"] >= row["p99_ms"]
        assert _latency(result, "agent_notification_seconds")["count"] == 2

    def test_stats_off_returns_data_with_warning(self, astock):
        result = astock.execute("show agent stats")
        assert any("set agent stats on" in m for m in result.messages)


class TestShowAgentTrace:
    def test_trace_shows_span_tree(self, active):
        result = active.execute("show agent trace 200")
        steps = result.result_sets[0].column_values("step")
        stripped = [step.strip() for step in steps]
        assert "fig3.3:classified-eca" in stripped
        assert "eca:parse" in stripped
        assert "eca:codegen" in stripped
        assert "fig4.2-3:notification-received" in stripped
        assert "fig4.4:led-detected" in stripped
        assert "rule:action" in stripped
        # nesting is visible as indentation
        assert any(step.startswith("  ") for step in steps)

    def test_trace_row_limit(self, active):
        result = active.execute("show agent trace 3")
        assert len(result.result_sets[0]) == 3

    def test_trace_off_warns(self, astock):
        result = astock.execute("show agent trace")
        assert any("set agent trace on" in m for m in result.messages)


class TestResetAndToggle:
    def test_reset_agent_stats_zeroes_counters(self, active):
        active.execute("reset agent stats")
        result = active.execute("show agent stats")
        # only the reset itself and this show have been counted since
        assert _counter(result, "agent_commands_total", "kind=admin") == 1

    def test_reset_agent_trace_clears_buffer(self, active):
        active.execute("reset agent trace")
        result = active.execute("show agent trace")
        steps = result.result_sets[0].column_values("step")
        assert all("fig3.3" not in step for step in steps)

    def test_set_agent_stats_off_stops_counting(self, active):
        active.execute("set agent stats off")
        before = active.endpoint.commands_total
        active.execute("select * from stock")
        result = active.execute("show agent stats")
        assert active.endpoint.commands_total == before + 2
        assert _counter(
            result, "agent_commands_total", "kind=passthrough") == 2

    def test_show_agent_status(self, active):
        result = active.execute("show agent status")
        status = dict(result.result_sets[0].rows)
        assert status["stats"] == "on"
        assert status["trace"] == "on"
        assert status["trace_records"] > 0


class TestShowAgentCache:
    def test_counters_and_index_listing(self, active):
        server = active.endpoint.agent.server
        server.plan_cache.enabled = True
        active.execute("select * from stock")
        active.execute("select * from stock")
        result = active.execute("show agent cache")
        summary = dict(result.result_sets[0].rows)
        assert summary["plan_cache"] == "on"
        assert summary["plan_cache_hits"] >= 1
        assert summary["plan_cache_size"] >= 1
        assert summary["schema_epoch"] == server.catalog.schema_epoch
        # system-table auto-indexes appear in the listing
        indexes = result.result_sets[2]
        assert indexes.columns == [
            "table", "index", "column", "unique", "rebuilds"]
        names = [row[1] for row in indexes.rows]
        assert any(name.startswith("ECA_") for name in names)

    def test_cached_entries_show_kind_and_hits(self, active):
        server = active.endpoint.agent.server
        server.plan_cache.enabled = True
        for _ in range(3):
            active.execute("select * from stock")
        result = active.execute("show agent cache")
        entries = result.result_sets[1]
        assert entries.columns == ["statement", "kind", "hits"]
        by_text = {row[0]: (row[1], row[2]) for row in entries.rows}
        kind, hits = by_text["select * from stock"]
        # executed 3x: first populates, later runs hit the text entry;
        # the planner memoizes the optimized DAG, so the entry is a plan
        assert kind == "plan"
        assert hits >= 2
        assert all(row[1] in ("plan", "parse") for row in entries.rows)

    def test_cached_entry_text_is_clipped(self, active):
        server = active.endpoint.agent.server
        server.plan_cache.enabled = True
        padding = " or symbol = 'X'" * 20
        active.execute(f"select * from stock where symbol = 'A'{padding}")
        result = active.execute("show agent cache")
        entries = result.result_sets[1]
        assert all(len(row[0]) <= 80 for row in entries.rows)
        assert any(row[0].endswith("...") for row in entries.rows)

    def test_row_limit_and_truncation_notice(self, active):
        server = active.endpoint.agent.server
        server.plan_cache.enabled = True
        active.execute("select * from stock")
        active.execute("select 1")
        result = active.execute("show agent cache 1")
        assert len(result.result_sets[1]) == 1
        assert len(result.result_sets[2]) == 1
        assert any("cached batches" in m for m in result.messages)
        assert any("indexes" in m for m in result.messages)

    def test_count_clamped_to_one(self, active):
        result = active.execute("show agent cache -5")
        assert len(result.result_sets[2]) == 1

    def test_bad_count_answered_not_raised(self, active):
        result = active.execute("show agent cache nope")
        assert result.result_sets[0].columns == ["error"]
        assert "row count" in result.result_sets[0].rows[0][0]

    def test_reset_agent_cache(self, active):
        server = active.endpoint.agent.server
        server.plan_cache.enabled = True
        active.execute("select * from stock")
        active.execute("select * from stock")
        active.execute("reset agent cache")
        stats = server.plan_cache.stats()
        assert stats["size"] == 0
        assert stats["hits"] == 0
        assert server.index_scans == 0

    def test_coalescing_counters_surface(self, active):
        # EX_ADD and EX_DEL watch different operations, so this insert
        # notifies one event per datagram: no coalescing yet, but the
        # counters exist and read zero.
        result = active.execute("show agent cache")
        summary = dict(result.result_sets[0].rows)
        assert summary["coalesced_payloads"] == 0
        assert summary["coalesced_events"] == 0
        # A second event on (stock, insert): each insert now sends one
        # datagram carrying both events.
        active.execute(
            "create trigger t_add2 on stock for insert event addStk2 "
            "as print 'add2'")
        for _ in range(3):
            active.execute("insert stock values ('IBM', 101.5, 10)")
        summary = dict(active.execute("show agent cache").result_sets[0].rows)
        assert summary["coalesced_payloads"] == 3
        assert summary["coalesced_events"] == 2 * summary["coalesced_payloads"]


class TestErrors:
    def test_unknown_agent_command_raises_usage(self, astock):
        with pytest.raises(AgentError, match="show agent stats"):
            astock.execute("show agent blimey")

    def test_admin_commands_do_not_reach_the_engine(self, astock):
        before = astock.endpoint.commands_passed_through
        astock.execute("show agent status")
        assert astock.endpoint.commands_passed_through == before

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_slowlog_threshold_is_refused(self, astock, value):
        """Regression: ``nan`` passed the ``< 0`` check and armed a
        recorder that could never fire (``duration >= nan`` is never
        true) while every command paid for the armed slow plane."""
        events = astock.endpoint.agent.events
        result = astock.execute(f"set agent slowlog {value}")
        [result_set] = result.result_sets
        assert result_set.columns == ["error"]
        assert "threshold" in result_set.rows[0][0]
        assert events.slow_ms is None
        assert events.planes == 0
