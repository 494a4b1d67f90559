"""Pipeline tracing: the Figure 3/4 steps become observable records."""

import pytest

from repro.obs import tracing as trace_mod


@pytest.fixture
def traced(agent, astock):
    agent.trace.enabled = True
    agent.trace.clear()
    return astock


class TestFig3Trace:
    def test_eca_definition_walks_the_steps_in_order(self, traced, agent):
        traced.execute(
            "create trigger t on stock for insert event ev as print 'x'")
        steps = agent.trace.steps()
        expected_order = [
            trace_mod.FIG3_COMMAND_RECEIVED,
            trace_mod.FIG3_CLASSIFIED_ECA,
            trace_mod.FIG3_GRAPH_CREATED,
            trace_mod.FIG3_SQL_INSTALLED,
            trace_mod.FIG3_PERSISTED,
        ]
        positions = [steps.index(step) for step in expected_order]
        assert positions == sorted(positions)

    def test_plain_sql_only_passes_through(self, traced, agent):
        traced.execute("select * from stock")
        steps = agent.trace.steps()
        assert trace_mod.FIG3_PASSED_THROUGH in steps
        assert trace_mod.FIG3_CLASSIFIED_ECA not in steps

    def test_detail_carries_object_names(self, traced, agent):
        traced.execute(
            "create trigger t on stock for insert event ev as print 'x'")
        persisted = agent.trace.matching("fig3.7")
        details = [record.detail for record in persisted]
        assert "sentineldb.sharma.ev" in details
        assert "sentineldb.sharma.t" in details


class TestFig4Trace:
    def test_notification_to_action_chain(self, traced, agent):
        traced.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        traced.execute(
            "create trigger t2 on stock for delete event e2 as print '2'")
        traced.execute(
            "create trigger tc event c = e1 AND e2 as print 'c'")
        agent.trace.clear()
        traced.execute("insert stock values ('A', 1, 1)")
        traced.execute("delete stock")
        steps = agent.trace.steps()
        notify = steps.index(trace_mod.FIG4_NOTIFIED)
        action = steps.index(trace_mod.FIG4_ACTION_RUN)
        routed = steps.index(trace_mod.FIG4_RESULTS_ROUTED)
        assert notify < action < routed

    def test_notification_payload_recorded(self, traced, agent):
        traced.execute(
            "create trigger t on stock for insert event ev as print 'x'")
        agent.trace.clear()
        traced.execute("insert stock values ('A', 1, 1)")
        notified = agent.trace.matching("fig4.2")
        assert len(notified) == 1
        assert "sentineldb.sharma.ev" in notified[0].detail


class TestTraceMachinery:
    def test_disabled_by_default_and_free(self, agent, astock):
        astock.execute(
            "create trigger t on stock for insert event ev as print 'x'")
        assert agent.trace.records == []

    def test_bounded_buffer(self):
        buffer = trace_mod.PipelineTrace(enabled=True, capacity=100)
        for index in range(250):
            buffer.emit("step", str(index))
        assert len(buffer.records) <= 100
        # Oldest records were evicted, newest kept.
        assert buffer.records[-1].detail == "249"

    def test_format_renders_rows(self):
        buffer = trace_mod.PipelineTrace(enabled=True)
        buffer.emit("stepA", "detail1")
        text = buffer.format()
        assert "stepA" in text and "detail1" in text

    def test_clear(self):
        buffer = trace_mod.PipelineTrace(enabled=True)
        buffer.emit("x")
        buffer.clear()
        assert buffer.records == []
