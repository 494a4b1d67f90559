"""End-to-end trace-context propagation (the PR's acceptance scenario).

One client command submitted through the pooled gateway queues, runs on
a worker, raises a primitive event, completes a composite, and fires two
DETACHED rule actions on their own threads — and every span of that
journey must land in ONE connected tree under the command's trace id,
with the same id correlated across telemetry JSONL, the flight
recorder, histogram exemplars, ``show agent trace <id>``, and
``explain trigger``.
"""

import json

import pytest

from repro.agent import EcaAgent
from repro.obs import TelemetryExporter
from repro.obs.tracing import FIG4_ACTION_RUN, SPAN_QUEUE_WAIT

STOCK_DDL = (
    "create table stock (symbol varchar(10) not null, "
    "price float null, qty int null)")

INSERT = "insert stock values ('IBM', 1.0, 1)"

RULES = (
    "create trigger t_add on stock for insert event e_add as print 'add'",
    "create trigger t_del on stock for delete event e_del as print 'del'",
    "create trigger t_and event e_both = e_del ^ e_add RECENT as "
    "print 'and fired'",
    "create trigger t_det1 event e_add DETACHED as print 'det one'",
    "create trigger t_det2 event e_add DETACHED as print 'det two'",
)


@pytest.fixture
def traced_stack(server, tmp_path):
    """A 4-worker agent with the composite + two DETACHED rules, every
    correlation surface armed, and a telemetry exporter attached."""
    path = str(tmp_path / "telemetry.jsonl")
    agent = EcaAgent(server, workers=4,
                     exporter=TelemetryExporter(path, max_bytes=0))
    conn = agent.connect(user="sharma", database="sentineldb")
    conn.execute(STOCK_DDL)
    for rule in RULES:
        conn.execute(rule)
    agent.metrics.enabled = True
    agent.trace.enabled = True
    conn.execute("set agent provenance on")
    conn.execute("set agent slowlog 0")
    yield agent, conn, path
    agent.close()


def run_client_command(agent):
    """Submit delete-then-insert through one pooled gateway session and
    wait for every downstream thread; returns the insert's trace id and
    its pinned spans."""
    gateway = agent.gateway
    session = gateway.open_session("sharma", "sentineldb")
    gateway.submit_for(session, "delete stock").result()
    gateway.submit_for(session, INSERT).result()
    agent.action_handler.join_detached()
    agent.drain()
    session.closed = True
    for trace_id in agent.trace.trace_ids():
        spans = agent.trace.spans_for(trace_id)
        if spans and spans[0].parent is None \
                and spans[0].detail.startswith("insert stock"):
            return trace_id, spans
    raise AssertionError("no trace rooted at the insert command")


class TestOneConnectedTree:
    def test_single_root_no_orphans(self, traced_stack):
        agent, _conn, _path = traced_stack
        trace_id, spans = run_client_command(agent)
        roots = [s for s in spans if s.parent is None]
        assert len(roots) == 1
        seqs = {s.seq for s in spans}
        orphans = [s for s in spans
                   if s.parent is not None and s.parent not in seqs]
        assert orphans == []
        assert all(s.trace_id == trace_id for s in spans)

    def test_tree_has_queue_wait_and_two_action_spans(self, traced_stack):
        agent, _conn, _path = traced_stack
        _trace_id, spans = run_client_command(agent)
        steps = [s.step for s in spans]
        assert SPAN_QUEUE_WAIT in steps
        # the two DETACHED actions (plus any IMMEDIATE ones) ran on
        # other threads yet still belong to this command's tree
        assert steps.count(FIG4_ACTION_RUN) >= 2

    def test_queue_wait_span_is_child_of_root(self, traced_stack):
        agent, _conn, _path = traced_stack
        _trace_id, spans = run_client_command(agent)
        root = spans[0]
        wait = next(s for s in spans if s.step == SPAN_QUEUE_WAIT)
        assert wait.parent == root.seq
        assert wait.duration is not None and wait.duration >= 0


class TestCorrelationSurfaces:
    def test_telemetry_lines_carry_the_trace_id(self, traced_stack):
        agent, _conn, path = traced_stack
        trace_id, _spans = run_client_command(agent)
        agent.export_telemetry(label="test")
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        span_lines = [line for line in lines
                      if line["type"] == "span"
                      and line.get("trace_id") == trace_id]
        assert span_lines
        provenance_lines = [line for line in lines
                            if line["type"] == "provenance"
                            and line.get("trace_id") == trace_id]
        assert provenance_lines

    def test_flight_recorder_entry_carries_the_trace_id(self,
                                                        traced_stack):
        agent, conn, _path = traced_stack
        trace_id, _spans = run_client_command(agent)
        captured = [op.trace_id for op in agent.flightrec.tail(50)]
        assert trace_id in captured
        result = conn.execute("show agent slow 50")
        [rows] = result.result_sets
        column = rows.columns.index("trace_id")
        assert trace_id in [row[column] for row in rows.rows]

    def test_histogram_exemplar_carries_the_trace_id(self, traced_stack):
        agent, _conn, _path = traced_stack
        trace_id, _spans = run_client_command(agent)
        family = agent.metrics.get("agent_command_seconds")
        pinned = [exemplar_id
                  for items in family.labels("passthrough")
                  .exemplars().values()
                  for exemplar_id, _value in items]
        assert trace_id in pinned
        assert f'trace_id="{trace_id}"' in agent.metrics.render_text()


class TestAdminLookup:
    def test_show_agent_trace_renders_the_tree(self, traced_stack):
        agent, conn, _path = traced_stack
        trace_id, spans = run_client_command(agent)
        result = conn.execute(f"show agent trace {trace_id}")
        [rows] = result.result_sets
        assert len(rows.rows) == len(spans)
        step_col = rows.columns.index("step")
        steps = [row[step_col] for row in rows.rows]
        assert any(s.strip() == SPAN_QUEUE_WAIT for s in steps)
        # children are indented below the root
        assert steps[0] == steps[0].lstrip()
        assert any(s != s.lstrip() for s in steps[1:])
        assert any(str(len(spans)) in m for m in result.messages)

    def test_unknown_trace_id_is_an_error_row(self, astock):
        result = astock.execute("show agent trace t999999")
        [rows] = result.result_sets
        assert rows.columns == ["error"]
        assert "t999999" in rows.rows[0][0]

    def test_numeric_argument_still_tails_the_buffer(self, astock):
        astock.execute("set agent trace on")
        astock.execute(INSERT)
        result = astock.execute("show agent trace 3")
        assert result.result_sets[0].columns != ["error"]

    def test_status_reports_store_and_sampling(self, traced_stack):
        agent, conn, _path = traced_stack
        run_client_command(agent)
        status = dict(conn.execute(
            "show agent status").result_sets[0].rows)
        assert status["traces_stored"] >= 1
        assert status["trace_sampling"] == 0


class TestTraceNextSampling:
    def test_window_arms_samples_and_restores(self, astock, agent):
        assert not agent.trace.enabled
        result = astock.execute("trace next 2")
        assert any("next 2" in m for m in result.messages)
        # slot 1: the status command itself is sampled
        status = dict(astock.execute(
            "show agent status").result_sets[0].rows)
        assert status["trace_sampling"] == 1
        astock.execute(INSERT)        # slot 2: last sampled command
        assert agent.trace.enabled    # restore is deferred one command
        astock.execute(INSERT)        # window spent: restores disabled
        assert not agent.trace.enabled
        assert agent.trace.trace_count() >= 2

    def test_validation(self, astock):
        for bad in ("trace next", "trace next 0", "trace next abc"):
            result = astock.execute(bad)
            assert result.result_sets[0].columns == ["error"]


class TestExplainTriggerLineage:
    def test_detached_action_links_back_to_client_command(self,
                                                          traced_stack):
        agent, conn, _path = traced_stack
        trace_id, _spans = run_client_command(agent)
        summary = dict(conn.execute(
            "explain trigger t_det1").result_sets[0].rows)
        assert summary["last_trace"] == trace_id
        # the composite's IMMEDIATE action ran inside the same command
        summary = dict(conn.execute(
            "explain trigger t_and").result_sets[0].rows)
        assert summary["last_trace"] == trace_id


def test_hostile_trace_trailer_is_dropped_but_the_event_still_raises(
        agent, astock):
    """A forged ``;tc=`` token (the channel is a network boundary) must
    not size an indentation — and must not cost the notification."""
    astock.execute(RULES[0])
    astock.execute(
        "create trigger t_far event e_add DEFERRED as print 'far'")
    agent.trace.enabled = True
    before = len(agent.firing_history())
    for token in ("t1:1:1000000000", "t1:-7:0", "x" * 200 + ":1:0",
                  "t 1:1:0", "not-a-token"):
        agent.channel.send(
            agent.notify_host, agent.notify_port,
            f"sharma stock insert begin sentineldb.sharma.e_add 1;tc={token}")
    agent.flush_deferred()
    assert len(agent.firing_history()) == before + 5
    assert max(record.depth for record in agent.trace.snapshot()) < 10
    assert {record.trace_id for record in agent.trace.snapshot()} == {None}
    [rows] = astock.execute("show agent trace 100").result_sets
    assert max(len(row[2]) for row in rows.rows) < 100
