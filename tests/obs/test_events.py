"""The event stream: one log, and the views are folds over it."""

import json

from repro.agent import EcaAgent
from repro.obs import EventLog, PipelineTrace, TelemetryExporter
from repro.obs.events import HOPS, KIND_SLOW_OP, SLOW, SPANS, plane_of
from repro.obs.export import event_payload
from repro.obs.flightrec import MAX_SPANS
from repro.obs.provenance import KIND_ACTION, KIND_NOTIFICATION
from repro.obs.tracing import FIG3_COMMAND_RECEIVED, FIG4_ACTION_RUN
from repro.sqlengine import SqlServer


class TestSince:
    def test_limit_keeps_the_oldest_of_the_slice(self):
        """Regression: ``since(seq, limit)`` scanned back from the tail
        and stopped after ``limit``, so a command recording more than
        ``MAX_SPANS`` spans lost its *root* from the slow-op capture
        while the docstring promised "oldest first (at most limit)"."""
        trace = PipelineTrace(enabled=True)
        trace.emit("earlier")
        mark = trace.log.last_seq()
        with trace.span("root"):
            for index in range(249):
                trace.emit("step", str(index))
        capped = trace.log.since(mark, limit=MAX_SPANS)
        assert len(capped) == MAX_SPANS
        assert capped[0].step == "root"
        assert [event.seq for event in capped] == list(
            range(mark + 1, mark + 1 + MAX_SPANS))

    def test_incremental_mark_reads_are_unchanged(self):
        log = EventLog(capacity=50)
        trace = PipelineTrace(enabled=True, log=log)
        assert log.since(0) == []
        for index in range(60):     # trims the oldest tenth on the way
            trace.emit(str(index))
        everything = log.since(0)
        assert everything == log.snapshot()
        mark = everything[-3].seq
        assert [event.seq for event in log.since(mark)] == [
            mark + 1, mark + 2]
        assert log.since(log.last_seq()) == []
        # a mark older than the retained window yields the whole window
        assert log.since(1) == everything
        assert log.since(mark, limit=0) == []


EX_ADD = "create trigger t_add on stock for insert event addStk as print 'a'"
EX_DEL = "create trigger t_del on stock for delete event delStk as print 'd'"
EX_AND = ("create trigger t_and event addDel = delStk ^ addStk RECENT\n"
          "as print 'composite'")
EX_DETACHED = "create trigger t_det event addStk DETACHED as print 'detached'"


def test_every_view_is_a_fold_over_the_one_log(tmp_path):
    """Two sessions through a 2-worker pool over a threaded datagram
    channel, Example 1 + 2 rules plus one DETACHED trigger, all three
    planes on: whatever any view or the exporter shows is an event of
    ``agent.events``, ordered and linked by one sequence, and everything
    one client command caused carries that command's id."""
    path = tmp_path / "telemetry.jsonl"
    agent = EcaAgent(SqlServer(default_database="sentineldb"), workers=2,
                     channel="threaded",
                     exporter=TelemetryExporter(str(path), max_bytes=0))
    try:
        conns = [agent.connect(user="sharma", database="sentineldb")
                 for _ in range(2)]
        conns[0].execute("create table stock (symbol varchar(10), qty int)")
        for ddl in (EX_ADD, EX_DEL, EX_AND, EX_DETACHED):
            conns[0].execute(ddl)
        for command in ("set agent trace on", "set agent provenance on",
                        "set agent slowlog 0"):
            conns[0].execute(command)
        for round_no in range(3):
            for index, conn in enumerate(conns):
                conn.execute(f"insert stock values ('S{index}', {round_no})")
                assert agent.drain()
                conn.execute(f"delete stock where symbol = 'S{index}'")
                assert agent.drain()
        agent.action_handler.join_detached()
        agent.export_telemetry(label="folds")

        log, trace, journal = agent.events, agent.trace, agent.journal
        stream = log.snapshot()
        by_seq = {event.seq: event for event in stream}
        pinned = [event for trace_id in log.trace_ids()
                  for event in log.events_for(trace_id)]
        for event in pinned:      # pinned events came out of the log
            by_seq.setdefault(event.seq, event)

        # one sequence across the planes, strictly increasing
        seqs = [event.seq for event in stream]
        assert seqs == sorted(set(seqs))
        assert {plane_of(event.kind) for event in stream} == {
            SPANS, HOPS, SLOW}

        # every row of every view is one of the log's own events
        slow_ops = agent.flightrec.tail(1000)
        shown = (trace.tail(10_000) + journal.tail(10_000) + slow_ops
                 + [span for trace_id in trace.trace_ids()
                    for span in trace.spans_for(trace_id)]
                 + [hop for last in journal.tail(5)
                    for hop in journal.lineage(last.seq)]
                 + [own for op in slow_ops
                    for own in op.attrs["spans"] + op.attrs["provenance"]])
        assert shown and all(by_seq[event.seq] is event for event in shown)
        assert all(plane_of(e.kind) == SPANS for e in trace.tail(10_000))
        assert all(plane_of(e.kind) == HOPS for e in journal.tail(10_000))
        assert all(e.kind == KIND_SLOW_OP for e in slow_ops)

        # ... and so is every exported event line
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        exported = [line for line in lines
                    if line["type"] in ("span", "provenance", "slow_op")]
        assert exported
        for line in exported:
            payload = event_payload(by_seq[line["seq"]])
            assert json.loads(json.dumps(payload, default=str)) == line

        # parents point backwards and resolve in the same log (or are
        # older than everything it still holds)
        oldest = stream[0].seq
        for event in by_seq.values():
            for parent in event.parents:
                assert parent < event.seq
                assert parent in by_seq or parent < oldest

        # one id per client command, across the pool hand-off, the
        # datagram hop to the listener thread and the DETACHED thread
        roots = [event for event in stream
                 if event.kind == FIG3_COMMAND_RECEIVED
                 and event.detail.startswith("insert stock")]
        assert len(roots) == 6
        for root in roots:
            mine = log.events_for(root.trace_id)
            kinds = [event.kind for event in mine]
            assert kinds.count(FIG3_COMMAND_RECEIVED) == 1
            assert KIND_NOTIFICATION in kinds       # listener thread
            assert kinds.count(KIND_ACTION) >= 1    # DETACHED thread
            assert kinds.count(FIG4_ACTION_RUN) >= 1
            assert {event.trace_id for event in mine} == {root.trace_id}
        # nothing recorded once the planes were on is anonymous
        assert all(event.trace_id is not None for event in stream
                   if event.seq >= roots[0].seq)
    finally:
        agent.close()
