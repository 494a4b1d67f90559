"""Unit tests for the slow-op flight recorder."""

import pytest

from repro.obs import EventLog, FlightRecorder, OpAccounting, PipelineTrace
from repro.obs import ProvenanceJournal
from repro.obs.export import event_payload
from repro.obs.flightrec import MAX_SPANS, MAX_STATEMENT
from repro.obs.provenance import KIND_RAISE


class _Session:
    session_id = 7
    user = "sharma"
    database = "sentineldb"


def _capture(recorder, statement="select 1", frame=None, duration=0.05,
             trace_id=None):
    return recorder.capture(
        kind="passthrough", statement=statement, session=_Session(),
        duration=duration, frame=frame, trace_id=trace_id,
        threshold_ms=recorder.threshold_ms)


def _planes(capacity=10_000):
    """The three views over one log, all on (slowlog at 0 ms)."""
    log = EventLog(capacity)
    return (PipelineTrace(enabled=True, log=log),
            ProvenanceJournal(enabled=True, log=log),
            FlightRecorder(threshold_ms=0.0, log=log))


def test_disarmed_by_default_and_armed_by_threshold():
    recorder = FlightRecorder()
    assert not recorder.armed
    recorder.threshold_ms = 10.0
    assert recorder.armed
    recorder.threshold_ms = None
    assert not recorder.armed


def test_capacity_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_ring_evicts_oldest():
    recorder = FlightRecorder(capacity=3, threshold_ms=0.0)
    for index in range(5):
        _capture(recorder, statement=f"select {index}")
    assert len(recorder) == 3
    statements = [record.attrs["statement"]
                  for record in recorder.snapshot()]
    assert statements == ["select 2", "select 3", "select 4"]
    tail = recorder.tail(2)
    assert [r.attrs["statement"] for r in tail] == ["select 3", "select 4"]
    assert recorder.tail(0) == []


def test_capture_slices_trace_and_journal_since_marks():
    """A capture holds the events recorded for *its* command id — not
    what came before it, and not another command's interleaved work."""
    trace, journal, recorder = _planes()
    trace.emit("before", "not captured")
    journal.hop(KIND_RAISE, "before")
    mine, other = trace.command_context(), trace.command_context()
    with trace.activate(mine), trace.span("outer", "mine"):
        trace.emit("inner")
    with trace.activate(other):
        trace.emit("theirs")
        journal.hop(KIND_RAISE, "theirs")
    with trace.activate(mine):
        journal.hop(KIND_RAISE, "mine")
    record = recorder.capture(
        kind="eca", statement="insert stock", session=_Session(),
        duration=0.02, frame=None, trace_id=mine.trace_id,
        threshold_ms=recorder.threshold_ms)
    attrs = record.attrs
    assert [span.step for span in attrs["spans"]] == ["outer", "inner"]
    assert [hop.name for hop in attrs["provenance"]] == ["mine"]
    # the captured rows are the log's own events, not copies
    assert all(event in trace.log.snapshot()
               for event in attrs["spans"] + attrs["provenance"])
    assert attrs["duration_ms"] == 20.0
    assert attrs["session_id"] == 7
    assert attrs["user"] == "sharma"
    assert record.name == "eca" and record.trace_id == mine.trace_id


def test_capture_caps_span_slice():
    """The cap keeps the *oldest* spans, so a command that records more
    than ``MAX_SPANS`` keeps its root (regression: the parent's
    ``since(limit)`` kept the newest and dropped the root)."""
    trace, _journal, recorder = _planes()
    ctx = trace.command_context()
    with trace.activate(ctx), trace.span("root"):
        for index in range(MAX_SPANS + 50):
            trace.emit("step", str(index))
    record = _capture(recorder, trace_id=ctx.trace_id)
    spans = record.attrs["spans"]
    assert len(spans) == MAX_SPANS
    assert spans[0].step == "root" and spans[1].detail == "0"


def test_statement_truncated():
    recorder = FlightRecorder(threshold_ms=0.0)
    record = _capture(recorder, statement="x" * (MAX_STATEMENT + 100))
    assert len(record.attrs["statement"]) == MAX_STATEMENT


def test_counters_come_from_the_frame():
    recorder = FlightRecorder(threshold_ms=0.0)
    accounting = OpAccounting()
    frame = accounting.begin(_Session())
    accounting.note_statement()
    accounting.note_rows(42)
    record = _capture(recorder, frame=frame)
    accounting.finish(frame, 0.01)
    assert record.attrs["counters"]["sql_statements"] == 1
    assert record.attrs["counters"]["rows_scanned"] == 42
    payload = event_payload(record)
    assert payload["counters"]["rows_scanned"] == 42
    assert payload["kind"] == "passthrough"
    assert payload["type"] == "slow_op"


def test_clear_empties_ring():
    recorder = FlightRecorder(threshold_ms=0.0)
    _capture(recorder)
    recorder.clear()
    assert len(recorder) == 0
