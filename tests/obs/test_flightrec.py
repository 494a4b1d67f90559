"""Unit tests for the slow-op flight recorder."""

import pytest

from repro.obs import FlightRecorder, OpAccounting, PipelineTrace
from repro.obs import ProvenanceJournal
from repro.obs.flightrec import MAX_SPANS, MAX_STATEMENT


class _Session:
    session_id = 7
    user = "sharma"
    database = "sentineldb"


def _capture(recorder, trace=None, journal=None, statement="select 1",
             frame=None, duration=0.05):
    trace = trace if trace is not None else PipelineTrace()
    journal = journal if journal is not None else ProvenanceJournal()
    marks = recorder.marks(trace, journal)
    return recorder.capture(
        kind="passthrough", statement=statement, session=_Session(),
        duration=duration, frame=frame, trace=trace, journal=journal,
        marks=marks, threshold_ms=recorder.threshold_ms)


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
    assert recorder.captured_total == 5
    statements = [record.statement for record in recorder.snapshot()]
    assert statements == ["select 2", "select 3", "select 4"]
    tail = recorder.tail(2)
    assert [r.statement for r in tail] == ["select 3", "select 4"]
    assert recorder.tail(0) == []


def test_capture_slices_trace_and_journal_since_marks():
    recorder = FlightRecorder(threshold_ms=0.0)
    trace = PipelineTrace(enabled=True)
    journal = ProvenanceJournal(enabled=True)
    trace.emit("before", "not captured")
    journal.append("event", "before")
    marks = recorder.marks(trace, journal)
    with trace.span("outer", "mine"):
        trace.emit("inner")
    journal.append("event", "mine")
    record = recorder.capture(
        kind="eca", statement="insert stock", session=_Session(),
        duration=0.02, frame=None, trace=trace, journal=journal,
        marks=marks, threshold_ms=recorder.threshold_ms)
    assert [span["step"] for span in record.spans] == ["outer", "inner"]
    assert [prov["name"] for prov in record.provenance] == ["mine"]
    assert record.duration_ms == 20.0
    assert record.session_id == 7
    assert record.user == "sharma"


def test_capture_caps_span_slice():
    recorder = FlightRecorder(threshold_ms=0.0)
    trace = PipelineTrace(enabled=True)
    marks = recorder.marks(trace, ProvenanceJournal())
    for index in range(MAX_SPANS + 50):
        trace.emit("step", str(index))
    record = recorder.capture(
        kind="passthrough", statement="x", session=_Session(),
        duration=0.01, frame=None, trace=trace,
        journal=ProvenanceJournal(), marks=marks,
        threshold_ms=recorder.threshold_ms)
    assert len(record.spans) == MAX_SPANS


def test_statement_truncated():
    recorder = FlightRecorder(threshold_ms=0.0)
    record = _capture(recorder, statement="x" * (MAX_STATEMENT + 100))
    assert len(record.statement) == MAX_STATEMENT


def test_counters_come_from_the_frame():
    recorder = FlightRecorder(threshold_ms=0.0)
    accounting = OpAccounting()
    frame = accounting.begin(_Session())
    accounting.note_statement()
    accounting.note_rows(42)
    record = _capture(recorder, frame=frame)
    accounting.finish(frame, 0.01)
    assert record.counters["sql_statements"] == 1
    assert record.counters["rows_scanned"] == 42
    payload = record.as_dict()
    assert payload["counters"]["rows_scanned"] == 42
    assert payload["kind"] == "passthrough"


def test_clear_empties_ring():
    recorder = FlightRecorder(threshold_ms=0.0)
    _capture(recorder)
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.captured_total == 1  # lifetime counter survives
