"""Tests for the telemetry exporter: schema, rotation, sampling."""

import json
import os

from repro.led import LocalEventDetector
from repro.led.rules import Context
from repro.obs import (
    EventLog,
    MetricsRegistry,
    PipelineTrace,
    ProvenanceJournal,
    TelemetryExporter,
)


def _read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _populated_surfaces():
    metrics = MetricsRegistry()
    metrics.counter("hits", "hits", ("kind",)).labels("a").inc(3)
    metrics.histogram("latency").observe(0.25)
    events = EventLog()
    trace = PipelineTrace(enabled=True, log=events)
    with trace.span("outer", "detail"):
        trace.emit("inner", "point")
    journal = ProvenanceJournal(enabled=True, log=events)
    led = LocalEventDetector()
    led.attach_observability(journal=journal)
    led.define_primitive("a")
    led.define_primitive("b")
    led.define_composite("ab", "a ^ b")
    led.add_rule("r", "ab", action=lambda occ: None,
                 context=Context.CHRONICLE)
    led.raise_event("a")
    led.raise_event("b")
    return metrics, trace, events


class TestSnapshotSchema:
    def test_snapshot_writes_all_line_types(self, tmp_path):
        metrics, _trace, events = _populated_surfaces()
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path)
        lines_written = exporter.export_snapshot(
            metrics=metrics, events=events, label="test")
        lines = _read_lines(path)
        assert len(lines) == lines_written
        by_type = {}
        for line in lines:
            by_type.setdefault(line["type"], []).append(line)
        assert by_type["snapshot"][0]["label"] == "test"
        assert by_type["snapshot"][0]["lines"] == lines_written - 1
        metric_names = {line["name"] for line in by_type["metric"]}
        assert {"hits", "latency"} <= metric_names
        steps = {line["step"] for line in by_type["span"]}
        assert {"outer", "inner"} <= steps
        kinds = {line["kind"] for line in by_type["provenance"]}
        assert {"raise", "detection", "firing"} <= kinds
        node_names = {line["name"] for line in by_type["node_stat"]}
        assert {"a", "b", "ab"} <= node_names
        for line in by_type["provenance"]:
            assert isinstance(line["parents"], list)

    def test_partial_surfaces_allowed(self, tmp_path):
        metrics, _trace, _events = _populated_surfaces()
        path = str(tmp_path / "telemetry.jsonl")
        TelemetryExporter(path).export_snapshot(metrics=metrics)
        types = {line["type"] for line in _read_lines(path)}
        assert types == {"snapshot", "metric"}


class TestIncremental:
    def test_second_snapshot_exports_only_new_records(self, tmp_path):
        metrics, trace, events = _populated_surfaces()
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path)
        exporter.export_snapshot(events=events)
        first = [line for line in _read_lines(path)
                 if line["type"] in ("span", "provenance")]
        exporter.export_snapshot(events=events)
        second = [line for line in _read_lines(path)
                  if line["type"] in ("span", "provenance")]
        # Nothing new happened: the second snapshot adds no span or
        # provenance lines.
        assert len(second) == len(first)
        trace.emit("later", "x")
        exporter.export_snapshot(events=events)
        third = [line for line in _read_lines(path) if line["type"] == "span"]
        assert [line["step"] for line in third][-1] == "later"
        assert len(third) == len(
            [line for line in first if line["type"] == "span"]) + 1


class TestSampling:
    def test_stride_sampling_keeps_every_nth(self, tmp_path):
        trace = PipelineTrace(enabled=True)
        for index in range(20):
            trace.emit(f"step{index}")
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path, sample=0.25)
        exporter.export_snapshot(events=trace.log)
        spans = [line for line in _read_lines(path) if line["type"] == "span"]
        assert len(spans) == 5
        assert all(line["seq"] % 4 == 0 for line in spans)

    def test_invalid_sample_rate_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            TelemetryExporter(str(tmp_path / "t.jsonl"), sample=0.0)
        with pytest.raises(ValueError):
            TelemetryExporter(str(tmp_path / "t.jsonl"), sample=1.5)


class TestRotation:
    def test_rotates_by_size_and_caps_generations(self, tmp_path):
        metrics, _trace, _events = _populated_surfaces()
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path, max_bytes=400, max_files=2)
        for _ in range(10):
            exporter.export_snapshot(metrics=metrics)
        assert os.path.exists(path)
        assert os.path.exists(path + ".1")
        # Never more generations than max_files.
        assert not os.path.exists(path + ".3")
        # Every retained file is valid JSONL.
        for candidate in (path, path + ".1", path + ".2"):
            if os.path.exists(candidate):
                assert _read_lines(candidate)

    def test_rotation_disabled_with_zero_max_bytes(self, tmp_path):
        metrics, _trace, _events = _populated_surfaces()
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path, max_bytes=0)
        for _ in range(5):
            exporter.export_snapshot(metrics=metrics)
        assert not os.path.exists(path + ".1")
        assert exporter.snapshots_written == 5


class TestHealthPlaneLines:
    def _slow_surfaces(self):
        from repro.obs import FlightRecorder, OpAccounting

        class _Session:
            session_id = 3
            user = "sharma"
            database = "sentineldb"

        accounting = OpAccounting()
        frame = accounting.begin(_Session())
        accounting.note_statement()
        recorder = FlightRecorder(threshold_ms=0.0)
        recorder.capture(
            kind="passthrough", statement="select 1", session=_Session(),
            duration=0.02, frame=frame,
            threshold_ms=recorder.threshold_ms)
        accounting.finish(frame, 0.02)
        with accounting.rule_scope("db.u.r"):
            pass
        return recorder, accounting

    def test_slow_op_and_op_totals_lines(self, tmp_path):
        recorder, accounting = self._slow_surfaces()
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path)
        exporter.export_snapshot(events=recorder.log, accounting=accounting)
        lines = _read_lines(path)
        by_type = {}
        for line in lines:
            by_type.setdefault(line["type"], []).append(line)
        [slow] = by_type["slow_op"]
        assert slow["statement"] == "select 1"
        assert slow["counters"]["sql_statements"] == 1
        scopes = {line["scope"] for line in by_type["op_totals"]}
        assert scopes == {"session", "rule"}
        session_line = next(line for line in by_type["op_totals"]
                            if line["scope"] == "session")
        assert session_line["session_id"] == 3
        assert session_line["commands"] == 1

    def test_slow_op_lines_are_incremental(self, tmp_path):
        recorder, accounting = self._slow_surfaces()
        path = str(tmp_path / "telemetry.jsonl")
        exporter = TelemetryExporter(path)
        exporter.export_snapshot(events=recorder.log, accounting=accounting)
        exporter.export_snapshot(events=recorder.log, accounting=accounting)
        lines = _read_lines(path)
        slow = [line for line in lines if line["type"] == "slow_op"]
        # The same slow op is never exported twice...
        assert len(slow) == 1
        # ...while op_totals lines are full snapshots each time.
        totals = [line for line in lines if line["type"] == "op_totals"]
        assert len(totals) == 4
