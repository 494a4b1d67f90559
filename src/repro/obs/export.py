"""Unified telemetry export: metrics + spans + provenance as JSONL.

The admin plane (`show agent stats/trace/events`) answers questions from
a live terminal; this module serves the other consumer — offline
analysis.  A :class:`TelemetryExporter` snapshots the three in-memory
telemetry surfaces (``MetricsRegistry``, ``PipelineTrace``,
``ProvenanceJournal``) into one append-only JSONL file that rotates by
size, so a long benchmark or soak run leaves behind a bounded,
machine-readable artifact (CI uploads it as ``BENCH_telemetry.jsonl``).

Line schema — every line is one JSON object with a ``type`` field:

- ``{"type": "snapshot", "label", "at", "lines", ...}`` — one per
  :meth:`TelemetryExporter.export_snapshot` call, written first.
- ``{"type": "metric", "name", "kind", "labels", "value"}`` — one per
  metric child; histogram values are summary dicts.
- ``{"type": "span", "seq", "step", "detail", "start", "duration",
  "depth", "parent", "trace_id"}`` — one per trace record.
- ``{"type": "provenance", "seq", "kind", "name", "context", "detail",
  "parents", "at", "duration", "trace_id"}`` — one per journal record.
- ``{"type": "node_stat", "name", "context", "fires", "consumed",
  "latency": {...summary...}}`` — one per (event node, context).
- ``{"type": "slow_op", ...}`` — one per flight-recorder capture (the
  full :meth:`~repro.obs.flightrec.SlowOp.as_dict` payload).
- ``{"type": "op_totals", "scope": "session"|"rule", "key", ...}`` —
  one per tracked session / rule in the accounting plane.

Spans, provenance and slow ops export *incrementally*: each snapshot
only writes records newer than the previous snapshot's high-water mark,
spans and provenance optionally thinned by deterministic stride sampling
(``sample=0.1`` keeps every 10th record by sequence number —
reproducible, no RNG).
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = ["TelemetryExporter"]


def _stride(sample: float) -> int:
    """Sampling rate -> keep-every-Nth stride (1.0 -> 1, 0.1 -> 10)."""
    if not 0.0 < sample <= 1.0:
        raise ValueError(f"sample rate must be in (0, 1], got {sample}")
    return max(1, round(1.0 / sample))


class TelemetryExporter:
    """Snapshots telemetry surfaces into rotating, size-bounded JSONL.

    Args:
        path: target JSONL file.  On rotation it becomes ``path.1``,
            ``path.1`` becomes ``path.2``, … up to ``max_files`` rotated
            generations (the oldest is deleted).
        max_bytes: rotate before a snapshot would push the file past
            this size (0 disables rotation).
        max_files: rotated generations kept besides the live file.
        span_sample: fraction of trace spans to export (deterministic
            stride by span seq; 1.0 exports everything).
        provenance_sample: same for provenance records.
        clock: wall-clock source for snapshot timestamps.
    """

    def __init__(self, path: str, max_bytes: int = 5_000_000,
                 max_files: int = 3, span_sample: float = 1.0,
                 provenance_sample: float = 1.0, clock=time.time):
        self.path = path
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._span_stride = _stride(span_sample)
        self._prov_stride = _stride(provenance_sample)
        self._clock = clock
        self._lock = threading.Lock()
        # Incremental high-water marks: only records with seq strictly
        # above these are written by the next snapshot.
        self._last_span_seq = 0
        self._last_prov_seq = 0
        self._last_slow_seq = 0
        self.snapshots_written = 0

    # ------------------------------------------------------------------

    def export_snapshot(self, metrics=None, trace=None, journal=None,
                        flightrec=None, accounting=None,
                        label: str = "") -> int:
        """Write one snapshot of the given surfaces; returns lines written.

        Any subset of ``metrics`` / ``trace`` / ``journal`` /
        ``flightrec`` / ``accounting`` may be None.  Thread-safe;
        concurrent snapshots serialize on the exporter lock.
        """
        lines: list[str] = []
        metric_lines = self._metric_lines(metrics) if metrics is not None else []
        span_lines, span_mark = (
            self._span_lines(trace) if trace is not None else ([], None))
        prov_lines, node_lines, prov_mark = (
            self._provenance_lines(journal) if journal is not None
            else ([], [], None))
        slow_lines, slow_mark = (
            self._slow_op_lines(flightrec) if flightrec is not None
            else ([], None))
        totals_lines = (
            self._op_totals_lines(accounting) if accounting is not None
            else [])
        header = {
            "type": "snapshot",
            "label": label,
            "at": self._clock(),
            "lines": (len(metric_lines) + len(span_lines)
                      + len(prov_lines) + len(node_lines)
                      + len(slow_lines) + len(totals_lines)),
        }
        lines.append(json.dumps(header, sort_keys=True))
        lines.extend(metric_lines)
        lines.extend(span_lines)
        lines.extend(prov_lines)
        lines.extend(node_lines)
        lines.extend(slow_lines)
        lines.extend(totals_lines)
        payload = "\n".join(lines) + "\n"
        with self._lock:
            self._rotate_if_needed(len(payload.encode("utf-8")))
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(payload)
            if span_mark is not None:
                self._last_span_seq = max(self._last_span_seq, span_mark)
            if prov_mark is not None:
                self._last_prov_seq = max(self._last_prov_seq, prov_mark)
            if slow_mark is not None:
                self._last_slow_seq = max(self._last_slow_seq, slow_mark)
            self.snapshots_written += 1
        return len(lines)

    # ------------------------------------------------------------------
    # per-surface serialization

    def _metric_lines(self, metrics) -> list[str]:
        out: list[str] = []
        for name, family in sorted(metrics.as_dict().items()):
            for entry in family["values"]:
                out.append(json.dumps({
                    "type": "metric",
                    "name": name,
                    "kind": family["type"],
                    "labels": entry["labels"],
                    "value": entry["value"],
                }, sort_keys=True))
        return out

    def _span_lines(self, trace) -> tuple[list[str], int]:
        out: list[str] = []
        mark = self._last_span_seq
        for record in trace.since(mark):
            mark = record.seq
            if record.seq % self._span_stride:
                continue
            out.append(json.dumps({
                "type": "span",
                "seq": record.seq,
                "step": record.step,
                "detail": record.detail,
                "start": record.start,
                "duration": record.duration,
                "depth": record.depth,
                "parent": record.parent,
                "trace_id": record.trace_id,
            }, sort_keys=True))
        return out, mark

    def _provenance_lines(self, journal) -> tuple[list[str], list[str], int]:
        records: list[str] = []
        mark = self._last_prov_seq
        for record in journal.since(mark):
            mark = record.seq
            if record.seq % self._prov_stride:
                continue
            records.append(json.dumps({
                "type": "provenance",
                "seq": record.seq,
                "kind": record.kind,
                "name": record.name,
                "context": record.context,
                "detail": record.detail,
                "parents": list(record.parents),
                "at": record.at,
                "duration": record.duration,
                "trace_id": record.trace_id,
            }, sort_keys=True))
        nodes: list[str] = []
        for name, context, stat in journal.node_stats():
            nodes.append(json.dumps({
                "type": "node_stat",
                "name": name,
                "context": context,
                "fires": stat.fires,
                "consumed": stat.consumed,
                "latency": stat.summary().as_dict(),
            }, sort_keys=True))
        return records, nodes, mark

    def _slow_op_lines(self, flightrec) -> tuple[list[str], int]:
        out: list[str] = []
        mark = self._last_slow_seq
        for record in flightrec.since(mark):
            mark = record.seq
            payload = record.as_dict()
            payload["type"] = "slow_op"
            out.append(json.dumps(payload, sort_keys=True, default=str))
        return out, mark

    def _op_totals_lines(self, accounting) -> list[str]:
        out: list[str] = []
        for totals in accounting.top_sessions(accounting.max_sessions):
            payload = totals.as_dict()
            payload["type"] = "op_totals"
            payload["scope"] = "session"
            out.append(json.dumps(payload, sort_keys=True, default=str))
        for totals in accounting.top_rules(accounting.max_rules):
            payload = totals.as_dict()
            payload["type"] = "op_totals"
            payload["scope"] = "rule"
            out.append(json.dumps(payload, sort_keys=True, default=str))
        return out

    # ------------------------------------------------------------------
    # rotation

    def _rotate_if_needed(self, incoming_bytes: int) -> None:
        """Rotate ``path`` -> ``path.1`` -> … before an oversize append."""
        if self.max_bytes <= 0:
            return
        try:
            current = os.path.getsize(self.path)
        except OSError:
            return
        if current == 0 or current + incoming_bytes <= self.max_bytes:
            return
        oldest = f"{self.path}.{self.max_files}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.max_files - 1, 0, -1):
            src = f"{self.path}.{index}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{index + 1}")
        if self.max_files > 0:
            os.replace(self.path, f"{self.path}.1")
