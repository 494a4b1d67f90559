"""Unified telemetry export: metrics + the event stream as JSONL.

The admin plane (`show agent stats/trace/events`) answers questions from
a live terminal; this module serves the other consumer — offline
analysis.  A :class:`TelemetryExporter` snapshots the in-memory
telemetry surfaces (``MetricsRegistry``, the agent's ``EventLog``,
``OpAccounting``) into one append-only JSONL file that rotates by size,
so a long benchmark or soak run leaves behind a bounded,
machine-readable artifact (``tools/check_overhead.py`` writes one as
``BENCH_telemetry.jsonl`` for CI to upload).

Line schema — every line is one JSON object with a ``type`` field:

- ``{"type": "snapshot", "label", "at", "lines", ...}`` — one per
  :meth:`TelemetryExporter.export_snapshot` call, written first.
- ``{"type": "metric", "name", "kind", "labels", "value"}`` — one per
  metric child; histogram values are summary dicts.
- one line per :class:`~repro.obs.events.Event`, in sequence order, its
  ``type`` derived from the event's kind by :func:`event_payload`:
  ``{"type": "span", "seq", "step", "detail", "start", "duration",
  "depth", "parent", "trace_id"}``, ``{"type": "provenance", "seq",
  "kind", "name", "context", "detail", "parents", "at", "duration",
  "trace_id"}`` or ``{"type": "slow_op", "seq", "at", "kind",
  "statement", "session_id", "user", "duration_ms", "threshold_ms",
  "trace_id", "plan", "counters", "spans", "provenance"}``.
- ``{"type": "node_stat", "name", "context", "fires", "consumed",
  "latency": {...summary...}}`` — one per (event node, context).
- ``{"type": "op_totals", "scope": "session"|"rule", "key", ...}`` —
  one per tracked session / rule in the accounting plane.

Events export *incrementally*: each snapshot only writes events newer
than the previous snapshot's high-water mark, spans and provenance
optionally thinned by deterministic stride sampling (``sample=0.1``
keeps every 10th event by sequence number — reproducible, no RNG; slow
ops are never thinned).
"""

from __future__ import annotations

import json
import os
import threading
import time

from .events import HOPS, SLOW, SPANS, Event, plane_of

__all__ = ["TelemetryExporter", "event_payload"]


def _captured(event: Event) -> dict:
    """One of a slow op's own events, as nested in its line."""
    if plane_of(event.kind) == SPANS:
        duration = event.duration
        return {
            "seq": event.seq, "step": event.kind, "detail": event.detail,
            "depth": event.depth, "parent": event.parent,
            "trace_id": event.trace_id,
            "duration_ms": (None if duration is None
                            else round(duration * 1e3, 4)),
        }
    return {
        "seq": event.seq, "kind": event.kind, "name": event.name,
        "context": event.context, "detail": event.detail,
        "parents": list(event.parents),
    }


def event_payload(event: Event) -> dict:
    """The one ``Event`` → JSONL object function; the line's ``type`` is
    decided by the event's kind."""
    plane = plane_of(event.kind)
    if plane == SPANS:
        return {
            "type": "span", "seq": event.seq, "step": event.kind,
            "detail": event.detail, "start": event.start,
            "duration": event.duration, "depth": event.depth,
            "parent": event.parent, "trace_id": event.trace_id,
        }
    if plane == HOPS:
        return {
            "type": "provenance", "seq": event.seq, "kind": event.kind,
            "name": event.name, "context": event.context,
            "detail": event.detail, "parents": list(event.parents),
            "at": event.start, "duration": event.duration,
            "trace_id": event.trace_id,
        }
    payload = dict(event.attrs, type="slow_op", seq=event.seq,
                   kind=event.name, trace_id=event.trace_id)
    for key in ("spans", "provenance"):
        payload[key] = [_captured(own) for own in payload[key]]
    return payload


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
        sample: fraction of span and provenance events to export
            (deterministic stride by seq; 1.0 exports everything).
        clock: wall-clock source for snapshot timestamps.
    """

    def __init__(self, path: str, max_bytes: int = 5_000_000,
                 max_files: int = 3, sample: float = 1.0,
                 clock=time.time):
        self.path = path
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._stride = _stride(sample)
        self._clock = clock
        self._lock = threading.Lock()
        # Incremental high-water mark: only events with seq strictly
        # above it are written by the next snapshot.
        self._mark = 0
        self.snapshots_written = 0

    # ------------------------------------------------------------------

    def export_snapshot(self, metrics=None, events=None, accounting=None,
                        label: str = "") -> int:
        """Write one snapshot of the given surfaces; returns lines written.

        Any subset of ``metrics`` (a registry) / ``events`` (an
        :class:`~repro.obs.events.EventLog`) / ``accounting`` may be
        None.  Thread-safe; concurrent snapshots serialize on the
        exporter lock.
        """
        body = self._metric_lines(metrics) if metrics is not None else []
        mark = None
        if events is not None:
            event_lines, mark = self._event_lines(events)
            body += event_lines
        if accounting is not None:
            body += self._op_totals_lines(accounting)
        header = {
            "type": "snapshot",
            "label": label,
            "at": self._clock(),
            "lines": len(body),
        }
        lines = [json.dumps(header, sort_keys=True)] + body
        payload = "\n".join(lines) + "\n"
        with self._lock:
            self._rotate_if_needed(len(payload.encode("utf-8")))
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(payload)
            if mark is not None:
                self._mark = max(self._mark, mark)
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

    def _event_lines(self, events) -> tuple[list[str], int]:
        """Lines for the events past the mark, then one ``node_stat``
        line per (event node, context); returns them with the new mark."""
        out: list[str] = []
        mark = self._mark
        for event in events.since(mark):
            mark = event.seq
            if event.seq % self._stride and plane_of(event.kind) != SLOW:
                continue
            out.append(json.dumps(event_payload(event), sort_keys=True,
                                  default=str))
        for name, context, stat in events.node_stats():
            out.append(json.dumps({
                "type": "node_stat",
                "name": name,
                "context": context,
                "fires": stat.fires,
                "consumed": stat.consumed,
                "latency": stat.summary().as_dict(),
            }, sort_keys=True))
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
