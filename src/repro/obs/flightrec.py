"""The slow-op flight recorder: bounded post-hoc capture of slow commands.

Tracing answers "what does a command do"; the flight recorder answers
"what did *that one slow command last Tuesday* do".  The gateway notes
the trace/journal high-water marks before routing each command and, when
the command's wall time exceeds the armed threshold (``set agent slowlog
<ms>``), captures everything recorded since — the command's own
:class:`~repro.obs.tracing.PipelineTrace` span tree and its
:class:`~repro.obs.provenance.ProvenanceJournal` slice — together with
the operation's :class:`~repro.obs.opcontext.OpContext` counters, into a
:class:`~repro.obs.boundedlog.BoundedLog` of :class:`SlowOp` records.

Disarmed (the default) the recorder costs one attribute read per
command.  Armed, the marginal cost is two ``last_seq`` reads per command
plus the capture itself, which only slow commands pay.  ``show agent
slow [N]`` dumps the ring; the telemetry exporter writes each record
once as a ``{"type": "slow_op"}`` JSONL line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .boundedlog import BoundedLog

__all__ = ["FlightRecorder", "SlowOp"]

#: Default capacity (slow ops retained; the oldest tenth goes when full).
DEFAULT_CAPACITY = 64
#: Caps on the captured per-op slices, so one pathological command
#: cannot make the ring itself expensive to hold or export.
MAX_SPANS = 200
MAX_PROVENANCE = 100
#: Statement text is truncated to this many characters in the record.
MAX_STATEMENT = 200


@dataclass
class SlowOp:
    """One captured slow operation."""

    seq: int
    at: float
    kind: str
    statement: str
    session_id: object
    user: str
    duration_ms: float
    threshold_ms: float
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    provenance: list = field(default_factory=list)
    #: trace id of the captured command (None with tracing off)
    trace_id: str | None = None
    #: EXPLAIN rendering of the statement's optimized plan (None when
    #: the statement has no plannable SQL — admin commands, DDL, ...)
    plan: str | None = None

    def as_dict(self) -> dict:
        """JSONL payload for the telemetry exporter."""
        return {
            "seq": self.seq,
            "at": self.at,
            "kind": self.kind,
            "statement": self.statement,
            "session_id": self.session_id,
            "user": self.user,
            "duration_ms": self.duration_ms,
            "threshold_ms": self.threshold_ms,
            "trace_id": self.trace_id,
            "plan": self.plan,
            "counters": dict(self.counters),
            "spans": list(self.spans),
            "provenance": list(self.provenance),
        }


class FlightRecorder(BoundedLog):
    """Bounded log of :class:`SlowOp` records (thread-safe)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 threshold_ms: float | None = None, clock=time.time):
        super().__init__(capacity)
        #: slow-op threshold in milliseconds; ``None`` disarms capture
        self.threshold_ms = threshold_ms
        self._clock = clock
        self.captured_total = 0

    @property
    def armed(self) -> bool:
        return self.threshold_ms is not None

    # ------------------------------------------------------------------
    # gateway surface

    def marks(self, trace, journal) -> tuple[int, int]:
        """The (span seq, provenance seq) high-water marks right now —
        taken before routing, so a later capture slices only what the
        command itself recorded."""
        return trace.last_seq(), journal.last_seq()

    def capture(self, *, kind: str, statement: str, session,
                duration: float, frame, trace, journal,
                marks: tuple[int, int], threshold_ms: float,
                trace_id: str | None = None,
                plan: str | None = None) -> SlowOp:
        """Record one over-threshold operation.  ``threshold_ms`` is the
        threshold the caller judged ``duration`` against — snapshotted
        with ``marks``, because the command being captured may itself
        have re-armed or disarmed the recorder since."""
        span_mark, prov_mark = marks
        spans = [
            {
                "seq": record.seq,
                "step": record.step,
                "detail": record.detail,
                "depth": record.depth,
                "parent": record.parent,
                "trace_id": record.trace_id,
                "duration_ms": (
                    None if record.duration is None
                    else round(record.duration * 1e3, 4)),
            }
            for record in trace.since(span_mark, limit=MAX_SPANS)
        ]
        provenance = [
            {
                "seq": record.seq,
                "kind": record.kind,
                "name": record.name,
                "context": record.context,
                "detail": record.detail,
                "parents": list(record.parents),
            }
            for record in journal.since(prov_mark, limit=MAX_PROVENANCE)
        ]
        record = SlowOp(
            seq=self._next_seq(),
            at=self._clock(),
            kind=kind,
            statement=statement[:MAX_STATEMENT],
            session_id=session.session_id,
            user=session.user,
            duration_ms=round(duration * 1e3, 4),
            threshold_ms=threshold_ms,
            counters=frame.as_dict() if frame is not None else {},
            spans=spans,
            provenance=provenance,
            trace_id=trace_id,
            plan=plan,
        )
        with self._lock:
            self._append(record)
            self.captured_total += 1
        return record
