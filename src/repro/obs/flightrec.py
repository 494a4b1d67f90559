"""The slow-op view of the event stream: post-hoc capture of slow commands.

Tracing answers "what does a command do"; the flight recorder answers
"what did *that one slow command last Tuesday* do".  While armed (``set
agent slowlog <ms>``) every client command carries a command id, and
when a command's wall time exceeds the threshold the gateway records one
``slow_op`` :class:`~repro.obs.events.Event` into the agent's
:class:`~repro.obs.events.EventLog`: the operation's
:class:`~repro.obs.opcontext.OpContext` counters, its plan, and
references to the command's *own* spans and hops — the events pinned
under its command id, so another session's concurrent work is never
captured, and the references keep them readable after the log evicts
them.

Disarmed (the default) the recorder costs one attribute read per
command.  ``show agent slow [N]`` lists the slow ops; the telemetry
exporter writes each once as a ``{"type": "slow_op"}`` JSONL line.
"""

from __future__ import annotations

import time

from .events import (
    HOPS,
    KIND_SLOW_OP,
    SLOW,
    SPANS,
    Event,
    EventLog,
    View,
    plane_of,
)

__all__ = ["FlightRecorder"]

#: Default capacity of the private log a standalone recorder builds.
DEFAULT_CAPACITY = 64
#: Caps on the captured per-op slices (oldest kept, so the root span
#: survives), so one pathological command cannot make a slow op
#: expensive to hold or export.
MAX_SPANS = 200
MAX_PROVENANCE = 100
#: Statement text is truncated to this many characters in the record.
MAX_STATEMENT = 200


class FlightRecorder(View):
    """The slow-op plane of an event log (thread-safe).

    A slow op is an event of kind ``slow_op`` whose ``name`` is the
    command's classification and whose ``attrs`` hold ``statement``,
    ``session_id``, ``user``, ``duration_ms``, ``threshold_ms``,
    ``counters``, ``plan``, the wall-clock ``at`` and the captured
    ``spans`` / ``provenance`` event lists.
    """

    PLANE = SLOW

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 threshold_ms: float | None = None,
                 log: EventLog | None = None):
        self.log = log if log is not None else EventLog(capacity)
        self.threshold_ms = threshold_ms

    @property
    def threshold_ms(self) -> float | None:
        """Slow-op threshold in milliseconds; ``None`` disarms capture."""
        return self.log.slow_ms

    @threshold_ms.setter
    def threshold_ms(self, value: float | None) -> None:
        self.log.slow_ms = value
        self.log.set_plane(SLOW, value is not None)

    @property
    def enabled(self) -> bool:
        """Whether capture is armed (set through ``threshold_ms``)."""
        return self.log.slow_ms is not None

    armed = enabled

    def capture(self, *, kind: str, statement: str, session,
                duration: float, frame, threshold_ms: float,
                trace_id: str | None = None,
                plan: str | None = None) -> Event:
        """Record one over-threshold operation.  ``threshold_ms`` is the
        threshold the caller judged ``duration`` against — read before
        routing, because the command being captured may itself have
        re-armed or disarmed the recorder since."""
        log = self.log
        mine = log.events_for(trace_id) if trace_id is not None else []
        end = log.clock()
        return log.record(Event(
            KIND_SLOW_OP, kind, start=end - duration, end=end,
            trace_id=trace_id,
            attrs={
                "at": time.time(),
                "statement": statement[:MAX_STATEMENT],
                "session_id": session.session_id,
                "user": session.user,
                "duration_ms": round(duration * 1e3, 4),
                "threshold_ms": threshold_ms,
                "counters": frame.as_dict() if frame is not None else {},
                "plan": plan,
                "spans": [e for e in mine
                          if plane_of(e.kind) == SPANS][:MAX_SPANS],
                "provenance": [e for e in mine
                               if plane_of(e.kind) == HOPS][:MAX_PROVENANCE],
            }))
