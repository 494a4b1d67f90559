"""Span-based pipeline tracing: timed, nested, thread-safe.

Generalizes the original flat ``PipelineTrace`` step records into *spans*:
each record carries a start time, an end time (``None`` while open), and a
link to its parent span, so one client command through the agent yields a
tree — gateway receipt → language-filter classification → ECA parse →
codegen → LED detection (per-node operator evaluation) → condition check →
action execution → result routing.

The Figure 3 / Figure 4 step constants are kept as span names, so the
original control-flow semantics (and their tests) survive: ``emit()``
records an instantaneous span, ``span()`` brackets a timed region.

Causality across threads is explicit: the per-thread nesting state lives
in an :class:`~repro.obs.ambient.Ambient` (open spans + an inherited
:class:`TraceContext`: trace id + parent span id + baggage), captured on
one thread and adopted on another, so spans recorded on worker-pool or
rule-action threads still hang off the originating client command's
tree.  Spans carrying a trace id are additionally pinned into a bounded
per-trace store (``show agent trace <trace_id>``) that survives the main
log's eviction.

Tracing is off by default and costs one branch per hook when off.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass

from .ambient import Ambient, Handoff, TraceContext
from .boundedlog import BoundedLog

__all__ = [
    "PipelineTrace",
    "SpanRecord",
    "TraceContext",
    "FIG3_COMMAND_RECEIVED",
    "FIG3_CLASSIFIED_ECA",
    "FIG3_PASSED_THROUGH",
    "FIG3_GRAPH_CREATED",
    "FIG3_SQL_INSTALLED",
    "FIG3_PERSISTED",
    "FIG4_NOTIFIED",
    "FIG4_DETECTED",
    "FIG4_ACTION_RUN",
    "FIG4_RESULTS_ROUTED",
    "SPAN_CLASSIFY",
    "SPAN_ECA_PARSE",
    "SPAN_ECA_CODEGEN",
    "SPAN_LED_RAISE",
    "SPAN_LED_OP_PREFIX",
    "SPAN_QUEUE_WAIT",
    "SPAN_RULE_CONDITION",
    "SPAN_RULE_ACTION",
    "SPAN_GED_ROUTE",
    "SPAN_GED_SHARD",
    "SPAN_GED_REPLAY",
]

#: Step identifiers, named after the paper's figures (kept verbatim from
#: the original flat trace so existing tooling and tests keep working).
FIG3_COMMAND_RECEIVED = "fig3.1-2:command->filter"
FIG3_CLASSIFIED_ECA = "fig3.3:classified-eca"
FIG3_PASSED_THROUGH = "fig3.4:passed-through"
FIG3_GRAPH_CREATED = "fig3.5:event-graph-created"
FIG3_SQL_INSTALLED = "fig3.5:generated-sql-installed"
FIG3_PERSISTED = "fig3.7:persisted"
FIG4_NOTIFIED = "fig4.2-3:notification-received"
FIG4_DETECTED = "fig4.4:led-detected"
FIG4_ACTION_RUN = "fig4.5:action-executed"
FIG4_RESULTS_ROUTED = "fig4.6:results-routed"

#: Additional span names for the finer-grained pipeline stages.
SPAN_CLASSIFY = "filter:classify"
SPAN_ECA_PARSE = "eca:parse"
SPAN_ECA_CODEGEN = "eca:codegen"
SPAN_LED_RAISE = "led:raise"
SPAN_LED_OP_PREFIX = "led:op:"
SPAN_RULE_CONDITION = "rule:condition"
SPAN_RULE_ACTION = "rule:action"
SPAN_QUEUE_WAIT = "gateway:queue-wait"

#: Sharded-GED span names: routing one forwarded occurrence, feeding one
#: shard's detector, and replaying a recovering site's partition.  A
#: datagram's ``;tc=`` trailer re-activates the originating command's
#: trace context before these spans open, so a cross-site composite
#: renders as one connected tree.
SPAN_GED_ROUTE = "ged:route"
SPAN_GED_SHARD = "ged:shard"
SPAN_GED_REPLAY = "ged:replay"

@dataclass
class SpanRecord:
    """One span: a named, timed region of the pipeline (or an instant)."""

    seq: int
    step: str
    detail: str = ""
    parent: int | None = None
    depth: int = 0
    start: float = 0.0
    end: float | None = None
    #: trace id stamped from the active :class:`TraceContext` (None for
    #: spans recorded outside any client command's context)
    trace_id: str | None = None

    @property
    def duration(self) -> float | None:
        """Elapsed seconds, or None while the span is still open."""
        if self.end is None:
            return None
        return self.end - self.start


#: Reusable no-op context manager (tracing disabled, nothing to adopt).
_NULL_SPAN = nullcontext()


class _OpenSpan:
    """Context manager opening a span on entry and closing it on exit."""

    __slots__ = ("_trace", "_step", "_detail", "record")

    def __init__(self, trace: "PipelineTrace", step: str, detail: str):
        self._trace = trace
        self._step = step
        self._detail = detail
        self.record: SpanRecord | None = None

    def __enter__(self) -> SpanRecord:
        trace = self._trace
        self.record = trace._record(
            self._step, self._detail, trace._clock(), None)
        return self.record

    def __exit__(self, *_exc) -> bool:
        if self.record is not None:
            self._trace._close(self.record)
        return False


class PipelineTrace(BoundedLog):
    """Bounded in-memory span log (thread-safe).

    Nesting is tracked per thread: spans opened on one thread become
    parents of the spans and point records emitted by that thread until
    they close.  When the log is full the oldest tenth of the records
    is dropped (always at least one, so small logs stay bounded).
    """

    #: Bounds on the per-trace pinned-span store (oldest trace evicted).
    MAX_TRACES = 256
    MAX_TRACE_SPANS = 512

    def __init__(self, enabled: bool = False, max_records: int = 10_000,
                 clock=time.perf_counter):
        super().__init__(max_records)
        self.enabled = enabled
        #: per-thread open-span stack + inherited context (private here;
        #: the agent points its three planes at one shared ambient)
        self.ambient = Ambient()
        self._trace_seq = itertools.count(1)
        #: trace_id -> pinned spans, insertion-ordered for FIFO eviction
        self._traces: OrderedDict[str, list[SpanRecord]] = OrderedDict()
        #: ``trace next <N>`` sampling window state
        self._sampling = False
        self._sample_remaining = 0
        self._sample_restore = False
        self._clock = clock

    def current(self) -> SpanRecord | None:
        """The innermost open span on this thread, if any."""
        spans = self.ambient.state().spans
        return spans[-1] if spans else None

    # -- recording ------------------------------------------------------

    def _record(self, step: str, detail: str, start: float,
                end: float | None) -> SpanRecord:
        """Append one record parented by this thread's ambient state:
        the innermost open span wins; with no open span, the inherited
        :class:`TraceContext` (if any) supplies parent, depth and trace
        id."""
        state = self.ambient.state()
        if state.spans:
            parent = state.spans[-1]
            parent_seq, depth, trace_id = (
                parent.seq, parent.depth + 1, parent.trace_id)
        elif state.ctx is not None:
            ctx = state.ctx
            parent_seq, depth, trace_id = (
                ctx.parent_span, ctx.depth, ctx.trace_id)
        else:
            parent_seq, depth, trace_id = None, 0, None
        record = SpanRecord(
            seq=self._next_seq(), step=step, detail=detail,
            parent=parent_seq, depth=depth,
            start=start, end=end, trace_id=trace_id,
        )
        with self._lock:
            self._append(record)
            if record.trace_id is not None:
                spans = self._traces.get(record.trace_id)
                if spans is None:
                    while len(self._traces) >= self.MAX_TRACES:
                        self._traces.popitem(last=False)
                    spans = []
                    self._traces[record.trace_id] = spans
                if len(spans) < self.MAX_TRACE_SPANS:
                    spans.append(record)
        if end is None:
            state.spans.append(record)
        return record

    def emit(self, step: str, detail: str = "") -> None:
        """Record one instantaneous step (no-op while disabled)."""
        if not self.enabled:
            return
        now = self._clock()
        self._record(step, detail, now, now)

    def span(self, step: str, detail: str = ""):
        """A context manager recording a timed span around the ``with``
        body (the span opens on entry, not at call time).

        Children recorded on the same thread inside the body are linked
        to this span.  Returns a shared no-op context manager while
        disabled (one branch, no allocation).
        """
        if not self.enabled:
            return _NULL_SPAN
        return _OpenSpan(self, step, detail)

    def _close(self, record: SpanRecord) -> None:
        record.end = self._clock()
        stack = self.ambient.state().spans
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:  # pragma: no cover - unbalanced exit guard
            stack.remove(record)

    def record_span(self, step: str, detail: str = "", *,
                    start: float, end: float) -> SpanRecord | None:
        """Record an already-measured span with explicit timestamps,
        parented like any other record on this thread (no-op while
        disabled).  Used for regions measured before the trace context
        existed — e.g. the gateway's queue-wait interval, whose start
        was stamped on the submitting client thread."""
        if not self.enabled:
            return None
        return self._record(step, detail, start, end)

    # -- explicit trace-context propagation ------------------------------

    def activate(self, ctx: TraceContext | None):
        """Context manager installing ``ctx`` as this thread's inherited
        context for the ``with`` body: records opened with no enclosing
        span parent under ``ctx.parent_span`` and carry its trace id —
        the trace-only case of :meth:`Ambient.adopt
        <repro.obs.ambient.Ambient.adopt>`.  ``None`` returns a shared
        no-op (one branch on the off path)."""
        if ctx is None:
            return _NULL_SPAN
        return self.ambient.adopt(Handoff(ctx))

    def command_context(self, session=None) -> TraceContext | None:
        """A fresh root context for one client command (None while
        tracing is off).  Consumes one slot of an armed ``trace next
        <N>`` sampling window; when the window is spent, the *next* call
        restores the pre-sampling enabled flag, so the last sampled
        command finishes fully traced."""
        if self._sampling:
            with self._lock:
                if self._sampling:
                    if self._sample_remaining <= 0:
                        self._sampling = False
                        self.enabled = self._sample_restore
                    else:
                        self._sample_remaining -= 1
        if not self.enabled:
            return None
        baggage: dict = {"origin": "client"}
        session_id = getattr(session, "session_id", None)
        if session_id is not None:
            baggage["session_id"] = session_id
        user = getattr(session, "user", None)
        if user:
            baggage["user"] = user
        return TraceContext(
            trace_id=f"t{next(self._trace_seq):06d}",
            parent_span=None, depth=0, baggage=baggage)

    def sample_next(self, count: int) -> None:
        """Arm tracing for the next ``count`` client commands (``trace
        next <N>``): forces ``enabled`` on and restores its previous
        value once the window is spent."""
        with self._lock:
            count = max(0, int(count))
            if count and not self._sampling:
                self._sampling = True
                self._sample_restore = self.enabled
                self.enabled = True
            self._sample_remaining = count

    def sampling_remaining(self) -> int:
        """Commands left in the armed sampling window (0 = disarmed)."""
        return self._sample_remaining if self._sampling else 0

    # -- inspection ------------------------------------------------------

    @property
    def records(self) -> list[SpanRecord]:
        """A consistent copy of every retained record, in start order."""
        return self.snapshot()

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._traces.clear()

    def spans_for(self, trace_id: str) -> list[SpanRecord]:
        """The pinned spans of one trace, oldest first (empty when the
        trace id is unknown or evicted)."""
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def trace_ids(self) -> list[str]:
        """Trace ids retained in the store, oldest first."""
        with self._lock:
            return list(self._traces)

    def trace_count(self) -> int:
        """Number of traces currently retained in the store."""
        with self._lock:
            return len(self._traces)

    def steps(self) -> list[str]:
        """The span names, in start order."""
        return [record.step for record in self.records]

    def matching(self, prefix: str) -> list[SpanRecord]:
        """Records whose step starts with ``prefix`` (e.g. ``"fig4"``)."""
        return [record for record in self.records
                if record.step.startswith(prefix)]

    def tree(self) -> list[tuple[SpanRecord, list]]:
        """Nested (record, children) pairs for the retained records."""
        records = self.records
        nodes: dict[int, tuple[SpanRecord, list]] = {
            record.seq: (record, []) for record in records
        }
        roots: list[tuple[SpanRecord, list]] = []
        for record in records:
            node = nodes[record.seq]
            parent = nodes.get(record.parent) if record.parent else None
            if parent is not None:
                parent[1].append(node)
            else:
                roots.append(node)
        return roots

    def format(self) -> str:
        """Render the trace as aligned text (indented by span depth)."""
        lines = []
        for record in self.records:
            duration = record.duration
            timing = f"{duration * 1e3:9.3f}ms" if duration is not None else "      open"
            label = "  " * record.depth + record.step
            lines.append(
                f"{record.seq:>5}  {timing}  {label:<40} {record.detail}")
        return "\n".join(lines)
