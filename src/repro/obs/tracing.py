"""The span view of the event stream: timed, nested, thread-safe.

One client command through the agent yields a tree of spans — gateway
receipt → language-filter classification → ECA parse → codegen → LED
detection (per-node operator evaluation) → condition check → action
execution → result routing.  Each is an
:class:`~repro.obs.events.Event` whose ``kind`` is one of the step names
below (the paper's Figure 3 / Figure 4 steps, kept verbatim, plus the
finer-grained ``SPAN_*`` stages), with a start time, an end time
(``None`` while open) and its enclosing span as ``parents[0]``.

:class:`PipelineTrace` is the spans-plane :class:`~repro.obs.events.View`
of an :class:`~repro.obs.events.EventLog`: the on/off flag (``set agent
trace on``), the ``trace next <N>`` window, and read-time filters
(``records``, ``tail``, ``spans_for``, ``tree``, ``format``).  The log
records; nesting state is per thread in the log's
:class:`~repro.obs.ambient.Ambient`, captured on one thread and adopted
on another, so spans recorded on worker-pool or rule-action threads
still hang off the originating client command's tree.  Spans carrying a
command id are additionally pinned per command (``show agent trace
<trace_id>``), which survives the log's eviction.

Tracing is off by default and costs one branch per hook when off.
"""

from __future__ import annotations

from .ambient import TraceContext
from .events import SPANS, Event, View, plane_of

__all__ = [
    "PipelineTrace",
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


class PipelineTrace(View):
    """The span plane of an event log (``PipelineTrace(enabled, capacity,
    clock)`` standalone, ``PipelineTrace(log=agent.events)`` shared).
    Recording (``span`` / ``emit`` / ``record_span``), command identity
    (``command_context`` / ``activate`` / ``sample_next``) and the pin
    index (``trace_ids`` / ``trace_count``) are the log's own methods."""

    PLANE = SPANS

    def current(self) -> Event | None:
        """The innermost open span on this thread, if any."""
        spans = self.ambient.state().spans
        return spans[-1] if spans else None

    # -- inspection ------------------------------------------------------

    @property
    def records(self) -> list[Event]:
        """A consistent copy of every retained span, in start order."""
        return self.snapshot()

    def spans_for(self, trace_id: str) -> list[Event]:
        """The pinned spans of one command, oldest first (empty when the
        id is unknown or evicted)."""
        return [event for event in self.log.events_for(trace_id)
                if plane_of(event.kind) == SPANS]

    def steps(self) -> list[str]:
        """The span names, in start order."""
        return [record.step for record in self.records]

    def matching(self, prefix: str) -> list[Event]:
        """Records whose step starts with ``prefix`` (e.g. ``"fig4"``)."""
        return [record for record in self.records
                if record.step.startswith(prefix)]

    def tree(self) -> list[tuple[Event, list]]:
        """Nested (record, children) pairs for the retained records."""
        records = self.records
        nodes: dict[int, tuple[Event, list]] = {
            record.seq: (record, []) for record in records
        }
        roots: list[tuple[Event, list]] = []
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
