"""``repro.obs`` — the end-to-end observability layer.

One event stream, several views, mirroring what the paper's evaluation
(Figures 15-17) measures by hand:

- :mod:`repro.obs.events` — the stream itself: one :class:`Event` record
  (a span, a provenance hop or a slow-op summary, told apart by
  ``kind``) in one bounded :class:`EventLog` per agent (one sequence
  counter, one lock, one clock), every event stamped with the id of the
  client command it was recorded for;
- :mod:`repro.obs.tracing`, :mod:`repro.obs.provenance`,
  :mod:`repro.obs.flightrec` — the three :class:`View`\\ s of that log:
  :class:`PipelineTrace` (timed, nested spans keyed by the paper's
  Figure 3/4 step names), :class:`ProvenanceJournal` (every
  notification, raise, detection, condition, firing and action as a
  parent-linked hop, plus exact per-(node, context) fire/consumption
  aggregates) and :class:`FlightRecorder` (``set agent slowlog <ms>`` /
  ``show agent slow``).  A view is an on/off flag and read-time filters;
  it stores nothing;
- :mod:`repro.obs.ambient` — the one per-thread ambient context
  (:class:`Ambient`: open spans, inherited :class:`TraceContext`,
  hop parents, accounting frames) and its one hand-off
  (``capture() -> Handoff`` / ``adopt(handoff)`` / ``reset()``) across
  queues, threads and the ``;tc=`` datagram trailer;
- :mod:`repro.obs.boundedlog` — the bounded, seq-stamped record log
  (:class:`BoundedLog`) the event log extends;
- :mod:`repro.obs.export` — the :class:`TelemetryExporter` snapshotting
  metrics, the event stream and accounting totals into rotating,
  size-bounded JSONL through one ``Event`` → line function;
- :mod:`repro.obs.metrics` — thread-safe :class:`Counter` /
  :class:`Histogram` primitives behind a labeled
  :class:`MetricsRegistry`, with text and dict exporters;
- :mod:`repro.obs.opcontext` — ambient per-session / per-rule resource
  accounting (:class:`OpAccounting`, surfaced by ``show agent top``);
  the SQL engine's one observability seam — closed frames fold into the
  registry's ``sql_*`` counters;
- :mod:`repro.obs.health` — the declarative watchdog
  (:class:`HealthEvaluator` behind ``show agent health``).

Metrics and accounting are aggregates, not records, and stay outside the
stream.  The ECA Agent owns a *private* registry, event log and
accounting plane per instance (so side-by-side agents and tests never
share state) and exposes them to clients through the ``show agent ...``
operator commands.

Everything but accounting is off by default and costs one branch per
hook when off.
"""

from __future__ import annotations

from .ambient import Ambient, Handoff
from .boundedlog import BoundedLog
from .events import Event, EventLog, View
from .export import TelemetryExporter
from .flightrec import FlightRecorder
from .health import (
    DEFAULT_HEALTH_RULES,
    HealthEvaluator,
    HealthFinding,
    HealthReport,
    HealthRule,
    collect_sample,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    HistogramSummary,
    MetricFamily,
    MetricsRegistry,
    bucket_bounds,
    percentile,
    quantile_from_buckets,
    summarize,
)
from .opcontext import OpAccounting, OpContext, RuleTotals, SessionTotals
from .provenance import NodeStat, ProvenanceJournal
from .tracing import (
    FIG3_CLASSIFIED_ECA,
    FIG3_COMMAND_RECEIVED,
    FIG3_GRAPH_CREATED,
    FIG3_PASSED_THROUGH,
    FIG3_PERSISTED,
    FIG3_SQL_INSTALLED,
    FIG4_ACTION_RUN,
    FIG4_DETECTED,
    FIG4_NOTIFIED,
    FIG4_RESULTS_ROUTED,
    SPAN_CLASSIFY,
    SPAN_ECA_CODEGEN,
    SPAN_ECA_PARSE,
    SPAN_LED_OP_PREFIX,
    SPAN_LED_RAISE,
    SPAN_QUEUE_WAIT,
    SPAN_RULE_ACTION,
    SPAN_RULE_CONDITION,
    PipelineTrace,
    TraceContext,
)

__all__ = [
    "Ambient",
    "BoundedLog",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_HEALTH_RULES",
    "Event",
    "EventLog",
    "FlightRecorder",
    "Handoff",
    "HealthEvaluator",
    "HealthFinding",
    "HealthReport",
    "HealthRule",
    "Histogram",
    "HistogramSummary",
    "MetricFamily",
    "MetricsRegistry",
    "NodeStat",
    "OpAccounting",
    "OpContext",
    "PipelineTrace",
    "ProvenanceJournal",
    "RuleTotals",
    "SessionTotals",
    "TelemetryExporter",
    "TraceContext",
    "View",
    "bucket_bounds",
    "collect_sample",
    "percentile",
    "quantile_from_buckets",
    "summarize",
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
]
