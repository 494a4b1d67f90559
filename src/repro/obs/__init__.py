"""``repro.obs`` — the end-to-end observability layer.

The parts, mirroring what the paper's evaluation (Figures 15-17)
measures by hand:

- :mod:`repro.obs.ambient` — the one per-thread ambient context
  (:class:`Ambient`: open spans, inherited :class:`TraceContext`,
  provenance parents, accounting frames) and its one hand-off
  (``capture() -> Handoff`` / ``adopt(handoff)`` / ``reset()``) across
  queues, threads and the ``;tc=`` datagram trailer;
- :mod:`repro.obs.boundedlog` — the one bounded, seq-stamped record log
  (:class:`BoundedLog`) the trace, journal and flight recorder extend;
- :mod:`repro.obs.metrics` — thread-safe :class:`Counter` / :class:`Gauge`
  / :class:`Histogram` primitives behind a labeled
  :class:`MetricsRegistry`, with text and dict exporters;
- :mod:`repro.obs.tracing` — the span-based :class:`PipelineTrace`
  (timed, nested records keyed by the paper's Figure 3/4 step names);
- :mod:`repro.obs.provenance` — the causality-aware
  :class:`ProvenanceJournal` (every notification, raise, detection,
  condition, firing and action as a parent-linked record, plus exact
  per-(node, context) fire/consumption aggregates);
- :mod:`repro.obs.export` — the :class:`TelemetryExporter` snapshotting
  all surfaces into rotating, size-bounded JSONL;
- :mod:`repro.obs.opcontext` — ambient per-session / per-rule resource
  accounting (:class:`OpAccounting`, surfaced by ``show agent top``);
- :mod:`repro.obs.flightrec` — the slow-op :class:`FlightRecorder`
  (``set agent slowlog <ms>`` / ``show agent slow``);
- :mod:`repro.obs.health` — the declarative watchdog
  (:class:`HealthEvaluator` behind ``show agent health``);
- the process-wide default instances behind :func:`get_metrics` /
  :func:`get_trace`, for code that wants one shared sink.

The ECA Agent owns a *private* registry and trace per instance (so
side-by-side agents and tests never share state) and exposes them to
clients through the ``show agent stats`` / ``show agent trace`` operator
commands; the defaults here serve standalone LED or engine embeddings.

Everything is off by default and costs one branch per hook when off.
"""

from __future__ import annotations

from .ambient import Ambient, Handoff
from .boundedlog import BoundedLog
from .export import TelemetryExporter
from .flightrec import FlightRecorder, SlowOp
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
    Gauge,
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
from .provenance import NodeStat, ProvenanceJournal, ProvenanceRecord
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
    SpanRecord,
    TraceContext,
)

__all__ = [
    "Ambient",
    "BoundedLog",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_HEALTH_RULES",
    "FlightRecorder",
    "Gauge",
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
    "ProvenanceRecord",
    "RuleTotals",
    "SessionTotals",
    "SlowOp",
    "SpanRecord",
    "TelemetryExporter",
    "TraceContext",
    "bucket_bounds",
    "collect_sample",
    "percentile",
    "quantile_from_buckets",
    "summarize",
    "get_metrics",
    "get_trace",
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

#: Process-wide defaults (created eagerly: cheap, and import-order safe).
_default_metrics = MetricsRegistry(enabled=False)
_default_trace = PipelineTrace(enabled=False)


def get_metrics() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _default_metrics


def get_trace() -> PipelineTrace:
    """The process-wide default :class:`PipelineTrace`."""
    return _default_trace
