"""Thread-safe metrics primitives and the process-wide registry.

The paper's evaluation (Figures 15-17) is entirely about *where time
goes* inside the ECA Agent; this module provides the counters and
latency histograms the instrumented pipeline reports into, plus the
summary math the benchmark suite reuses for tail-latency reporting.

Design constraints:

- **Thread-safe**: the agent fires rules from notification-listener and
  detached-action threads concurrently with client commands; every
  mutation takes the metric's lock, so increments are never lost.
- **Bounded**: histograms are *log-bucketed* — a fixed 1-2-5 decade
  series of upper bounds from 1µs to 10s by default — so memory is
  constant regardless of observation count.  ``count``/``sum``/``max``
  are exact; p50/p95/p99 are estimated by cumulative walk with linear
  interpolation inside the selected bucket, clamped to the observed
  maximum (so a quantile never exceeds any real observation).
- **Cheap when disabled**: every mutator starts with one branch on the
  registry's ``enabled`` flag and returns immediately when off.

The text exposition renders histograms in the Prometheus native format —
cumulative ``_bucket{le="..."}`` lines ending at ``le="+Inf"`` plus
``_sum`` — alongside the pre-digested ``_count``/``_mean``/``_p50``/
``_p95``/``_p99``/``_max`` summary lines the admin plane shows.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import deque
from dataclasses import dataclass

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Histogram",
    "HistogramSummary",
    "MetricFamily",
    "MetricsRegistry",
    "bucket_bounds",
    "percentile",
    "quantile_from_buckets",
    "summarize",
]


def _one_two_five(low_exp: int = -6, high_exp: int = 1) -> tuple[float, ...]:
    """A 1-2-5 decade series of bucket upper bounds: 1e<low_exp> ..
    1e<high_exp> (each bound parsed from its decimal literal, so the
    rendered ``le`` labels are the familiar short forms)."""
    bounds = [
        float(f"{mantissa}e{exponent}")
        for exponent in range(low_exp, high_exp)
        for mantissa in (1, 2, 5)
    ]
    bounds.append(float(f"1e{high_exp}"))
    return tuple(bounds)


#: Default latency bucket upper bounds (seconds): 1µs .. 10s in 1-2-5
#: steps, 22 buckets plus the implicit +Inf overflow bucket.
DEFAULT_BUCKETS = _one_two_five()


def quantile_from_buckets(bounds: tuple[float, ...], counts,
                          q: float, maximum: float | None = None) -> float:
    """Estimate the q-th percentile from per-bucket counts.

    ``bounds`` are ascending upper bounds; ``counts`` has one entry per
    bucket plus a trailing overflow count.  The estimator finds the
    nearest-rank bucket in the cumulative distribution, then linearly
    interpolates between the bucket's lower and upper bound (the first
    bucket interpolates up from 0; the overflow bucket reports
    ``maximum``).  The result is clamped to ``maximum`` so an estimate
    never exceeds a real observation.  Returns 0.0 for empty counts.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    total = sum(counts)
    if not total:
        return 0.0
    rank = math.ceil(q / 100.0 * total)
    seen = 0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        seen += bucket_count
        if seen < rank:
            continue
        if index == len(bounds):  # overflow bucket: no finite upper bound
            return maximum if maximum is not None else bounds[-1]
        lower = bounds[index - 1] if index else 0.0
        upper = bounds[index]
        fraction = (rank - (seen - bucket_count)) / bucket_count
        estimate = lower + fraction * (upper - lower)
        if maximum is not None and estimate > maximum:
            return maximum
        return estimate
    return maximum if maximum is not None else bounds[-1]


def bucket_bounds(value: float,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> tuple[float, float]:
    """The (lower, upper) bounds of the bucket ``value`` falls into.

    The benchmark suite uses the returned width as the agreement
    tolerance between histogram-estimated and wall-clock quantiles.
    The overflow bucket's upper bound is ``+Inf``.
    """
    index = bisect.bisect_left(bounds, value)
    if index >= len(bounds):
        return bounds[-1], math.inf
    return (bounds[index - 1] if index else 0.0, bounds[index])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already *sorted* sample list.

    ``percentile(sorted(range(1, 101)), 95) == 95``.  Raises on an empty
    sample set (callers guard on count).
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample set")
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True)
class HistogramSummary:
    """Point-in-time summary of one histogram (or raw sample list)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @property
    def median(self) -> float:
        return self.p50

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


_EMPTY_SUMMARY = HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)


def summarize(samples: list[float]) -> HistogramSummary:
    """Summary statistics over a raw sample list (benchmark helper)."""
    if not samples:
        return _EMPTY_SUMMARY
    ordered = sorted(samples)
    return HistogramSummary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=percentile(ordered, 50),
        p95=percentile(ordered, 95),
        p99=percentile(ordered, 99),
        max=ordered[-1],
    )


class _Metric:
    """Base: one labeled child of a family."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._lock = threading.Lock()

    def value(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count (resettable by the operator)."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry"):
        super().__init__(registry)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Histogram(_Metric):
    """Log-bucketed latency/size distribution.

    Observations land in the first bucket whose upper bound is >= the
    value (Prometheus ``le`` semantics); values above the last bound go
    to the implicit +Inf overflow bucket.  ``count``/``sum``/``max`` are
    exact; quantiles are bucket-interpolated estimates (see
    :func:`quantile_from_buckets`), so memory stays O(buckets) at any
    observation rate.
    """

    kind = "histogram"

    #: Exemplars retained per bucket (newest last); tiny, so tracing a
    #: command never turns the histogram into a trace store.
    EXEMPLARS_PER_BUCKET = 3

    def __init__(self, registry: "MetricsRegistry",
                 buckets: tuple[float, ...] | None = None):
        super().__init__(registry)
        bounds = tuple(
            float(bound)
            for bound in (DEFAULT_BUCKETS if buckets is None else buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(upper <= lower for lower, upper in zip(bounds, bounds[1:])):
            raise ValueError(
                "histogram bucket boundaries must be strictly increasing")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf overflow
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        #: bucket index -> deque of (trace_id, value); lazily created so
        #: histograms that never see a traced observation pay nothing
        self._exemplars: dict[int, deque] | None = None

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._counts[bisect.bisect_left(self.buckets, value)] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    def observe_with_trace(self, value: float, trace_id: str | None) -> None:
        """Observe ``value`` and pin ``trace_id`` as an exemplar on the
        bucket it lands in — the correlation hook letting an operator
        jump from a latency bucket to ``show agent trace <id>``."""
        if not self._registry.enabled:
            return
        with self._lock:
            index = bisect.bisect_left(self.buckets, value)
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            if trace_id is not None:
                if self._exemplars is None:
                    self._exemplars = {}
                bucket = self._exemplars.get(index)
                if bucket is None:
                    bucket = deque(maxlen=self.EXEMPLARS_PER_BUCKET)
                    self._exemplars[index] = bucket
                bucket.append((trace_id, value))

    def exemplars(self) -> dict[int, list[tuple[str, float]]]:
        """Retained (trace id, value) exemplars keyed by bucket index
        (the +Inf overflow bucket is ``len(self.buckets)``), oldest
        first within each bucket."""
        with self._lock:
            if not self._exemplars:
                return {}
            return {index: list(items)
                    for index, items in self._exemplars.items()}

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-interpolated percentile estimate (0.0 when empty)."""
        with self._lock:
            return quantile_from_buckets(
                self.buckets, self._counts, q, self._max)

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(upper bound, cumulative count)`` pairs,
        ending with the ``(+Inf, total)`` overflow bucket."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        out.append((math.inf, cumulative + counts[-1]))
        return out

    def summary(self) -> HistogramSummary:
        with self._lock:
            if not self._count:
                return _EMPTY_SUMMARY
            return HistogramSummary(
                count=self._count,
                mean=self._sum / self._count,
                p50=quantile_from_buckets(
                    self.buckets, self._counts, 50, self._max),
                p95=quantile_from_buckets(
                    self.buckets, self._counts, 95, self._max),
                p99=quantile_from_buckets(
                    self.buckets, self._counts, 99, self._max),
                max=self._max,
            )

    def value(self) -> HistogramSummary:
        return self.summary()

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._count = 0
            self._sum = 0.0
            self._max = 0.0
            self._exemplars = None


class MetricFamily:
    """One named metric with a fixed label schema and per-label children.

    An unlabeled family acts as its own single child: ``inc``/
    ``observe`` proxy to ``labels()`` with no values.
    """

    def __init__(self, registry: "MetricsRegistry", name: str,
                 metric_cls: type, help: str, labelnames: tuple[str, ...],
                 **metric_kwargs):
        self.registry = registry
        self.name = name
        self.metric_cls = metric_cls
        self.help = help
        self.labelnames = tuple(labelnames)
        self._metric_kwargs = metric_kwargs
        self._children: dict[tuple[str, ...], _Metric] = {}
        self._lock = threading.Lock()

    @property
    def kind(self) -> str:
        return self.metric_cls.kind

    def labels(self, *values) -> _Metric:
        """The child metric for one label-value tuple (created on demand).

        Keys are tuples of strings, so the usual all-``str`` call finds
        an existing child in one dict read; anything else is checked and
        normalized first."""
        child = self._children.get(values)
        if child is not None:
            return child
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric '{self.name}' takes {len(self.labelnames)} label "
                f"values ({', '.join(self.labelnames)}), got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self.metric_cls(self.registry, **self._metric_kwargs)
                    self._children[key] = child
        return child

    # -- unlabeled convenience proxies ---------------------------------

    def inc(self, amount=1) -> None:
        self.labels().inc(amount)

    def observe(self, value) -> None:
        self.labels().observe(value)

    def observe_with_trace(self, value, trace_id) -> None:
        self.labels().observe_with_trace(value, trace_id)

    def value(self):
        return self.labels().value()

    def summary(self):
        return self.labels().summary()

    def quantile(self, q):
        return self.labels().quantile(q)

    # -- iteration ------------------------------------------------------

    def children(self) -> list[tuple[dict[str, str], _Metric]]:
        """(labels dict, metric) pairs, sorted by label values."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), metric)
            for key, metric in items
        ]

    def reset(self) -> None:
        with self._lock:
            children = list(self._children.values())
        for child in children:
            child.reset()


class MetricsRegistry:
    """Registry of labeled metric families (one per process or per agent).

    Registration is idempotent: asking for an existing name returns the
    existing family (the kind and label schema must match).  All mutators
    on child metrics are no-ops while ``enabled`` is False.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------

    def _family(self, name: str, metric_cls: type, help: str,
                labelnames: tuple[str, ...], **kwargs) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.metric_cls is not metric_cls:
                    raise ValueError(
                        f"metric '{name}' already registered as "
                        f"{family.kind}, not {metric_cls.kind}")
                if family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric '{name}' already registered with labels "
                        f"{family.labelnames}, not {tuple(labelnames)}")
                return family
            family = MetricFamily(
                self, name, metric_cls, help, tuple(labelnames), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> MetricFamily:
        return self._family(name, Counter, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] | None = None) -> MetricFamily:
        return self._family(
            name, Histogram, help, labelnames, buckets=buckets)

    # -- introspection / export ----------------------------------------

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def as_dict(self) -> dict[str, dict]:
        """Nested-dict export: ``{name: {type, help, values: [...]}}``."""
        out: dict[str, dict] = {}
        for family in self.families():
            values = []
            for labels, metric in family.children():
                value = metric.value()
                if isinstance(value, HistogramSummary):
                    value = value.as_dict()
                    if isinstance(metric, Histogram):
                        value["buckets"] = [
                            [_le_text(bound), cumulative]
                            for bound, cumulative
                            in metric.cumulative_buckets()
                        ]
                values.append({"labels": labels, "value": value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "values": values,
            }
        return out

    def render_text(self) -> str:
        """Prometheus-style text exposition of every family."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, metric in family.children():
                suffix = _render_labels(labels)
                value = metric.value()
                if isinstance(value, HistogramSummary):
                    if isinstance(metric, Histogram):
                        exemplars = metric.exemplars()
                        for index, (bound, cumulative) in enumerate(
                                metric.cumulative_buckets()):
                            bucket_labels = dict(labels)
                            bucket_labels["le"] = _le_text(bound)
                            line = (f"{family.name}_bucket"
                                    f"{_render_labels(bucket_labels)} "
                                    f"{cumulative}")
                            pinned = exemplars.get(index)
                            if pinned:
                                # OpenMetrics exemplar syntax: newest
                                # retained trace id for this bucket.
                                trace_id, observed = pinned[-1]
                                line += (' # {trace_id="'
                                         f'{_escape_label_value(trace_id)}'
                                         f'"}} {_fmt(observed)}')
                            lines.append(line)
                        lines.append(
                            f"{family.name}_sum{suffix} {_fmt(metric.sum)}")
                    for stat, stat_value in value.as_dict().items():
                        lines.append(
                            f"{family.name}_{stat}{suffix} {_fmt(stat_value)}")
                else:
                    lines.append(f"{family.name}{suffix} {_fmt(value)}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero every metric (families and label schemas survive)."""
        for family in self.families():
            family.reset()


def _le_text(bound: float) -> str:
    """The ``le`` label text for one bucket bound (``+Inf`` for the
    overflow bucket)."""
    return "+Inf" if bound == math.inf else _fmt(bound)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double quote, and line feed."""
    return (value.replace("\\", r"\\")
                 .replace('"', r"\"")
                 .replace("\n", r"\n"))


def _escape_help(text: str) -> str:
    """Escape HELP text per the exposition format (backslash, line feed)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(value)}"'
        for key, value in labels.items()
    )
    return "{" + inner + "}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)
