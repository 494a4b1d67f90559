"""The agent watchdog: declarative health rules over live telemetry.

The metrics registry, plan cache, accounting plane, notification channel
and flight recorder each answer one narrow question; this module folds
them into the single question an operator (or a CI gate) actually asks —
*is the agent healthy right now?*  A :class:`HealthEvaluator` runs a
fixed list of :class:`HealthRule` checks against a flat sample dict and
produces a deterministic :class:`HealthReport` with an overall
``ok`` / ``degraded`` / ``critical`` status.

Rules are declarative — a key, a direction (floor or ceiling), a
threshold, and a severity — plus an optional minimum-activity guard so a
fresh agent with three plan-cache lookups is not declared degraded over
its hit rate.  The defaults watch the known failure axes of this stack:
plan-cache effectiveness (ROADMAP's ~0.45 composite-loop hit rate),
retry exhaustion, rule-action error rates, notification queue depth, and
LED dispatch-lock contention (the baseline data for the concurrent
multi-session gateway work).

``show agent health`` renders the report; the agent test suite requires
it ``ok`` on a clean workload and never ``critical`` under a mixed one.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DEFAULT_HEALTH_RULES",
    "HealthEvaluator",
    "HealthFinding",
    "HealthReport",
    "HealthRule",
    "collect_sample",
]

#: Severity ordering for the overall status fold.
_SEVERITY_RANK = {"ok": 0, "degraded": 1, "critical": 2}

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_CRITICAL = "critical"


@dataclass(frozen=True)
class HealthRule:
    """One declarative check over the sample dict.

    Args:
        name: stable identifier shown in reports.
        key: sample key holding the checked value.
        direction: ``"floor"`` breaches when value < threshold;
            ``"ceiling"`` breaches when value > threshold.
        threshold: the boundary value (inclusive values are healthy).
        severity: ``"degraded"`` or ``"critical"`` when breached.
        description: one operator-facing sentence.
        min_key / min_value: the rule is skipped (status ``skipped``)
            until ``sample[min_key] >= min_value`` — the
            minimum-activity guard.
    """

    name: str
    key: str
    direction: str
    threshold: float
    severity: str
    description: str
    min_key: str | None = None
    min_value: float = 0.0

    def __post_init__(self):
        if self.direction not in ("floor", "ceiling"):
            raise ValueError(
                f"direction must be 'floor' or 'ceiling', "
                f"got {self.direction!r}")
        if self.severity not in (STATUS_DEGRADED, STATUS_CRITICAL):
            raise ValueError(
                f"severity must be 'degraded' or 'critical', "
                f"got {self.severity!r}")


@dataclass(frozen=True)
class HealthFinding:
    """One rule's outcome within a report."""

    rule: str
    severity: str
    status: str  # "ok" | "breach" | "skipped"
    value: float
    threshold: float
    direction: str
    description: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "status": self.status,
            "value": self.value,
            "threshold": self.threshold,
            "direction": self.direction,
            "description": self.description,
        }


@dataclass(frozen=True)
class HealthReport:
    """The evaluator's output: overall status plus per-rule findings
    (in rule-list order, so reports are deterministic)."""

    status: str
    findings: tuple[HealthFinding, ...]
    sample: dict

    def breaches(self) -> list[HealthFinding]:
        return [f for f in self.findings if f.status == "breach"]

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "findings": [finding.as_dict() for finding in self.findings],
            "sample": dict(self.sample),
        }


#: The default watchdog rule set (see module docstring for rationale).
DEFAULT_HEALTH_RULES: tuple[HealthRule, ...] = (
    HealthRule(
        name="plan-cache-hit-rate",
        key="plan_cache_hit_rate", direction="floor", threshold=0.5,
        severity=STATUS_DEGRADED,
        description="plan-cache hit rate below 0.5 under real load",
        min_key="plan_cache_lookups", min_value=100,
    ),
    HealthRule(
        name="retry-exhaustion",
        key="retry_exhausted_total", direction="ceiling", threshold=0.0,
        severity=STATUS_DEGRADED,
        description="operations failed every allowed retry",
    ),
    HealthRule(
        name="action-error-rate",
        key="action_error_rate", direction="ceiling", threshold=0.05,
        severity=STATUS_DEGRADED,
        description="more than 5% of rule actions erroring",
        min_key="actions_total", min_value=10,
    ),
    HealthRule(
        name="action-error-rate-critical",
        key="action_error_rate", direction="ceiling", threshold=0.25,
        severity=STATUS_CRITICAL,
        description="more than 25% of rule actions erroring",
        min_key="actions_total", min_value=10,
    ),
    HealthRule(
        name="notification-backlog",
        key="notification_backlog", direction="ceiling", threshold=1000,
        severity=STATUS_DEGRADED,
        description="notification channel backlog above 1000 events",
    ),
    HealthRule(
        name="notification-backlog-critical",
        key="notification_backlog", direction="ceiling", threshold=10000,
        severity=STATUS_CRITICAL,
        description="notification channel backlog above 10000 events",
    ),
    HealthRule(
        name="led-lock-wait",
        key="led_lock_wait_p95_ms", direction="ceiling", threshold=50.0,
        severity=STATUS_DEGRADED,
        description="p95 wait for the LED dispatch lock above 50ms",
    ),
    HealthRule(
        name="led-lock-hold",
        key="led_lock_hold_p95_ms", direction="ceiling", threshold=100.0,
        severity=STATUS_DEGRADED,
        description="p95 LED dispatch lock hold above 100ms",
    ),
    HealthRule(
        name="queue-wait",
        key="queue_wait_p95_ms", direction="ceiling", threshold=200.0,
        severity=STATUS_DEGRADED,
        description="p95 time commands wait in session queues above "
                    "200ms (worker pool saturated or undersized)",
    ),
)


class HealthEvaluator:
    """Evaluates a rule list against sample dicts."""

    def __init__(self, rules: tuple[HealthRule, ...] | None = None):
        self.rules = DEFAULT_HEALTH_RULES if rules is None else tuple(rules)

    def evaluate(self, sample: dict) -> HealthReport:
        """One deterministic report over a flat sample dict (missing
        keys read as 0, which is the healthy direction for every
        default ceiling rule and triggers the activity guard on floors).
        """
        findings: list[HealthFinding] = []
        status = STATUS_OK
        for rule in self.rules:
            value = float(sample.get(rule.key, 0.0))
            if (rule.min_key is not None
                    and float(sample.get(rule.min_key, 0.0)) < rule.min_value):
                outcome = "skipped"
            elif ((rule.direction == "floor" and value < rule.threshold)
                  or (rule.direction == "ceiling"
                      and value > rule.threshold)):
                outcome = "breach"
                if (_SEVERITY_RANK[rule.severity]
                        > _SEVERITY_RANK[status]):
                    status = rule.severity
            else:
                outcome = "ok"
            findings.append(HealthFinding(
                rule=rule.name,
                severity=rule.severity,
                status=outcome,
                value=value,
                threshold=rule.threshold,
                direction=rule.direction,
                description=rule.description,
            ))
        return HealthReport(
            status=status, findings=tuple(findings), sample=dict(sample))


def _counter_total(metrics, name: str) -> float:
    """Sum of a counter family's children (0 when unregistered)."""
    family = metrics.get(name)
    if family is None:
        return 0
    return sum(metric.value() for _labels, metric in family.children())


def _histogram_p95_ms(metrics, name: str) -> float:
    """An unlabeled histogram family's p95 in ms (0.0 when absent)."""
    family = metrics.get(name)
    if family is None:
        return 0.0
    return family.summary().p95 * 1e3


def collect_sample(agent) -> dict:
    """One flat health sample from a live agent's telemetry surfaces.

    Every key is cheap to read: plain counters, cache stats, channel
    watermarks, and pre-aggregated histogram summaries.  Metrics-backed
    keys (retries, LED lock timings) read 0 while stats are off — their
    rules then see the healthy direction rather than stale data.
    """
    cache_stats = agent.server.plan_cache.stats()
    accounting = agent.accounting
    metrics = agent.metrics
    actions_total = accounting.actions_total
    action_errors = accounting.action_errors_total
    return {
        "plan_cache_hit_rate": cache_stats["hit_rate"],
        "plan_cache_lookups": cache_stats["hits"] + cache_stats["misses"],
        "retries_attempted_total": _counter_total(
            metrics, "retries_attempted"),
        "retry_exhausted_total": _counter_total(metrics, "retry_exhausted"),
        "actions_total": actions_total,
        "action_errors_total": action_errors,
        "action_error_rate": (
            action_errors / actions_total if actions_total else 0.0),
        "notification_backlog": max(
            0, agent.channel.sent_count - agent.channel.processed_count),
        "led_lock_wait_p95_ms": _histogram_p95_ms(
            metrics, "led_lock_wait_seconds"),
        "led_lock_hold_p95_ms": _histogram_p95_ms(
            metrics, "led_lock_hold_seconds"),
        "queue_wait_p95_ms": _histogram_p95_ms(
            metrics, "agent_queue_wait_seconds"),
        "slow_ops_recorded": len(agent.flightrec),
        "sessions_tracked": accounting.session_count(),
        "rules_tracked": accounting.rule_count(),
    }
