"""Operator introspection commands — the agent's ``sp_monitor`` analogue.

The Language Filter routes ``show/reset/set/export agent ...`` and
``explain trigger ...`` commands here; answers come back as ordinary
result sets and messages, so *any* client that can issue SQL can inspect
the agent — without touching the DBMS engine (the paper's core
transparency constraint).

The surface is declared exactly once, in :data:`COMMANDS` at the bottom
of this module: one row per command — its usage text, its argument
pattern (derived from the usage unless the command takes more than an
optional ``[N]``), that ``[N]``'s default and clamp, and the view
function that answers it.  The matcher, the unknown-command usage error
and the ``[N]`` validation are all derived from that table, and
``docs/OPERATORS.md`` §1 describes each row for operators (a test keeps
the two, and the Language Filter's admin prefix, in step).

Numeric ``[N]`` arguments are validated: a non-numeric value yields a
one-row error result set (not a raised exception), and values are
clamped to the underlying buffer's capacity.
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import Callable, NamedTuple

from repro.obs.metrics import HistogramSummary
from repro.obs.provenance import KIND_ACTION
from repro.sqlengine.results import BatchResult, ResultSet

from .errors import AgentError
from .naming import expand_name

#: Hard ceiling for ``set agent workers`` (threads are not free).
MAX_WORKERS = 128

#: Operator-node class -> the Snoop operator it implements.
_NODE_KINDS = {
    "PrimitiveEventNode": "primitive",
    "OrNode": "OR",
    "AndNode": "AND",
    "SeqNode": "SEQ",
    "NotNode": "NOT",
    "AperiodicNode": "A",
    "AperiodicStarNode": "A*",
    "PeriodicNode": "P",
    "PeriodicStarNode": "P*",
    "PlusNode": "PLUS",
}


#: Max characters of cached-statement text shown by ``show agent cache``.
STATEMENT_CLIP = 80


def _clip(text: str, limit: int = STATEMENT_CLIP) -> str:
    """One-line, length-capped rendering of a cached batch's SQL text."""
    flat = " ".join(text.split())
    if len(flat) <= limit:
        return flat
    return flat[:limit - 3] + "..."


def _span_rows(spans, with_trace_id: bool = False) -> ResultSet:
    """Span events as ``show agent trace`` rows, indented by depth."""
    rows = ResultSet(columns=[
        "seq", "parent", *(["trace_id"] if with_trace_id else []),
        "step", "detail", "duration_ms",
    ])
    for record in spans:
        duration = record.duration
        rows.rows.append([
            record.seq, record.parent,
            *([record.trace_id] if with_trace_id else []),
            "  " * record.depth + record.step, record.detail,
            None if duration is None else round(duration * 1e3, 4),
        ])
    return rows


def _error_result(message: str) -> BatchResult:
    """A one-row error result set (argument problems are answered, not
    raised: the client's batch keeps working)."""
    return BatchResult(result_sets=[
        ResultSet(columns=["error"], rows=[[message]])])


class AgentAdmin:
    """Executes agent introspection commands against the agent's own
    metrics registry, pipeline trace, and provenance journal."""

    def __init__(self, agent):
        self.agent = agent

    # ------------------------------------------------------------------
    # entry point

    def handle(self, sql: str, session=None) -> BatchResult:
        for matcher, command in _MATCHERS:
            match = matcher.match(sql)
            if match is None:
                continue
            groups = match.groupdict()
            if command.rows is not None:
                label, default, capacity = command.rows
                groups["count"], error = self._parse_count(
                    groups.pop("n"), default, capacity(self, groups), label)
                if error is not None:
                    return error
            if command.session:
                groups["session"] = session
            return command.view(self, **groups)
        raise AgentError(_USAGE)

    @staticmethod
    def _parse_count(text: str | None, default: int, capacity: int,
                     command: str) -> tuple[int, BatchResult | None]:
        """Validate an optional ``[N]`` argument: non-numeric input is
        answered with a one-row error result set; values are clamped to
        ``[1, capacity]``."""
        if text is None:
            return default, None
        try:
            count = int(text)
        except ValueError:
            return 0, _error_result(
                f"'{command}' expects a row count, got {text!r}")
        if count < 1:
            count = 1
        return min(count, capacity), None

    # ------------------------------------------------------------------
    # show

    def _count_metric_rows(self) -> int:
        """Total metric children across every family (the ``stats top``
        clamp capacity)."""
        return sum(
            len(family.children())
            for family in self.agent.metrics.families())

    def _show_stats(self, count: int, top: str | None) -> BatchResult:
        """Every metric row, or with the ``top`` keyword only the
        ``count`` busiest of each result set."""
        counters = ResultSet(columns=["metric", "labels", "value"])
        latency = ResultSet(columns=[
            "metric", "labels", "count",
            "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
        ])
        for family in self.agent.metrics.families():
            for labels, metric in family.children():
                rendered = _render_labels(labels)
                value = metric.value()
                if isinstance(value, HistogramSummary):
                    latency.rows.append([
                        family.name, rendered, value.count,
                        round(value.mean * 1e3, 4),
                        round(value.p50 * 1e3, 4),
                        round(value.p95 * 1e3, 4),
                        round(value.p99 * 1e3, 4),
                        round(value.max * 1e3, 4),
                    ])
                else:
                    counters.rows.append([family.name, rendered, value])
        if top is not None:
            # Busiest first: counters by value, histograms by sample
            # count (ties break on name/labels for determinism).
            counters.rows.sort(key=lambda row: (-row[2], row[0], row[1]))
            latency.rows.sort(key=lambda row: (-row[2], row[0], row[1]))
            counters.rows = counters.rows[:count]
            latency.rows = latency.rows[:count]
        result = BatchResult(result_sets=[counters, latency])
        if not self.agent.metrics.enabled:
            result.messages.append(
                "Agent stats collection is off; enable with "
                "'set agent stats on'.")
        return result

    def _show_trace_arg(self, n: str | None) -> BatchResult:
        """``show agent trace``'s argument is a row count when numeric,
        else the id of a stored trace to render as a tree."""
        count, error = self._parse_count(
            n, 50, self.agent.trace.capacity, "show agent trace")
        if error is not None:
            return self._show_trace_tree(n)
        return self._show_trace(count)

    def _show_trace(self, count: int) -> BatchResult:
        trace = self.agent.trace
        result = BatchResult(result_sets=[_span_rows(trace.tail(count))])
        if not trace.enabled:
            result.messages.append(
                "Agent tracing is off; enable with 'set agent trace on'.")
        return result

    def _show_trace_tree(self, trace_id: str) -> BatchResult:
        """The full cross-thread span tree of one stored trace: every
        pinned span (client-thread, worker-thread queue-wait, detached
        action threads, notification listener) indented by its depth in
        the shared tree."""
        spans = self.agent.trace.spans_for(trace_id)
        if not spans:
            return _error_result(
                f"no stored trace with id {trace_id!r}; ids appear in "
                "telemetry lines, 'show agent slow', and histogram "
                "exemplars")
        return BatchResult(
            result_sets=[_span_rows(spans, with_trace_id=True)],
            messages=[f"Trace {trace_id}: {len(spans)} span(s)."])

    def _trace_next(self, n: str | None) -> BatchResult:
        """Arm the ``trace next <N>`` sampling window."""
        if n is None:
            return _error_result(
                "'trace next' expects a command count, e.g. 'trace next 5'")
        try:
            count = int(n)
        except ValueError:
            return _error_result(
                f"'trace next' expects a command count, got {n!r}")
        if count < 1:
            return _error_result(
                f"'trace next' expects a count >= 1, got {count}")
        self.agent.trace.sample_next(count)
        return BatchResult(messages=[
            f"Tracing armed for the next {count} client command(s)."])

    def _show_events(self, count: int) -> BatchResult:
        """The most recent provenance records, indented into lineage
        trees (a record nests under its first parent when that parent is
        within the displayed window)."""
        journal = self.agent.journal
        window = journal.tail(count)
        depths: dict[int, int] = {}
        rows = ResultSet(columns=[
            "seq", "kind", "record", "context", "detail", "parents",
        ])
        for record in window:
            parent_depth = (
                depths.get(record.parents[0]) if record.parents else None)
            depth = 0 if parent_depth is None else parent_depth + 1
            depths[record.seq] = depth
            rows.rows.append([
                record.seq,
                record.kind,
                "  " * depth + record.name,
                record.context,
                record.detail,
                ",".join(str(parent) for parent in record.parents),
            ])
        result = BatchResult(result_sets=[rows])
        if not journal.enabled:
            result.messages.append(
                "Agent provenance is off; enable with "
                "'set agent provenance on'.")
        return result

    def _show_graph(self) -> BatchResult:
        """Dump the full LED event graph: one row per (node, context)."""
        journal = self.agent.journal
        rows = ResultSet(columns=[
            "event", "kind", "children", "context", "fires", "consumed",
            "rules",
        ])
        led = self.agent.led
        for name in sorted(led.events):
            node = led.events[name]
            kind = _NODE_KINDS.get(type(node).__name__, type(node).__name__)
            children = ", ".join(
                f"{role}={child.name}" for role, child in node.role_children())
            rules = ", ".join(rule.name for rule in led.rules_for(node.name))
            for context in _node_contexts(node):
                summary = journal.node_summary(node.name, context)
                rows.rows.append([
                    node.name, kind, children, context,
                    summary["fires"] if summary else 0,
                    summary["consumed"] if summary else 0,
                    rules,
                ])
        result = BatchResult(result_sets=[rows])
        if not journal.enabled:
            result.messages.append(
                "Agent provenance is off; enable with "
                "'set agent provenance on'.")
        return result

    def _show_status(self) -> BatchResult:
        metrics = self.agent.metrics
        trace = self.agent.trace
        journal = self.agent.journal
        exporter = self.agent.exporter
        status = ResultSet(
            columns=["setting", "value"],
            rows=[
                ["stats", "on" if metrics.enabled else "off"],
                ["trace", "on" if trace.enabled else "off"],
                ["provenance", "on" if journal.enabled else "off"],
                ["metric_families", len(metrics.families())],
                ["trace_records", len(trace)],
                ["trace_capacity", trace.capacity],
                ["trace_sampling", trace.sampling_remaining()],
                ["traces_stored", trace.trace_count()],
                ["journal_records", len(journal)],
                ["journal_capacity", journal.capacity],
                ["accounting",
                 "on" if self.agent.accounting.enabled else "off"],
                ["accounted_sessions", self.agent.accounting.session_count()],
                ["accounted_rules", self.agent.accounting.rule_count()],
                ["slowlog_ms",
                 "off" if not self.agent.flightrec.armed
                 else self.agent.flightrec.threshold_ms],
                ["slow_ops", len(self.agent.flightrec)],
                ["exporter",
                 "none" if exporter is None else exporter.path],
            ],
        )
        return BatchResult(result_sets=[status])

    def _show_faults(self) -> BatchResult:
        faults = self.agent.faults
        specs = ResultSet(
            columns=["point", "kind", "mode", "times", "match", "seen",
                     "fired"])
        for row in faults.describe():
            specs.rows.append([
                row["point"], row["kind"], row["mode"], row["times"],
                row["match"], row["seen"], row["fired"],
            ])
        policy = self.agent.retry_policy
        retry = ResultSet(
            columns=["setting", "value"],
            rows=[
                ["injector", "armed" if faults.armed else "disarmed"],
                ["faults_injected", faults.injected_count],
                ["retry_max_attempts", policy.max_attempts],
                ["retry_backoff_s", policy.backoff],
                ["retry_multiplier", policy.multiplier],
                ["retry_timeout_s",
                 "unbounded" if policy.timeout is None else policy.timeout],
            ],
        )
        result = BatchResult(result_sets=[specs, retry])
        if not faults.plan.specs:
            result.messages.append(
                "No fault plan armed; pass faults=FaultPlan(...) when "
                "constructing the agent.")
        return result

    def _count_indexes(self) -> int:
        """Total table indexes across every database on the server."""
        total = 0
        for database in self.agent.server.catalog.databases.values():
            for table in database.tables.values():
                total += len(table.indexes)
        return total

    def _show_cache(self, count: int) -> BatchResult:
        """Hot-path introspection: plan-cache counters, index-scan and
        coalescing totals, the ``count`` hottest cached batch entries
        (plan vs parse), then the ``count`` busiest table indexes."""
        server = self.agent.server
        stats = server.plan_cache.stats()
        summary = ResultSet(
            columns=["setting", "value"],
            rows=[
                ["plan_cache", "on" if stats["enabled"] else "off"],
                ["plan_cache_size", stats["size"]],
                ["plan_cache_capacity", stats["capacity"]],
                ["plan_cache_hits", stats["hits"]],
                ["plan_cache_misses", stats["misses"]],
                ["plan_cache_evictions", stats["evictions"]],
                ["plan_cache_invalidations", stats["invalidations"]],
                ["plan_cache_hit_rate", stats["hit_rate"]],
                *[
                    [f"plan_cache_{origin}_{field}", data[field]]
                    for origin, data in stats["origins"].items()
                    for field in ("hits", "misses", "hit_rate")
                ],
                ["plan_memo_size", stats["plans"]],
                ["plan_memo_hits", stats["plan_hits"]],
                ["plan_memo_misses", stats["plan_misses"]],
                ["schema_epoch", server.catalog.schema_epoch],
                ["index_scans", server.index_scans],
                ["coalesced_payloads", self.agent.notifier.coalesced_payloads],
                ["coalesced_events", self.agent.notifier.coalesced_events],
            ],
        )
        epoch = server.catalog.schema_epoch
        entry_rows = server.plan_cache.entry_rows(count, epoch)
        cached = ResultSet(
            columns=["statement", "kind", "hits"],
            rows=[[_clip(text), kind, hits]
                  for text, kind, hits in entry_rows],
        )
        entries = []
        for db_name in sorted(server.catalog.databases):
            database = server.catalog.databases[db_name]
            for table in database.tables.values():
                for index in table.indexes.values():
                    entries.append([
                        f"{database.name}.{table.qualified_name}",
                        index.name,
                        index.column,
                        "yes" if index.unique else "no",
                        index.rebuild_count,
                    ])
        # The busiest (most-rebuilt) indexes are the interesting ones.
        entries.sort(key=lambda entry: (-entry[4], entry[0], entry[1]))
        indexes = ResultSet(
            columns=["table", "index", "column", "unique", "rebuilds"],
            rows=entries[:count],
        )
        result = BatchResult(result_sets=[summary, cached, indexes])
        if stats["size"] > count:
            result.messages.append(
                f"Showing {count} of {stats['size']} cached batches; "
                f"'show agent cache {stats['size']}' lists all.")
        if len(entries) > count:
            result.messages.append(
                f"Showing {count} of {len(entries)} indexes; "
                f"'show agent cache {len(entries)}' lists all.")
        return result

    # ------------------------------------------------------------------
    # health plane

    def _show_top(self, scope: str | None, count: int) -> BatchResult:
        """The most expensive rules and/or sessions by wall time."""
        scope = (scope or "").lower()
        accounting = self.agent.accounting
        sets: list[ResultSet] = []
        if scope in ("", "rules"):
            rules = ResultSet(columns=[
                "rule", "actions", "errors", "action_ms", "max_ms",
                "sql_statements", "rows_scanned", "plan_hits",
                "plan_misses", "events", "detections",
            ])
            for totals in accounting.top_rules(count):
                rules.rows.append([
                    totals.rule, totals.actions, totals.action_errors,
                    round(totals.seconds * 1e3, 4),
                    round(totals.max_seconds * 1e3, 4),
                    totals.sql_statements, totals.rows_scanned,
                    totals.plan_cache_hits, totals.plan_cache_misses,
                    totals.events_raised, totals.detections,
                ])
            sets.append(rules)
        if scope in ("", "sessions"):
            sessions = ResultSet(columns=[
                "session", "user", "database", "commands", "total_ms",
                "max_ms", "sql_statements", "rows_scanned", "plan_hits",
                "plan_misses", "events", "actions", "action_ms",
            ])
            for totals in accounting.top_sessions(count):
                sessions.rows.append([
                    totals.session_id, totals.user, totals.database,
                    totals.commands,
                    round(totals.seconds * 1e3, 4),
                    round(totals.max_seconds * 1e3, 4),
                    totals.sql_statements, totals.rows_scanned,
                    totals.plan_cache_hits, totals.plan_cache_misses,
                    totals.events_raised, totals.actions,
                    round(totals.action_seconds * 1e3, 4),
                ])
            sets.append(sessions)
        result = BatchResult(result_sets=sets)
        if not accounting.enabled:
            result.messages.append(
                "Agent accounting is off; enable with "
                "'set agent accounting on'.")
        return result

    def _show_slow(self, count: int) -> BatchResult:
        """The flight recorder's most recent slow operations."""
        flightrec = self.agent.flightrec
        rows = ResultSet(columns=[
            "seq", "kind", "duration_ms", "threshold_ms", "session",
            "user", "statement", "trace_id", "rows_scanned", "actions",
            "spans", "provenance", "plan",
        ])
        for record in flightrec.tail(count):
            attrs = record.attrs
            counters = attrs["counters"]
            rows.rows.append([
                record.seq, record.name, attrs["duration_ms"],
                attrs["threshold_ms"], attrs["session_id"], attrs["user"],
                attrs["statement"], record.trace_id,
                counters.get("rows_scanned", 0),
                counters.get("actions", 0), len(attrs["spans"]),
                len(attrs["provenance"]), attrs["plan"],
            ])
        result = BatchResult(result_sets=[rows])
        if not flightrec.armed:
            result.messages.append(
                "Slow-op capture is disarmed; arm with "
                "'set agent slowlog <ms>'.")
        return result

    def _show_health(self) -> BatchResult:
        """The watchdog report: status, findings, sampled values."""
        report = self.agent.health()
        status = ResultSet(columns=["status"], rows=[[report.status]])
        findings = ResultSet(columns=[
            "rule", "severity", "status", "value", "threshold",
            "direction", "description",
        ])
        for finding in report.findings:
            findings.rows.append([
                finding.rule, finding.severity, finding.status,
                round(finding.value, 4), finding.threshold,
                finding.direction, finding.description,
            ])
        sample = ResultSet(
            columns=["sample", "value"],
            rows=[[key, round(value, 6) if isinstance(value, float)
                   else value]
                  for key, value in sorted(report.sample.items())],
        )
        return BatchResult(result_sets=[status, findings, sample])

    # ------------------------------------------------------------------
    # explain trigger

    def _explain_trigger(self, name: str, session) -> BatchResult:
        trigger = self._find_trigger(name, session)
        if trigger is None:
            return _error_result(f"ECA trigger '{name}' does not exist")
        journal = self.agent.journal
        led = self.agent.led
        rule = led.rules.get(trigger.rule_name)
        runtime = self.agent.runtime_for_rule(trigger.rule_name)

        summary = ResultSet(
            columns=["setting", "value"],
            rows=[
                ["trigger", trigger.internal],
                ["event", trigger.event_internal],
                ["context", trigger.context.value],
                ["coupling", trigger.coupling.value],
                ["priority", trigger.priority],
                ["enabled", "yes" if runtime is None or runtime.enabled
                 else "no"],
                ["inline", "yes" if runtime is not None and runtime.inline
                 else "no"],
                ["fire_count", rule.fire_count if rule is not None else 0],
                ["last_fired_at",
                 rule.last_fired_at if rule is not None else None],
                ["last_trace", self._last_action_trace(trigger)],
            ],
        )

        nodes = ResultSet(columns=[
            "node", "kind", "role", "context", "fires", "consumed",
            "latency_n", "p95_ms", "rules",
        ])
        root = led.events.get(trigger.event_internal)
        if root is not None:
            self._walk_subgraph(root, "", 0, nodes, journal, set())
        result = BatchResult(result_sets=[summary, nodes])
        if root is None:
            # An inline IMMEDIATE trigger on a primitive event runs inside
            # the generated native trigger; there is no LED subgraph.
            result.messages.append(
                f"Event {trigger.event_internal} has no LED node "
                "(inline native-trigger execution).")
        if not journal.enabled:
            result.messages.append(
                "Agent provenance is off; per-node statistics need "
                "'set agent provenance on'.")
        return result

    def _last_action_trace(self, trigger) -> str | None:
        """The trace id of the trigger's most recent journaled action —
        the handle an operator feeds to ``show agent trace <id>`` to see
        the full causal tree behind the last firing."""
        key = trigger.internal.lower()
        for record in reversed(self.agent.journal.snapshot()):
            if record.kind == KIND_ACTION and record.name.lower() == key:
                return record.trace_id
        return None

    def _find_trigger(self, name: str, session):
        """Resolve a trigger by client-visible name: expanded through the
        session first, then as-written, then by unique short name."""
        triggers = self.agent.eca_triggers
        candidates = [name]
        if session is not None:
            candidates.insert(
                0, expand_name(name, session.database, session.user))
        for candidate in candidates:
            trigger = triggers.get(candidate.lower())
            if trigger is not None:
                return trigger
        short = name.split(".")[-1].lower()
        matches = [
            trigger for trigger in triggers.values()
            if trigger.trigger_name.lower() == short
        ]
        return matches[0] if len(matches) == 1 else None

    def _walk_subgraph(self, node, role: str, depth: int,
                       rows: ResultSet, journal, seen: set) -> None:
        """DFS over a trigger's event subgraph: one row per
        (node, context) with the journal's per-node aggregates."""
        led = self.agent.led
        kind = _NODE_KINDS.get(type(node).__name__, type(node).__name__)
        rules = ", ".join(rule.name for rule in led.rules_for(node.name))
        for context in _node_contexts(node):
            summary = journal.node_summary(node.name, context)
            rows.rows.append([
                "  " * depth + node.name,
                kind,
                role,
                context,
                summary["fires"] if summary else 0,
                summary["consumed"] if summary else 0,
                summary["latency_count"] if summary else 0,
                round(summary["p95_ms"], 4) if summary else 0.0,
                rules,
            ])
        if id(node) in seen:
            return
        seen.add(id(node))
        for child_role, child in node.role_children():
            self._walk_subgraph(child, child_role, depth + 1, rows,
                                journal, seen)

    # ------------------------------------------------------------------
    # reset / set / export

    def _set_slowlog(self, value: str) -> BatchResult:
        flightrec = self.agent.flightrec
        if value.lower() == "off":
            flightrec.threshold_ms = None
            return BatchResult(messages=["Agent slow-op capture disarmed."])
        try:
            threshold = float(value)
        except ValueError:
            threshold = math.nan
        # nan/inf would arm a recorder that never fires yet taxes commands
        if not math.isfinite(threshold):
            return _error_result(
                f"'set agent slowlog' expects a threshold in ms or "
                f"'off', got {value!r}")
        if threshold < 0:
            return _error_result(
                f"'set agent slowlog' threshold must be >= 0, "
                f"got {value}")
        flightrec.threshold_ms = threshold
        return BatchResult(messages=[
            f"Agent slow-op capture armed at {threshold:g} ms."])

    def _show_sessions(self, count: int) -> BatchResult:
        """The newest ``count`` gateway sessions and their queue state."""
        rows = ResultSet(columns=[
            "session_id", "user", "database", "state", "queued",
            "enqueued", "executed", "backpressure_waits",
        ])
        snapshots = self.agent.gateway.session_snapshots()
        for snap in snapshots[:count]:
            rows.rows.append([
                snap["session_id"], snap["user"], snap["database"],
                snap["state"], snap["queued"], snap["enqueued"],
                snap["executed"], snap["backpressure_waits"],
            ])
        result = BatchResult(result_sets=[rows])
        result.messages.append(
            f"{len(snapshots)} gateway session(s); "
            f"worker pool size {self.agent.gateway.worker_count()}.")
        return result

    def _show_workers(self) -> BatchResult:
        """Worker-pool and engine lock-manager counters."""
        pool = self.agent.gateway.pool
        pool_rows = ResultSet(columns=[
            "pool", "size", "alive", "completed", "stopping"])
        if pool is not None:
            snap = pool.snapshot()
            pool_rows.rows.append([
                snap["name"], snap["size"], snap["alive"],
                snap["completed"], int(snap["stopping"])])
        locks = ResultSet(columns=["lock_stat", "value"])
        for name, value in sorted(
                self.agent.server.lock_manager.stats().items()):
            locks.rows.append([name, value])
        result = BatchResult(result_sets=[pool_rows, locks])
        if pool is None:
            result.messages.append(
                "No worker pool: commands run inline on the client's "
                "thread (enable with 'set agent workers <N>').")
        return result

    def _show_sites(self) -> BatchResult:
        """Sharded-GED membership: one row per site with its partition.

        Available when this agent participates in a
        :class:`~repro.ged.sharded.ShardedGed` (which sets the agent's
        ``ged_sites`` attribute on ``add_site``).
        """
        membership = getattr(self.agent, "ged_sites", None)
        if not membership:
            return _error_result(
                "this agent is not part of a sharded GED deployment")
        ged, here = membership
        rows = ResultSet(columns=[
            "site", "status", "composites", "imports_homed",
            "classes_owned", "routed", "replayed"])
        for row in ged.site_rows():
            rows.rows.append(list(row))
        totals = ResultSet(columns=["ged_stat", "value"])
        for name, value in (
                ("this_site", here),
                ("sharded", int(ged.sharded)),
                ("journal_entries", len(ged.journal)),
                ("global_rules", len(ged.rules)),
                ("firings", len(ged.firings)),
                ("suppressed_replays", ged.suppressed),
                ("deduplicated_firings", ged.deduped),
                ("skipped_down_deliveries", ged.skipped_down),
                ("site_failures", ged.failures),
                ("transport_sent", ged.transport.sent),
                ("transport_segments", ged.transport.segments),
                ("transport_rejected", ged.transport.rejected),
        ):
            totals.rows.append([name, value])
        return BatchResult(result_sets=[rows, totals])

    def _set_workers(self, value: str) -> BatchResult:
        try:
            count = int(value)
        except ValueError:
            return _error_result(
                f"'set agent workers' expects a thread count, got "
                f"{value!r}")
        if count < 0:
            return _error_result(
                f"'set agent workers' expects a count >= 0, got {count}")
        count = min(count, MAX_WORKERS)
        self.agent.gateway.set_workers(count)
        if count == 0:
            return BatchResult(messages=[
                "Agent worker pool removed; commands run inline."])
        return BatchResult(messages=[
            f"Agent worker pool resized to {count} thread(s)."])

    def _export_telemetry(self) -> BatchResult:
        if self.agent.exporter is None:
            return _error_result(
                "no telemetry exporter attached; pass "
                "exporter=TelemetryExporter(path) when constructing the "
                "agent")
        lines = self.agent.export_telemetry(label="admin")
        return BatchResult(messages=[
            f"Telemetry snapshot written: {lines} lines to "
            f"{self.agent.exporter.path}."])

    def _set_flag(self, target: str, value: str) -> BatchResult:
        value = value.lower() == "on"
        if target == "stats":
            self.agent.metrics.enabled = value
        elif target == "provenance":
            self.agent.journal.enabled = value
        elif target == "accounting":
            self.agent.accounting.enabled = value
        elif target == "faults":
            if value:
                self.agent.faults.arm()
            else:
                self.agent.faults.disarm()
            state = "armed" if value else "disarmed"
            return BatchResult(messages=[f"Agent fault injection {state}."])
        else:
            self.agent.trace.enabled = value
        state = "on" if value else "off"
        return BatchResult(messages=[f"Agent {target} collection {state}."])


def _node_contexts(node) -> list[str]:
    """The context rows a node contributes: ``-`` for primitives (raises
    are context-independent), the active contexts for composites."""
    if not node.role_children():
        return ["-"]
    contexts = sorted(context.value for context in node.active_contexts)
    return contexts or ["-"]


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    return ",".join(f"{key}={value}" for key, value in labels.items())



# ----------------------------------------------------------------------
# the command registry

#: One argument token (``;`` ends the command, so it never belongs to it).
_ARG = r"[^\s;]+"
#: An optional trailing ``[N]`` argument, captured raw as group ``n``.
_N = rf"(?:\s+(?P<n>{_ARG}))?"


class Command(NamedTuple):
    """One operator command — its only declaration."""

    #: how the command is spelled in the usage error and OPERATORS.md §1
    usage: str
    #: called as ``view(admin, **named groups of the pattern)``
    view: Callable
    #: regex for the command's text; ``None``: the usage's literal words
    #: (followed by the optional ``[N]`` when ``rows`` is set)
    pattern: str | None = None
    #: ``(error label, default, capacity(admin, groups))`` of an optional
    #: ``[N]``: group ``n`` reaches the view validated, as ``count``
    rows: tuple | None = None
    #: pass the issuing session to the view as ``session``
    session: bool = False


def _reset(clear, message: str) -> Callable:
    """View of a ``reset agent <sink>`` command."""

    def view(admin) -> BatchResult:
        clear(admin.agent)
        return BatchResult(messages=[message])

    return view


def _clear_plan_cache(agent) -> None:
    agent.server.plan_cache.clear()
    agent.server.index_scans = 0


def _tracked_rows(admin, groups) -> int:
    """``show agent top``'s clamp: the rows its chosen scope can list."""
    scope = (groups["scope"] or "").lower()
    accounting = admin.agent.accounting
    return max(
        1,
        accounting.rule_count() if scope != "sessions" else 0,
        accounting.session_count() if scope != "rules" else 0)


#: The admin surface, in the order the usage error lists it.
COMMANDS: tuple[Command, ...] = (
    Command("show agent stats [top [N]]", AgentAdmin._show_stats,
            rf"show\s+agent\s+stats(?:\s+(?P<top>top){_N})?",
            rows=("show agent stats top", 10, lambda admin, groups: max(
                1, admin._count_metric_rows()))),
    Command("show agent trace [N|<trace_id>]", AgentAdmin._show_trace_arg,
            rf"show\s+agent\s+trace{_N}"),
    Command("trace next <N>", AgentAdmin._trace_next, rf"trace\s+next{_N}"),
    Command("show agent events [N]", AgentAdmin._show_events,
            rows=("show agent events", 20,
                  lambda admin, groups: admin.agent.journal.capacity)),
    Command("show agent graph", AgentAdmin._show_graph),
    Command("show agent status", AgentAdmin._show_status),
    Command("show agent faults", AgentAdmin._show_faults),
    Command("show agent cache [N]", AgentAdmin._show_cache,
            rows=("show agent cache", 20, lambda admin, groups: max(
                1, admin._count_indexes(),
                admin.agent.server.plan_cache.stats()["size"]))),
    Command("show agent top [rules|sessions] [N]", AgentAdmin._show_top,
            rf"show\s+agent\s+top(?:\s+(?P<scope>rules|sessions))?{_N}",
            rows=("show agent top", 10, _tracked_rows)),
    Command("show agent slow [N]", AgentAdmin._show_slow,
            rows=("show agent slow", 10,
                  lambda admin, groups: admin.agent.flightrec.capacity)),
    Command("show agent health", AgentAdmin._show_health),
    Command("show agent sessions [N]", AgentAdmin._show_sessions,
            rows=("show agent sessions", 20, lambda admin, groups: max(
                1, len(admin.agent.gateway.session_snapshots())))),
    Command("show agent workers", AgentAdmin._show_workers),
    Command("show agent sites", AgentAdmin._show_sites),
    Command("explain trigger <name>", AgentAdmin._explain_trigger,
            r"explain\s+trigger\s+(?P<name>[A-Za-z_#][\w.$#]*)",
            session=True),
    Command("reset agent stats", _reset(
        lambda agent: agent.metrics.reset(), "Agent statistics reset.")),
    Command("reset agent trace", _reset(
        lambda agent: agent.trace.clear(), "Agent trace cleared.")),
    Command("reset agent provenance", _reset(
        lambda agent: agent.journal.clear(),
        "Agent provenance journal cleared.")),
    Command("reset agent cache", _reset(
        _clear_plan_cache, "Agent plan cache cleared.")),
    Command("reset agent accounting", _reset(
        lambda agent: agent.accounting.reset(),
        "Agent accounting totals reset.")),
    Command("reset agent slow", _reset(
        lambda agent: agent.flightrec.clear(),
        "Agent slow-op recorder cleared.")),
    *(Command(f"set agent {target} on|off",
              partial(AgentAdmin._set_flag, target=target),
              rf"set\s+agent\s+{target}\s+(?P<value>on|off)")
      for target in ("stats", "trace", "provenance", "faults", "accounting")),
    Command("set agent slowlog <ms>|off", AgentAdmin._set_slowlog,
            rf"set\s+agent\s+slowlog\s+(?P<value>{_ARG})"),
    Command("set agent workers <N>", AgentAdmin._set_workers,
            rf"set\s+agent\s+workers\s+(?P<value>{_ARG})"),
    Command("export agent telemetry", AgentAdmin._export_telemetry),
)

_USAGE = ("unknown agent command; expected one of: "
          + " | ".join(command.usage for command in COMMANDS))


def _matcher(command: Command) -> re.Pattern:
    """A command is its pattern — by default its usage's words, up to
    the ``[N]`` — between optional whitespace and a trailing ``;``."""
    pattern = command.pattern
    if pattern is None:
        words = command.usage.removesuffix(" [N]").split()
        pattern = r"\s+".join(words) + (_N if command.rows else "")
    return re.compile(rf"^\s*(?:{pattern})\s*;?\s*$", re.IGNORECASE)


_MATCHERS = tuple((_matcher(command), command) for command in COMMANDS)
