"""Ambient per-operation resource accounting (``OpContext``).

``show agent stats`` answers *how much* work the agent did; this module
answers *who caused it*.  The gateway begins an :class:`OpContext` frame
for every client command, and the action handler pushes a nested rule
frame around every rule action; instrumentation points deep in the stack
(the SQL executor's row scans, the plan cache, the LED's raises and
detections) charge the innermost frames without knowing anything about
sessions or rules.  When a frame finishes, its counters fold into
per-session and per-rule totals, surfaced by ``show agent top
[rules|sessions] [N]``, and a thread's outermost frame also folds its
SQL counters into the agent's metric registry — the SQL engine reports
nothing else.

Design constraints, mirroring the rest of ``repro.obs``:

- **Ambient**: frames live on a per-thread stack (in the
  :class:`~repro.obs.ambient.Ambient` shared with the span trace and the
  provenance journal), so the executor needs no extra parameters — a
  rule action's SQL is charged to both the rule frame and the enclosing
  client command's frame (the session pays for the rules it triggers,
  which is the paper's transparency cost made visible).  A detached
  action's thread adopts the dispatcher's hand-off, which opens a fresh
  frame for the triggering session there.
- **Always-on but cheap**: plain int adds on at most two frames per
  note; no locks on the hot path (totals fold under a lock only at
  frame exit).  ``enabled = False`` reduces every hook to one branch.
- **Bounded**: at most ``max_sessions`` / ``max_rules`` distinct rows;
  overflow aggregates under the ``"(other)"`` key so a session storm
  cannot grow memory without bound.
"""

from __future__ import annotations

import threading
import time

from .ambient import Ambient

__all__ = ["OpAccounting", "OpContext", "RuleTotals", "SessionTotals"]

#: Aggregation keys for rows beyond the per-scope capacity.
OVERFLOW_KEY = "(other)"

#: The counters carried by every frame and folded into totals.
_COUNTER_FIELDS = (
    "commands",
    "sql_statements",
    "rows_scanned",
    "index_scans",
    "full_scans",
    "plan_cache_hits",
    "plan_cache_misses",
    "events_raised",
    "detections",
    "actions",
    "action_errors",
)


class OpContext:
    """One accounting frame: a client command or a rule action."""

    __slots__ = _COUNTER_FIELDS + (
        "session_id", "user", "database", "rule", "seconds",
        "action_seconds")

    def __init__(self, session_id: int | None = None, user: str = "",
                 database: str = "", rule: str | None = None):
        self.session_id = session_id
        self.user = user
        self.database = database
        self.rule = rule
        self.seconds = 0.0
        self.action_seconds = 0.0
        # Unrolled (one frame is allocated per client command; the loop
        # over _COUNTER_FIELDS showed up in the gateway bench).
        self.commands = 0
        self.sql_statements = 0
        self.rows_scanned = 0
        self.index_scans = 0
        self.full_scans = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.events_raised = 0
        self.detections = 0
        self.actions = 0
        self.action_errors = 0

    def as_dict(self) -> dict[str, object]:
        """Counter snapshot (flight-recorder and telemetry payloads)."""
        out: dict[str, object] = {
            field: getattr(self, field) for field in _COUNTER_FIELDS}
        out["action_seconds"] = self.action_seconds
        return out


class _Totals:
    """Folded counters shared by the session and rule aggregates."""

    __slots__ = _COUNTER_FIELDS + ("seconds", "action_seconds",
                                   "max_seconds")

    def __init__(self):
        self.seconds = 0.0
        self.action_seconds = 0.0
        self.max_seconds = 0.0
        for field in _COUNTER_FIELDS:
            setattr(self, field, 0)

    def fold(self, frame: OpContext, seconds: float) -> None:
        # Unrolled: runs under the fold lock once per command.
        self.commands += frame.commands
        self.sql_statements += frame.sql_statements
        self.rows_scanned += frame.rows_scanned
        self.index_scans += frame.index_scans
        self.full_scans += frame.full_scans
        self.plan_cache_hits += frame.plan_cache_hits
        self.plan_cache_misses += frame.plan_cache_misses
        self.events_raised += frame.events_raised
        self.detections += frame.detections
        self.actions += frame.actions
        self.action_errors += frame.action_errors
        self.seconds += seconds
        self.action_seconds += frame.action_seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            field: getattr(self, field) for field in _COUNTER_FIELDS}
        out["seconds"] = self.seconds
        out["action_seconds"] = self.action_seconds
        out["max_seconds"] = self.max_seconds
        return out


class SessionTotals(_Totals):
    """Aggregate resource usage of one client session."""

    __slots__ = ("session_id", "user", "database")

    def __init__(self, session_id, user: str, database: str):
        super().__init__()
        self.session_id = session_id
        self.user = user
        self.database = database

    def as_dict(self) -> dict[str, object]:
        out = super().as_dict()
        out["session_id"] = self.session_id
        out["user"] = self.user
        out["database"] = self.database
        return out


class RuleTotals(_Totals):
    """Aggregate resource usage of one ECA rule's actions."""

    __slots__ = ("rule",)

    def __init__(self, rule: str):
        super().__init__()
        self.rule = rule

    def as_dict(self) -> dict[str, object]:
        out = super().as_dict()
        out["rule"] = self.rule
        return out


class _NullScope:
    """Reusable no-op rule scope (accounting disabled)."""

    __slots__ = ()

    def mark_error(self) -> None:
        pass

    def __enter__(self):
        return None

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class _RuleScope:
    """Context manager pushing/folding one rule frame."""

    __slots__ = ("_accounting", "_frame", "_start", "_error")

    def __init__(self, accounting: "OpAccounting", rule: str):
        self._accounting = accounting
        self._frame = OpContext(rule=rule)
        self._start = 0.0
        self._error = False

    def mark_error(self) -> None:
        """Record a failure the caller swallows instead of raising."""
        self._error = True

    def __enter__(self) -> OpContext:
        self._start = time.perf_counter()
        self._accounting.ambient.state().frames.append(self._frame)
        return self._frame

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        seconds = time.perf_counter() - self._start
        self._accounting._close(self._frame)
        self._accounting._fold_rule(
            self._frame, seconds, error=self._error or exc_type is not None)
        return False


class OpAccounting:
    """Per-session and per-rule resource accounting over ambient frames.

    The agent owns one instance; the server and LED hold references and
    charge the innermost frames through the ``note_*`` hooks.  Given the
    agent's ``metrics`` registry, a frame that closes with no other frame
    open beneath it on its thread — a command frame, a hand-off's adopted
    frame, a rule frame running alone on a listener thread — folds its
    SQL counters into ``sql_statements_total``, ``sql_index_scans_total``
    and ``sql_plan_cache_total{outcome}`` while stats are on.  A nested
    frame never folds, so no statement is counted twice.
    """

    def __init__(self, enabled: bool = True, max_sessions: int = 1024,
                 max_rules: int = 4096, metrics=None):
        self.enabled = enabled
        self.max_sessions = max_sessions
        self.max_rules = max_rules
        #: per-thread frame stack (private here; the agent points this
        #: at its event log's ambient).  Frames opened by a
        #: hand-off's adoption fold into this plane.
        self.ambient = Ambient()
        self.ambient.accounting = self
        self._lock = threading.Lock()
        self._sessions: dict[object, SessionTotals] = {}
        self._rules: dict[str, RuleTotals] = {}
        #: always-on global tallies the health evaluator reads
        self.actions_total = 0
        self.action_errors_total = 0
        self.metrics = metrics
        if metrics is not None:
            self._m_statements = metrics.counter(
                "sql_statements_total",
                "SQL statements executed by the engine")
            self._m_index_scans = metrics.counter(
                "sql_index_scans_total", "Index-backed scan narrowings")
            self._m_plan_cache = metrics.counter(
                "sql_plan_cache_total", "Plan cache lookups by outcome",
                ("outcome",))

    # ------------------------------------------------------------------
    # frame stack

    def _close(self, frame: OpContext) -> None:
        """Pop ``frame``; the thread's outermost frame folds its SQL
        counters into the registry (stats on)."""
        frames = self.ambient.state().frames
        if frames and frames[-1] is frame:
            frames.pop()
        elif frame in frames:  # pragma: no cover - unbalanced exit guard
            frames.remove(frame)
        metrics = self.metrics
        if frames or metrics is None or not metrics.enabled:
            return
        if frame.sql_statements:
            self._m_statements.inc(frame.sql_statements)
        if frame.index_scans:
            self._m_index_scans.inc(frame.index_scans)
        if frame.plan_cache_hits:
            self._m_plan_cache.labels("hit").inc(frame.plan_cache_hits)
        if frame.plan_cache_misses:
            self._m_plan_cache.labels("miss").inc(frame.plan_cache_misses)

    def active(self) -> bool:
        """Whether any frame is open on this thread (hook fast-path)."""
        return bool(self.ambient.state().frames)

    def current(self) -> OpContext | None:
        """The innermost open frame on this thread, if any."""
        frames = self.ambient.state().frames
        return frames[-1] if frames else None

    def origin(self) -> str:
        """Statement-origin classification with one frame-stack read:
        ``"rule"`` inside a rule action, ``"client"`` inside a client
        command, ``"system"`` otherwise (agent-internal SQL)."""
        frames = self.ambient.state().frames
        if not frames:
            return "system"
        for frame in frames:
            if frame.rule is not None:
                return "rule"
        return "client"

    # ------------------------------------------------------------------
    # gateway surface (op frames)

    def begin(self, session, commands: int = 1) -> OpContext | None:
        """Open a frame charging this thread's work to ``session`` (any
        object with ``session_id`` / ``user`` / ``database``): the
        gateway's frame for one client command, or — with ``commands=0``
        — the frame a :class:`~repro.obs.ambient.Handoff`'s adoption
        opens for work done elsewhere on that session's behalf."""
        if not self.enabled:
            return None
        frame = OpContext(
            session_id=session.session_id,
            user=session.user,
            database=session.database,
        )
        frame.commands = commands
        self.ambient.state().frames.append(frame)
        return frame

    def finish(self, frame: OpContext | None, seconds: float) -> None:
        """Close a command frame and fold it into its session's totals."""
        if frame is None:
            return
        self._close(frame)
        frame.seconds = seconds
        with self._lock:
            totals = self._sessions.get(frame.session_id)
            if totals is None:
                if len(self._sessions) >= self.max_sessions:
                    totals = self._sessions.get(OVERFLOW_KEY)
                    if totals is None:
                        totals = SessionTotals(OVERFLOW_KEY, OVERFLOW_KEY, "")
                        self._sessions[OVERFLOW_KEY] = totals
                else:
                    totals = SessionTotals(
                        frame.session_id, frame.user, frame.database)
                    self._sessions[frame.session_id] = totals
            totals.fold(frame, seconds)

    # ------------------------------------------------------------------
    # action-handler surface (rule frames)

    def rule_scope(self, rule: str):
        """Context manager charging the body to ``rule`` (and to any
        enclosing command frame); a shared no-op while disabled."""
        if not self.enabled:
            return _NULL_SCOPE
        return _RuleScope(self, rule)

    def _fold_rule(self, frame: OpContext, seconds: float,
                   error: bool) -> None:
        with self._lock:
            self.actions_total += 1
            if error:
                self.action_errors_total += 1
            totals = self._rules.get(frame.rule)
            if totals is None:
                if len(self._rules) >= self.max_rules:
                    totals = self._rules.get(OVERFLOW_KEY)
                    if totals is None:
                        totals = RuleTotals(OVERFLOW_KEY)
                        self._rules[OVERFLOW_KEY] = totals
                else:
                    totals = RuleTotals(frame.rule)
                    self._rules[frame.rule] = totals
            totals.actions += 1
            if error:
                totals.action_errors += 1
            totals.fold(frame, seconds)
        # The enclosing command frame (if any) is charged the action too.
        self.note_action(seconds, error)

    # ------------------------------------------------------------------
    # instrumentation hooks (called with at least one frame open)

    def note_statement(self) -> None:
        for frame in self.ambient.state().frames:
            frame.sql_statements += 1

    def note_scan(self, rows: int, index_sources: int,
                  full_sources: int) -> None:
        for frame in self.ambient.state().frames:
            frame.rows_scanned += rows
            frame.index_scans += index_sources
            frame.full_scans += full_sources

    def note_rows(self, rows: int) -> None:
        for frame in self.ambient.state().frames:
            frame.rows_scanned += rows

    def note_plan_cache(self, hit: bool) -> None:
        if hit:
            for frame in self.ambient.state().frames:
                frame.plan_cache_hits += 1
        else:
            for frame in self.ambient.state().frames:
                frame.plan_cache_misses += 1

    def note_event(self) -> None:
        for frame in self.ambient.state().frames:
            frame.events_raised += 1

    def note_detection(self) -> None:
        for frame in self.ambient.state().frames:
            frame.detections += 1

    def note_action(self, seconds: float, error: bool) -> None:
        """Charge one finished action to every enclosing frame (the
        triggering command's session, and any outer rule in a cascade)."""
        for frame in self.ambient.state().frames:
            frame.actions += 1
            if error:
                frame.action_errors += 1
            frame.action_seconds += seconds

    # ------------------------------------------------------------------
    # reporting

    def top_sessions(self, count: int) -> list[SessionTotals]:
        """The ``count`` most expensive sessions by total seconds
        (deterministic: ties break on session id)."""
        with self._lock:
            totals = list(self._sessions.values())
        totals.sort(key=lambda t: (-t.seconds, str(t.session_id)))
        return totals[:count]

    def top_rules(self, count: int) -> list[RuleTotals]:
        """The ``count`` most expensive rules by total action seconds
        (deterministic: ties break on rule name)."""
        with self._lock:
            totals = list(self._rules.values())
        totals.sort(key=lambda t: (-t.seconds, t.rule))
        return totals[:count]

    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def rule_count(self) -> int:
        with self._lock:
            return len(self._rules)

    def reset(self) -> None:
        """Drop every aggregate (open frames keep accumulating)."""
        with self._lock:
            self._sessions.clear()
            self._rules.clear()
            self.actions_total = 0
            self.action_errors_total = 0
