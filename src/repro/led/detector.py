"""The Local Event Detector facade.

Owns the event registry, the event graph, rule dispatch, the timer queue,
and the deferred/detached action machinery.  This is the component the ECA
Agent embeds (paper Figure 2); it can equally be used standalone as a
composite-event rule engine.
"""

from __future__ import annotations

import itertools
import threading
import time as _time
from dataclasses import dataclass
from typing import Callable

from repro.snoop import (
    And,
    Aperiodic,
    AperiodicStar,
    EventExpr,
    EventName,
    Not,
    Or,
    Periodic,
    PeriodicStar,
    Plus,
    Seq,
    parse_event_expression,
)

from repro.obs.events import (
    HOPS,
    KIND_CONDITION,
    KIND_FIRING,
    KIND_RAISE,
    KIND_TIMER,
)
from repro.obs.tracing import (
    SPAN_LED_RAISE,
    SPAN_RULE_ACTION,
    SPAN_RULE_CONDITION,
)

from .clock import ManualClock, VirtualClock
from .errors import ActionError, EventDefinitionError, RuleError
from .nodes import EventNode, PrimitiveEventNode
from .occurrences import Occurrence, primitive
from .operators import (
    INITIATOR,
    LEFT,
    MIDDLE,
    RIGHT,
    TERMINATOR,
    AndNode,
    AperiodicNode,
    AperiodicStarNode,
    CompositeNode,
    NotNode,
    OrNode,
    PeriodicNode,
    PeriodicStarNode,
    PlusNode,
    SeqNode,
)
from .rules import (
    DEFAULT_CONTEXT,
    DEFAULT_COUPLING,
    DEFAULT_PRIORITY,
    Action,
    Condition,
    Context,
    Coupling,
    Rule,
    always_true,
)
from .snooptime import TimerHandle, TimerQueue


@dataclass
class RuleFiring:
    """Record of one rule triggering (kept in the detector history)."""

    rule_name: str
    event_name: str
    occurrence: Occurrence
    context: Context
    coupling: Coupling
    at: float
    error: BaseException | None = None


class LocalEventDetector:
    """Composite event detection engine with ECA rule dispatch.

    Args:
        clock: time source for temporal operators (default: a
            :class:`ManualClock` starting at 0 — deterministic).
        detached_dispatcher: callable ``(rule, occurrence) -> None``
            invoked for DETACHED-coupled rules; defaults to synchronous
            execution (the agent installs its thread-pool ``SybaseAction``
            analogue here).
        swallow_action_errors: when True, exceptions from rule actions are
            recorded in the firing history instead of propagating.
    """

    def __init__(self, clock: VirtualClock | None = None,
                 detached_dispatcher: Callable[[Rule, Occurrence], None] | None = None,
                 swallow_action_errors: bool = False):
        self.clock = clock or ManualClock()
        self.events: dict[str, EventNode] = {}
        self.rules: dict[str, Rule] = {}
        self._rules_by_event: dict[str, list[Rule]] = {}
        #: immutable per-event snapshots of the sorted rule buckets;
        #: dispatch iterates these without copying (a rule action that
        #: adds/drops rules mid-dispatch replaces the snapshot, it never
        #: mutates the tuple being iterated)
        self._rules_snapshot: dict[str, tuple[Rule, ...]] = {}
        self._timers = TimerQueue()
        self._seq = itertools.count(1)
        self._anon = itertools.count(1)
        self._lock = threading.RLock()
        self.detached_dispatcher = detached_dispatcher
        self.swallow_action_errors = swallow_action_errors
        self.history: list[RuleFiring] = []
        self._deferred: list[tuple[Rule, Occurrence, Context]] = []
        self._current_firings: list[RuleFiring] | None = None
        #: optional observability sinks (the agent attaches its own;
        #: standalone detectors leave them None -> zero overhead)
        self.metrics = None
        self.trace = None
        self.journal = None
        #: the event log behind the attached trace / journal views — the
        #: one handle every hook site records through (None: detached)
        self.eventlog = None
        #: optional fault-injection harness (``led.raise`` point); the
        #: agent attaches its injector, standalone detectors leave None
        self.faults = None
        #: optional detection log: when a list, every primitive raise
        #: (context ``None``) and composite detection is appended as a
        #: ``(event_name, context, occurrence)`` triple in propagation
        #: order.  The differential-test harness turns this on around a
        #: scenario run; ``None`` (the default) costs one branch.
        self.detection_log: list[tuple[str, Context | None, Occurrence]] | None = None
        self._m_detected = None
        self._m_rules_fired = None
        self._m_conditions = None
        self._m_raise_seconds = None
        self._m_lock_wait = None
        self._m_lock_hold = None
        #: optional resource-accounting plane (the agent attaches its
        #: own; raises and detections charge the ambient OpContext)
        self.accounting = None

    # ------------------------------------------------------------------
    # observability

    def attach_observability(self, metrics=None, trace=None,
                             journal=None) -> None:
        """Attach a :class:`~repro.obs.MetricsRegistry`, a
        :class:`~repro.obs.PipelineTrace`, and/or a
        :class:`~repro.obs.ProvenanceJournal` (two views of one
        :class:`~repro.obs.EventLog` when both are given).

        Hooks cost one branch per event/rule while the sinks are disabled
        (or detached); detection counts are labeled by event kind and
        parameter context, firings by coupling mode.  The log records a
        span per stage and the causal lineage of every raise, detection,
        condition and firing — whichever of the two planes is on.
        """
        views = [view for view in (trace, journal) if view is not None]
        if len(views) == 2 and trace.log is not journal.log:
            raise ValueError(
                "trace and journal must be views of one EventLog")
        self.metrics = metrics
        self.trace = trace
        self.journal = journal
        self.eventlog = views[0].log if views else None
        if metrics is not None:
            self._m_detected = metrics.counter(
                "led_events_detected_total",
                "Event occurrences detected by the LED",
                ("kind", "context"))
            self._m_rules_fired = metrics.counter(
                "led_rules_fired_total",
                "Rule firings dispatched by the LED",
                ("coupling",))
            self._m_conditions = metrics.counter(
                "led_conditions_total",
                "Rule condition evaluations",
                ("result",))
            self._m_raise_seconds = metrics.histogram(
                "led_raise_seconds",
                "Wall time of one raise_event/raise_events call (seconds)")
            self._m_lock_wait = metrics.histogram(
                "led_lock_wait_seconds",
                "Time spent waiting for the LED dispatch lock (seconds)")
            self._m_lock_hold = metrics.histogram(
                "led_lock_hold_seconds",
                "Time the LED dispatch lock is held per raise (seconds)")
        else:
            self._m_detected = None
            self._m_rules_fired = None
            self._m_conditions = None
            self._m_raise_seconds = None
            self._m_lock_wait = None
            self._m_lock_hold = None

    def attach_accounting(self, accounting) -> None:
        """Attach (or detach, with ``None``) the agent's resource
        accounting; raises and composite detections then charge the
        ambient per-session / per-rule frames."""
        self.accounting = accounting

    def start_detection_log(self) -> list:
        """Begin recording detections for differential comparison.

        Resets and returns the live log list; every subsequent primitive
        raise is appended as ``(name, None, occurrence)`` and every
        composite detection as ``(name, context, occurrence)``, in exact
        propagation order.  Used by :mod:`repro.difftest` to compare the
        LED against the reference interpreter.
        """
        with self._lock:
            self.detection_log = []
            return self.detection_log

    def stop_detection_log(self) -> list:
        """Stop recording and return the captured detection log."""
        with self._lock:
            log, self.detection_log = self.detection_log, None
            return log if log is not None else []

    # ------------------------------------------------------------------
    # event definition

    def has_event(self, name: str) -> bool:
        return name in self.events

    def get_event(self, name: str) -> EventNode:
        node = self.events.get(name)
        if node is None:
            raise EventDefinitionError(f"event '{name}' is not defined")
        return node

    def define_primitive(self, name: str) -> PrimitiveEventNode:
        """Register a primitive event name."""
        with self._lock:
            if name in self.events:
                raise EventDefinitionError(f"event '{name}' already exists")
            node = PrimitiveEventNode(self, name)
            self.events[name] = node
            return node

    def define_remote(self, name: str, home_site: str):
        """Register a remote constituent leaf (sharded-GED deployment).

        The returned :class:`~repro.led.remote.RemoteEventNode` behaves
        like a primitive in every Snoop expression but can only be fed
        through :meth:`raise_remote` with an occurrence carrying the GED
        router's global ``(time, seq)`` stamp.
        """
        from .remote import RemoteEventNode

        with self._lock:
            if name in self.events:
                raise EventDefinitionError(f"event '{name}' already exists")
            node = RemoteEventNode(self, name, home_site)
            self.events[name] = node
            return node

    def raise_remote(self, name: str, occurrence: Occurrence) -> list[RuleFiring]:
        """Feed a router-constructed occurrence into a remote leaf.

        Unlike :meth:`raise_event`, the occurrence is built by the
        caller (the GED router) so its interval carries the *global*
        sequence stamp shared by every shard — this detector's local
        counter is not consulted.  Dispatch, detection logging, and the
        firing scope otherwise match a local raise exactly.
        """
        from .remote import RemoteEventNode

        with self._lock:
            node = self.get_event(name)
            if not isinstance(node, RemoteEventNode):
                raise EventDefinitionError(
                    f"'{name}' is not a remote event leaf")
            if occurrence.event_name != name:
                raise EventDefinitionError(
                    f"occurrence of '{occurrence.event_name}' cannot be "
                    f"raised as remote event '{name}'")
            outer = self._current_firings is None
            if outer:
                self._current_firings = []
            try:
                node.received += 1
                log = self.detection_log
                if log is not None:
                    log.append((name, None, occurrence))
                metrics = self.metrics
                if metrics is not None and metrics.enabled:
                    self._m_detected.labels("remote", "-").inc()
                node.on_raise(occurrence)
                return list(self._current_firings or [])
            finally:
                if outer:
                    self._current_firings = None

    def define_composite(self, name: str,
                         expression: EventExpr | str) -> CompositeNode:
        """Register a composite event from a Snoop expression.

        Every event name referenced by the expression must already be
        defined (the paper's name-checking step); the new event may itself
        be referenced by later definitions (event reuse).
        """
        with self._lock:
            if name in self.events:
                raise EventDefinitionError(f"event '{name}' already exists")
            expr = (
                parse_event_expression(expression)
                if isinstance(expression, str)
                else expression
            )
            node = self._build(expr, top_name=name)
            if not isinstance(node, CompositeNode):
                raise EventDefinitionError(
                    f"expression for '{name}' must use at least one operator "
                    "(a bare event name does not define a new event)"
                )
            self.events[name] = node
            return node

    def _build(self, expr: EventExpr, top_name: str | None = None) -> EventNode:
        """Recursively build graph nodes for an expression tree."""
        name = top_name or f"_anon{next(self._anon)}"
        if isinstance(expr, EventName):
            return self.get_event(expr.name)
        if isinstance(expr, Or):
            return OrNode(self, name, {
                LEFT: self._build(expr.left), RIGHT: self._build(expr.right)})
        if isinstance(expr, And):
            return AndNode(self, name, {
                LEFT: self._build(expr.left), RIGHT: self._build(expr.right)})
        if isinstance(expr, Seq):
            return SeqNode(self, name, {
                LEFT: self._build(expr.left), RIGHT: self._build(expr.right)})
        if isinstance(expr, Not):
            return NotNode(self, name, {
                INITIATOR: self._build(expr.initiator),
                MIDDLE: self._build(expr.event),
                TERMINATOR: self._build(expr.terminator),
            })
        if isinstance(expr, Aperiodic):
            return AperiodicNode(self, name, {
                INITIATOR: self._build(expr.initiator),
                MIDDLE: self._build(expr.event),
                TERMINATOR: self._build(expr.terminator),
            })
        if isinstance(expr, AperiodicStar):
            return AperiodicStarNode(self, name, {
                INITIATOR: self._build(expr.initiator),
                MIDDLE: self._build(expr.event),
                TERMINATOR: self._build(expr.terminator),
            })
        if isinstance(expr, Periodic):
            return PeriodicNode(self, name, {
                INITIATOR: self._build(expr.initiator),
                TERMINATOR: self._build(expr.terminator),
            }, expr.period.seconds, expr.parameter)
        if isinstance(expr, PeriodicStar):
            return PeriodicStarNode(self, name, {
                INITIATOR: self._build(expr.initiator),
                TERMINATOR: self._build(expr.terminator),
            }, expr.period.seconds, expr.parameter)
        if isinstance(expr, Plus):
            return PlusNode(self, name, {
                INITIATOR: self._build(expr.event),
            }, expr.delta.seconds)
        raise EventDefinitionError(
            f"unsupported expression node {type(expr).__name__}")

    def drop_event(self, name: str) -> None:
        """Remove an event; refuses if rules or other events depend on it."""
        with self._lock:
            node = self.get_event(name)
            if node.parents:
                raise EventDefinitionError(
                    f"event '{name}' is used by other composite events")
            if self._rules_by_event.get(name):
                raise EventDefinitionError(
                    f"event '{name}' still has rules attached")
            # Unhook this composite from its children so they stop feeding it.
            for child in node.children():
                child.detach_parent(node)
            del self.events[name]

    # ------------------------------------------------------------------
    # rules

    def add_rule(self, name: str, event_name: str, action: Action,
                 condition: Condition = always_true,
                 context: Context | str = DEFAULT_CONTEXT,
                 coupling: Coupling | str = DEFAULT_COUPLING,
                 priority: int = DEFAULT_PRIORITY) -> Rule:
        """Attach a rule to an event (multiple rules per event allowed)."""
        with self._lock:
            if name in self.rules:
                raise RuleError(f"rule '{name}' already exists")
            node = self.get_event(event_name)
            if isinstance(context, str):
                context = Context.parse(context)
            if isinstance(coupling, str):
                coupling = Coupling.parse(coupling)
            rule = Rule(
                name=name, event_name=event_name, action=action,
                condition=condition, context=context, coupling=coupling,
                priority=priority,
            )
            self.rules[name] = rule
            bucket = self._rules_by_event.setdefault(event_name, [])
            bucket.append(rule)
            bucket.sort(key=lambda r: (-r.priority, r.name))
            self._rules_snapshot[event_name] = tuple(bucket)
            node.activate(context)
            return rule

    def drop_rule(self, name: str) -> None:
        with self._lock:
            rule = self.rules.pop(name, None)
            if rule is None:
                raise RuleError(f"rule '{name}' does not exist")
            bucket = self._rules_by_event.get(rule.event_name, [])
            if rule in bucket:
                bucket.remove(rule)
            if bucket:
                self._rules_snapshot[rule.event_name] = tuple(bucket)
            else:
                self._rules_snapshot.pop(rule.event_name, None)

    def rules_for(self, event_name: str) -> list[Rule]:
        """The rules attached to an event, highest priority first.

        Served from the precomputed snapshot — no per-call sorting or
        bucket copying on the dispatch path.
        """
        return list(self._rules_snapshot.get(event_name, ()))

    # ------------------------------------------------------------------
    # raising events and time

    def raise_event(self, name: str, params: dict[str, object] | None = None,
                    at: float | None = None) -> list[RuleFiring]:
        """Raise a primitive event occurrence.

        Returns the rule firings triggered synchronously by this raise
        (immediate actions run; deferred/detached are recorded as firings
        when they are later executed, not here).
        """
        return self._raise_scoped(((name, params),), at)

    def raise_events(self, batch) -> list[RuleFiring]:
        """Raise several primitive occurrences under one lock acquisition.

        ``batch`` is an iterable of ``(name, params)`` pairs, raised in
        order at the current clock time.  Semantically identical to
        calling :meth:`raise_event` for each pair, but the locking and
        firing-scope bookkeeping is paid once per batch — this is the
        path a coalesced multi-event notification takes.  Returns the
        combined synchronous firings, in raise order.
        """
        return self._raise_scoped(batch, None)

    def _raise_scoped(self, batch, at: float | None) -> list[RuleFiring]:
        """Raise ``(name, params)`` pairs under the lock (timed when
        metrics are on) inside one firing scope; returns its firings."""
        metrics = self.metrics
        timed = (metrics is not None and metrics.enabled
                 and self._m_lock_wait is not None)
        acquired = 0.0
        if timed:
            wait_start = _time.perf_counter()
        self._lock.acquire()
        if timed:
            acquired = _time.perf_counter()
            self._m_lock_wait.observe(acquired - wait_start)
        try:
            outer = self._current_firings is None
            if outer:
                self._current_firings = []
            try:
                for name, params in batch:
                    self._raise_locked(name, params, at)
                return list(self._current_firings or [])
            finally:
                if outer:
                    self._current_firings = None
        finally:
            if timed:
                end = _time.perf_counter()
                self._m_lock_hold.observe(end - acquired)
                self._m_raise_seconds.observe(end - wait_start)
            self._lock.release()

    def _raise_locked(self, name: str, params: dict[str, object] | None,
                      at: float | None) -> None:
        """One raise, with the lock held and a firing scope in place."""
        node = self.get_event(name)
        if not isinstance(node, PrimitiveEventNode):
            raise EventDefinitionError(
                f"'{name}' is a composite event; only primitive events "
                "can be raised externally")
        faults = self.faults
        if faults is not None and faults.enabled:
            from repro.faults import Directive

            if faults.fire("led.raise", name) is Directive.DROP:
                return
        accounting = self.accounting
        if accounting is not None and accounting.active():
            accounting.note_event()
        time = self.clock.now() if at is None else at
        occurrence = primitive(name, time, next(self._seq), params)
        log = self.detection_log
        if log is not None:
            log.append((name, None, occurrence))
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            self._m_detected.labels("primitive", "-").inc()
        eventlog = self.eventlog
        if eventlog is None or not eventlog.planes:
            node.on_raise(occurrence)
            return
        eventlog.observe_node(name, "-", fires=1)
        hop = eventlog.hop(KIND_RAISE, name, detail=f"t={time:g}",
                         binds=occurrence)
        with eventlog.under(hop), eventlog.span(SPAN_LED_RAISE, name):
            node.on_raise(occurrence)

    def process_timers(self) -> list[RuleFiring]:
        """Run all timers due at the current clock time; returns firings."""
        with self._lock:
            outer = self._current_firings is None
            if outer:
                self._current_firings = []
            try:
                self._timers.process_due(self.clock.now())
                return list(self._current_firings or [])
            finally:
                if outer:
                    self._current_firings = None

    def advance_time(self, seconds: float) -> list[RuleFiring]:
        """Advance a :class:`ManualClock` and process due timers."""
        clock = self.clock
        if not isinstance(clock, ManualClock):
            raise RuleError("advance_time requires a ManualClock")
        with self._lock:
            outer = self._current_firings is None
            if outer:
                self._current_firings = []
            try:
                target = clock.now() + seconds
                # Step through intermediate timer deadlines so periodic
                # reschedules land at exact multiples.
                while True:
                    next_fire = self._timers.next_fire_time()
                    if next_fire is None or next_fire > target:
                        break
                    clock.set(max(next_fire, clock.now()))
                    self._timers.process_due(clock.now())
                clock.set(target)
                self._timers.process_due(target)
                return list(self._current_firings or [])
            finally:
                if outer:
                    self._current_firings = None

    def pending_timer_count(self) -> int:
        return len(self._timers)

    def flush_deferred(self) -> list[RuleFiring]:
        """Execute all DEFERRED actions queued so far (transaction end)."""
        with self._lock:
            queued = self._deferred
            self._deferred = []
            firings: list[RuleFiring] = []
            for rule, occurrence, context in queued:
                firings.append(self._run_action(rule, occurrence, context))
            return firings

    @property
    def deferred_count(self) -> int:
        return len(self._deferred)

    def discard_deferred(self) -> int:
        """Drop queued DEFERRED actions (the enclosing transaction rolled
        back, so its rule actions must not run); returns the count."""
        with self._lock:
            count = len(self._deferred)
            self._deferred = []
            return count

    def reset_detection_state(self) -> None:
        """Clear partial detections and pending timers (keep definitions)."""
        with self._lock:
            for node in self.events.values():
                node.reset()
            self._timers = TimerQueue()
            self._deferred = []

    # ------------------------------------------------------------------
    # internals used by nodes

    def _schedule_timer(self, fire_at: float, callback) -> TimerHandle:
        return self._timers.schedule(fire_at, callback)

    def _timer_occurrence(self, name: str, fire_time: float,
                          parameter: str | None) -> Occurrence:
        params: dict[str, object] = {"time": fire_time}
        if parameter:
            params["parameter"] = parameter
        occurrence = primitive(name, fire_time, next(self._seq), params)
        eventlog = self.eventlog
        if eventlog is not None and eventlog.planes:
            eventlog.hop(KIND_TIMER, name, detail=f"t={fire_time:g}",
                       binds=occurrence)
        return occurrence

    def _dispatch_rules(self, node: EventNode, occurrence: Occurrence,
                        context: Context | None) -> None:
        rules = self._rules_snapshot.get(node.name)
        if not rules:
            return
        metrics = self.metrics
        counted = metrics is not None and metrics.enabled
        eventlog = self.eventlog
        planes = eventlog.planes if eventlog is not None else 0
        for rule in rules:
            if not rule.enabled:
                continue
            if context is not None and rule.context is not context:
                continue
            effective = context if context is not None else rule.context
            try:
                if rule.condition is always_true:
                    passed = True
                elif planes:
                    with eventlog.span(SPAN_RULE_CONDITION, rule.name):
                        passed = bool(rule.condition(occurrence))
                    eventlog.hop(KIND_CONDITION, rule.name, effective.value,
                               "passed" if passed else "failed",
                               cause=occurrence)
                else:
                    passed = bool(rule.condition(occurrence))
                if counted:
                    self._m_conditions.labels(
                        "true" if passed else "false").inc()
                if not passed:
                    continue
            except Exception as exc:
                if counted:
                    self._m_conditions.labels("error").inc()
                if planes:
                    eventlog.hop(KIND_CONDITION, rule.name, effective.value,
                               f"error: {exc}", cause=occurrence)
                self._record(RuleFiring(
                    rule.name, node.name, occurrence, effective,
                    rule.coupling, self.clock.now(), error=exc))
                if not self.swallow_action_errors:
                    raise ActionError(rule.name, exc) from exc
                continue
            if counted:
                self._m_rules_fired.labels(rule.coupling.value).inc()
            if planes & HOPS:
                rule.note_fired(self.clock.now())
            if rule.coupling is Coupling.IMMEDIATE:
                self._run_action(rule, occurrence, effective)
            elif rule.coupling is Coupling.DEFERRED:
                self._deferred.append((rule, occurrence, effective))
            else:  # DETACHED
                if self.detached_dispatcher is not None:
                    # The dispatcher records the completed firing itself
                    # (via record_external_firing) when the worker is done.
                    self.detached_dispatcher(rule, occurrence)
                else:
                    self._run_action(rule, occurrence, effective)

    def _run_action(self, rule: Rule, occurrence: Occurrence,
                    context: Context) -> RuleFiring:
        firing = RuleFiring(
            rule.name, rule.event_name, occurrence, context,
            rule.coupling, self.clock.now())
        try:
            eventlog = self.eventlog
            if eventlog is not None and eventlog.planes:
                with eventlog.span(SPAN_RULE_ACTION, rule.name):
                    rule.action(occurrence)
            else:
                rule.action(occurrence)
        except Exception as exc:
            firing.error = exc
            self._record(firing)
            if not self.swallow_action_errors:
                raise ActionError(rule.name, exc) from exc
            return firing
        self._record(firing)
        return firing

    def record_external_firing(self, firing: RuleFiring) -> None:
        """Let an external dispatcher (the agent's action handler) log the
        completion of a DETACHED action into the shared history."""
        with self._lock:
            self.history.append(firing)
            self._journal_firing(firing)

    def _record(self, firing: RuleFiring) -> None:
        self.history.append(firing)
        if self._current_firings is not None:
            self._current_firings.append(firing)
        self._journal_firing(firing)

    def _journal_firing(self, firing: RuleFiring) -> None:
        eventlog = self.eventlog
        if eventlog is None or not eventlog.planes:
            return
        detail = firing.coupling.value.lower()
        if firing.error is not None:
            detail = f"{detail}; error: {firing.error}"
        eventlog.hop(KIND_FIRING, firing.rule_name, firing.context.value,
                   detail, cause=firing.occurrence)
