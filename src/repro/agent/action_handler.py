"""The Action Handler — ``SybaseAction`` (paper Section 5.5, Figure 16).

When the LED fires a rule, the action handler turns the rule's stored
procedure into SQL commands and runs them in the SQL server through the
gateway: first the ``sysContext`` refresh carrying the occurrence's
parameters (Section 5.6), then ``execute <proc>``.

In the paper a new Open Server thread is spawned per action; here the
``threaded`` mode does the same with Python threads (used for DETACHED
coupling), while the default synchronous path runs the action inline —
which is exactly what IMMEDIATE coupling means.

Concurrency: each action is one engine batch on a session of its own —
opened with the trigger owner's identity, so unqualified names in the
action SQL resolve as they would for that user, and closed when the
batch ends.  The batch ends in ``execute <proc>``, which the engine's
lock manager always runs under its exclusive gate, so actions are
serialized against each other and against every client batch there;
the handler holds no locks of its own.  Closing the session is the
client-disconnect path: an action that leaves a transaction open is
rolled back and stops pinning the engine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.faults import POINT_ACTION_RUN
from repro.led.detector import RuleFiring
from repro.led.occurrences import Occurrence
from repro.led.rules import Coupling, Rule
from repro.obs.events import KIND_ACTION
from repro.obs.tracing import FIG4_ACTION_RUN

from .codegen import sys_context_refresh_sql
from .messages import NotiStr
from .model import EcaTriggerDef


@dataclass
class ActionRecord:
    """Log entry for one executed action."""

    trigger_internal: str
    proc_name: str
    event_internal: str
    occurrence: Occurrence
    messages: list[str] = field(default_factory=list)
    row_sets: int = 0
    error: BaseException | None = None


@dataclass
class TriggerRuntime:
    """Runtime wiring for one ECA trigger."""

    definition: EcaTriggerDef
    snapshot_tables: list[str]
    uses_context: bool
    inline: bool  # executed inside the generated native trigger
    enabled: bool = True


class ActionHandler:
    """Executes rule actions inside the SQL server."""

    def __init__(self, agent):
        self.agent = agent
        self.action_log: list[ActionRecord] = []
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._m_actions = agent.metrics.counter(
            "agent_actions_total",
            "Rule actions executed by the Action Handler", ("status",))
        self._m_action_seconds = agent.metrics.histogram(
            "agent_action_seconds",
            "Rule action execution latency (seconds)")

    # ------------------------------------------------------------------
    # LED integration

    def make_action(self, runtime: TriggerRuntime):
        """Build the LED action callable for a (non-inline) ECA trigger."""

        def action(occurrence: Occurrence) -> None:
            self.run_action(runtime, occurrence)

        return action

    def dispatch_detached(self, rule: Rule, occurrence: Occurrence) -> None:
        """LED detached dispatcher: one worker thread per action
        (the paper: 'new thread is generated for each call to
        SybaseAction').

        Causal context crosses the thread boundary explicitly: the
        dispatching thread captures its ambient state (trace context,
        journal parents, the paying session's identity) *before*
        spawning, and the worker adopts it — so a detached action's span
        parents into the originating command's trace, its journal
        records link to the triggering detection, and its cost still
        charges the triggering session.
        """
        runtime = self.agent.runtime_for_rule(rule.name)
        if runtime is None:
            return
        ambient = self.agent.ambient
        handoff = ambient.capture()

        def worker() -> None:
            # the firing is recorded inside the adoption, so its hop
            # carries the originating command's id like the action's
            with ambient.adopt(handoff):
                record = self.run_action(runtime, occurrence)
                self.agent.led.record_external_firing(RuleFiring(
                    rule_name=rule.name,
                    event_name=rule.event_name,
                    occurrence=occurrence,
                    context=rule.context,
                    coupling=Coupling.DETACHED,
                    at=self.agent.led.clock.now(),
                    error=record.error,
                ))

        thread = threading.Thread(
            target=worker, name=f"eca-action-{rule.name}", daemon=True)
        with self._lock:
            # Keep only threads join_detached could still have to wait
            # for; a finished one per firing would otherwise pile up.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
            thread.start()

    def join_detached(self, timeout: float = 5.0) -> None:
        """Wait for all outstanding detached action threads."""
        with self._lock:
            threads = list(self._threads)
            self._threads = []
        for thread in threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # execution

    def run_action(self, runtime: TriggerRuntime,
                   occurrence: Occurrence) -> ActionRecord:
        """Run one action: refresh ``sysContext``, execute the procedure,
        and route its output toward the client (Figure 16).

        Failure semantics: any failure — real or injected at the
        ``action.run`` point — is recorded in the action log; it then
        propagates (wrapped by the LED in ``ActionError``) unless the
        agent was built with ``swallow_action_errors``.

        The whole action is charged to the trigger's rule frame (and any
        enclosing command frame) in the agent's accounting plane; errors
        count whether they propagate or are swallowed.
        """
        scope = self.agent.accounting.rule_scope(
            runtime.definition.internal)
        with scope:
            record = self._run_action(runtime, occurrence)
            if record.error is not None:
                scope.mark_error()
            return record

    def _run_action(self, runtime: TriggerRuntime,
                    occurrence: Occurrence) -> ActionRecord:
        trigger = runtime.definition
        noti = NotiStr(
            store_proc=trigger.proc_name,
            event_name=trigger.event_internal,
            context=trigger.context.value,
        )
        record = ActionRecord(
            trigger_internal=trigger.internal,
            proc_name=noti.store_proc,
            event_internal=noti.event_name,
            occurrence=occurrence,
        )
        start = time.perf_counter()
        try:
            faults = self.agent.faults
            if faults.enabled:
                faults.fire(POINT_ACTION_RUN, trigger.internal)
            self._execute(runtime, record)
        except Exception as exc:  # record and surface via the LED policy
            record.error = exc
            self.action_log.append(record)
        # The one place the outcome is said: a metric and a hop, whether
        # the action ran, failed, or was failed by an injected fault.
        error = record.error
        duration = time.perf_counter() - start
        if self.agent.metrics.enabled:
            self._m_actions.labels("ok" if error is None else "error").inc()
            if error is None:
                self._m_action_seconds.observe(duration)
        events = self.agent.events
        if events.planes:
            events.hop(KIND_ACTION, trigger.internal, trigger.context.value,
                       "ok" if error is None else f"error: {error}",
                       cause=occurrence, duration=duration)
        if error is not None and not self.agent.led.swallow_action_errors:
            raise error
        return record

    def _execute(self, runtime: TriggerRuntime, record: ActionRecord) -> None:
        """Refresh ``sysContext`` and run the procedure as one batch on a
        fresh session, and route its output (fills in ``record``)."""
        trigger = runtime.definition
        statements: list[str] = []
        params: dict[str, object] = {}
        if runtime.uses_context:
            entries = context_entries(record.occurrence)
            refresh, params = sys_context_refresh_sql(
                entries,
                runtime.snapshot_tables,
                trigger.context,
                self.agent.persistent_manager.system_prefix(trigger.db_name),
            )
            statements.extend(refresh)
        statements.append(f"execute {record.proc_name}")
        server = self.agent.server
        session = server.create_session(trigger.user_name, trigger.db_name)
        try:
            with self.agent.events.span(FIG4_ACTION_RUN, trigger.internal):
                result = server.execute(
                    "\n".join(statements), session, params=params)
                # Figure 16: results flow back to the client through
                # the gateway (routing is part of the action span).
                self._finish(record, result)
        finally:
            # rolls back a transaction the action left open
            session.closed = True

    def _finish(self, record: ActionRecord, result) -> None:
        record.messages = list(result.messages)
        record.row_sets = len(result.result_sets)
        self.action_log.append(record)
        self.agent.gateway.push_action_output(result)


def context_entries(occurrence: Occurrence) -> list[tuple[str, int]]:
    """(snapshot table, vNo) pairs carried by an occurrence's constituents.

    Timer ticks and other synthetic constituents carry no snapshot tables
    and are skipped; duplicates are removed while preserving order.
    """
    entries: list[tuple[str, int]] = []
    seen: set[tuple[str, int]] = set()
    for constituent in occurrence.flatten():
        snapshot_tables = constituent.params.get("snapshot_tables")
        v_no = constituent.params.get("vNo")
        if not snapshot_tables or v_no is None:
            continue
        for table in snapshot_tables.values():
            entry = (str(table), int(v_no))
            if entry not in seen:
                seen.add(entry)
                entries.append(entry)
    return entries
