"""The Action Handler — ``SybaseAction`` (paper Section 5.5, Figure 16).

When the LED fires a rule, the action handler turns the rule's stored
procedure into SQL commands and runs them in the SQL server through the
gateway: first the ``sysContext`` refresh carrying the occurrence's
parameters (Section 5.6), then ``execute <proc>``.

In the paper a new Open Server thread is spawned per action; here the
``threaded`` mode does the same with Python threads (used for DETACHED
coupling), while the default synchronous path runs the action inline —
which is exactly what IMMEDIATE coupling means.

Concurrency: actions whose parameter contexts touch disjoint snapshot
tables run fully in parallel (the engine's lock manager arbitrates the
data below); actions sharing a snapshot table are serialized here, by
sorted per-table locks, because their ``sysContext`` refresh +
context-processing join is a multi-batch read-modify-write over shared
rows.  Actions sharing an execution session (same database and owner)
additionally serialize on that session — engine sessions hold
per-session state (``@@rowcount``, transaction log) and are not
reentrant.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
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
        #: action execution sessions, one per (database, user): actions run
        #: with the *trigger owner's* identity so unqualified names in the
        #: user's action SQL resolve as they would for that user.  Each
        #: session carries a lock: concurrent actions sharing an identity
        #: must not interleave on one engine session.
        self._sessions: dict[tuple[str, str], tuple[object, threading.RLock]] = {}
        #: serialization locks for actions touching the same snapshot
        #: table (sysContext refresh is a read-modify-write across batches)
        self._table_locks: dict[str, threading.Lock] = {}

    def _session_for(self, database: str, user: str):
        """The (engine session, session lock) pair for one identity."""
        key = (database.lower(), user.lower())
        with self._lock:
            entry = self._sessions.get(key)
            if entry is None:
                entry = (self.agent.server.create_session(user, database),
                         threading.RLock())
                self._sessions[key] = entry
        return entry

    def _serialization_locks(self, runtime: "TriggerRuntime") -> list:
        """Sorted per-table locks covering the action's snapshot tables.

        Sorting gives a global acquisition order, so two actions with
        overlapping table sets cannot deadlock; disjoint actions share no
        locks and run concurrently.
        """
        names = sorted({t.lower() for t in runtime.snapshot_tables})
        locks = []
        with self._lock:
            for name in names:
                lock = self._table_locks.get(name)
                if lock is None:
                    lock = threading.Lock()
                    self._table_locks[name] = lock
                locks.append(lock)
        return locks

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
        """Refresh ``sysContext``, run the procedure under the handler's
        locks, and route its output (fills in ``record``)."""
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
        script = "\n".join(statements)
        # An IMMEDIATE action runs nested inside the client's engine
        # batch, which holds the exclusive gate: it is already serialized
        # against every other action and must not block on handler locks
        # (a lock held by an action waiting for the gate would deadlock).
        # It gets a throwaway session for the same reason — the cached
        # identity session might be mid-script on another thread.
        if self.agent.server.lock_manager.in_batch():
            session = self.agent.server.create_session(
                trigger.user_name, trigger.db_name)
            locks: list = []
        else:
            session, session_lock = self._session_for(
                trigger.db_name, trigger.user_name)
            locks = [session_lock]
            locks.extend(self._serialization_locks(runtime))
        with ExitStack() as stack:
            for lock in locks:
                stack.enter_context(lock)
            with self.agent.events.span(FIG4_ACTION_RUN, trigger.internal):
                result = self.agent.server.execute(
                    script, session, params=params)
                # Figure 16: results flow back to the client through
                # the gateway (routing is part of the action span).
                self._finish(record, result)

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
