"""The ECA Agent: assembly of the seven modules of paper Figure 2.

``EcaAgent`` wires together the Gateway Open Server, Language Filter, ECA
Parser, Local Event Detector, Persistent Manager, Event Notifier, and
Action Handler around an unmodified :class:`~repro.sqlengine.SqlServer`,
and implements the two control flows of Figures 3 (create ECA rules) and
4 (event notification and action).
"""

from __future__ import annotations

import re
import threading

from repro.faults import (
    FaultInjector,
    FaultPlan,
    POINT_NOTIFIER_DECODE,
    RetryPolicy,
    TransientFaultError,
)
from repro.led import LocalEventDetector, ManualClock
from repro.led.clock import VirtualClock
from repro.led.rules import Context, Coupling
from repro.obs.tracing import (
    FIG3_GRAPH_CREATED,
    FIG3_PERSISTED,
    FIG3_SQL_INSTALLED,
    FIG4_NOTIFIED,
    SPAN_ECA_CODEGEN,
    SPAN_ECA_PARSE,
    PipelineTrace,
)
from repro.snoop import parse_event_expression
from repro.snoop.ast import referenced_events
from repro.sqlengine import ClientConnection, SqlServer
from repro.sqlengine.results import BatchResult
from repro.sqlengine.server import Session

from . import codegen
from .action_handler import ActionHandler, TriggerRuntime
from .eca_parser import (
    ALTER_TRIGGER,
    CREATE_COMPOSITE,
    CREATE_ON_EVENT,
    CREATE_PRIMITIVE,
    DROP_EVENT,
    DROP_TRIGGER,
    EcaCommand,
    LanguageFilter,
    parse_eca_command,
)
from .errors import AgentError, NameError_, RecoveryError
from .model import (
    CompositeEventDef,
    EcaTriggerDef,
    PrimitiveEventDef,
    TableOpRegistration,
)
from .naming import expand_name, expand_snoop_expression, split_internal
from .notifier import (
    EventNotifier,
    NotificationChannel,
    SynchronousChannel,
    ThreadedChannel,
    UdpChannel,
)
from .persistence import PersistentManager
from .messages import adopt_payload, stamp

_DROP_TRIGGER_NAME = re.compile(
    r"^\s*drop\s+trigger\s+([A-Za-z_#][\w.$#]*)", re.IGNORECASE)


def _is_transient_notification_fault(exc: BaseException) -> bool:
    """Retry predicate for notification delivery (decode faults only)."""
    return (isinstance(exc, TransientFaultError)
            and exc.point == POINT_NOTIFIER_DECODE)


class EcaAgent:
    """A Virtual Active SQL Server (paper Section 3).

    Args:
        server: the passive SQL server being mediated (never modified).
        channel: notification transport — ``"sync"`` (default,
            deterministic in-process), ``"threaded"`` (in-process queue
            with a listener thread), ``"udp"`` (real localhost UDP as in
            the paper), or any :class:`NotificationChannel` instance.
        clock: LED clock for temporal operators (default: ManualClock).
        notify_host / notify_port: the address baked into the generated
            triggers' ``syb_sendmsg`` calls (paper Figure 11 hard-codes
            ``128.227.205.215:10006``).
        swallow_action_errors: record failing rule actions instead of
            propagating them into the triggering client command.
        faults: a :class:`~repro.faults.FaultPlan` or
            :class:`~repro.faults.FaultInjector` arming the chaos
            harness; None (the default) disables injection entirely.
        retry: the :class:`~repro.faults.RetryPolicy` applied to
            persistence writes and notification delivery; defaults to 3
            fast attempts with no backoff.  Pass
            ``RetryPolicy(max_attempts=1)`` to fail fast.
        exporter: an optional :class:`~repro.obs.TelemetryExporter`; when
            attached, ``export agent telemetry`` snapshots metrics, the
            event stream and accounting totals into its JSONL file.
        workers: gateway worker-pool size; 0 (default) runs every
            command inline on the client's thread.  Resizable at runtime
            with ``set agent workers <N>``.
    """

    def __init__(self, server: SqlServer,
                 channel: NotificationChannel | str = "sync",
                 clock: VirtualClock | None = None,
                 notify_host: str = "127.0.0.1",
                 notify_port: int = 10006,
                 swallow_action_errors: bool = False,
                 metrics: "MetricsRegistry | None" = None,
                 faults: "FaultInjector | FaultPlan | None" = None,
                 retry: RetryPolicy | None = None,
                 exporter: "TelemetryExporter | None" = None,
                 workers: int = 0):
        from repro.obs import (
            EventLog,
            FlightRecorder,
            HealthEvaluator,
            MetricsRegistry,
            OpAccounting,
            ProvenanceJournal,
        )

        self.server = server
        #: per-agent observability sinks, all off by default: the whole
        #: layer costs one branch per hook until an operator turns it on
        #: (``set agent stats|trace|provenance on``).
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            enabled=False)
        #: the one event stream (spans, provenance hops, slow ops) and
        #: its three views; every hook site records through ``events``.
        self.events = EventLog()
        self.trace = PipelineTrace(log=self.events)
        self.journal = ProvenanceJournal(log=self.events)
        #: armed via ``set agent slowlog <ms>``, dumped by ``show agent
        #: slow``
        self.flightrec = FlightRecorder(log=self.events)
        self.exporter = exporter
        #: resource accounting: always on (plain int adds per hook),
        #: charging every command to its session and every action to its
        #: rule — ``show agent top [rules|sessions]`` — and the SQL
        #: engine's only report: closed frames fold into the ``sql_*``
        #: counters of the registry.
        self.accounting = OpAccounting(metrics=self.metrics)
        #: the one per-thread ambient context (open spans, inherited
        #: command context, hop parents, accounting frames) the event
        #: log and the accounting plane read and write, so every
        #: hand-off — pool queue, DETACHED thread, datagram — is one
        #: ``capture()``/``adopt()`` and every event carries the active
        #: command's id.
        self.ambient = self.events.ambient
        self.ambient.accounting = self.accounting
        self.accounting.ambient = self.ambient
        #: the watchdog evaluating declarative health rules on demand
        #: (``show agent health``).
        self.health_evaluator = HealthEvaluator()
        #: the fault-injection harness (disabled unless a plan was armed)
        #: and the retry policy shared by the resilient call sites.
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.faults = faults if faults is not None else FaultInjector()
        self.faults.attach_metrics(self.metrics)
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self.persistent_manager = PersistentManager(
            server, faults=self.faults, retry=self.retry_policy,
            metrics=self.metrics)
        self._m_eca_commands = self.metrics.counter(
            "agent_eca_commands_total",
            "ECA commands handled, by command kind", ("kind",))
        server.attach_accounting(self.accounting)
        self.action_handler = ActionHandler(self)
        self.led = LocalEventDetector(
            clock=clock or ManualClock(),
            detached_dispatcher=self.action_handler.dispatch_detached,
            swallow_action_errors=swallow_action_errors,
        )
        self.led.attach_observability(self.metrics, self.trace, self.journal)
        self.led.attach_accounting(self.accounting)
        self.led.faults = self.faults
        self.language_filter = LanguageFilter()
        from .admin import AgentAdmin
        from .gateway import GatewayOpenServer

        self.gateway = GatewayOpenServer(self, workers=workers)
        self.admin = AgentAdmin(self)
        #: serializes ECA DDL (create/drop/alter of events and triggers):
        #: the registries and codegen are multi-step and concurrent
        #: sessions must not interleave them.
        self._eca_lock = threading.RLock()
        self.notify_host = notify_host
        self.notify_port = notify_port

        # registries (all keyed by lowercase internal name)
        self.primitive_events: dict[str, PrimitiveEventDef] = {}
        self.composite_events: dict[str, CompositeEventDef] = {}
        self.eca_triggers: dict[str, EcaTriggerDef] = {}
        self.trigger_runtime: dict[str, TriggerRuntime] = {}
        self.table_ops: dict[tuple[str, str, str, str], TableOpRegistration] = {}
        #: inline (native-trigger) procs: key -> list of (priority, seq, proc, trigger internal)
        self._inline: dict[tuple[str, str, str, str], list[tuple[int, int, str, str]]] = {}
        self._creation_seq = 0
        #: during recovery, native-trigger regeneration is batched: the
        #: dirty keys accumulate here and regenerate once at the end.
        self._regen_suspended: set[tuple[str, str, str, str]] | None = None

        # notification plumbing
        self.notifier = EventNotifier(
            self.led,
            event_lookup=self._primitive_lookup,
            v_no_lookup=self.persistent_manager.current_v_no,
            metrics=self.metrics,
            faults=self.faults,
            events=self.events,
        )
        self.channel = self._make_channel(channel)

        def deliver(payload: str) -> None:
            # A datagram may carry the sending command's trace context as
            # a ``tc=`` trailer (see send below); strip it and adopt it
            # on the delivering thread so the notification span — and
            # everything the LED does under it — parents into the
            # originating command's trace even across an async channel's
            # listener thread.
            payload, adopted = adopt_payload(payload, self.ambient)
            with adopted, self.events.span(FIG4_NOTIFIED, payload):
                self.notifier.on_payload(payload)

        def send(host: str, port: int, payload: str) -> None:
            # ``syb_sendmsg`` sink: the sending thread's trace context
            # (if any) rides the datagram so causality survives the
            # transport.
            self.channel.send(host, port, stamp(payload, self.ambient))

        def receive(payload: str) -> None:
            # Delivery is retried only for faults injected at the decode
            # point itself: decoding is idempotent, whereas replaying a
            # failure from deeper in the pipeline (LED, action) could
            # raise the same occurrence twice.
            self.retry_policy.call(
                deliver, payload, operation="notification",
                metrics=self.metrics,
                retry_if=_is_transient_notification_fault)

        self.channel.attach(receive)
        self.channel.start()
        server.set_datagram_sink(send)
        server.add_transaction_end_listener(self._on_transaction_end)

        self.recover()

    # ------------------------------------------------------------------
    # construction helpers

    def _make_channel(self, channel) -> NotificationChannel:
        if isinstance(channel, NotificationChannel):
            return channel
        if channel == "sync":
            return SynchronousChannel()
        if channel == "threaded":
            return ThreadedChannel()
        if channel == "udp":
            return UdpChannel(port=self.notify_port)
        raise AgentError(f"unknown notification channel {channel!r}")

    def close(self) -> None:
        """Detach from the server and stop background machinery."""
        self.gateway.stop_workers()
        self.action_handler.join_detached()
        self.channel.stop()
        self.server.set_datagram_sink(None)
        self.server.attach_accounting(None)

    # ------------------------------------------------------------------
    # public client surface

    def connect(self, user: str = "dbo",
                database: str | None = None) -> ClientConnection:
        """Open a client connection *through the agent* — the client sees
        a Virtual Active SQL Server."""
        return ClientConnection(self.gateway, user, database)

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until asynchronous notifications have been processed."""
        return self.channel.drain(timeout)

    def advance_time(self, seconds: float):
        """Advance the LED clock (temporal operators fire as due)."""
        return self.led.advance_time(seconds)

    def flush_deferred(self):
        """Run queued DEFERRED actions now."""
        return self.led.flush_deferred()

    def start_detection_log(self) -> list:
        """Begin recording the LED's detection history (primitive raises
        and composite detections in propagation order) for differential
        comparison; returns the live log list."""
        return self.led.start_detection_log()

    def stop_detection_log(self) -> list:
        """Stop recording and return the captured detection history."""
        return self.led.stop_detection_log()

    def firing_history(self) -> list:
        """The LED's rule-firing history (a list of
        :class:`~repro.led.detector.RuleFiring`), in execution order."""
        return list(self.led.history)

    def export_telemetry(self, label: str = "") -> int:
        """Snapshot metrics + the event stream (spans, provenance, slow
        ops) + accounting totals into the attached
        :class:`~repro.obs.TelemetryExporter`'s
        JSONL file; returns the number of lines written.  Raises
        :class:`AgentError` when no exporter is attached."""
        if self.exporter is None:
            raise AgentError("no telemetry exporter attached to this agent")
        return self.exporter.export_snapshot(
            metrics=self.metrics, events=self.events,
            accounting=self.accounting, label=label)

    def health(self) -> "HealthReport":
        """Evaluate the watchdog rules against the agent's live
        telemetry; returns a deterministic
        :class:`~repro.obs.HealthReport` (``show agent health``)."""
        from repro.obs import collect_sample

        return self.health_evaluator.evaluate(collect_sample(self))

    # ------------------------------------------------------------------
    # lookups used by the notifier / action handler

    def _primitive_lookup(self, internal: str) -> PrimitiveEventDef | None:
        return self.primitive_events.get(internal.lower())

    def runtime_for_rule(self, rule_name: str) -> TriggerRuntime | None:
        """The runtime wiring of an ECA trigger by LED rule name (None
        when the rule is not agent-managed)."""
        return self.trigger_runtime.get(rule_name.lower())

    def event_exists(self, internal: str) -> bool:
        """Whether an internal name denotes a known primitive or
        composite event."""
        key = internal.lower()
        return key in self.primitive_events or key in self.composite_events

    # ------------------------------------------------------------------
    # command routing

    def owns_drop_trigger(self, sql: str, session: Session) -> bool:
        """Whether a ``drop trigger`` names an agent-managed trigger."""
        match = _DROP_TRIGGER_NAME.match(sql)
        if not match:
            return False
        internal = expand_name(match.group(1), session.database, session.user)
        return internal.lower() in self.eca_triggers

    def handle_eca(self, sql: str, session: Session) -> BatchResult:
        """Figure 3 steps 3-7: parse, generate, persist, wire.

        Failure semantics: a CREATE command that fails part-way (for
        example an injected persistence fault that outlives its retries)
        is *compensated* — every registry entry, LED node/rule, and
        persisted row the command added is rolled back before the error
        propagates, so the agent's rule base stays consistent and the
        failure is visible only to the issuing client.  A
        :class:`~repro.faults.SimulatedCrash` is never compensated: it
        models process death, and consistency is then restored by
        :meth:`recover` on the next start.
        """
        with self.events.span(SPAN_ECA_PARSE):
            command = parse_eca_command(sql)
        if self.metrics.enabled:
            self._m_eca_commands.labels(command.kind).inc()
        result = BatchResult()
        creates = command.kind in (
            CREATE_PRIMITIVE, CREATE_COMPOSITE, CREATE_ON_EVENT)
        with self._eca_lock:
            snapshot = self._state_snapshot() if creates else None
            with self.events.span(SPAN_ECA_CODEGEN, command.kind):
                try:
                    self._dispatch_eca(command, session, result)
                except Exception:
                    if snapshot is not None:
                        self._rollback_to(snapshot)
                    raise
        return result

    def _dispatch_eca(self, command: EcaCommand, session: Session,
                      result: BatchResult) -> None:
        if command.kind == CREATE_PRIMITIVE:
            event = self._create_primitive_event(command, session, result)
            self._create_trigger(command, session, event.internal, result)
        elif command.kind == CREATE_COMPOSITE:
            event = self._create_composite_event(command, session, result)
            self._create_trigger(command, session, event.internal, result)
        elif command.kind == CREATE_ON_EVENT:
            event_internal = expand_name(
                str(command.event_name), session.database, session.user)
            if not self.event_exists(event_internal):
                raise NameError_(
                    f"event '{command.event_name}' does not exist")
            self._create_trigger(command, session, event_internal, result)
        elif command.kind == DROP_TRIGGER:
            self._drop_trigger(command, session, result)
        elif command.kind == DROP_EVENT:
            self._drop_event(command, session, result)
        elif command.kind == ALTER_TRIGGER:
            self._alter_trigger(command, session, result)
        else:  # pragma: no cover - parser guarantees the kinds above
            raise AgentError(f"unhandled ECA command kind {command.kind!r}")

    # ------------------------------------------------------------------
    # compensation (graceful degradation for failed CREATE commands)

    def _state_snapshot(self) -> dict:
        """Capture the agent's registries before a CREATE command."""
        return {
            "primitive": dict(self.primitive_events),
            "composite": dict(self.composite_events),
            "triggers": dict(self.eca_triggers),
            "runtime": dict(self.trigger_runtime),
            "table_ops": {
                key: list(reg.event_internals)
                for key, reg in self.table_ops.items()
            },
            "inline": {key: list(val) for key, val in self._inline.items()},
            "led_events": set(self.led.events),
            "led_rules": set(self.led.rules),
        }

    def _rollback_to(self, snapshot: dict) -> None:
        """Best-effort undo of everything a failed CREATE added.

        Each step is individually guarded: compensation must make
        maximal progress even when the same fault that broke the command
        also breaks some undo statements (leftover server-side snapshot
        tables are harmless — re-creation is idempotent).
        """
        pm = self.persistent_manager

        def attempt(fn, *args) -> None:
            try:
                fn(*args)
            except Exception:
                pass

        # 1. LED rules added by the command, then events (reverse
        #    insertion order drops composites before their constituents).
        for name in list(self.led.rules):
            if name not in snapshot["led_rules"]:
                attempt(self.led.drop_rule, name)
        for name in reversed(list(self.led.events)):
            if name not in snapshot["led_events"]:
                attempt(self.led.drop_event, name)

        # 2. Persisted rows and generated procedures for new objects.
        for key, trigger in self.eca_triggers.items():
            if key in snapshot["triggers"]:
                continue
            attempt(pm.delete_trigger, trigger)
            attempt(pm.execute, trigger.db_name,
                    f"drop procedure {trigger.proc_name}")
        for key, event in self.composite_events.items():
            if key not in snapshot["composite"]:
                attempt(pm.delete_composite, event)
        for key, event in self.primitive_events.items():
            if key not in snapshot["primitive"]:
                attempt(pm.delete_primitive, event)

        # 3. Restore registries and regenerate affected native triggers.
        self.primitive_events = snapshot["primitive"]
        self.composite_events = snapshot["composite"]
        self.eca_triggers = snapshot["triggers"]
        self.trigger_runtime = snapshot["runtime"]
        self._inline = snapshot["inline"]
        dirty: set[tuple[str, str, str, str]] = set()
        for key, reg in list(self.table_ops.items()):
            names = snapshot["table_ops"].get(key)
            restored = list(names) if names is not None else []
            if reg.event_internals != restored:
                reg.event_internals = restored
                dirty.add(key)
        for key in dirty:
            attempt(self._regenerate_native_trigger, key)

    def after_client_command(self, session: Session) -> None:
        """Statement-end hook: outside a transaction each command is its
        own transaction, so DEFERRED actions queued by it run now."""
        if not session.tx_log.active and self.led.deferred_count:
            self.led.flush_deferred()

    def _on_transaction_end(self, session: Session, committed: bool) -> None:
        if committed:
            self.led.flush_deferred()
        else:
            self.led.discard_deferred()

    # ------------------------------------------------------------------
    # creating events

    def _create_primitive_event(self, command: EcaCommand, session: Session,
                                result: BatchResult) -> PrimitiveEventDef:
        internal = expand_name(
            str(command.event_name), session.database, session.user)
        if self.event_exists(internal):
            raise NameError_(f"event '{command.event_name}' already exists")
        db_name, user_name, event_name = split_internal(internal)

        table = self._resolve_monitored_table(
            str(command.table_name), db_name, user_name)
        event = PrimitiveEventDef(
            db_name=db_name,
            user_name=user_name,
            event_name=event_name,
            table_owner=table.owner,
            table_name=table.name,
            operation=str(command.operation),
        )
        self._install_primitive(event, persist=True)
        result.messages.append(
            f"Primitive event {internal} created on "
            f"{table.owner}.{table.name} for {event.operation}."
        )
        return event

    def _resolve_monitored_table(self, table_text: str, db_name: str,
                                 user_name: str):
        parts = table_text.split(".")
        database = self.server.catalog.get_database(
            parts[0] if len(parts) == 3 else db_name)
        if len(parts) == 1:
            table = database.find_table(parts[0], user_name)
        else:
            table = database.get_table(parts[-2], parts[-1])
        if table is None:
            raise NameError_(f"table '{table_text}' does not exist")
        return table

    def _install_primitive(self, event: PrimitiveEventDef,
                           persist: bool) -> None:
        """Create server-side objects (idempotently), register, persist."""
        pm = self.persistent_manager
        pm.ensure_system_tables(event.db_name)
        database = self.server.catalog.get_database(event.db_name)
        source = f"{event.db_name}.{event.table_owner}.{event.table_name}"
        for direction in event.snapshot_directions:
            snapshot = event.snapshot_table(direction)
            _db, owner, name = split_internal(snapshot)
            if database.get_table(owner, name) is None:
                pm.execute(event.db_name,
                           codegen.snapshot_table_sql(event, direction, source))
        _db, owner, name = split_internal(event.version_table)
        if database.get_table(owner, name) is None:
            pm.execute(event.db_name, codegen.version_table_sql(event))

        self.primitive_events[event.internal.lower()] = event
        self.led.define_primitive(event.internal)
        self.events.emit(FIG3_GRAPH_CREATED, event.internal)
        key = self._table_op_key(event)
        registration = self.table_ops.get(key)
        if registration is None:
            registration = TableOpRegistration(
                db_name=event.db_name,
                table_owner=event.table_owner,
                table_name=event.table_name,
                operation=event.operation,
            )
            self.table_ops[key] = registration
        registration.event_internals.append(event.internal)
        self._regenerate_native_trigger(key)
        self.events.emit(FIG3_SQL_INSTALLED, event.native_trigger_name)
        if persist:
            pm.persist_primitive(event)
            self.events.emit(FIG3_PERSISTED, event.internal)

    @staticmethod
    def _table_op_key(event: PrimitiveEventDef) -> tuple[str, str, str, str]:
        return (
            event.db_name.lower(),
            event.table_owner.lower(),
            event.table_name.lower(),
            event.operation,
        )

    def _create_composite_event(self, command: EcaCommand, session: Session,
                                result: BatchResult) -> CompositeEventDef:
        internal = expand_name(
            str(command.event_name), session.database, session.user)
        if self.event_exists(internal):
            raise NameError_(f"event '{command.event_name}' already exists")
        db_name, user_name, event_name = split_internal(internal)
        describe = expand_snoop_expression(
            str(command.snoop_text), session.database, session.user)
        for name in referenced_events(parse_event_expression(describe)):
            if not self.event_exists(name):
                raise NameError_(
                    f"constituent event '{name}' does not exist")
        event = CompositeEventDef(
            db_name=db_name,
            user_name=user_name,
            event_name=event_name,
            event_describe=describe,
            coupling=command.coupling or Coupling.IMMEDIATE,
            context=command.context or Context.RECENT,
            priority=command.priority or 1,
        )
        self._install_composite(event, persist=True)
        result.messages.append(
            f"Composite event {internal} = {describe} created.")
        return event

    def _install_composite(self, event: CompositeEventDef,
                           persist: bool) -> None:
        pm = self.persistent_manager
        pm.ensure_system_tables(event.db_name)
        self.led.define_composite(event.internal, event.event_describe)
        self.composite_events[event.internal.lower()] = event
        if persist:
            pm.persist_composite(event)

    # ------------------------------------------------------------------
    # creating triggers (rules)

    def _create_trigger(self, command: EcaCommand, session: Session,
                        event_internal: str, result: BatchResult) -> EcaTriggerDef:
        trigger_internal = expand_name(
            str(command.trigger_name), session.database, session.user)
        if trigger_internal.lower() in self.eca_triggers:
            raise NameError_(
                f"trigger '{command.trigger_name}' already exists")
        db_name, user_name, trigger_name = split_internal(trigger_internal)

        composite = self.composite_events.get(event_internal.lower())
        primitive = self.primitive_events.get(event_internal.lower())
        defaults = composite  # composite definitions carry rule defaults
        coupling = command.coupling or (
            defaults.coupling if defaults else Coupling.IMMEDIATE)
        context = command.context or (
            defaults.context if defaults else Context.RECENT)
        priority = command.priority or (
            defaults.priority if defaults else 1)

        trigger = EcaTriggerDef(
            db_name=db_name,
            user_name=user_name,
            trigger_name=trigger_name,
            event_internal=event_internal,
            action_sql=command.action_sql,
            coupling=coupling,
            context=context,
            priority=priority,
            condition_sql=command.condition_sql,
        )
        self._install_trigger(trigger, persist=True)
        result.messages.append(
            f"ECA trigger {trigger_internal} created on event "
            f"{event_internal} ({coupling.value}, {context.value}, "
            f"priority {priority})."
        )
        return trigger

    def _install_trigger(self, trigger: EcaTriggerDef, persist: bool) -> None:
        pm = self.persistent_manager
        primitive = self.primitive_events.get(trigger.event_internal.lower())
        inline = (
            primitive is not None
            and trigger.coupling is Coupling.IMMEDIATE
        )
        involved = self._constituent_primitives(trigger.event_internal)
        snapshot_tables = self._snapshot_tables_for(involved)

        def resolve_table(text: str) -> str | None:
            short = text.split(".")[-1].lower()
            for event in involved:
                if event.table_name.lower() == short:
                    return f"{event.db_name}.{event.user_name}.{event.table_name}"
            return None

        mode = "pseudo" if inline else "tmp"
        rewritten = codegen.rewrite_action_sql(
            trigger.action_sql, resolve_table, mode)
        rewritten_condition = None
        if trigger.condition_sql:
            rewritten_condition = codegen.rewrite_action_sql(
                trigger.condition_sql, resolve_table, mode)

        if not inline:
            # Ensure the parameter (_tmp) tables exist — in the snapshot's
            # own database (a composite may span databases).
            for snapshot in snapshot_tables:
                tmp = snapshot + codegen.TMP_SUFFIX
                snap_db, owner, name = split_internal(tmp)
                database = self.server.catalog.get_database(snap_db)
                if database.get_table(owner, name) is None:
                    pm.execute(snap_db, codegen.tmp_table_sql(snapshot))

        # Idempotent against recovery: the procedure persisted in the
        # server's catalog, so only create it if it is missing.
        database = self.server.catalog.get_database(trigger.db_name)
        _db, proc_owner, proc_name = split_internal(trigger.proc_name)
        if database.get_procedure(proc_owner, proc_name) is None:
            proc_sql = codegen.action_proc_sql(
                trigger, rewritten, snapshot_tables,
                pm.system_prefix(trigger.db_name),
                with_context_processing=not inline,
                rewritten_condition=rewritten_condition,
            )
            pm.execute(trigger.db_name, proc_sql)

        self.events.emit(FIG3_SQL_INSTALLED, trigger.proc_name)
        runtime = TriggerRuntime(
            definition=trigger,
            snapshot_tables=snapshot_tables,
            uses_context=not inline,
            inline=inline,
        )
        self.eca_triggers[trigger.internal.lower()] = trigger
        self.trigger_runtime[trigger.rule_name.lower()] = runtime

        if inline:
            assert primitive is not None
            key = self._table_op_key(primitive)
            self._creation_seq += 1
            self._inline.setdefault(key, []).append(
                (trigger.priority, self._creation_seq,
                 trigger.proc_name, trigger.internal))
            self._regenerate_native_trigger(key)
        else:
            self.led.add_rule(
                trigger.rule_name,
                trigger.event_internal,
                action=self.action_handler.make_action(runtime),
                context=trigger.context,
                coupling=trigger.coupling,
                priority=trigger.priority,
            )
        if persist:
            pm.persist_trigger(trigger)
            self.events.emit(FIG3_PERSISTED, trigger.internal)

    def _constituent_primitives(self, event_internal: str) -> list[PrimitiveEventDef]:
        """Transitively collect the primitive events under an event."""
        out: list[PrimitiveEventDef] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            key = name.lower()
            if key in seen:
                return
            seen.add(key)
            primitive = self.primitive_events.get(key)
            if primitive is not None:
                out.append(primitive)
                return
            composite = self.composite_events.get(key)
            if composite is not None:
                expr = parse_event_expression(composite.event_describe)
                for child in referenced_events(expr):
                    visit(child)

        visit(event_internal)
        return out

    @staticmethod
    def _snapshot_tables_for(events: list[PrimitiveEventDef]) -> list[str]:
        tables: list[str] = []
        for event in events:
            for direction in event.snapshot_directions:
                snapshot = event.snapshot_table(direction)
                if snapshot not in tables:
                    tables.append(snapshot)
        return tables

    # ------------------------------------------------------------------
    # native trigger regeneration

    def _regenerate_native_trigger(self, key: tuple[str, str, str, str]) -> None:
        if self._regen_suspended is not None:
            self._regen_suspended.add(key)
            return
        registration = self.table_ops.get(key)
        if registration is None:
            return
        pm = self.persistent_manager
        if not registration.event_internals:
            pm.execute(registration.db_name,
                       codegen.drop_native_trigger_sql(registration))
            del self.table_ops[key]
            self._inline.pop(key, None)
            return
        events = [
            self.primitive_events[name.lower()]
            for name in registration.event_internals
        ]
        inline = sorted(
            self._inline.get(key, []),
            key=lambda item: (-item[0], item[1]),
        )
        registration.inline_proc_names = [
            proc for _priority, _seq, proc, trigger_internal in inline
            if self.trigger_runtime.get(
                trigger_internal.lower(),
            ) is None or self.trigger_runtime[trigger_internal.lower()].enabled
        ]
        sql = codegen.native_trigger_sql(
            registration, events, registration.inline_proc_names,
            self.notify_host, self.notify_port,
        )
        pm.execute(registration.db_name, sql)

    def _alter_trigger(self, command: EcaCommand, session: Session,
                       result: BatchResult) -> None:
        """``ALTER TRIGGER <name> ENABLE|DISABLE`` (agent extension)."""
        internal = expand_name(
            str(command.trigger_name), session.database, session.user)
        trigger = self.eca_triggers.get(internal.lower())
        if trigger is None:
            raise NameError_(
                f"ECA trigger '{command.trigger_name}' does not exist")
        runtime = self.trigger_runtime[trigger.rule_name.lower()]
        runtime.enabled = bool(command.enabled)
        if runtime.inline:
            primitive = self.primitive_events[trigger.event_internal.lower()]
            self._regenerate_native_trigger(self._table_op_key(primitive))
        else:
            self.led.rules[trigger.rule_name].enabled = runtime.enabled
        state = "enabled" if runtime.enabled else "disabled"
        result.messages.append(f"ECA trigger {internal} {state}.")

    # ------------------------------------------------------------------
    # dropping

    def _drop_trigger(self, command: EcaCommand, session: Session,
                      result: BatchResult) -> None:
        internal = expand_name(
            str(command.trigger_name), session.database, session.user)
        trigger = self.eca_triggers.get(internal.lower())
        if trigger is None:
            raise NameError_(
                f"ECA trigger '{command.trigger_name}' does not exist")
        runtime = self.trigger_runtime.pop(trigger.rule_name.lower())
        del self.eca_triggers[internal.lower()]
        if runtime.inline:
            primitive = self.primitive_events[trigger.event_internal.lower()]
            key = self._table_op_key(primitive)
            self._inline[key] = [
                item for item in self._inline.get(key, [])
                if item[3].lower() != internal.lower()
            ]
            self._regenerate_native_trigger(key)
        else:
            self.led.drop_rule(trigger.rule_name)
        pm = self.persistent_manager
        pm.execute(trigger.db_name, f"drop procedure {trigger.proc_name}")
        pm.delete_trigger(trigger)
        result.messages.append(f"ECA trigger {internal} dropped.")

    def _drop_event(self, command: EcaCommand, session: Session,
                    result: BatchResult) -> None:
        internal = expand_name(
            str(command.event_name), session.database, session.user)
        key = internal.lower()
        dependents = [
            trigger.internal for trigger in self.eca_triggers.values()
            if trigger.event_internal.lower() == key
        ]
        if dependents:
            raise NameError_(
                f"event '{command.event_name}' still has triggers: "
                f"{', '.join(sorted(dependents))}"
            )
        node = self.led.events.get(internal)
        if node is not None and node.parents:
            raise NameError_(
                f"event '{command.event_name}' is used by other composite "
                "events")

        primitive = self.primitive_events.get(key)
        composite = self.composite_events.get(key)
        pm = self.persistent_manager
        if primitive is not None:
            table_key = self._table_op_key(primitive)
            registration = self.table_ops.get(table_key)
            if registration is not None:
                registration.event_internals = [
                    name for name in registration.event_internals
                    if name.lower() != key
                ]
                self._regenerate_native_trigger(table_key)
            self._drop_unused_family_tables(primitive)
            del self.primitive_events[key]
            self.led.drop_event(internal)
            pm.delete_primitive(primitive)
        elif composite is not None:
            del self.composite_events[key]
            self.led.drop_event(internal)
            pm.delete_composite(composite)
        else:
            raise NameError_(f"event '{command.event_name}' does not exist")
        result.messages.append(f"Event {internal} dropped.")

    def _drop_unused_family_tables(self, event: PrimitiveEventDef) -> None:
        """Drop the counter, snapshot and _tmp tables no other event on
        the event's snapshot family still needs."""
        others = [other for other in self.primitive_events.values()
                  if other.internal != event.internal]
        unused: list[str] = []
        if all(other.version_table != event.version_table
               for other in others):
            unused.append(event.version_table)
        for direction in event.snapshot_directions:
            snapshot = event.snapshot_table(direction)
            if not any(direction in other.snapshot_directions
                       and other.snapshot_table(direction) == snapshot
                       for other in others):
                unused += [snapshot, snapshot + codegen.TMP_SUFFIX]
        database = self.server.catalog.get_database(event.db_name)
        for table in unused:
            _db, owner, name = split_internal(table)
            if database.get_table(owner, name) is not None:
                self.persistent_manager.execute(
                    event.db_name, f"drop table {table}")

    # ------------------------------------------------------------------
    # recovery (Figure 8)

    def recover(self) -> dict[str, int]:
        """Restore events and rules from the system tables of every
        database that has them; returns counts per category.

        Hardened against torn writes: before loading, each database's
        trigger tables are swept by
        :meth:`~repro.agent.persistence.PersistentManager.repair_orphans`,
        which removes rows left by a crash between the two inserts of
        ``persist_trigger`` (or the two deletes of ``delete_trigger``).
        After recovery every rule therefore either fully exists — it is
        in the registries, the LED, and both system tables — or fully
        does not.  Idempotent: calling it again on a live agent recovers
        nothing and repairs nothing (the ``repaired`` count reports the
        sweep's work).
        """
        counts = {"primitive": 0, "composite": 0, "trigger": 0,
                  "repaired": 0}
        pm = self.persistent_manager
        # Batch native-trigger regeneration: the generated triggers
        # persisted in the server, so one refresh per (table, op) at the
        # end suffices (instead of one per recovered rule).
        self._regen_suspended = set()
        try:
            for database in list(self.server.catalog.databases.values()):
                if not pm.has_system_tables(database.name):
                    continue
                counts["repaired"] += pm.repair_orphans(database.name)
                for event in pm.load_primitives(database.name):
                    if event.internal.lower() in self.primitive_events:
                        continue
                    self._recover_primitive(event)
                    counts["primitive"] += 1
                pending = [
                    event for event in pm.load_composites(database.name)
                    if event.internal.lower() not in self.composite_events
                ]
                counts["composite"] += self._recover_composites(pending)
                for trigger in pm.load_triggers(database.name):
                    if trigger.internal.lower() in self.eca_triggers:
                        continue
                    self._install_trigger(trigger, persist=False)
                    counts["trigger"] += 1
        finally:
            dirty = self._regen_suspended
            self._regen_suspended = None
            for key in dirty:
                self._regenerate_native_trigger(key)
        return counts

    def _recover_primitive(self, event: PrimitiveEventDef) -> None:
        """Re-register a primitive event without re-creating server
        objects (they persisted in the server's catalog)."""
        self.primitive_events[event.internal.lower()] = event
        self.led.define_primitive(event.internal)
        key = self._table_op_key(event)
        registration = self.table_ops.get(key)
        if registration is None:
            registration = TableOpRegistration(
                db_name=event.db_name,
                table_owner=event.table_owner,
                table_name=event.table_name,
                operation=event.operation,
            )
            self.table_ops[key] = registration
        registration.event_internals.append(event.internal)

    def _recover_composites(self, pending: list[CompositeEventDef]) -> int:
        """Define composites in dependency order (a composite may
        reference another composite)."""
        recovered = 0
        remaining = list(pending)
        while remaining:
            progress = False
            still: list[CompositeEventDef] = []
            for event in remaining:
                expr = parse_event_expression(event.event_describe)
                if all(self.event_exists(name)
                       for name in referenced_events(expr)):
                    self._install_composite(event, persist=False)
                    recovered += 1
                    progress = True
                else:
                    still.append(event)
            if not progress:
                names = ", ".join(event.internal for event in still)
                raise RecoveryError(
                    f"cannot recover composite events (missing "
                    f"constituents): {names}")
            remaining = still
        return recovered
