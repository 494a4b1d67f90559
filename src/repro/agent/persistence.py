"""The Persistent Manager (paper Section 4, Figures 5-8, 17).

Persists every event and ECA trigger in system tables *inside the SQL
server itself*, using nothing but ordinary SQL — that is the paper's
point: the native DBMS provides the persistence.  On agent startup the
manager reads the tables back and the agent re-creates its runtime state
(Figure 8's recovery path).

Table layouts follow the paper's figures exactly; ``SysEcaTrigger`` gains
three trailing columns (``coupling``, ``context``, ``priority``) that the
paper's Figure 7 omits but recovery requires — a documented extension
(DESIGN.md §2).
"""

from __future__ import annotations


from repro.faults import (
    Directive,
    FaultError,
    FaultInjector,
    POINT_PERSISTENCE_EXECUTE,
    RetryExhaustedError,
    RetryPolicy,
    TransientFaultError,
)
from repro.led.rules import Context, Coupling
from repro.sqlengine import SqlServer
from repro.sqlengine.types import sql_repr

from .errors import PersistenceError
from .model import CompositeEventDef, EcaTriggerDef, PrimitiveEventDef

#: (column name, type, length, nullable) — Figure 5.
SYS_PRIMITIVE_EVENT_LAYOUT = [
    ("dbName", "varchar", 30, True),
    ("userName", "varchar", 30, True),
    ("eventName", "varchar", 30, True),
    ("tableName", "varchar", 30, True),
    ("operation", "varchar", 20, True),
    ("timeStamp", "datetime", None, True),
    ("vNo", "int", None, True),
]

#: Figure 6.
SYS_COMPOSITE_EVENT_LAYOUT = [
    ("dbName", "varchar", 30, True),
    ("userName", "varchar", 30, True),
    ("eventName", "varchar", 30, True),
    ("eventDescribe", "text", None, True),
    ("timeStamp", "datetime", None, True),
    ("coupling", "char", 10, True),
    ("context", "char", 10, True),
    ("priority", "char", 10, True),
]

#: Figure 7 plus the three recovery columns (documented extension).
SYS_ECA_TRIGGER_LAYOUT = [
    ("dbName", "varchar", 30, True),
    ("userName", "varchar", 30, True),
    ("triggerName", "varchar", 30, True),
    ("triggerProc", "text", None, True),
    ("timeStamp", "datetime", None, True),
    ("eventName", "varchar", 60, True),
    ("coupling", "char", 10, True),
    ("context", "char", 12, True),
    ("priority", "int", None, True),
]

#: Figure 17.
SYS_CONTEXT_LAYOUT = [
    ("tableName", "varchar", 50, False),
    ("context", "varchar", 12, False),
    ("vNo", "int", None, False),
]

#: Which ECA trigger additionally stores the user's action text; needed to
#: regenerate procedures if a DBA drops one (extension table).
SYS_ACTION_LAYOUT = [
    ("triggerName", "varchar", 90, False),
    ("actionSql", "text", None, True),
    ("conditionSql", "text", None, True),
]

_SYSTEM_TABLES = {
    "SysPrimitiveEvent": SYS_PRIMITIVE_EVENT_LAYOUT,
    "SysCompositeEvent": SYS_COMPOSITE_EVENT_LAYOUT,
    "SysEcaTrigger": SYS_ECA_TRIGGER_LAYOUT,
    "sysContext": SYS_CONTEXT_LAYOUT,
    "SysEcaAction": SYS_ACTION_LAYOUT,
}

#: Hot lookup column per system table; the generated native triggers and
#: the context-processing joins filter on these, so each gets an index.
_SYSTEM_INDEXES = {
    "SysPrimitiveEvent": "eventName",
    "SysCompositeEvent": "eventName",
    "SysEcaTrigger": "triggerName",
    "sysContext": "tableName",
    "SysEcaAction": "triggerName",
}


class PersistentManager:
    """Owns the agent's DBA connection and the ECA system tables.

    The paper runs this as a dedicated Open Server thread holding a
    high-privilege Client-Library connection; here it holds a dedicated
    DBA session on the engine.
    """

    #: owner of the system tables inside each database
    OWNER = "dbo"

    def __init__(self, server: SqlServer, dba_user: str = "sa",
                 faults: FaultInjector | None = None,
                 retry: RetryPolicy | None = None,
                 metrics=None):
        self.server = server
        self.dba_user = dba_user
        #: fault-injection harness consulted before every statement
        #: (``persistence.execute`` point); None = no injection.
        self.faults = faults
        #: retry policy applied to every statement; None = fail fast.
        self.retry = retry
        #: metrics registry the retry policy reports into (may be None).
        self.metrics = metrics
        self._sessions: dict[str, object] = {}

    # ------------------------------------------------------------------
    # plumbing

    def _session(self, database: str):
        session = self._sessions.get(database.lower())
        if session is None:
            session = self.server.create_session(self.OWNER, database)
            self._sessions[database.lower()] = session
        return session

    def execute(self, database: str, sql: str):
        """Run SQL on the manager's privileged connection.

        Failure/retry semantics: transient faults (injected at the
        ``persistence.execute`` point) are retried under :attr:`retry`;
        once retries are exhausted a :class:`RetryExhaustedError`
        surfaces.  Any real engine failure is wrapped in
        :class:`~repro.agent.errors.PersistenceError` naming the exact
        statement that failed.  A DROP-kind fault silently loses the
        write and returns ``None``.
        """
        session = self._session(database)

        def attempt():
            faults = self.faults
            if faults is not None and faults.enabled:
                if faults.fire(POINT_PERSISTENCE_EXECUTE,
                               sql) is Directive.DROP:
                    return None
            return self.server.execute(sql, session)

        try:
            if self.retry is None:
                return attempt()
            return self.retry.call(
                attempt, operation="persistence", metrics=self.metrics,
                retry_if=_is_transient_persistence_fault)
        except (FaultError, RetryExhaustedError) as exc:
            exc.statement = sql
            raise
        except Exception as exc:
            raise PersistenceError(sql, exc) from exc

    def system_prefix(self, database: str) -> str:
        """Qualified prefix for system tables, e.g. ``sentineldb.dbo``."""
        return f"{database}.{self.OWNER}"

    # ------------------------------------------------------------------
    # table lifecycle

    def ensure_system_tables(self, database: str) -> None:
        """Create any missing ECA system tables (and their hot-path
        indexes) in a database.  Idempotent: re-running after recovery
        only fills in whatever is absent."""
        db = self.server.catalog.get_database(database)
        for table_name, layout in _SYSTEM_TABLES.items():
            if db.get_table(self.OWNER, table_name) is None:
                columns = ", ".join(
                    _column_ddl(name, type_name, length, nullable)
                    for name, type_name, length, nullable in layout
                )
                self.execute(database, f"create table {table_name} ({columns})")
            table = db.get_table(self.OWNER, table_name)
            column = _SYSTEM_INDEXES[table_name]
            if (table is not None and table.index_on(column) is None
                    and table.schema.index_of(column, required=False)
                    is not None):
                self.execute(database, (
                    f"create index ECA_{table_name}_{column} "
                    f"on {table_name} ({column})"
                ))

    def has_system_tables(self, database: str) -> bool:
        """Whether every ECA system table already exists in a database."""
        db = self.server.catalog.get_database(database)
        return all(
            db.get_table(self.OWNER, table_name) is not None
            for table_name in _SYSTEM_TABLES
        )

    # ------------------------------------------------------------------
    # persisting definitions

    def persist_primitive(self, event: PrimitiveEventDef) -> None:
        """Insert one ``SysPrimitiveEvent`` row (atomic: single insert)."""
        self.execute(event.db_name, (
            "insert SysPrimitiveEvent values ("
            f"{sql_repr(event.db_name)}, {sql_repr(event.user_name)}, "
            f"{sql_repr(event.event_name)}, {sql_repr(event.table_name)}, "
            f"{sql_repr(event.operation)}, getdate(), 0)"
        ))

    def persist_composite(self, event: CompositeEventDef) -> None:
        """Insert one ``SysCompositeEvent`` row (atomic: single insert)."""
        self.execute(event.db_name, (
            "insert SysCompositeEvent values ("
            f"{sql_repr(event.db_name)}, {sql_repr(event.user_name)}, "
            f"{sql_repr(event.event_name)}, {sql_repr(event.event_describe)}, "
            f"getdate(), {sql_repr(event.coupling.value)}, "
            f"{sql_repr(event.context.value)}, "
            f"{sql_repr(str(event.priority))})"
        ))

    def persist_trigger(self, trigger: EcaTriggerDef) -> None:
        """Insert the ``SysEcaTrigger`` and ``SysEcaAction`` rows.

        NOT atomic: a crash between the two inserts leaves an orphan
        ``SysEcaTrigger`` row, which :meth:`repair_orphans` deletes on
        the next recovery (the rule then "fully does not exist").
        """
        self.execute(trigger.db_name, (
            "insert SysEcaTrigger values ("
            f"{sql_repr(trigger.db_name)}, {sql_repr(trigger.user_name)}, "
            f"{sql_repr(trigger.trigger_name)}, {sql_repr(trigger.proc_name)}, "
            f"getdate(), {sql_repr(trigger.event_internal)}, "
            f"{sql_repr(trigger.coupling.value)}, "
            f"{sql_repr(trigger.context.value)}, {trigger.priority})"
        ))
        self.execute(trigger.db_name, (
            "insert SysEcaAction values ("
            f"{sql_repr(trigger.internal)}, {sql_repr(trigger.action_sql)}, "
            f"{sql_repr(trigger.condition_sql)})"
        ))

    # ------------------------------------------------------------------
    # removing definitions

    def delete_primitive(self, event: PrimitiveEventDef) -> None:
        """Delete an event's ``SysPrimitiveEvent`` row (idempotent)."""
        self.execute(event.db_name, (
            "delete SysPrimitiveEvent "
            f"where dbName = {sql_repr(event.db_name)} "
            f"and userName = {sql_repr(event.user_name)} "
            f"and eventName = {sql_repr(event.event_name)}"
        ))

    def delete_composite(self, event: CompositeEventDef) -> None:
        """Delete an event's ``SysCompositeEvent`` row (idempotent)."""
        self.execute(event.db_name, (
            "delete SysCompositeEvent "
            f"where dbName = {sql_repr(event.db_name)} "
            f"and userName = {sql_repr(event.user_name)} "
            f"and eventName = {sql_repr(event.event_name)}"
        ))

    def delete_trigger(self, trigger: EcaTriggerDef) -> None:
        """Delete a trigger's rows from both trigger tables.

        NOT atomic: a crash between the two deletes leaves an orphan
        ``SysEcaAction`` row, cleaned up by :meth:`repair_orphans`.
        """
        self.execute(trigger.db_name, (
            "delete SysEcaTrigger "
            f"where dbName = {sql_repr(trigger.db_name)} "
            f"and userName = {sql_repr(trigger.user_name)} "
            f"and triggerName = {sql_repr(trigger.trigger_name)}"
        ))
        self.execute(trigger.db_name, (
            "delete SysEcaAction "
            f"where triggerName = {sql_repr(trigger.internal)}"
        ))

    # ------------------------------------------------------------------
    # queries

    def current_v_no(self, event: PrimitiveEventDef) -> int:
        """The latest occurrence number of a primitive event: its snapshot
        family's counter (``SysPrimitiveEvent.vNo`` stays 0)."""
        result = self.execute(
            event.db_name, f"select vNo from {event.version_table}")
        last = result.last
        if last is None or not last.rows:
            return 0
        return int(last.rows[0][0] or 0)

    def load_primitives(self, database: str) -> list[PrimitiveEventDef]:
        """Rebuild primitive event definitions from ``SysPrimitiveEvent``.

        The monitored table's owner is re-resolved with the same
        preference order used at definition time (owner = defining user,
        falling back to ``dbo``).
        """
        result = self.execute(database, "select * from SysPrimitiveEvent")
        definitions: list[PrimitiveEventDef] = []
        db_obj = self.server.catalog.get_database(database)
        for row in (result.last.as_dicts() if result.last else []):
            user = str(row["userName"])
            table_name = str(row["tableName"])
            table = db_obj.find_table(table_name, user)
            table_owner = table.owner if table is not None else user
            definitions.append(PrimitiveEventDef(
                db_name=str(row["dbName"]),
                user_name=user,
                event_name=str(row["eventName"]),
                table_owner=table_owner,
                table_name=table_name,
                operation=str(row["operation"]),
            ))
        return definitions

    def repair_orphans(self, database: str) -> int:
        """Delete half-persisted trigger rows left by a mid-write crash.

        Two inconsistencies can exist (see :meth:`persist_trigger` /
        :meth:`delete_trigger`):

        - a ``SysEcaTrigger`` row with no matching ``SysEcaAction`` row —
          a create that crashed between its two inserts; the row *and*
          the already-created action procedure are removed, so the rule
          fully does not exist after recovery;
        - a ``SysEcaAction`` row with no matching ``SysEcaTrigger`` row —
          a drop that crashed between its two deletes; the row is
          removed, completing the drop.

        Returns the number of repairs performed.  Called by
        :meth:`EcaAgent.recover` before loading, so a recovered agent
        never sees a torn rule.
        """
        from .naming import internal_name

        triggers = self.execute(database, "select * from SysEcaTrigger")
        actions = self.execute(database, "select * from SysEcaAction")
        trigger_rows = triggers.last.as_dicts() if triggers.last else []
        action_rows = actions.last.as_dicts() if actions.last else []
        trigger_keys = {
            internal_name(str(row["dbName"]), str(row["userName"]),
                          str(row["triggerName"])).lower()
            for row in trigger_rows
        }
        action_keys = {
            str(row["triggerName"]).lower() for row in action_rows
        }
        repaired = 0
        db_obj = self.server.catalog.get_database(database)
        for row in trigger_rows:
            db, user, name = (str(row["dbName"]), str(row["userName"]),
                              str(row["triggerName"]))
            if internal_name(db, user, name).lower() in action_keys:
                continue
            self.execute(database, (
                "delete SysEcaTrigger "
                f"where dbName = {sql_repr(db)} "
                f"and userName = {sql_repr(user)} "
                f"and triggerName = {sql_repr(name)}"
            ))
            # The action procedure is created before the trigger rows are
            # persisted, so an orphan row implies the proc may exist.
            proc = internal_name(db, user, f"{name}__Proc")
            if db_obj.get_procedure(user, f"{name}__Proc") is not None:
                self.execute(database, f"drop procedure {proc}")
            repaired += 1
        for row in action_rows:
            key = str(row["triggerName"])
            if key.lower() in trigger_keys:
                continue
            self.execute(database, (
                "delete SysEcaAction "
                f"where triggerName = {sql_repr(key)}"
            ))
            repaired += 1
        # Finally, sweep action procedures with no trigger rows at all —
        # the proc is created before either insert, so a crash before the
        # ``SysEcaTrigger`` insert leaves only the proc behind.
        paired = trigger_keys & action_keys
        suffix = "__proc"
        for (owner, pname) in list(db_obj.procedures):
            if not pname.endswith(suffix):
                continue
            trig_key = internal_name(
                database, owner, pname[: -len(suffix)]).lower()
            if trig_key in paired:
                continue
            proc = db_obj.procedures[(owner, pname)]
            self.execute(
                database,
                f"drop procedure {internal_name(database, proc.owner, proc.name)}")
            repaired += 1
        return repaired

    def load_composites(self, database: str) -> list[CompositeEventDef]:
        """Rebuild composite event definitions from ``SysCompositeEvent``."""
        result = self.execute(database, "select * from SysCompositeEvent")
        definitions: list[CompositeEventDef] = []
        for row in (result.last.as_dicts() if result.last else []):
            definitions.append(CompositeEventDef(
                db_name=str(row["dbName"]),
                user_name=str(row["userName"]),
                event_name=str(row["eventName"]),
                event_describe=str(row["eventDescribe"]),
                coupling=Coupling.parse(str(row["coupling"]).strip()),
                context=Context.parse(str(row["context"]).strip()),
                priority=int(str(row["priority"]).strip() or "1"),
            ))
        return definitions

    def load_triggers(self, database: str) -> list[EcaTriggerDef]:
        """Rebuild trigger definitions by joining ``SysEcaTrigger`` with
        ``SysEcaAction`` (run :meth:`repair_orphans` first so every row
        pairs up)."""
        result = self.execute(database, "select * from SysEcaTrigger")
        actions = self.execute(database, "select * from SysEcaAction")
        action_by_trigger = {
            str(row["triggerName"]): (
                str(row["actionSql"] or ""),
                row["conditionSql"],
            )
            for row in (actions.last.as_dicts() if actions.last else [])
        }
        definitions: list[EcaTriggerDef] = []
        for row in (result.last.as_dicts() if result.last else []):
            trigger = EcaTriggerDef(
                db_name=str(row["dbName"]),
                user_name=str(row["userName"]),
                trigger_name=str(row["triggerName"]),
                event_internal=str(row["eventName"]),
                action_sql="",
                coupling=Coupling.parse(str(row["coupling"]).strip()),
                context=Context.parse(str(row["context"]).strip()),
                priority=int(row["priority"] or 1),
            )
            action_sql, condition_sql = action_by_trigger.get(
                trigger.internal, ("", None))
            trigger.action_sql = action_sql
            trigger.condition_sql = (
                str(condition_sql) if condition_sql is not None else None)
            definitions.append(trigger)
        return definitions


def _is_transient_persistence_fault(exc: BaseException) -> bool:
    """Retry only faults injected at the persistence point itself, never
    a transient error that escaped a nested component (re-running that
    work could duplicate side effects)."""
    return (isinstance(exc, TransientFaultError)
            and exc.point == POINT_PERSISTENCE_EXECUTE)


def _column_ddl(name: str, type_name: str, length: int | None,
                nullable: bool) -> str:
    rendered = type_name if length is None else f"{type_name}({length})"
    null_clause = "null" if nullable else "not null"
    return f"{name} {rendered} {null_clause}"
