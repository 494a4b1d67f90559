"""The SQL server: sessions, batch execution, and integration hooks.

This is the stand-in for the Sybase SQL Server of the paper.  It is a
passive engine: it knows nothing about ECA rules, Snoop, or composite
events.  The only outward-facing hooks are:

- ``datagram_sink`` — where the ``syb_sendmsg`` builtin delivers its
  messages (the ECA Agent plugs its notification channel in here, playing
  the role of the UDP network between the server and the agent);
- ``clock`` — the source for ``getdate()``, overridable for deterministic
  tests;
- an :class:`~repro.sqlengine.locks.EngineLockManager` deciding, per
  batch, between fine-grained per-table reader/writer locks and an
  engine-wide exclusive gate (the old single-scheduler behaviour, kept
  for everything the static analyzer cannot bound: DDL, procedures,
  triggers, transactions, notifications).  Nested execution — a
  notification handler immediately issuing SQL from within a batch —
  always runs under the exclusive gate, which is reentrant.
"""

from __future__ import annotations

import datetime as _dt
import threading
from typing import Callable

from .builtins import standard_functions
from .catalog import Catalog
from .errors import SqlError
from .executor import ExecutionState, Executor
from .locks import EngineLockManager
from .parser import parse_batch, split_batches
from .plancache import PlanCache
from .results import BatchResult
from .transactions import TransactionLog

#: Signature of a datagram sink: (host, port, message) -> None
DatagramSink = Callable[[str, int, str], None]


class Session:
    """One client session: identity, current database, transaction state."""

    _next_id = 1
    _id_lock = threading.Lock()

    def __init__(self, server: "SqlServer", user: str, database: str):
        with Session._id_lock:
            self.session_id = Session._next_id
            Session._next_id += 1
        self.server = server
        self.user = user
        self.database = database
        self.tx_log = TransactionLog()
        self.global_vars: dict[str, object] = {"@@rowcount": 0, "@@trancount": 0}
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether this session was closed (execute() refuses it)."""
        return self._closed

    @closed.setter
    def closed(self, value: bool) -> None:
        """Close (or reopen) the session.

        A client that disconnects mid-transaction never sends ROLLBACK,
        so closing a session with an open transaction rolls it back here
        — under the exclusive gate, since the rollback restores table
        snapshots — and releases the lock manager's transaction pin.
        Without this, an abandoned BEGIN TRAN would force every later
        batch engine-wide onto the exclusive gate forever.
        """
        value = bool(value)
        if value and not self._closed and self.tx_log.active:
            lock_manager = self.server.lock_manager
            with lock_manager.exclusive_scope():
                self.tx_log.rollback()
                self.global_vars["@@trancount"] = 0
                lock_manager.note_transaction_end(self.session_id)
                self.server.on_transaction_end(self, committed=False)
        self._closed = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Session({self.session_id}, user={self.user!r}, db={self.database!r})"


class SqlServer:
    """An in-memory multi-database SQL server.

    Args:
        default_database: created at startup (plus ``master``).
        clock: zero-argument callable returning the current datetime;
            ``getdate()`` and default timestamps use it.
    """

    def __init__(self, default_database: str = "master",
                 clock: Callable[[], _dt.datetime] | None = None):
        self.catalog = Catalog()
        self.catalog.create_database("master")
        if default_database.lower() != "master":
            self.catalog.create_database(default_database)
        self.default_database = default_database
        self.functions = standard_functions()
        #: the one statement execution path (parser -> planner -> dagexec);
        #: repro.difftest.sqlref installs its nested-loop oracle by
        #: assigning this attribute
        self.executor = Executor(self)
        self.clock = clock or _dt.datetime.now
        self.triggers_enabled = True
        self.last_displaced_triggers: list[str] = []
        self._datagram_sink: DatagramSink | None = None
        #: datagrams sent while no sink is attached (inspectable by tests)
        self.unsunk_datagrams: list[tuple[str, int, str]] = []
        #: per-batch lock decisions: fine-grained table locks vs the
        #: engine-wide exclusive gate (see repro.sqlengine.locks)
        self.lock_manager = EngineLockManager(self)
        self._tx_end_listeners: list[Callable[[Session, bool], None]] = []
        #: parsed-batch cache; epoch-checked against catalog.schema_epoch
        self.plan_cache = PlanCache()
        #: count of index-backed scan narrowings (eq/IN/join probes)
        self.index_scans = 0
        #: optional resource-accounting sink (attach_accounting) — the
        #: engine's one observability seam; like the datagram sink, an
        #: outward-facing hook that leaves the engine itself passive.
        #: The executor charges statements, row scans and cache lookups
        #: to whatever per-session/per-rule frames the agent has open.
        self.accounting = None

    # ------------------------------------------------------------------
    # hooks

    def now(self) -> _dt.datetime:
        """Current time per the configured clock."""
        return self.clock()

    def attach_accounting(self, accounting) -> None:
        """Attach (or detach, with ``None``) a resource-accounting plane.

        While attached, the executor and plan cache charge statements,
        rows scanned, scan kinds, and cache outcomes to the ambient
        :class:`~repro.obs.opcontext.OpContext` frames the agent opened;
        detached, every hook is one ``None`` check.  Whatever the agent
        reports about the engine — ``show agent top``, its metric
        registry — it derives from those frames.
        """
        self.accounting = accounting

    def note_scan(self, rows: int, indexed: bool) -> None:
        """Count one scan of ``rows`` candidate rows: an index-backed
        narrowing (eq/IN hint or join probe) bumps ``index_scans``, and
        either kind is charged to the open accounting frames."""
        if indexed:
            self.index_scans += 1
        accounting = self.accounting
        if accounting is not None:
            accounting.note_scan(rows, int(indexed), int(not indexed))

    def explain_text(self, sql: str, session) -> str | None:
        """Best-effort EXPLAIN of the first explainable statement in
        ``sql``, for the flight recorder's slow-op entries.  Returns the
        joined plan lines (truncated), or None when the text does not
        parse, touches unknown tables, or contains nothing plannable —
        diagnostics must never fail the capture path."""
        try:
            batches = split_batches(sql)
            if not batches:
                return None
            statements = parse_batch(batches[0])
            result = BatchResult()
            state = ExecutionState(session, result)
            for statement in statements:
                lines = self.executor._explain_lines(statement, state,
                                                     required=False)
                if lines:
                    return "\n".join(lines)[:2000]
        except Exception:
            return None
        return None

    def set_datagram_sink(self, sink: DatagramSink | None) -> None:
        """Attach (or detach) the destination for ``syb_sendmsg`` output."""
        self._datagram_sink = sink

    def send_datagram(self, host: str, port: int, message: str) -> None:
        """Deliver one ``syb_sendmsg`` datagram to the sink (or stash it)."""
        if self._datagram_sink is not None:
            self._datagram_sink(host, port, message)
        else:
            self.unsunk_datagrams.append((host, port, message))

    def add_transaction_end_listener(
            self, listener: Callable[[Session, bool], None]) -> None:
        """Register a callback fired at top-level COMMIT/ROLLBACK.

        The ECA Agent uses this to release DEFERRED-coupled rule actions at
        transaction end.
        """
        self._tx_end_listeners.append(listener)

    def on_transaction_end(self, session: Session, committed: bool) -> None:
        for listener in self._tx_end_listeners:
            listener(session, committed)

    # ------------------------------------------------------------------
    # sessions and execution

    def create_session(self, user: str = "dbo",
                       database: str | None = None) -> Session:
        """Open a session for ``user`` in ``database`` (default database)."""
        name = database or self.default_database
        self.catalog.get_database(name)  # existence check
        return Session(self, user, name)

    def execute(self, sql: str, session: Session,
                params: dict[str, object] | None = None) -> BatchResult:
        """Execute a script (possibly several ``go``-separated batches).

        All results and messages are merged into one :class:`BatchResult`,
        which is what a TDS client would accumulate.  Engine errors raise
        :class:`~repro.sqlengine.errors.SqlError` subclasses.

        ``params`` pre-seeds each batch's local variables (``@name`` ->
        value).  The agent's generated per-occurrence SQL uses this to
        keep its batch text constant — parameter slots instead of inlined
        literals — so the plan cache can serve rule-origin statements.

        Locking is per batch, not per script: the lock manager analyzes
        each parsed batch and takes either its table locks (shared gate)
        or the exclusive gate.  A multi-batch script is therefore no
        longer atomic against concurrent sessions between its batches —
        the same contract a real TDS client gets from a server that
        schedules batches independently.
        """
        if session.closed:
            raise SqlError("session is closed")
        result = BatchResult()
        for batch_text in split_batches(sql):
            statements = self._parse_cached(batch_text)
            with self.lock_manager.batch_scope(statements, session):
                self.executor.execute_batch(
                    statements, session, result,
                    variables=dict(params) if params else None)
        return result

    def _parse_cached(self, batch_text: str):
        """Parse one batch, consulting the plan cache when enabled.

        Parsing stays interleaved with execution — a later batch's syntax
        error must still surface only after the earlier batches ran — so
        caching happens per batch inside the script loop, not per script.
        Statements are late-bound (names resolve at execution), so a hit
        is semantically identical to a fresh parse at the same epoch.
        """
        cache = self.plan_cache
        if not cache.enabled:
            return parse_batch(batch_text)
        epoch = self.catalog.schema_epoch
        accounting = self.accounting
        origin = "system" if accounting is None else accounting.origin()
        statements = cache.get(batch_text, epoch, origin=origin)
        if origin != "system":
            accounting.note_plan_cache(statements is not None)
        if statements is not None:
            return statements
        statements = tuple(parse_batch(batch_text))
        # Only cache under an unchanged epoch: if parsing itself executed
        # nothing, the epoch cannot move, but guard anyway for safety.
        if self.catalog.schema_epoch == epoch:
            cache.put(batch_text, epoch, statements)
        return statements

    # ------------------------------------------------------------------
    # convenience introspection (used by tests, benches, and the agent)

    def table_names(self, database: str) -> list[str]:
        """All ``owner.name`` tables in a database, sorted."""
        db = self.catalog.get_database(database)
        return sorted(table.qualified_name for table in db.tables.values())

    def view_names(self, database: str) -> list[str]:
        db = self.catalog.get_database(database)
        return sorted(view.qualified_name for view in db.views.values())

    def procedure_names(self, database: str) -> list[str]:
        db = self.catalog.get_database(database)
        return sorted(proc.qualified_name for proc in db.procedures.values())

    def trigger_names(self, database: str) -> list[str]:
        db = self.catalog.get_database(database)
        return sorted(trigger.qualified_name for trigger in db.triggers.values())
