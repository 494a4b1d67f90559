"""Fine-grained engine locking: reader/writer locks and the lock manager.

Until this module existed the engine serialized every script under one
reentrant lock — a faithful model of a single scheduler, but a hard cap on
multi-session throughput.  The lock manager replaces that with a two-level
scheme decided per batch, *before* execution, from the parsed statements:

1. An engine-wide **gate** reader/writer lock.  Batches whose footprint
   can be analyzed statically (plain SELECT/INSERT/UPDATE/DELETE over
   resolvable base tables, no triggers, no transactions) take the gate
   *shared* and then lock just the tables they touch.  Everything the
   analyzer cannot bound — DDL, stored procedures, native triggers,
   ``syb_sendmsg`` notifications, views, transactions — escalates to the
   gate *exclusive*, which is exactly the old single-scheduler behaviour
   for that batch only.
2. Per-table **reader/writer locks** (a field on every
   :class:`~repro.sqlengine.table.Table`), acquired up front in one
   global order (object id) so two fine-grained batches can never
   deadlock, write beats read when a batch both scans and mutates a
   table.

The analysis is epoch-guarded: the catalog's ``schema_epoch`` is read
before analysis and re-checked after the gate is acquired; any DDL in the
window (DDL always holds the gate exclusively and always bumps the epoch)
forces a re-analysis.  Lock *ordering* across subsystems is documented in
docs/CONCURRENCY.md: table locks are taken before any engine work, the
LED's single dispatch lock is only ever taken afterwards (via
``syb_sendmsg`` under an exclusive gate), never the other way round.

Nested execution (a native trigger body, a stored procedure, rule-action
SQL issued from inside a client batch) re-enters the lock manager on the
same thread; inner scopes are no-ops because every path that can nest is
escalated to the exclusive gate by the analyzer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from .expressions import (
    Between,
    BinaryOp,
    CaseExpr,
    Exists,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    ScalarSubquery,
    UnaryOp,
)
from .statements import (
    AssignSelect,
    DeclareStatement,
    DeleteStatement,
    IfStatement,
    InsertSelect,
    InsertValues,
    PrintStatement,
    ReturnStatement,
    SelectStatement,
    SetStatement,
    Statement,
    TruncateStatement,
    UnionSelect,
    UpdateStatement,
    WaitforStatement,
    WhileStatement,
)


class RWLock:
    """A reentrant reader/writer lock with writer preference.

    A thread holding the write side may re-acquire either side freely
    (nested execution under an exclusive gate).  Read-to-write upgrades
    are refused with :class:`RuntimeError` instead of deadlocking — the
    lock manager decides each batch's strongest mode up front precisely
    so upgrades never happen.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_writer_depth",
                 "_write_waiters")

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        #: per-thread reentrant read depth
        self._readers: dict[int, int] = {}
        self._writer: int | None = None
        self._writer_depth = 0
        self._write_waiters = 0

    def acquire_read(self) -> None:
        """Take the shared side (blocks while a writer holds or waits)."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                self._readers[me] += 1
                return
            while self._writer is not None or self._write_waiters:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        """Release one shared hold by the current thread."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth -= 1
                return
            depth = self._readers.get(me, 0)
            if depth <= 0:
                raise RuntimeError("release_read without acquire_read")
            if depth == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    def acquire_write(self) -> None:
        """Take the exclusive side (blocks until sole holder)."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                raise RuntimeError(
                    "read-to-write lock upgrade would deadlock")
            self._write_waiters += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._write_waiters -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        """Release one exclusive hold by the current thread."""
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_write without acquire_write")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    def held_write_by_current(self) -> bool:
        """True when the calling thread holds the exclusive side."""
        return self._writer == threading.get_ident()

    @contextmanager
    def read_locked(self):
        """Context manager for one shared hold."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """Context manager for one exclusive hold."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


#: expression types that carry a nested SELECT to recurse into
_SUBQUERY_CARRIERS = (InSubquery, Exists, ScalarSubquery)


def _walk_expr(expr: Expression | None, session, server, acc) -> bool:
    """Fold one expression into the footprint; False = escalate."""
    if expr is None:
        return True
    if isinstance(expr, FunctionCall):
        # syb_sendmsg reaches the notification channel and, through it,
        # arbitrary rule actions — unanalyzable, escalate.
        if expr.name == "syb_sendmsg":
            return False
        return all(_walk_expr(a, session, server, acc) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return (_walk_expr(expr.left, session, server, acc)
                and _walk_expr(expr.right, session, server, acc))
    if isinstance(expr, UnaryOp):
        return _walk_expr(expr.operand, session, server, acc)
    if isinstance(expr, _SUBQUERY_CARRIERS):
        if isinstance(expr, InSubquery):
            if not _walk_expr(expr.operand, session, server, acc):
                return False
        return _collect_select(expr.subquery, session, server, acc)
    if isinstance(expr, InList):
        return (_walk_expr(expr.operand, session, server, acc)
                and all(_walk_expr(i, session, server, acc)
                        for i in expr.items))
    if isinstance(expr, Between):
        return (_walk_expr(expr.operand, session, server, acc)
                and _walk_expr(expr.low, session, server, acc)
                and _walk_expr(expr.high, session, server, acc))
    if isinstance(expr, IsNull):
        return _walk_expr(expr.operand, session, server, acc)
    if isinstance(expr, CaseExpr):
        for when, then in expr.whens:
            if not _walk_expr(when, session, server, acc):
                return False
            if not _walk_expr(then, session, server, acc):
                return False
        return (_walk_expr(expr.operand, session, server, acc)
                and _walk_expr(expr.default, session, server, acc))
    # Literal / ColumnRef / VariableRef / Star and friends touch nothing.
    return True


def _add_table(qname, write: bool, session, server, acc,
               operation: str = "") -> bool:
    """Resolve a table name into the footprint; False = escalate.

    ``operation`` is the DML kind (``insert``/``update``/``delete``) for
    write targets, used to escalate when a native trigger would fire —
    a trigger body is arbitrary SQL running nested inside the statement,
    and only the exclusive gate can cover it.  TRUNCATE passes ``""``
    because it skips triggers by definition.
    """
    catalog = server.catalog
    try:
        if catalog.resolve_view(qname, session) is not None:
            return False  # view expansion reads an unbounded table set
        table = catalog.resolve_table(qname, session, required=False)
    except Exception:
        return False  # unknown database etc. — let execution report it
    if table is None:
        return False  # missing table: escalate, execution raises the error
    if write and operation:
        try:
            db = catalog.get_database(qname.database or session.database)
        except Exception:
            return False
        if db.trigger_for(table, operation) is not None:
            return False
    entry = acc.get(id(table))
    if entry is None:
        acc[id(table)] = [table, write]
    elif write:
        entry[1] = True
    return True


def _collect_select(select, session, server, acc) -> bool:
    """Fold a SELECT/UNION into the footprint; False = escalate."""
    if isinstance(select, UnionSelect):
        if select.into is not None:
            return False
        return all(_collect_select(p, session, server, acc)
                   for p in select.parts)
    if select.into is not None:
        return False  # SELECT INTO creates a table: catalog write
    for ref in select.tables:
        if not _add_table(ref.name, False, session, server, acc):
            return False
    exprs: list[Expression | None] = [i.expr for i in select.items]
    exprs.append(select.where)
    exprs.extend(select.group_by)
    exprs.append(select.having)
    exprs.extend(o.expr for o in select.order_by)
    return all(_walk_expr(e, session, server, acc) for e in exprs)


def _collect_statement(statement: Statement, session, server, acc) -> bool:
    """Fold one statement into the footprint; False = escalate."""
    if isinstance(statement, (SelectStatement, UnionSelect)):
        return _collect_select(statement, session, server, acc)
    if isinstance(statement, AssignSelect):
        for ref in statement.tables:
            if not _add_table(ref.name, False, session, server, acc):
                return False
        return (_walk_expr(statement.where, session, server, acc)
                and all(_walk_expr(e, session, server, acc)
                        for _n, e in statement.assignments))
    if isinstance(statement, InsertValues):
        if not _add_table(statement.table, True, session, server, acc,
                          operation="insert"):
            return False
        return all(_walk_expr(e, session, server, acc)
                   for row in statement.rows for e in row)
    if isinstance(statement, InsertSelect):
        if not _add_table(statement.table, True, session, server, acc,
                          operation="insert"):
            return False
        return _collect_select(statement.select, session, server, acc)
    if isinstance(statement, UpdateStatement):
        if not _add_table(statement.table, True, session, server, acc,
                          operation="update"):
            return False
        return (_walk_expr(statement.where, session, server, acc)
                and all(_walk_expr(e, session, server, acc)
                        for _n, e in statement.assignments))
    if isinstance(statement, DeleteStatement):
        if not _add_table(statement.table, True, session, server, acc,
                          operation="delete"):
            return False
        return _walk_expr(statement.where, session, server, acc)
    if isinstance(statement, TruncateStatement):
        return _add_table(statement.table, True, session, server, acc)
    if isinstance(statement, IfStatement):
        if not _walk_expr(statement.condition, session, server, acc):
            return False
        for branch in (statement.then_branch, statement.else_branch):
            for inner in branch or ():
                if not _collect_statement(inner, session, server, acc):
                    return False
        return True
    if isinstance(statement, WhileStatement):
        if not _walk_expr(statement.condition, session, server, acc):
            return False
        return all(_collect_statement(inner, session, server, acc)
                   for inner in statement.body)
    if isinstance(statement, PrintStatement):
        return _walk_expr(statement.expr, session, server, acc)
    if isinstance(statement, SetStatement):
        return _walk_expr(statement.expr, session, server, acc)
    if isinstance(statement, ReturnStatement):
        return _walk_expr(statement.expr, session, server, acc)
    if isinstance(statement, (DeclareStatement, WaitforStatement)):
        return True
    # DDL, EXECUTE, USE, BEGIN/COMMIT/ROLLBACK, CREATE PROC/TRIGGER, and
    # anything added later that this analyzer does not know: escalate.
    return False


def analyze_batch(statements, session, server):
    """Static lock footprint of one parsed batch.

    Returns ``None`` when the batch must run under the exclusive gate,
    otherwise a dict ``id(table) -> [table, writes]`` of every base table
    the batch can touch.  Any analysis surprise (unexpected AST shape,
    catalog error) yields ``None`` — escalation is always safe, it is
    simply the pre-existing single-scheduler behaviour.
    """
    acc: dict[int, list] = {}
    try:
        for statement in statements:
            if not _collect_statement(statement, session, server, acc):
                return None
    except Exception:
        return None
    return acc


class EngineLockManager:
    """Decides and holds the locks for one batch execution.

    One instance per :class:`~repro.sqlengine.server.SqlServer`.  The
    executor notifies it when sessions open and close transactions so
    fine-grained batches can stand down while any snapshot-based
    transaction (whose rollback restores whole tables) is in flight.
    """

    def __init__(self, server) -> None:
        self._server = server
        self._gate = RWLock()
        self._local = threading.local()
        self._tx_lock = threading.Lock()
        #: ids of sessions with an open top-level transaction.  A set —
        #: not a counter — so a session that vanishes mid-transaction
        #: (client disconnect) can be cleared idempotently without ever
        #: leaving the engine pinned to the exclusive gate.
        self._tx_sessions: set[int] = set()
        #: batches run under the exclusive gate
        self.exclusive_batches = 0
        #: batches run under the shared gate + table locks
        self.shared_batches = 0
        #: shared acquisitions retried after a schema-epoch race
        self.retries = 0

    # -- transaction bookkeeping (called by the executor) ---------------

    def note_transaction_begin(self, session_id: int) -> None:
        """Session ``session_id`` opened a top-level transaction."""
        with self._tx_lock:
            self._tx_sessions.add(session_id)

    def note_transaction_end(self, session_id: int) -> None:
        """Session ``session_id`` resolved its top-level transaction
        (COMMIT, ROLLBACK, or close-time abandonment); idempotent."""
        with self._tx_lock:
            self._tx_sessions.discard(session_id)

    def transaction_sessions(self) -> set[int]:
        """Snapshot of session ids with an open transaction (tests)."""
        with self._tx_lock:
            return set(self._tx_sessions)

    # -- the per-batch scope --------------------------------------------

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @contextmanager
    def batch_scope(self, statements, session):
        """Hold the right locks for one batch of ``session``.

        Nested scopes on the same thread (trigger/procedure/rule-action
        SQL) are no-ops: every statement that can trigger nested
        execution escalates its outer batch to the exclusive gate.
        """
        if self._depth():
            self._local.depth += 1
            try:
                yield
            finally:
                self._local.depth -= 1
            return
        catalog = self._server.catalog
        while True:
            epoch = catalog.schema_epoch
            plan = analyze_batch(statements, session, self._server)
            if (plan is None or session.tx_log.active
                    or self._tx_sessions):
                self._gate.acquire_write()
                self.exclusive_batches += 1
                self._local.depth = 1
                try:
                    yield
                finally:
                    self._local.depth = 0
                    self._gate.release_write()
                return
            self._gate.acquire_read()
            # DDL and BEGIN TRAN only happen under the exclusive gate;
            # with the shared side held, re-checking both makes the
            # analysis (and the no-transactions assumption) stable for
            # the whole batch.
            if catalog.schema_epoch != epoch or self._tx_sessions:
                self._gate.release_read()
                self.retries += 1
                continue
            acquired: list[tuple[object, bool]] = []
            try:
                for _tid, (table, write) in sorted(plan.items()):
                    if write:
                        table.lock.acquire_write()
                    else:
                        table.lock.acquire_read()
                    acquired.append((table, write))
            except BaseException:
                for table, write in reversed(acquired):
                    (table.lock.release_write if write
                     else table.lock.release_read)()
                self._gate.release_read()
                raise
            self.shared_batches += 1
            self._local.depth = 1
            try:
                yield
            finally:
                self._local.depth = 0
                for table, write in reversed(acquired):
                    (table.lock.release_write if write
                     else table.lock.release_read)()
                self._gate.release_read()
            return

    @contextmanager
    def exclusive_scope(self):
        """The exclusive gate without batch analysis.

        For engine work that happens outside any client batch — today the
        close-time rollback of an abandoned transaction, which restores
        table snapshots and must not race in-flight batches.  Reentrant
        like :meth:`batch_scope` (a close issued from inside a batch just
        bumps the depth)."""
        if self._depth():
            self._local.depth += 1
            try:
                yield
            finally:
                self._local.depth -= 1
            return
        self._gate.acquire_write()
        self._local.depth = 1
        try:
            yield
        finally:
            self._local.depth = 0
            self._gate.release_write()

    def stats(self) -> dict[str, int]:
        """Counters for the admin plane and tests."""
        return {
            "exclusive_batches": self.exclusive_batches,
            "shared_batches": self.shared_batches,
            "retries": self.retries,
        }
