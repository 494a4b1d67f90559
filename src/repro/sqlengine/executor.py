"""Statement execution: the engine's query processor.

One :class:`Executor` per server.  Statements arrive as AST nodes from the
parser; results accumulate in a :class:`~repro.sqlengine.results.BatchResult`.
The executor owns everything around the binding stream: FROM resolution,
grouping, projection, ORDER BY/DISTINCT/TOP/INTO, the DML row-apply with
native trigger firing, DDL, stored-procedure invocation, control flow,
and transaction bracketing.  Which row combinations a SELECT sees and
which candidate rows an UPDATE/DELETE visits is decided in exactly one
place each — :meth:`Executor._select_bindings` and
:meth:`Executor._dml_candidates` — and both go straight to
:mod:`~repro.sqlengine.planner` (plan, memoized) and
:mod:`~repro.sqlengine.dagexec` (run).  There is no other path.
"""

from __future__ import annotations

import datetime as _dt
import time as _time
from dataclasses import fields, replace

from . import dagexec, planner
from .catalog import Database
from .errors import (
    CatalogError,
    ExecutionError,
    SchemaError,
    TriggerRecursionError,
)
from .evaluator import (
    EvalContext,
    RowEnvironment,
    RowSource,
    compile_expr,
    compute_aggregate,
    evaluate,
    interpreted,
    is_true,
)
from .expressions import (
    AGGREGATE_FUNCTIONS,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    Star,
    aggregate_calls,
    contains_aggregate,
)
from .procedures import Procedure
from .results import BatchResult, ResultSet
from .schema import Column, TableSchema
from .statements import (
    AlterTableAddStatement,
    AssignSelect,
    CreateIndexStatement,
    CreateViewStatement,
    DropIndexStatement,
    DropViewStatement,
    UnionSelect,
    BeginTransactionStatement,
    CommitStatement,
    CreateDatabaseStatement,
    CreateProcedureStatement,
    CreateTableStatement,
    CreateTriggerStatement,
    DeclareStatement,
    DeleteStatement,
    DropDatabaseStatement,
    DropProcedureStatement,
    DropTableStatement,
    DropTriggerStatement,
    ExecuteStatement,
    ExplainStatement,
    IfStatement,
    InsertSelect,
    InsertValues,
    PrintStatement,
    QualifiedName,
    ReturnStatement,
    RollbackStatement,
    SelectItem,
    SelectStatement,
    SetStatement,
    Statement,
    TableRef,
    TruncateStatement,
    UpdateStatement,
    UseStatement,
    WaitforStatement,
    WhileStatement,
)
from .table import Table, TableIndex
from .triggers import MAX_TRIGGER_DEPTH, Trigger
from .types import SqlType

#: Safety valve for WHILE loops in procedure bodies.
MAX_LOOP_ITERATIONS = 1_000_000

#: Safety valve for WAITFOR DELAY: a typo'd delay must not wedge a worker.
MAX_WAITFOR_SECONDS = 30.0


class ExecutionState:
    """Per-batch mutable state threaded through statement execution."""

    def __init__(self, session, result: BatchResult, variables=None,
                 pseudo_tables=None, trigger_depth: int = 0):
        self.session = session
        self.result = result
        self.variables: dict[str, object] = variables if variables is not None else {}
        #: transition tables visible inside a trigger body, keyed lowercase
        self.pseudo_tables: dict[str, Table] = pseudo_tables or {}
        self.trigger_depth = trigger_depth
        self.returned = False
        self.return_value: object = None

    def child_for_procedure(self, variables: dict[str, object]) -> "ExecutionState":
        return ExecutionState(
            self.session, self.result, variables,
            self.pseudo_tables, self.trigger_depth,
        )

    def child_for_trigger(self, pseudo_tables: dict[str, Table]) -> "ExecutionState":
        return ExecutionState(
            self.session, self.result, {},
            pseudo_tables, self.trigger_depth + 1,
        )


class Executor:
    """Executes parsed statements against a server's catalog."""

    def __init__(self, server):
        self.server = server

    # ------------------------------------------------------------------
    # entry points

    def execute_batch(self, statements: list[Statement], session,
                      result: BatchResult, variables=None) -> None:
        """Run one batch; ``variables`` pre-seeds the batch's local
        variables (the parameter-slot path generated rule SQL uses to
        keep its batch text constant for the plan cache)."""
        state = ExecutionState(session, result, variables=variables)
        for statement in statements:
            self.execute(statement, state)
            if state.returned:
                break

    def execute(self, statement: Statement, state: ExecutionState) -> None:
        handler = self._HANDLERS.get(type(statement))
        if handler is None:
            raise ExecutionError(
                f"no executor for statement {type(statement).__name__}"
            )
        accounting = self.server.accounting
        if accounting is not None:
            accounting.note_statement()
        if type(statement) in _DDL_TYPES:
            # Bump in a finally so even a DDL that fails (or crashes via
            # fault injection) part-way invalidates every cached plan —
            # the catalog may have partially changed.
            try:
                handler(self, statement, state)
            finally:
                self.server.catalog.bump_schema_epoch()
            return
        handler(self, statement, state)

    # ------------------------------------------------------------------
    # evaluation plumbing

    def _eval_context(self, state: ExecutionState) -> EvalContext:
        def run_subquery(select, outer_env: RowEnvironment):
            result = self._run_select_any(select, state, outer_env=outer_env)
            return result.rows

        return EvalContext(
            session=state.session,
            variables=state.variables,
            run_subquery=run_subquery,
            functions=self.server.functions,
        )

    def _eval(self, expr: Expression, env: RowEnvironment,
              state: ExecutionState) -> object:
        return evaluate(expr, env, self._eval_context(state))

    def _eval_scalar(self, expr: Expression, state: ExecutionState) -> object:
        return self._eval(expr, RowEnvironment(), state)

    # ------------------------------------------------------------------
    # table resolution

    def _resolve_table(self, qname: QualifiedName, state: ExecutionState,
                       required: bool = True) -> Table | None:
        if len(qname.parts) == 1:
            pseudo = state.pseudo_tables.get(qname.object_name.lower())
            if pseudo is not None:
                return pseudo
        table = self.server.catalog.resolve_table(
            qname, state.session, required=False)
        if table is None and required:
            if self.server.catalog.resolve_view(qname, state.session) is not None:
                raise ExecutionError(
                    f"'{qname.describe()}' is a view; views are read-only")
            raise CatalogError(f"table '{qname.describe()}' not found")
        return table

    def _database_of(self, qname: QualifiedName, state: ExecutionState) -> Database:
        database = qname.database or state.session.database
        return self.server.catalog.get_database(database)

    def _source_for(self, ref: TableRef, table: Table, database_name: str) -> RowSource:
        if ref.alias:
            keys = frozenset({ref.alias.lower()})
            label = ref.alias
        else:
            name = table.name.lower()
            owner = table.owner.lower()
            keys = frozenset({
                name,
                f"{owner}.{name}",
                f"{database_name.lower()}.{owner}.{name}",
            })
            label = table.name
        return RowSource(keys=keys, schema=table.schema, label=label)

    # ------------------------------------------------------------------
    # SELECT pipeline

    def _execute_query(self, statement, state: ExecutionState) -> None:
        """Run a SELECT or UNION chain.  With INTO the rows go to the
        new table (rowcount only); otherwise they are the result set."""
        result = self._run_select_any(statement, state)
        if statement.into is None:
            self._emit(result, state)

    def _emit(self, result: ResultSet, state: ExecutionState) -> None:
        """Append a result set to the batch and report its rowcount."""
        state.result.result_sets.append(result)
        self._set_rowcount(state, len(result.rows))

    def _run_select_any(self, statement, state: ExecutionState,
                        outer_env: RowEnvironment | None = None) -> ResultSet:
        """Dispatch on SELECT vs UNION chains."""
        if isinstance(statement, UnionSelect):
            return self._run_union(statement, state, outer_env)
        return self._run_select(statement, state, outer_env=outer_env)

    def _from_table(self, ref: TableRef, state: ExecutionState) -> Table:
        """Resolve a FROM-clause name: pseudo table, base table, or a
        materialized view."""
        table = self._resolve_table(ref.name, state, required=False)
        if table is not None:
            return table
        view = self.server.catalog.resolve_view(ref.name, state.session)
        if view is not None:
            return self._materialize_view(view, state)
        raise CatalogError(f"table '{ref.name.describe()}' not found")

    def _materialize_view(self, view, state: ExecutionState) -> Table:
        result = self._run_select_any(view.select, state)
        return Table(
            name=view.name,
            owner=view.owner,
            schema=_schema_from_result(result),
            rows=[list(row) for row in result.rows],
        )

    def _resolve_from(self, refs, state: ExecutionState):
        """Resolve a FROM clause into parallel per-position lists: the
        row sources expressions bind to, the tables behind them, and the
        table keys a memoized plan is checked against."""
        sources: list[RowSource] = []
        tables: list[Table] = []
        table_keys: list[tuple] = []
        for ref in refs:
            table = self._from_table(ref, state)
            database_name = ref.name.database or state.session.database
            sources.append(self._source_for(ref, table, database_name))
            tables.append(table)
            table_keys.append(self._table_key(ref.name, table, state))
        return sources, tables, tuple(table_keys)

    def _run_select(self, statement: SelectStatement, state: ExecutionState,
                    outer_env: RowEnvironment | None = None) -> ResultSet:
        sources, tables, table_keys = self._resolve_from(
            statement.tables, state)
        env = RowEnvironment(sources, parent=outer_env)
        ctx = self._eval_context(state)
        lowered, bindings = self._select_bindings(
            statement, sources, tables, table_keys, env, ctx)

        if planner.is_grouped(statement):
            result = self._run_grouped_select(
                statement, env, ctx, lowered, bindings)
        else:
            result = self._run_plain_select(
                statement, env, ctx, lowered, bindings)

        if statement.distinct:
            result.rows = _distinct(result.rows)
        if statement.top is not None:
            result.rows = result.rows[: statement.top]

        if statement.into is not None:
            self._materialize_into(
                statement.into, self._infer_schema(statement, result, sources),
                result, state)
        return result

    def _table_key(self, name: QualifiedName, table: Table,
                   state: ExecutionState) -> tuple:
        """A session-independent fingerprint of one resolved FROM source.

        Memoized plans carry the keys they were planned against; an
        execution whose keys differ (other session's owner fallback, a
        trigger's pseudo table, a same-named table in another database)
        plans fresh instead of reusing a plan for the wrong table.
        """
        columns = tuple(column.name for column in table.schema.columns)
        if (len(name.parts) == 1 and state.pseudo_tables.get(
                name.object_name.lower()) is table):
            return ("pseudo", name.object_name.lower(), columns)
        database = (name.database or state.session.database).lower()
        return ("table", database, table.owner.lower(),
                table.name.lower(), columns)

    def _memo_plan(self, statement, table_keys: tuple, build,
                   compile_plan=None):
        """The memoized optimized plan for one statement; ``build(epoch)``
        plans it fresh on a memo miss — first execution, DDL epoch bump,
        or table-key change.  The first hit makes a plan hot:
        ``compile_plan(plan)`` fills ``plan.compiled`` once."""
        epoch = self.server.catalog.schema_epoch
        cache = self.server.plan_cache
        plan = cache.get_plan(statement, epoch, table_keys)
        if plan is None:
            plan = build(epoch)
            cache.put_plan(statement, epoch, table_keys, plan)
        elif compile_plan is not None and plan.compiled is None:
            plan.compiled = compile_plan(plan)
        return plan

    def _select_bindings(self, statement, sources: list[RowSource],
                         tables: list[Table], table_keys: tuple,
                         env: RowEnvironment, ctx: EvalContext):
        """The binding stream of one FROM/WHERE: an iterator that binds
        each qualifying row combination into ``sources`` in place, in
        FROM-order, yielding once per combination; returned with the
        statement's per-row expressions as callables (:meth:`_lower`)."""
        plan = self._memo_plan(
            statement, table_keys,
            lambda epoch: planner.plan_select(
                statement, sources, tables, table_keys, env, epoch),
            lambda plan: self._lower(plan, statement, env, compile_expr))
        lowered = plan.compiled or self._lower(
            plan, statement, env, interpreted)
        return lowered, dagexec.select_bindings(
            self.server, plan, lowered, sources, tables, env, ctx)

    def _lower(self, plan, statement, env: RowEnvironment, lower):
        """The per-row expressions a SELECT's (or ``select @x =``'s) path
        calls, as a :class:`~repro.sqlengine.planner.Lowered` of
        ``lower(expr, env)``: ``compile_expr`` once for a hot plan, else
        ``interpreted`` (``plan`` is None for the oracle)."""
        def each(exprs) -> list:
            return [lower(expr, env) for expr in exprs]

        expanded, items, group_by, outputs = [], [], (), ()
        if not isinstance(statement, SelectStatement):
            outputs = [expr for _name, expr in statement.assignments]
        else:
            expanded = self._expand_items(statement.items, env.sources)
            if not planner.is_grouped(statement):
                items = each(expr for expr, _name in expanded)
            else:
                group_by = statement.group_by
                outputs = [statement.having,
                           *(item.expr for item in statement.items),
                           *(item.expr for item in statement.order_by)]
        calls = [call for expr in outputs if expr is not None
                 for call in aggregate_calls(expr)]
        steps = [
            (each(step.pushed), each(step.hint.exprs) if step.hint else (),
             each((step.join.inner_expr, step.join.outer_expr))
             if step.join else None)
            for step in (plan.steps if plan is not None else ())]
        return planner.Lowered(
            steps, each(plan.residual if plan else ()), expanded, items,
            each(group_by), calls,
            each(call.args[0] if len(call.args) == 1 and not call.star
                 else _COUNTED for call in calls))

    def _run_union(self, statement: UnionSelect, state: ExecutionState,
                   outer_env: RowEnvironment | None = None) -> ResultSet:
        parts = [
            self._run_select(part, state, outer_env=outer_env)
            for part in statement.parts
        ]
        width = len(parts[0].columns)
        for part in parts[1:]:
            if len(part.columns) != width:
                raise ExecutionError(
                    "UNION selects must have the same number of columns")
        rows: list[tuple] = list(parts[0].rows)
        keep_all = True
        for flag, part in zip(statement.all_flags, parts[1:]):
            rows.extend(part.rows)
            keep_all = keep_all and flag
        # Plain UNION dedupes the whole result; UNION ALL keeps duplicates.
        if not all(statement.all_flags):
            rows = _distinct(rows)
        result = ResultSet(columns=list(parts[0].columns), rows=rows)
        if statement.order_by:
            keys = [
                tuple(
                    _null_safe_key(row[self._union_order_position(
                        item.expr, result.columns)])
                    for item in statement.order_by
                )
                for row in result.rows
            ]
            result.rows = _sorted_rows(result.rows, keys, statement.order_by)
        if statement.into is not None:
            self._materialize_into(
                statement.into, _schema_from_result(result), result, state)
        return result

    @staticmethod
    def _union_order_position(expr: Expression, columns: list[str]) -> int:
        """UNION ORDER BY keys: output column name or 1-based position."""
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(columns):
                raise ExecutionError(
                    f"ORDER BY position {position} out of range")
            return position - 1
        if isinstance(expr, ColumnRef) and len(expr.parts) == 1:
            lowered = expr.parts[0].lower()
            for index, column in enumerate(columns):
                if column.lower() == lowered:
                    return index
        raise ExecutionError(
            "ORDER BY on a UNION must name an output column or position")

    def _expand_items(self, items: tuple[SelectItem, ...],
                      sources: list[RowSource]) -> list[tuple[Expression, str]]:
        """Expand ``*`` and ``alias.*`` into concrete (expr, name) pairs."""
        expanded: list[tuple[Expression, str]] = []
        for item in items:
            if isinstance(item.expr, Star):
                star = item.expr
                chosen = [
                    source for source in sources
                    if not star.qualifier or source.matches(star.qualifier)
                ]
                if star.qualifier and not chosen:
                    raise SchemaError(
                        f"unknown table qualifier "
                        f"'{'.'.join(star.qualifier)}' in select list"
                    )
                if not chosen:
                    raise ExecutionError("SELECT * requires a FROM clause")
                for source in chosen:
                    for column in source.schema:
                        parts = (source.label, column.name) if source.label else (column.name,)
                        expanded.append((ColumnRef(parts), column.name))
            else:
                expanded.append((item.expr, _column_name(item)))
        return expanded

    def _run_plain_select(self, statement: SelectStatement,
                          env: RowEnvironment, ctx: EvalContext,
                          lowered, bindings) -> ResultSet:
        columns = [name for _expr, name in lowered.expanded]
        order_exprs = [item.expr for item in statement.order_by]
        rows: list[tuple] = []
        order_keys: list[tuple] = []
        items = lowered.items
        for _ in bindings:
            row = tuple([item(env, ctx) for item in items])
            rows.append(row)
            if order_exprs:
                order_keys.append(self._order_key(order_exprs, columns, row, env, ctx))
        if statement.order_by:
            rows = _sorted_rows(rows, order_keys, statement.order_by)
        return ResultSet(columns=columns, rows=rows)

    def _run_grouped_select(self, statement: SelectStatement,
                            env: RowEnvironment, ctx: EvalContext,
                            lowered, bindings) -> ResultSet:
        columns = [name for _expr, name in lowered.expanded]
        rows: list[tuple] = []
        order_keys: list[tuple] = []
        order_exprs = [item.expr for item in statement.order_by]
        for group in _groups(lowered, bindings, env, ctx,
                             scalar=not statement.group_by):
            if statement.having is not None:
                having_value = self._eval_grouped(
                    statement.having, group, ctx)
                if not is_true(having_value):
                    continue
            row = tuple([self._eval_grouped(expr, group, ctx)
                         for expr, _name in lowered.expanded])
            rows.append(row)
            if order_exprs:
                order_keys.append(tuple(
                    _null_safe_key(self._eval_grouped(expr, group, ctx))
                    for expr in order_exprs))
        if statement.order_by:
            rows = _sorted_rows(rows, order_keys, statement.order_by)
        return ResultSet(columns=columns, rows=rows)

    def _eval_grouped(self, expr: Expression, group: tuple,
                      ctx: EvalContext) -> object:
        """Evaluate an expression in grouped context: each aggregate call
        becomes its value over the group's collected arguments, and the
        rest is evaluated against the group's representative member row
        (see :func:`_groups`)."""
        representative, values = group
        return evaluate(_aggregated(expr, values), representative, ctx)

    def _order_key(self, order_exprs: list[Expression], columns: list[str],
                   row: tuple, env: RowEnvironment, ctx: EvalContext) -> tuple:
        keys = []
        for expr in order_exprs:
            # ORDER BY <position> and ORDER BY <output alias> conveniences.
            if isinstance(expr, Literal) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(row):
                    raise ExecutionError(f"ORDER BY position {position} out of range")
                keys.append(_null_safe_key(row[position - 1]))
                continue
            if isinstance(expr, ColumnRef) and len(expr.parts) == 1:
                name = expr.parts[0].lower()
                aliased = [index for index, column in enumerate(columns)
                           if column.lower() == name]
                if len(aliased) == 1:
                    try:
                        env.resolve(expr)
                    except (SchemaError, ExecutionError):
                        keys.append(_null_safe_key(row[aliased[0]]))
                        continue
            keys.append(_null_safe_key(evaluate(expr, env, ctx)))
        return tuple(keys)

    def _materialize_into(self, into: QualifiedName, schema: TableSchema,
                          result: ResultSet, state: ExecutionState) -> None:
        """Create the INTO table of a SELECT or UNION from its result."""
        database, owner, name = self.server.catalog.owner_for_create(
            into, state.session)
        if database.get_table(owner, name) is not None:
            raise CatalogError(
                f"table '{owner}.{name}' already exists in database "
                f"'{database.name}'"
            )
        table = Table(name=name, owner=owner, schema=schema)
        for row in result.rows:
            table.insert_row(list(row))
        database.add_table(table)
        state.session.tx_log.record_undo(
            lambda db=database, o=owner, n=name: db.tables.pop(
                (o.lower(), n.lower()), None)
        )
        self._set_rowcount(state, len(result.rows))

    def _infer_schema(self, statement: SelectStatement, result: ResultSet,
                      sources: list[RowSource]) -> TableSchema:
        """SELECT INTO's schema: a plain column keeps its source type,
        anything computed is typed from its values."""
        expanded = self._expand_items(statement.items, sources)
        columns: list[Column] = []
        for index, (expr, name) in enumerate(expanded):
            if not name:
                raise ExecutionError(
                    "SELECT INTO requires every column to have a name "
                    f"(column {index + 1} has none)"
                )
            sql_type = (_source_column_type(expr, sources)
                        or _value_type(row[index] for row in result.rows))
            columns.append(Column(name, sql_type, nullable=True))
        return TableSchema(columns)

    # ------------------------------------------------------------------
    # DML

    def _execute_insert_values(self, statement: InsertValues,
                               state: ExecutionState) -> None:
        table = self._resolve_table(statement.table, state)
        assert table is not None
        database = self._database_of(statement.table, state)
        state.session.tx_log.before_table_mutation(table)
        inserted: list[list[object]] = []
        for value_row in statement.rows:
            values = [self._eval_scalar(expr, state) for expr in value_row]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise SchemaError(
                        "INSERT column list and VALUES list lengths differ"
                    )
                stored = table.insert_partial(list(statement.columns), values)
            else:
                stored = table.insert_row(values)
            inserted.append(stored)
        self._set_rowcount(state, len(inserted))
        self._fire_trigger(database, table, "insert", inserted, [], state)

    def _execute_insert_select(self, statement: InsertSelect,
                               state: ExecutionState) -> None:
        table = self._resolve_table(statement.table, state)
        assert table is not None
        database = self._database_of(statement.table, state)
        select_result = self._run_select_any(statement.select, state)
        state.session.tx_log.before_table_mutation(table)
        inserted: list[list[object]] = []
        for row in select_result.rows:
            if statement.columns:
                if len(row) != len(statement.columns):
                    raise SchemaError(
                        "INSERT column list and SELECT list lengths differ"
                    )
                stored = table.insert_partial(list(statement.columns), list(row))
            else:
                stored = table.insert_row(list(row))
            inserted.append(stored)
        self._set_rowcount(state, len(inserted))
        self._fire_trigger(database, table, "insert", inserted, [], state)

    def _execute_update(self, statement: UpdateStatement,
                        state: ExecutionState) -> None:
        table, database, source, env = self._dml_target(statement, state)
        ctx = self._eval_context(state)

        state.session.tx_log.before_table_mutation(table)
        assignments = [
            (table.schema.index_of(column), expr)
            for column, expr in statement.assignments
        ]
        candidates = self._dml_candidates(
            statement, source, table, env, ctx, state)
        deleted: list[list[object]] = []
        inserted: list[list[object]] = []
        for row in candidates:
            source.row = row
            if statement.where is not None and not is_true(
                    evaluate(statement.where, env, ctx)):
                continue
            old_row = list(row)
            new_values = {
                index: evaluate(expr, env, ctx) for index, expr in assignments
            }
            for index, value in new_values.items():
                assert index is not None
                column = table.schema.columns[index]
                coerced = column.sql_type.coerce(value)
                if coerced is None and not column.nullable:
                    raise SchemaError(
                        f"column '{column.name}' does not allow nulls")
                row[index] = coerced
            deleted.append(old_row)
            inserted.append(list(row))
        source.row = None
        if inserted:
            table.mark_modified(
                {column for column, _ in statement.assignments})
            for table_index in table.indexes.values():
                table_index.check_unique(table)
        self._set_rowcount(state, len(inserted))
        self._fire_trigger(database, table, "update", inserted, deleted, state)

    def _execute_delete(self, statement: DeleteStatement,
                        state: ExecutionState) -> None:
        table, database, source, env = self._dml_target(statement, state)
        ctx = self._eval_context(state)
        state.session.tx_log.before_table_mutation(table)
        candidates = self._dml_candidates(
            statement, source, table, env, ctx, state)
        if candidates is table.rows:
            def predicate(row: list[object]) -> bool:
                if statement.where is None:
                    return True
                source.row = row
                return is_true(evaluate(statement.where, env, ctx))

            deleted = table.delete_rows(predicate)
        else:
            # Index-narrowed: qualify the candidates first, then delete
            # by row identity in one pass over the heap.
            doomed: set[int] = set()
            for row in candidates:
                source.row = row
                if is_true(evaluate(statement.where, env, ctx)):
                    doomed.add(id(row))
            deleted = table.delete_rows(lambda row: id(row) in doomed)
        source.row = None
        self._set_rowcount(state, len(deleted))
        self._fire_trigger(database, table, "delete", [], deleted, state)

    def _dml_target(self, statement, state: ExecutionState):
        """Resolve the target of a single-table UPDATE/DELETE: the table,
        its database, and a one-source row environment over it."""
        table = self._resolve_table(statement.table, state)
        assert table is not None
        database = self._database_of(statement.table, state)
        database_name = statement.table.database or state.session.database
        source = self._source_for(
            TableRef(statement.table, None), table, database_name)
        return table, database, source, RowEnvironment([source])

    def _dml_candidates(self, statement, source: RowSource, table: Table,
                        env: RowEnvironment, ctx: EvalContext,
                        state: ExecutionState):
        """Candidate rows for a single-table UPDATE/DELETE: an
        index-narrowed list when the memoized
        :class:`~repro.sqlengine.planner.DmlPlan` has a live hint, else
        the table's live row list.  The caller re-checks the full WHERE
        per candidate, so narrowing only ever skips rows that cannot
        match."""
        table_keys = (self._table_key(statement.table, table, state),)
        plan = self._memo_plan(
            statement, table_keys,
            lambda epoch: planner.plan_dml(
                statement, source, table, table_keys, env, epoch))
        return dagexec.dml_candidates(self.server, plan, table, env, ctx)

    def _execute_truncate(self, statement: TruncateStatement,
                          state: ExecutionState) -> None:
        table = self._resolve_table(statement.table, state)
        assert table is not None
        state.session.tx_log.before_table_mutation(table)
        count = table.truncate()
        # TRUNCATE skips triggers, like Sybase's fast path.
        self._set_rowcount(state, count)

    def _set_rowcount(self, state: ExecutionState, rowcount: int) -> None:
        state.result.rowcount = rowcount
        state.session.global_vars["@@rowcount"] = rowcount

    # ------------------------------------------------------------------
    # triggers

    def _fire_trigger(self, database: Database, table: Table, operation: str,
                      inserted: list[list[object]], deleted: list[list[object]],
                      state: ExecutionState) -> None:
        if not self.server.triggers_enabled:
            return
        trigger = database.trigger_for(table, operation)
        if trigger is None:
            return
        if state.trigger_depth >= MAX_TRIGGER_DEPTH:
            raise TriggerRecursionError(
                f"trigger nesting exceeded {MAX_TRIGGER_DEPTH} levels"
            )
        pseudo = {
            "inserted": Table("inserted", table.owner, table.schema.clone(),
                              [list(row) for row in inserted]),
            "deleted": Table("deleted", table.owner, table.schema.clone(),
                             [list(row) for row in deleted]),
        }
        child = state.child_for_trigger(pseudo)
        for statement in trigger.body:
            self.execute(statement, child)
            if child.returned:
                break

    # ------------------------------------------------------------------
    # DDL

    def _execute_create_table(self, statement: CreateTableStatement,
                              state: ExecutionState) -> None:
        database, owner, name = self.server.catalog.owner_for_create(
            statement.table, state.session)
        schema = TableSchema([
            Column(col.name, col.sql_type, col.nullable)
            for col in statement.columns
        ])
        database.add_table(Table(name=name, owner=owner, schema=schema))
        state.session.tx_log.record_undo(
            lambda db=database, o=owner, n=name: db.tables.pop(
                (o.lower(), n.lower()), None)
        )

    def _execute_drop_table(self, statement: DropTableStatement,
                            state: ExecutionState) -> None:
        for qname in statement.tables:
            table = self._resolve_table(qname, state)
            assert table is not None
            database = self._database_of(qname, state)
            dropped = database.drop_table(table.owner, table.name)
            state.session.tx_log.record_undo(
                lambda db=database, t=dropped: db.add_table(t, replace=True)
            )

    def _execute_alter_table(self, statement: AlterTableAddStatement,
                             state: ExecutionState) -> None:
        table = self._resolve_table(statement.table, state)
        assert table is not None
        state.session.tx_log.before_table_mutation(table)
        for col in statement.columns:
            table.add_column(Column(col.name, col.sql_type, col.nullable))

    def _execute_create_database(self, statement: CreateDatabaseStatement,
                                 state: ExecutionState) -> None:
        self.server.catalog.create_database(statement.name)

    def _execute_drop_database(self, statement: DropDatabaseStatement,
                               state: ExecutionState) -> None:
        self.server.catalog.drop_database(statement.name)

    def _execute_use(self, statement: UseStatement, state: ExecutionState) -> None:
        self.server.catalog.get_database(statement.name)  # existence check
        state.session.database = statement.name

    # ------------------------------------------------------------------
    # procedures / triggers DDL and invocation

    def _execute_create_procedure(self, statement: CreateProcedureStatement,
                                  state: ExecutionState) -> None:
        database, owner, name = self.server.catalog.owner_for_create(
            statement.name, state.session)
        procedure = Procedure(
            name=name, owner=owner, params=statement.params,
            body=statement.body, source=statement.source,
        )
        database.add_procedure(procedure)
        state.session.tx_log.record_undo(
            lambda db=database, o=owner, n=name: db.procedures.pop(
                (o.lower(), n.lower()), None)
        )

    def _execute_drop_procedure(self, statement: DropProcedureStatement,
                                state: ExecutionState) -> None:
        procedure = self.server.catalog.resolve_procedure(
            statement.name, state.session)
        assert procedure is not None
        database = self._database_of(statement.name, state)
        database.drop_procedure(procedure.owner, procedure.name)
        state.session.tx_log.record_undo(
            lambda db=database, p=procedure: db.add_procedure(p, replace=True)
        )

    def _execute_create_trigger(self, statement: CreateTriggerStatement,
                                state: ExecutionState) -> None:
        table = self._resolve_table(statement.table, state)
        assert table is not None
        database = self._database_of(statement.table, state)
        _tdb, owner, name = self.server.catalog.owner_for_create(
            statement.name, state.session)
        trigger = Trigger(
            name=name,
            owner=owner,
            table_owner=table.owner,
            table_name=table.name,
            operations=statement.operations,
            body=statement.body,
            source=statement.source,
        )
        displaced = database.add_trigger(trigger)
        # The paper highlights that no warning is produced on displacement;
        # we record it internally for the limitation tests but emit nothing.
        self.server.last_displaced_triggers = displaced

    def _execute_drop_trigger(self, statement: DropTriggerStatement,
                              state: ExecutionState) -> None:
        resolved = self.server.catalog.resolve_trigger(
            statement.name, state.session)
        assert resolved is not None
        database, trigger = resolved
        database.drop_trigger(trigger.owner, trigger.name)

    def _execute_execute(self, statement: ExecuteStatement,
                         state: ExecutionState) -> None:
        # System procedures (sp_*) are intercepted by name, like Sybase.
        if len(statement.name.parts) == 1:
            from .sysprocs import SYSTEM_PROCEDURES

            handler = SYSTEM_PROCEDURES.get(statement.name.object_name.lower())
            if handler is not None:
                args = [self._eval_scalar(arg, state) for arg in statement.args]
                for result_set in handler(self.server, state, *args):
                    state.result.result_sets.append(result_set)
                return
        procedure = self.server.catalog.resolve_procedure(
            statement.name, state.session)
        assert procedure is not None
        variables: dict[str, object] = {}
        params = list(procedure.params)
        if len(statement.args) > len(params):
            raise ExecutionError(
                f"procedure '{procedure.name}' takes {len(params)} arguments, "
                f"{len(statement.args)} given"
            )
        for index, param in enumerate(params):
            if index < len(statement.args):
                value = self._eval_scalar(statement.args[index], state)
            elif param.default is not None:
                value = self._eval_scalar(param.default, state)
            else:
                value = None
            variables[param.name] = param.sql_type.coerce(value)
        for param_name, expr in statement.named_args:
            matching = [p for p in params if p.name.lower() == param_name.lower()]
            if not matching:
                raise ExecutionError(
                    f"procedure '{procedure.name}' has no parameter {param_name}"
                )
            variables[matching[0].name] = matching[0].sql_type.coerce(
                self._eval_scalar(expr, state))
        for param in params:
            variables.setdefault(param.name, None)
        child = state.child_for_procedure(variables)
        for body_statement in procedure.body:
            self.execute(body_statement, child)
            if child.returned:
                break

    # ------------------------------------------------------------------
    # control flow / variables / misc

    def _execute_print(self, statement: PrintStatement,
                       state: ExecutionState) -> None:
        value = self._eval_scalar(statement.expr, state)
        from .evaluator import _as_text

        state.result.messages.append(_as_text(value))

    def _execute_declare(self, statement: DeclareStatement,
                         state: ExecutionState) -> None:
        for name, _sql_type in statement.variables:
            state.variables[name] = None

    def _execute_set(self, statement: SetStatement,
                     state: ExecutionState) -> None:
        state.variables[statement.name] = self._eval_scalar(statement.expr, state)

    def _execute_assign_select(self, statement: AssignSelect,
                               state: ExecutionState) -> None:
        sources, tables, table_keys = self._resolve_from(
            statement.tables, state)
        env = RowEnvironment(sources)
        ctx = self._eval_context(state)
        lowered, bindings = self._select_bindings(
            statement, sources, tables, table_keys, env, ctx)
        aggregated = any(
            contains_aggregate(expr) for _name, expr in statement.assignments
        )
        if aggregated:
            # T-SQL allows `select @m = max(price) from t`: aggregate over
            # all qualifying rows, assign once.
            [group] = _groups(lowered, bindings, env, ctx, scalar=True)
            for name, expr in statement.assignments:
                state.variables[name] = self._eval_grouped(expr, group, ctx)
            return
        matched = 0
        for _ in bindings:
            matched += 1
            for name, expr in statement.assignments:
                state.variables[name] = evaluate(expr, env, ctx)
        if not statement.tables and matched == 0:
            # SELECT @x = expr with no FROM always assigns once.
            for name, expr in statement.assignments:
                state.variables[name] = self._eval_scalar(expr, state)

    def _execute_if(self, statement: IfStatement, state: ExecutionState) -> None:
        condition = self._eval_scalar(statement.condition, state)
        branch = statement.then_branch if is_true(condition) else statement.else_branch
        for inner in branch:
            self.execute(inner, state)
            if state.returned:
                return

    def _execute_while(self, statement: WhileStatement,
                       state: ExecutionState) -> None:
        iterations = 0
        while is_true(self._eval_scalar(statement.condition, state)):
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise ExecutionError("WHILE loop exceeded the iteration limit")
            for inner in statement.body:
                self.execute(inner, state)
                if state.returned:
                    return

    def _execute_return(self, statement: ReturnStatement,
                        state: ExecutionState) -> None:
        if statement.expr is not None:
            state.return_value = self._eval_scalar(statement.expr, state)
        state.returned = True

    # ------------------------------------------------------------------
    # views and indexes

    def _execute_create_view(self, statement: CreateViewStatement,
                             state: ExecutionState) -> None:
        from .catalog import View

        database, owner, name = self.server.catalog.owner_for_create(
            statement.name, state.session)
        database.add_view(View(name=name, owner=owner,
                               select=statement.select,
                               source=statement.source))
        state.session.tx_log.record_undo(
            lambda db=database, o=owner, n=name: db.views.pop(
                (o.lower(), n.lower()), None)
        )

    def _execute_drop_view(self, statement: DropViewStatement,
                           state: ExecutionState) -> None:
        view = self.server.catalog.resolve_view(statement.name, state.session)
        if view is None:
            raise CatalogError(
                f"view '{statement.name.describe()}' does not exist")
        database = self._database_of(statement.name, state)
        database.drop_view(view.owner, view.name)
        state.session.tx_log.record_undo(
            lambda db=database, v=view: db.add_view(v)
        )

    def _execute_create_index(self, statement: CreateIndexStatement,
                              state: ExecutionState) -> None:
        table = self._resolve_table(statement.table, state)
        assert table is not None
        table.add_index(TableIndex(
            name=statement.name,
            column=statement.column,
            unique=statement.unique,
        ))
        state.session.tx_log.record_undo(
            lambda t=table, n=statement.name: t.indexes.pop(n.lower(), None)
        )

    def _execute_drop_index(self, statement: DropIndexStatement,
                            state: ExecutionState) -> None:
        table = self._resolve_table(statement.table, state)
        assert table is not None
        table.drop_index(statement.name)

    # ------------------------------------------------------------------
    # transactions

    def _execute_begin_tran(self, _statement: BeginTransactionStatement,
                            state: ExecutionState) -> None:
        state.session.tx_log.begin()
        state.session.global_vars["@@trancount"] = state.session.tx_log.depth
        if state.session.tx_log.depth == 1:
            # Outermost BEGIN: fine-grained batches must stand down until
            # this session's snapshot-based transaction resolves.
            self.server.lock_manager.note_transaction_begin(
                state.session.session_id)

    def _execute_commit(self, _statement: CommitStatement,
                        state: ExecutionState) -> None:
        depth = state.session.tx_log.commit()
        state.session.global_vars["@@trancount"] = depth
        if depth == 0:
            self.server.lock_manager.note_transaction_end(
                state.session.session_id)
            self.server.on_transaction_end(state.session, committed=True)

    def _execute_rollback(self, _statement: RollbackStatement,
                          state: ExecutionState) -> None:
        was_active = state.session.tx_log.active
        state.session.tx_log.rollback()
        state.session.global_vars["@@trancount"] = 0
        if was_active:
            self.server.lock_manager.note_transaction_end(
                state.session.session_id)
        self.server.on_transaction_end(state.session, committed=False)

    # ------------------------------------------------------------------
    # waitfor

    def _execute_waitfor(self, statement: WaitforStatement,
                         state: ExecutionState) -> None:
        delay = min(max(statement.seconds, 0.0), MAX_WAITFOR_SECONDS)
        if delay:
            _time.sleep(delay)

    # ------------------------------------------------------------------
    # EXPLAIN

    def _execute_explain(self, statement: ExplainStatement,
                         state: ExecutionState) -> None:
        lines = self._explain_lines(statement.target, state)
        self._emit(
            ResultSet(columns=["plan"], rows=[[line] for line in lines]),
            state)

    def _explain_lines(self, target: Statement, state: ExecutionState,
                       required: bool = True) -> list[str]:
        """The EXPLAIN text for one statement, always planned fresh so
        the estimates reflect live cardinalities and indexes.

        With ``required=False`` (the flight recorder's best-effort path)
        a statement that cannot be explained yields ``[]`` instead of an
        error.
        """
        if isinstance(target, SelectStatement):
            return self._explain_select(target, state)
        if isinstance(target, UnionSelect):
            lines = [f"Union [{len(target.parts)} branches]"]
            for part in target.parts:
                lines.extend(
                    "  " + line
                    for line in self._explain_select(part, state))
            return lines
        if isinstance(target, (UpdateStatement, DeleteStatement)):
            table, _database, source, env = self._dml_target(target, state)
            table_keys = (self._table_key(target.table, table, state),)
            plan = planner.plan_dml(
                target, source, table, table_keys, env,
                self.server.catalog.schema_epoch)
            return planner.render_plan(plan.root)
        if isinstance(target, InsertValues):
            root = planner.InsertOp(
                child=planner.ValuesOp(row_count=len(target.rows)),
                table=target.table.describe(),
                columns=tuple(target.columns))
            return planner.render_plan(root)
        if isinstance(target, InsertSelect):
            select_plan = self._fresh_select_plan(target.select, state)
            root = planner.InsertOp(
                child=select_plan.root, table=target.table.describe(),
                columns=tuple(target.columns))
            return planner.render_plan(root)
        if required:
            raise ExecutionError(
                "EXPLAIN supports SELECT, INSERT, UPDATE, and DELETE "
                "statements")
        return []

    def _fresh_select_plan(self, statement: SelectStatement,
                           state: ExecutionState):
        """Plan one SELECT outside the memo (EXPLAIN wants live numbers)."""
        sources, tables, table_keys = self._resolve_from(
            statement.tables, state)
        return planner.plan_select(
            statement, sources, tables, table_keys, RowEnvironment(sources),
            self.server.catalog.schema_epoch)

    def _explain_select(self, statement: SelectStatement,
                        state: ExecutionState) -> list[str]:
        """EXPLAIN lines for one SELECT: a join-order preamble (when the
        FROM has more than one table) above the operator tree."""
        plan = self._fresh_select_plan(statement, state)
        lines: list[str] = []
        if len(plan.order) > 1:
            labels = [
                statement.tables[position].alias
                or statement.tables[position].name.describe()
                for position in plan.order
            ]
            lines.append("join order: " + " -> ".join(labels))
        lines.extend(planner.render_plan(plan.root))
        return lines

    _HANDLERS: dict[type, object] = {}


Executor._HANDLERS = {
    SelectStatement: Executor._execute_query,
    UnionSelect: Executor._execute_query,
    CreateViewStatement: Executor._execute_create_view,
    DropViewStatement: Executor._execute_drop_view,
    CreateIndexStatement: Executor._execute_create_index,
    DropIndexStatement: Executor._execute_drop_index,
    AssignSelect: Executor._execute_assign_select,
    InsertValues: Executor._execute_insert_values,
    InsertSelect: Executor._execute_insert_select,
    UpdateStatement: Executor._execute_update,
    DeleteStatement: Executor._execute_delete,
    TruncateStatement: Executor._execute_truncate,
    CreateTableStatement: Executor._execute_create_table,
    DropTableStatement: Executor._execute_drop_table,
    AlterTableAddStatement: Executor._execute_alter_table,
    CreateDatabaseStatement: Executor._execute_create_database,
    DropDatabaseStatement: Executor._execute_drop_database,
    UseStatement: Executor._execute_use,
    CreateProcedureStatement: Executor._execute_create_procedure,
    DropProcedureStatement: Executor._execute_drop_procedure,
    CreateTriggerStatement: Executor._execute_create_trigger,
    DropTriggerStatement: Executor._execute_drop_trigger,
    ExecuteStatement: Executor._execute_execute,
    PrintStatement: Executor._execute_print,
    DeclareStatement: Executor._execute_declare,
    SetStatement: Executor._execute_set,
    IfStatement: Executor._execute_if,
    WhileStatement: Executor._execute_while,
    ReturnStatement: Executor._execute_return,
    WaitforStatement: Executor._execute_waitfor,
    ExplainStatement: Executor._execute_explain,
    BeginTransactionStatement: Executor._execute_begin_tran,
    CommitStatement: Executor._execute_commit,
    RollbackStatement: Executor._execute_rollback,
}


#: Statements that change the catalog's shape (tables, columns, views,
#: procedures, triggers, indexes, databases).  Each bumps the schema
#: epoch, invalidating every cached plan parsed before it.
_DDL_TYPES: frozenset[type] = frozenset({
    CreateTableStatement,
    DropTableStatement,
    AlterTableAddStatement,
    CreateDatabaseStatement,
    DropDatabaseStatement,
    CreateProcedureStatement,
    DropProcedureStatement,
    CreateTriggerStatement,
    DropTriggerStatement,
    CreateViewStatement,
    DropViewStatement,
    CreateIndexStatement,
    DropIndexStatement,
    # ROLLBACK can resurrect dropped objects via recorded undos, so it
    # counts as a catalog change for invalidation purposes.
    RollbackStatement,
})


def _column_name(item: SelectItem) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ColumnRef):
        return expr.column_name
    if isinstance(expr, FunctionCall):
        return expr.name
    return ""


#: Collected per row for ``count(*)`` and for a call of the wrong arity
#: (which ``compute_aggregate`` rejects): one non-NULL value per member.
_COUNTED = Literal(1)


def _groups(lowered, bindings, env: RowEnvironment, ctx: EvalContext,
            scalar: bool) -> list[tuple]:
    """Fold a binding stream into ``(representative, values)`` groups in
    first-seen order: one frozen member row and, per aggregate call (by
    ``id``), its argument values in binding order, which keeps float
    ``sum``/``avg`` bit-identical.  ``scalar``: one group even if empty."""
    keys, arguments = lowered.group_by, lowered.arguments
    groups: dict[tuple, tuple] = {}
    for _ in bindings:
        key = tuple([fn(env, ctx) for fn in keys]) if keys else ()
        group = groups.get(key)
        if group is None:
            group = groups[key] = (_frozen(env), [[] for _ in arguments])
        for values, argument in zip(group[1], arguments):
            values.append(argument(env, ctx))
    if scalar and not groups:
        groups[()] = (env, [[] for _ in arguments])
    calls = [id(call) for call in lowered.calls]
    return [(representative, dict(zip(calls, values)))
            for representative, values in groups.values()]


def _aggregated(node, values: dict):
    """``node`` with each aggregate call replaced by a literal of its
    value over one group's collected arguments (``values``)."""
    if isinstance(node, FunctionCall) and node.name in AGGREGATE_FUNCTIONS:
        return Literal(compute_aggregate(node, values[id(node)]))
    if isinstance(node, tuple):
        return tuple(_aggregated(part, values) for part in node)
    if isinstance(node, Expression) and contains_aggregate(node):
        return replace(node, **{field.name: _aggregated(
            getattr(node, field.name), values) for field in fields(node)})
    return node


def _frozen(env: RowEnvironment) -> RowEnvironment:
    """A copy of ``env`` holding copies of the currently bound rows, so
    a group's representative survives the binding stream moving on."""
    return RowEnvironment(
        [
            RowSource(source.keys, source.schema,
                      list(source.row) if source.row is not None else None,
                      source.label)
            for source in env.sources
        ],
        parent=env.parent,
    )


def _null_safe_key(value: object) -> tuple:
    """Sort key placing NULLs first and avoiding cross-type comparisons."""
    if value is None:
        return (0, 0, 0)
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (1, 0, value)
    if isinstance(value, _dt.datetime):
        return (1, 1, value.timestamp())
    return (1, 2, str(value))


def _sorted_rows(rows: list[tuple], keys: list[tuple], order_by) -> list[tuple]:
    paired = list(zip(keys, rows))
    # Sort by each key in reverse priority order for stability.
    for position in range(len(order_by) - 1, -1, -1):
        ascending = order_by[position].ascending
        paired.sort(key=lambda pair, p=position: pair[0][p], reverse=not ascending)
    return [row for _key, row in paired]


def _distinct(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    unique: list[tuple] = []
    for row in rows:
        key = tuple(
            (value.timestamp() if isinstance(value, _dt.datetime) else value)
            for value in row
        )
        try:
            if key in seen:
                continue
            seen.add(key)
        except TypeError:
            if any(existing == row for existing in unique):
                continue
        unique.append(row)
    return unique


def _source_column_type(expr: Expression,
                        sources: list[RowSource]) -> SqlType | None:
    """The declared type of the source column a plain column reference
    names, or None for anything computed."""
    if isinstance(expr, ColumnRef):
        for source in sources:
            if expr.qualifier and not source.matches(expr.qualifier):
                continue
            col_index = source.schema.index_of(expr.column_name, required=False)
            if col_index is not None:
                return source.schema.columns[col_index].sql_type
    return None


def _value_type(values) -> SqlType:
    """The SQL type of the first non-NULL value (varchar(255) if none)."""
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return SqlType.parse("bit")
        if isinstance(value, int):
            return SqlType.parse("int")
        if isinstance(value, float):
            return SqlType.parse("float")
        if isinstance(value, _dt.datetime):
            return SqlType.parse("datetime")
        return SqlType.parse("varchar", max(30, len(str(value))))
    return SqlType.parse("varchar", 255)


def _schema_from_result(result: ResultSet) -> TableSchema:
    """Infer a schema for a materialized result (views, UNION ... INTO)."""
    columns: list[Column] = []
    for index, name in enumerate(result.columns):
        if not name:
            raise ExecutionError(
                f"column {index + 1} of the result has no name; "
                "alias every computed column"
            )
        sql_type = _value_type(row[index] for row in result.rows)
        columns.append(Column(name, sql_type, nullable=True))
    return TableSchema(columns)
