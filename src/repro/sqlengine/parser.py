"""Recursive-descent parser for the engine's T-SQL-like dialect.

The grammar covers everything the ECA Agent's code generator emits
(Figures 11 and 14 of the paper) plus the statements the examples and
system tables need: full single/multi-table SELECT (including
``SELECT INTO``), INSERT (values and select forms), UPDATE, DELETE,
CREATE/DROP/ALTER TABLE, CREATE/DROP PROCEDURE, EXECUTE, CREATE/DROP
TRIGGER, PRINT, control flow (IF/WHILE/BEGIN-END), local variables, and
transaction control.

A *batch* is a sequence of statements.  Like Sybase, ``CREATE PROCEDURE``
and ``CREATE TRIGGER`` must begin their batch and consume the rest of it
as the body; the server layer splits scripts into batches on ``go`` lines.
"""

from __future__ import annotations

from typing import NoReturn

from .errors import SqlParseError
from .expressions import (
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    Exists,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    ScalarSubquery,
    Star,
    UnaryOp,
    VariableRef,
)
from .statements import (
    AlterTableAddStatement,
    CreateIndexStatement,
    CreateViewStatement,
    DropIndexStatement,
    DropViewStatement,
    UnionSelect,
    AssignSelect,
    BeginTransactionStatement,
    ColumnDef,
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
    OrderItem,
    PrintStatement,
    ProcedureParam,
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
from .tokenizer import EOF, IDENT, NUMBER, STRING, VARIABLE, Token, tokenize
from .types import SqlType

#: Words that may never be parsed as a table alias or bare identifier
#: continuation — they always start a clause or a statement.
RESERVED = frozenset(
    """
    select insert update delete create drop alter exec execute print
    if else while begin end commit rollback return declare set use
    truncate from where group having order by into values and or not
    on for as like between is null in exists distinct top union go
    proc procedure trigger table database tran transaction work asc desc
    case when then view index unique
    """.split()
)

#: Comparison operator token -> the operator the AST records.
_COMPARISON_OPS = {"=": "=", "==": "=", "<>": "<>", "!=": "<>", "<": "<",
                   "<=": "<=", ">": ">", ">=": ">="}


class _Parser:
    """Token-stream cursor with the grammar's productions as methods."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------
    # cursor helpers

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> Token:
        try:
            return self.tokens[self.pos + ahead]
        except IndexError:
            return self.tokens[-1]  # EOF

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != EOF:
            self.pos += 1
        return token

    # A keyword and an operator are both one compare of ``Token.word``:
    # callers pass keywords in lower case, and no keyword is an operator.

    def at_keyword(self, *words: str) -> bool:
        return self.tokens[self.pos].word in words

    def accept_keyword(self, *words: str) -> bool:
        if self.tokens[self.pos].word in words:
            self.pos += 1
            return True
        return False

    at_op = at_keyword
    accept_op = accept_keyword

    def expect_keyword(self, word: str) -> Token:
        token = self.tokens[self.pos]
        if token.word != word:
            self.fail(f"expected keyword {word.upper()}")
        self.pos += 1
        return token

    def expect_op(self, op: str) -> Token:
        token = self.tokens[self.pos]
        if token.word != op:
            self.fail(f"expected '{op}'")
        self.pos += 1
        return token

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.tokens[self.pos]
        if token.kind != IDENT:
            self.fail(f"expected {what}")
        self.pos += 1
        return str(token.value)

    def fail(self, message: str) -> NoReturn:
        token = self.current
        found = "end of input" if token.kind == EOF else repr(token.value)
        raise SqlParseError(f"{message}, found {found}", token.line, token.column)

    # ------------------------------------------------------------------
    # batch / statement dispatch

    def parse_batch(self) -> list[Statement]:
        statements: list[Statement] = []
        while True:
            while self.accept_op(";"):
                pass
            if self.current.kind == EOF:
                break
            if self.at_keyword("create") and self.peek().word in (
                    "proc", "procedure", "trigger"):
                if statements:
                    self.fail(
                        "CREATE PROCEDURE/TRIGGER must be the first statement "
                        "in its batch"
                    )
                statements.append(self.parse_create_proc_or_trigger())
                if self.current.kind != EOF:
                    self.fail("CREATE PROCEDURE/TRIGGER must be alone in its batch")
                break
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Statement:
        token = self.tokens[self.pos]
        if token.kind != IDENT:
            self.fail("expected a statement")
        handler = _STATEMENTS.get(token.word)
        if handler is None:
            self.fail(f"unknown statement start {str(token.value).upper()!r}")
        return handler(self)

    # ------------------------------------------------------------------
    # names

    def _dotted_name(self) -> tuple[str, ...]:
        """``name(.name)*`` from the current token, an IDENT, on."""
        tokens = self.tokens
        pos = self.pos
        parts = [tokens[pos].value]
        while tokens[pos + 1].word == "." and tokens[pos + 2].kind == IDENT:
            pos += 2
            parts.append(tokens[pos].value)
        self.pos = pos + 1
        return tuple(parts)  # type: ignore[arg-type]  # IDENT values are str

    def parse_qualified_name(self) -> QualifiedName:
        if self.current.kind != IDENT:
            self.fail("expected object name")
        parts = self._dotted_name()
        if len(parts) > 3:
            self.fail("object names have at most 3 parts (db.owner.name)")
        return QualifiedName(parts)

    def _maybe_alias(self) -> str | None:
        if self.accept_keyword("as"):
            return self.expect_ident("alias")
        token = self.current
        if token.kind == IDENT and token.word not in RESERVED:
            self.pos += 1
            return str(token.value)
        return None

    # ------------------------------------------------------------------
    # SELECT

    def parse_select_entry(self) -> Statement:
        """SELECT that may be a query, a union chain, or an assignment."""
        checkpoint = self.pos
        self.expect_keyword("select")
        if self.current.kind == VARIABLE and self.peek().word == "=":
            return self.parse_assign_select()
        self.pos = checkpoint
        return self.parse_select_or_union()

    def parse_select_or_union(self) -> "SelectStatement | UnionSelect":
        """A SELECT possibly continued by UNION [ALL] chains."""
        import dataclasses

        first = self.parse_select()
        if not self.at_keyword("union"):
            return first
        parts = [first]
        all_flags: list[bool] = []
        while self.accept_keyword("union"):
            all_flags.append(bool(self.accept_keyword("all")))
            parts.append(self.parse_select())
        # T-SQL: INTO belongs to the first part, ORDER BY to the last,
        # and both apply to the combined result.
        into = parts[0].into
        order_by = parts[-1].order_by
        for index, part in enumerate(parts):
            if index > 0 and part.into is not None:
                self.fail("INTO is only allowed in the first SELECT of a UNION")
            if index < len(parts) - 1 and part.order_by:
                self.fail("ORDER BY is only allowed after the last SELECT "
                          "of a UNION")
        parts[0] = dataclasses.replace(parts[0], into=None)
        parts[-1] = dataclasses.replace(parts[-1], order_by=())
        return UnionSelect(
            parts=tuple(parts),
            all_flags=tuple(all_flags),
            order_by=order_by,
            into=into,
        )

    def parse_assign_select(self) -> AssignSelect:
        assignments: list[tuple[str, Expression]] = []
        while True:
            if self.current.kind != VARIABLE:
                self.fail("expected @variable")
            name = str(self.advance().value)
            self.expect_op("=")
            assignments.append((name, self.parse_expression()))
            if not self.accept_op(","):
                break
        tables: tuple[TableRef, ...] = ()
        where = None
        if self.accept_keyword("from"):
            tables = self.parse_table_list()
        if self.accept_keyword("where"):
            where = self.parse_expression()
        return AssignSelect(tuple(assignments), tables, where)

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("select")
        distinct = bool(self.accept_keyword("distinct"))
        top = None
        if self.accept_keyword("top"):
            token = self.current
            if token.kind != NUMBER or not isinstance(token.value, int):
                self.fail("expected integer after TOP")
            top = int(self.advance().value)  # type: ignore[arg-type]
        items = self.parse_select_items()
        into = None
        if self.accept_keyword("into"):
            into = self.parse_qualified_name()
        tables: tuple[TableRef, ...] = ()
        if self.accept_keyword("from"):
            tables = self.parse_table_list()
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expression()
        group_by: tuple[Expression, ...] = ()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = tuple(self.parse_expression_list())
        having = None
        if self.accept_keyword("having"):
            having = self.parse_expression()
        order_by: list[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            while True:
                expr = self.parse_expression()
                ascending = True
                if self.accept_keyword("desc"):
                    ascending = False
                else:
                    self.accept_keyword("asc")
                order_by.append(OrderItem(expr, ascending))
                if not self.accept_op(","):
                    break
        return SelectStatement(
            items=items,
            tables=tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            into=into,
            distinct=distinct,
            top=top,
        )

    def parse_select_items(self) -> tuple[SelectItem, ...]:
        items: list[SelectItem] = []
        while True:
            if self.at_op("*"):
                self.advance()
                items.append(SelectItem(Star()))
            else:
                # alias.* / db.owner.table.*
                star = self._try_qualified_star()
                if star is not None:
                    items.append(SelectItem(star))
                else:
                    expr = self.parse_expression()
                    alias = None
                    token = self.tokens[self.pos]
                    if token.word == "as":
                        self.pos += 1
                        alias = self.expect_ident("column alias")
                    elif token.kind == IDENT and token.word not in RESERVED:
                        alias = self.expect_ident()
                    elif token.kind == STRING:
                        alias = str(self.advance().value)
                    items.append(SelectItem(expr, alias))
            if not self.accept_op(","):
                break
        return tuple(items)

    def _try_qualified_star(self) -> Star | None:
        """Parse ``name(.name)*.*`` if present, else restore and return None."""
        if self.current.kind != IDENT or self.peek().word != ".":
            return None
        checkpoint = self.pos
        parts = self._dotted_name()
        if self.current.word == "." and self.peek().word == "*":
            self.pos += 2
            return Star(parts)
        self.pos = checkpoint
        return None

    def parse_table_list(self) -> tuple[TableRef, ...]:
        tables: list[TableRef] = []
        while True:
            name = self.parse_qualified_name()
            alias = self._maybe_alias()
            tables.append(TableRef(name, alias))
            if not self.accept_op(","):
                break
        return tuple(tables)

    def parse_expression_list(self) -> list[Expression]:
        exprs = [self.parse_expression()]
        while self.accept_op(","):
            exprs.append(self.parse_expression())
        return exprs

    # ------------------------------------------------------------------
    # DML

    def parse_insert(self) -> Statement:
        self.expect_keyword("insert")
        self.accept_keyword("into")
        table = self.parse_qualified_name()
        columns: tuple[str, ...] = ()
        if self.at_op("(") :
            # Could be a column list only if followed by idents then ')'
            checkpoint = self.pos
            self.advance()
            names: list[str] = []
            ok = True
            while True:
                if self.current.kind != IDENT:
                    ok = False
                    break
                names.append(self.expect_ident())
                if self.accept_op(")"):
                    break
                if not self.accept_op(","):
                    ok = False
                    break
            if ok and (self.at_keyword("values") or self.at_keyword("select")):
                columns = tuple(names)
            else:
                self.pos = checkpoint
        if self.accept_keyword("values"):
            rows: list[tuple[Expression, ...]] = []
            while True:
                self.expect_op("(")
                rows.append(tuple(self.parse_expression_list()))
                self.expect_op(")")
                if not self.accept_op(","):
                    break
            return InsertValues(table, columns, tuple(rows))
        if self.at_keyword("select"):
            select = self.parse_select_or_union()
            return InsertSelect(table, select, columns)
        self.fail("expected VALUES or SELECT in INSERT")

    def parse_update(self) -> UpdateStatement:
        self.expect_keyword("update")
        table = self.parse_qualified_name()
        self.expect_keyword("set")
        assignments: list[tuple[str, Expression]] = []
        while True:
            column = self.expect_ident("column name")
            self.expect_op("=")
            assignments.append((column, self.parse_expression()))
            if not self.accept_op(","):
                break
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expression()
        return UpdateStatement(table, tuple(assignments), where)

    def parse_delete(self) -> DeleteStatement:
        self.expect_keyword("delete")
        self.accept_keyword("from")
        table = self.parse_qualified_name()
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expression()
        return DeleteStatement(table, where)

    def parse_truncate(self) -> TruncateStatement:
        self.expect_keyword("truncate")
        self.expect_keyword("table")
        return TruncateStatement(self.parse_qualified_name())

    # ------------------------------------------------------------------
    # DDL

    def parse_create(self) -> Statement:
        self.expect_keyword("create")
        if self.accept_keyword("table"):
            table = self.parse_qualified_name()
            self.expect_op("(")
            columns = [self.parse_column_def()]
            while self.accept_op(","):
                columns.append(self.parse_column_def())
            self.expect_op(")")
            return CreateTableStatement(table, tuple(columns))
        if self.accept_keyword("database"):
            return CreateDatabaseStatement(self.expect_ident("database name"))
        if self.at_keyword("view"):
            start_offset = self.tokens[self.pos].offset
            self.advance()
            name = self.parse_qualified_name()
            self.expect_keyword("as")
            select = self.parse_select_or_union()
            end_offset = self.current.offset
            return CreateViewStatement(
                name, select,
                ("create " + self.text[start_offset:end_offset]).strip())
        unique = False
        if self.at_keyword("unique") and self.peek().word == "index":
            self.advance()
            unique = True
        if self.accept_keyword("index"):
            index_name = self.expect_ident("index name")
            self.expect_keyword("on")
            table = self.parse_qualified_name()
            self.expect_op("(")
            column = self.expect_ident("column name")
            self.expect_op(")")
            return CreateIndexStatement(index_name, table, column, unique)
        self.fail(
            "expected TABLE, DATABASE, VIEW, INDEX, PROC or TRIGGER "
            "after CREATE")

    def parse_column_def(self) -> ColumnDef:
        name = self.expect_ident("column name")
        type_name = self.expect_ident("type name")
        length = None
        if self.accept_op("("):
            token = self.current
            if token.kind != NUMBER or not isinstance(token.value, int):
                self.fail("expected integer length")
            length = int(self.advance().value)  # type: ignore[arg-type]
            # numeric(10, 2): swallow the scale
            if self.accept_op(","):
                scale = self.current
                if scale.kind != NUMBER:
                    self.fail("expected integer scale")
                self.advance()
            self.expect_op(")")
        nullable = True
        if self.accept_keyword("not"):
            self.expect_keyword("null")
            nullable = False
        else:
            self.accept_keyword("null")
        return ColumnDef(name, SqlType.parse(type_name, length), nullable)

    def parse_drop(self) -> Statement:
        self.expect_keyword("drop")
        if self.accept_keyword("table"):
            names = [self.parse_qualified_name()]
            while self.accept_op(","):
                names.append(self.parse_qualified_name())
            return DropTableStatement(tuple(names))
        if self.accept_keyword("proc") or self.accept_keyword("procedure"):
            return DropProcedureStatement(self.parse_qualified_name())
        if self.accept_keyword("trigger"):
            return DropTriggerStatement(self.parse_qualified_name())
        if self.accept_keyword("database"):
            return DropDatabaseStatement(self.expect_ident("database name"))
        if self.accept_keyword("view"):
            return DropViewStatement(self.parse_qualified_name())
        if self.accept_keyword("index"):
            qualified = self.parse_qualified_name()
            if len(qualified.parts) < 2:
                self.fail("DROP INDEX expects table.index_name")
            return DropIndexStatement(
                QualifiedName(qualified.parts[:-1]), qualified.object_name)
        self.fail(
            "expected TABLE, VIEW, INDEX, PROC, TRIGGER or DATABASE "
            "after DROP")

    def parse_alter(self) -> AlterTableAddStatement:
        self.expect_keyword("alter")
        self.expect_keyword("table")
        table = self.parse_qualified_name()
        self.expect_keyword("add")
        columns = [self.parse_column_def()]
        while self.accept_op(","):
            columns.append(self.parse_column_def())
        return AlterTableAddStatement(table, tuple(columns))

    # ------------------------------------------------------------------
    # procedures and triggers

    def parse_create_proc_or_trigger(self) -> Statement:
        start_offset = self.current.offset
        self.expect_keyword("create")
        if self.accept_keyword("proc") or self.accept_keyword("procedure"):
            name = self.parse_qualified_name()
            params: list[ProcedureParam] = []
            if self.current.kind == VARIABLE:
                while True:
                    param_name = str(self.advance().value)
                    type_name = self.expect_ident("parameter type")
                    length = None
                    if self.accept_op("("):
                        token = self.current
                        if token.kind != NUMBER:
                            self.fail("expected integer length")
                        length = int(self.advance().value)  # type: ignore[arg-type]
                        self.expect_op(")")
                    default = None
                    if self.accept_op("="):
                        default = self.parse_primary()
                    params.append(
                        ProcedureParam(param_name, SqlType.parse(type_name, length), default)
                    )
                    if not self.accept_op(","):
                        break
            self.expect_keyword("as")
            body = self.parse_statements_until_eof()
            return CreateProcedureStatement(
                name, tuple(params), tuple(body), self.text[start_offset:].strip()
            )
        if self.accept_keyword("trigger"):
            name = self.parse_qualified_name()
            self.expect_keyword("on")
            table = self.parse_qualified_name()
            self.expect_keyword("for")
            operations = [self._parse_trigger_op()]
            while self.accept_op(","):
                operations.append(self._parse_trigger_op())
            self.expect_keyword("as")
            body = self.parse_statements_until_eof()
            return CreateTriggerStatement(
                name,
                table,
                tuple(operations),
                tuple(body),
                self.text[start_offset:].strip(),
            )
        self.fail("expected PROC or TRIGGER")

    def _parse_trigger_op(self) -> str:
        word = self.expect_ident("trigger operation").lower()
        if word not in ("insert", "update", "delete"):
            self.fail("trigger operation must be INSERT, UPDATE or DELETE")
        return word

    def parse_statements_until_eof(self) -> list[Statement]:
        statements: list[Statement] = []
        while True:
            while self.accept_op(";"):
                pass
            if self.current.kind == EOF:
                break
            statements.append(self.parse_statement())
        return statements

    def parse_execute(self) -> ExecuteStatement:
        self.advance()  # EXEC or EXECUTE
        name = self.parse_qualified_name()
        args: list[Expression] = []
        named: list[tuple[str, Expression]] = []
        if self._at_argument_start():
            while True:
                if self.current.kind == VARIABLE and self.peek().word == "=":
                    param = str(self.advance().value)
                    self.advance()  # '='
                    named.append((param, self.parse_expression()))
                else:
                    args.append(self.parse_expression())
                if not self.accept_op(","):
                    break
        return ExecuteStatement(name, tuple(args), tuple(named))

    def _at_argument_start(self) -> bool:
        token = self.current
        if token.kind in (NUMBER, STRING, VARIABLE):
            return True
        if token.word in ("-", "("):
            return True
        if token.kind == IDENT and (
                token.word not in RESERVED or token.word == "null"):
            return True
        return False

    # ------------------------------------------------------------------
    # misc statements

    def parse_print(self) -> PrintStatement:
        self.expect_keyword("print")
        return PrintStatement(self.parse_expression())

    def parse_use(self) -> UseStatement:
        self.expect_keyword("use")
        return UseStatement(self.expect_ident("database name"))

    def parse_declare(self) -> DeclareStatement:
        self.expect_keyword("declare")
        variables: list[tuple[str, SqlType]] = []
        while True:
            if self.current.kind != VARIABLE:
                self.fail("expected @variable")
            name = str(self.advance().value)
            type_name = self.expect_ident("type name")
            length = None
            if self.accept_op("("):
                token = self.current
                if token.kind != NUMBER:
                    self.fail("expected integer length")
                length = int(self.advance().value)  # type: ignore[arg-type]
                self.expect_op(")")
            variables.append((name, SqlType.parse(type_name, length)))
            if not self.accept_op(","):
                break
        return DeclareStatement(tuple(variables))

    def parse_set(self) -> SetStatement:
        self.expect_keyword("set")
        if self.current.kind != VARIABLE:
            self.fail("expected @variable after SET")
        name = str(self.advance().value)
        self.expect_op("=")
        return SetStatement(name, self.parse_expression())

    def parse_if(self) -> IfStatement:
        self.expect_keyword("if")
        condition = self.parse_expression()
        then_branch = self.parse_block_or_single()
        else_branch: tuple[Statement, ...] = ()
        if self.accept_keyword("else"):
            else_branch = self.parse_block_or_single()
        return IfStatement(condition, then_branch, else_branch)

    def parse_while(self) -> WhileStatement:
        self.expect_keyword("while")
        condition = self.parse_expression()
        return WhileStatement(condition, self.parse_block_or_single())

    def parse_block_or_single(self) -> tuple[Statement, ...]:
        if self.at_keyword("begin") and not self._begin_is_transaction():
            self.expect_keyword("begin")
            statements: list[Statement] = []
            while not self.at_keyword("end"):
                while self.accept_op(";"):
                    pass
                if self.at_keyword("end"):
                    break
                if self.current.kind == EOF:
                    self.fail("unterminated BEGIN block")
                statements.append(self.parse_statement())
            self.expect_keyword("end")
            return tuple(statements)
        return (self.parse_statement(),)

    def _begin_is_transaction(self) -> bool:
        return self.peek().word in ("tran", "transaction")

    def parse_begin(self) -> Statement:
        if self._begin_is_transaction():
            self.advance()
            self.advance()
            return BeginTransactionStatement()
        # Bare BEGIN ... END used as a statement grouping.
        block = self.parse_block_or_single()
        if len(block) == 1:
            return block[0]
        return IfStatement(Literal(1), block, ())

    def parse_commit(self) -> CommitStatement:
        self.expect_keyword("commit")
        if self.at_keyword("tran", "transaction", "work"):
            self.advance()
        return CommitStatement()

    def parse_rollback(self) -> RollbackStatement:
        self.expect_keyword("rollback")
        if self.at_keyword("tran", "transaction", "work"):
            self.advance()
        return RollbackStatement()

    def parse_waitfor(self) -> WaitforStatement:
        """``WAITFOR DELAY "hh:mm[:ss[.mmm]]"`` (the DELAY form only)."""
        self.expect_keyword("waitfor")
        self.expect_keyword("delay")
        token = self.current
        if token.kind != STRING:
            self.fail("expected a quoted delay after WAITFOR DELAY")
        self.advance()
        parts = str(token.value).split(":")
        if not 1 <= len(parts) <= 3:
            self.fail("WAITFOR DELAY expects hh:mm[:ss[.mmm]]")
        try:
            fields = [float(part) for part in parts]
        except ValueError:
            self.fail("WAITFOR DELAY expects numeric time fields")
        seconds = 0.0
        for value in fields:
            seconds = seconds * 60.0 + value
        return WaitforStatement(seconds=seconds)

    def parse_explain(self) -> ExplainStatement:
        """``EXPLAIN <select | insert | update | delete>``.

        ``EXPLAIN`` is deliberately not a reserved word: it only acts as
        a statement starter, so existing schemas may still use it as an
        identifier.
        """
        self.advance()  # EXPLAIN
        target = self.parse_statement()
        if not isinstance(target, (SelectStatement, UnionSelect,
                                   InsertValues, InsertSelect,
                                   UpdateStatement, DeleteStatement)):
            self.fail(
                "EXPLAIN supports SELECT, INSERT, UPDATE, and DELETE "
                "statements")
        return ExplainStatement(target=target)

    def parse_return(self) -> ReturnStatement:
        self.expect_keyword("return")
        token = self.current
        if token.kind in (NUMBER, STRING, VARIABLE) or (
            token.word in ("-", "(")
        ):
            return ReturnStatement(self.parse_expression())
        return ReturnStatement(None)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)

    def parse_expression(self) -> Expression:
        """OR binds loosest: ``a OR b``, then AND, then prefix NOT."""
        left = self.parse_and()
        while self.tokens[self.pos].word == "or":
            self.pos += 1
            left = BinaryOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> Expression:
        left = self.parse_not()
        while self.tokens[self.pos].word == "and":
            self.pos += 1
            left = BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> Expression:
        # NOT LIKE / NOT IN / NOT BETWEEN are handled inside comparison.
        if self.tokens[self.pos].word == "not":
            self.pos += 1
            return UnaryOp("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expression:
        left = self.parse_additive()
        while True:
            word = self.tokens[self.pos].word
            if word in _COMPARISON_OPS:
                self.pos += 1
                op = _COMPARISON_OPS[word]
                left = BinaryOp(op, left, self.parse_additive())
            elif word == "like":
                self.pos += 1
                left = BinaryOp("LIKE", left, self.parse_additive())
            elif word == "is":
                self.pos += 1
                negated = bool(self.accept_keyword("not"))
                self.expect_keyword("null")
                left = IsNull(left, negated)
            elif word == "between":
                self.pos += 1
                left = self._parse_between_tail(left, negated=False)
            elif word == "in":
                self.pos += 1
                left = self._parse_in_tail(left, negated=False)
            elif word == "not" and self.peek().word in ("like", "in", "between"):
                self.pos += 1  # NOT
                if self.accept_keyword("like"):
                    left = BinaryOp("NOT LIKE", left, self.parse_additive())
                elif self.accept_keyword("between"):
                    left = self._parse_between_tail(left, negated=True)
                else:
                    self.expect_keyword("in")
                    left = self._parse_in_tail(left, negated=True)
            else:
                return left

    def _parse_between_tail(self, operand: Expression,
                            negated: bool) -> Expression:
        low = self.parse_additive()
        self.expect_keyword("and")
        return Between(operand, low, self.parse_additive(), negated=negated)

    def _parse_in_tail(self, operand: Expression, negated: bool) -> Expression:
        self.expect_op("(")
        if self.at_keyword("select"):
            subquery = self.parse_select_or_union()
            self.expect_op(")")
            return InSubquery(operand, subquery, negated)
        items = tuple(self.parse_expression_list())
        self.expect_op(")")
        return InList(operand, items, negated)

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while (op := self.tokens[self.pos].word) in ("+", "-"):
            self.pos += 1
            left = BinaryOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_unary()
        while (op := self.tokens[self.pos].word) in ("*", "/", "%"):
            self.pos += 1
            left = BinaryOp(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expression:
        op = self.tokens[self.pos].word
        if op == "-":
            self.pos += 1
            return UnaryOp("-", self.parse_unary())
        if op == "+":
            self.pos += 1
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind == NUMBER or kind == STRING:
            self.pos += 1
            return Literal(token.value)
        if kind == VARIABLE:
            self.pos += 1
            return VariableRef(str(token.value))

        if token.word == "(":
            self.advance()
            if self.at_keyword("select"):
                subquery = self.parse_select_or_union()
                self.expect_op(")")
                return ScalarSubquery(subquery)
            expr = self.parse_expression()
            self.expect_op(")")
            return expr

        if kind == IDENT:
            word = token.word
            if word == "case":
                return self.parse_case()
            if word == "null":
                self.pos += 1
                return Literal(None)
            if word == "exists":
                self.pos += 1
                self.expect_op("(")
                subquery = self.parse_select_or_union()
                self.expect_op(")")
                return Exists(subquery)
            if word == "not":
                self.pos += 1
                return UnaryOp("NOT", self.parse_primary())
            if word in RESERVED:
                self.fail("expected an expression")
            # function call?
            if self.peek().word == "(":
                name = self.expect_ident().lower()
                self.expect_op("(")
                if self.accept_op("*"):
                    self.expect_op(")")
                    return FunctionCall(name, (), star=True)
                if self.accept_op(")"):
                    return FunctionCall(name, ())
                distinct = bool(self.accept_keyword("distinct"))
                args = tuple(self.parse_expression_list())
                self.expect_op(")")
                return FunctionCall(name, args, distinct=distinct)
            return ColumnRef(self._dotted_name())  # possibly qualified

        self.fail("expected an expression")

    def parse_case(self) -> CaseExpr:
        """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""
        self.expect_keyword("case")
        operand = None
        if not self.at_keyword("when"):
            operand = self.parse_expression()
        whens: list[tuple[Expression, Expression]] = []
        while self.accept_keyword("when"):
            condition = self.parse_expression()
            self.expect_keyword("then")
            whens.append((condition, self.parse_expression()))
        if not whens:
            self.fail("CASE requires at least one WHEN clause")
        default = None
        if self.accept_keyword("else"):
            default = self.parse_expression()
        self.expect_keyword("end")
        return CaseExpr(tuple(whens), operand, default)


#: Statement-starting keyword -> the production that parses the statement.
_STATEMENTS = {
    "select": _Parser.parse_select_entry,
    "insert": _Parser.parse_insert,
    "update": _Parser.parse_update,
    "delete": _Parser.parse_delete,
    "create": _Parser.parse_create,
    "drop": _Parser.parse_drop,
    "alter": _Parser.parse_alter,
    "exec": _Parser.parse_execute,
    "execute": _Parser.parse_execute,
    "print": _Parser.parse_print,
    "use": _Parser.parse_use,
    "truncate": _Parser.parse_truncate,
    "declare": _Parser.parse_declare,
    "set": _Parser.parse_set,
    "if": _Parser.parse_if,
    "while": _Parser.parse_while,
    "begin": _Parser.parse_begin,
    "commit": _Parser.parse_commit,
    "rollback": _Parser.parse_rollback,
    "return": _Parser.parse_return,
    "waitfor": _Parser.parse_waitfor,
    "explain": _Parser.parse_explain,
}


def parse_batch(text: str) -> list[Statement]:
    """Parse one batch of SQL text into statement nodes."""
    return _Parser(text).parse_batch()


def parse_statement(text: str) -> Statement:
    """Parse text expected to contain exactly one statement."""
    statements = parse_batch(text)
    if len(statements) != 1:
        raise SqlParseError(
            f"expected exactly one statement, found {len(statements)}"
        )
    return statements[0]


def parse_expression(text: str) -> Expression:
    """Parse standalone expression text (used by tests and the agent)."""
    parser = _Parser(text)
    expr = parser.parse_expression()
    if parser.current.kind != EOF:
        parser.fail("unexpected trailing input after expression")
    return expr


def split_batches(script: str) -> list[str]:
    """Split a script into batches on lines containing only ``go``.

    Mirrors ``isql`` behaviour; the agent's generated scripts use ``go``
    between the snapshot-table DDL, the procedure, and the trigger.
    """
    batches: list[str] = []
    current: list[str] = []
    # Split on '\n' only: str.splitlines() would also split on exotic
    # Unicode boundaries (\\x1e, \\u2028, ...) that may occur inside
    # string literals.
    for line in script.split("\n"):
        if line.strip().lower() == "go":
            if any(piece.strip() for piece in current):
                batches.append("\n".join(current))
            current = []
        else:
            current.append(line)
    if any(piece.strip() for piece in current):
        batches.append("\n".join(current))
    return batches
