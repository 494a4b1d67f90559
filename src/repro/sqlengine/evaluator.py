"""Expression evaluation with SQL three-valued logic.

The evaluator walks :mod:`repro.sqlengine.expressions` trees against a
:class:`RowEnvironment` (the FROM-clause sources with their current rows)
and an execution context that supplies local variables, the session, and a
callback for running subqueries.  SQL ``NULL`` is Python ``None``;
comparisons involving NULL yield ``None`` (unknown), and WHERE treats
unknown as false, as the standard requires.

:func:`compile_expr` lowers a tree once (for a memoised plan, on its
first memo hit) into a closure ``fn(env, ctx)`` equal to ``evaluate``;
both call the same operator helpers, so three-valued logic and coercion
are written once.  :func:`interpreted` gives ``evaluate`` that shape.
"""

from __future__ import annotations

import datetime as _dt
import operator
import re
from dataclasses import dataclass, field
from typing import Callable

from .errors import ExecutionError, SchemaError, SqlError
from .expressions import (
    AGGREGATE_FUNCTIONS,
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
from .schema import TableSchema


@dataclass
class RowSource:
    """One FROM-clause table binding: the names it answers to, its schema,
    and the row currently bound during iteration."""

    keys: frozenset[str]  # lowercase dotted suffixes: alias / name / owner.name / db.owner.name
    schema: TableSchema
    row: list[object] | None = None
    label: str = ""

    def matches(self, qualifier: tuple[str, ...]) -> bool:
        """Whether a dotted qualifier (as written) refers to this source."""
        return ".".join(part.lower() for part in qualifier) in self.keys


@dataclass
class RowEnvironment:
    """The set of row sources visible to an expression, with an optional
    outer environment for correlated subqueries."""

    sources: list[RowSource] = field(default_factory=list)
    parent: "RowEnvironment | None" = None

    def resolve(self, ref: ColumnRef) -> tuple[RowSource, int]:
        """Find the source and column index for a column reference."""
        qualifier = ref.qualifier
        name = ref.column_name
        matches: list[tuple[RowSource, int]] = []
        for source in self.sources:
            if qualifier and not source.matches(qualifier):
                continue
            index = source.schema.index_of(name, required=False)
            if index is not None:
                matches.append((source, index))
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise ExecutionError(f"ambiguous column name '{ref.describe()}'")
        if self.parent is not None:
            return self.parent.resolve(ref)
        raise SchemaError(f"unknown column '{ref.describe()}'")

    def lookup(self, ref: ColumnRef) -> object:
        """The value of a column reference in the currently bound row;
        raises when its source has no row bound."""
        source, index = self.resolve(ref)
        if source.row is None:
            raise ExecutionError(
                f"column '{ref.describe()}' referenced outside row context"
            )
        return source.row[index]


class EvalContext:
    """Everything an expression may consult besides the current rows.

    Attributes:
        variables: ``@name`` locals (procedure params, DECLAREd variables).
        session: the owning :class:`~repro.sqlengine.server.Session`.
        run_subquery: callback ``(select, env) -> list[rows]`` provided by
            the executor so subqueries reuse the full SELECT pipeline.
        functions: scalar builtin registry (name -> callable).
    """

    def __init__(
        self,
        session,
        variables: dict[str, object] | None = None,
        run_subquery: Callable | None = None,
        functions: dict[str, Callable] | None = None,
    ):
        self.session = session
        self.variables = variables if variables is not None else {}
        self.run_subquery = run_subquery
        self.functions = functions if functions is not None else {}


def evaluate(expr: Expression, env: RowEnvironment, ctx: EvalContext) -> object:
    """Evaluate an expression tree; returns a Python value or ``None``."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return env.lookup(expr)
    if isinstance(expr, VariableRef):
        return _variable(expr.name, ctx)
    if isinstance(expr, UnaryOp):
        return _unary(expr.op, evaluate(expr.operand, env, ctx))
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            return _and(evaluate(expr.left, env, ctx), evaluate, expr.right, env, ctx)
        if expr.op == "OR":
            return _or(evaluate(expr.left, env, ctx), evaluate, expr.right, env, ctx)
        return _binary(expr.op, evaluate(expr.left, env, ctx),
                       evaluate(expr.right, env, ctx))
    if isinstance(expr, FunctionCall):
        handler = _function_handler(expr.name, ctx)
        fixed, arg_exprs = _function_args(expr)
        return handler(ctx, *fixed, *[evaluate(a, env, ctx) for a in arg_exprs])
    if isinstance(expr, IsNull):
        return (evaluate(expr.operand, env, ctx) is None) != expr.negated
    if isinstance(expr, Between):
        return _between(evaluate(expr.operand, env, ctx), evaluate(expr.low, env, ctx),
                        evaluate(expr.high, env, ctx), expr.negated)
    if isinstance(expr, InList):
        return _in(evaluate(expr.operand, env, ctx),
                   (evaluate(item, env, ctx) for item in expr.items), expr.negated)
    if isinstance(expr, InSubquery):
        return _in(evaluate(expr.operand, env, ctx),
                   _subquery_column(expr.subquery, env, ctx), expr.negated)
    if isinstance(expr, Exists):
        rows = _run_subquery(expr.subquery, env, ctx)
        return bool(rows)
    if isinstance(expr, ScalarSubquery):
        rows = _run_subquery(expr.subquery, env, ctx)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        if len(rows[0]) != 1:
            raise ExecutionError("scalar subquery must return one column")
        return rows[0][0]
    if isinstance(expr, CaseExpr):
        return _eval_case(expr, env, ctx)
    if isinstance(expr, Star):
        raise ExecutionError("'*' is only valid in a select list")
    raise ExecutionError(f"cannot evaluate expression node {type(expr).__name__}")


def interpreted(expr: Expression, env: RowEnvironment | None = None) -> Callable:
    """``evaluate`` bound to one tree, shaped like :func:`compile_expr`."""
    return lambda env, ctx: evaluate(expr, env, ctx)


def compile_expr(expr: Expression, env: RowEnvironment) -> Callable:
    """Lower a tree into a closure ``fn(env, ctx)`` returning (or raising)
    what ``evaluate(expr, env, ctx)`` would.  A column resolving to one
    of ``env``'s own sources reads its row slot in any environment of
    that shape; outer, ambiguous and unknown columns, subqueries and
    ``CASE`` stay :func:`interpreted`, so errors still surface per row."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda env, ctx: value
    if isinstance(expr, ColumnRef):
        return _compile_column(expr, env)
    if isinstance(expr, VariableRef):
        name = expr.name
        return lambda env, ctx: _variable(name, ctx)
    if isinstance(expr, UnaryOp):
        op, operand = expr.op, compile_expr(expr.operand, env)
        return lambda env, ctx: _unary(op, operand(env, ctx))
    if isinstance(expr, BinaryOp):
        op = expr.op
        left, right = compile_expr(expr.left, env), compile_expr(expr.right, env)
        if op == "AND":
            return lambda env, ctx: _and(left(env, ctx), right, env, ctx)
        if op == "OR":
            return lambda env, ctx: _or(left(env, ctx), right, env, ctx)
        compare = _COMPARISONS.get(op)
        if compare is None:
            return lambda env, ctx: _binary(op, left(env, ctx), right(env, ctx))

        def comparison(env, ctx):
            a, b = left(env, ctx), right(env, ctx)
            if type(a) in _NUMBERS and type(b) in _NUMBERS:
                return compare(a, b)
            return _eval_comparison(op, a, b)
        return comparison
    if isinstance(expr, FunctionCall):
        name = expr.name
        fixed, arg_exprs = _function_args(expr)
        args = [compile_expr(arg, env) for arg in arg_exprs]
        return lambda env, ctx: _function_handler(name, ctx)(
            ctx, *fixed, *[arg(env, ctx) for arg in args])
    if isinstance(expr, IsNull):
        operand, negated = compile_expr(expr.operand, env), expr.negated
        return lambda env, ctx: (operand(env, ctx) is None) != negated
    if isinstance(expr, Between):
        parts = [compile_expr(part, env)
                 for part in (expr.operand, expr.low, expr.high)]
        return lambda env, ctx: _between(
            *[part(env, ctx) for part in parts], expr.negated)
    if isinstance(expr, InList):
        operand = compile_expr(expr.operand, env)
        items = [compile_expr(item, env) for item in expr.items]
        return lambda env, ctx: _in(operand(env, ctx), (
            item(env, ctx) for item in items), expr.negated)
    return interpreted(expr)


def _compile_column(ref: ColumnRef, env: RowEnvironment) -> Callable:
    try:
        source, index = env.resolve(ref)
    except SqlError:
        return interpreted(ref)
    for position, candidate in enumerate(env.sources):
        if candidate is source:
            def column(env, ctx):
                row = env.sources[position].row
                if row is None:
                    return env.lookup(ref)  # raises "outside row context"
                return row[index]
            return column
    return interpreted(ref)


#: Two operands of exactly these types (not ``bool``, which ``_harmonize``
#: coerces) compare directly, as :func:`_eval_comparison` would.
_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_NUMBERS = frozenset({int, float})


def _variable(name: str, ctx: EvalContext) -> object:
    if name.startswith("@@"):
        # Server globals such as @@rowcount / @@trancount.
        return ctx.session.global_vars.get(name.lower(), 0)
    if name not in ctx.variables:
        raise ExecutionError(f"variable '{name}' is not declared")
    return ctx.variables[name]


def _eval_case(expr: CaseExpr, env: RowEnvironment, ctx: EvalContext) -> object:
    if expr.operand is not None:
        subject = evaluate(expr.operand, env, ctx)
        for when, then in expr.whens:
            candidate = evaluate(when, env, ctx)
            if subject is not None and candidate is not None and \
                    _eval_comparison("=", subject, candidate):
                return evaluate(then, env, ctx)
    else:
        for when, then in expr.whens:
            if is_true(evaluate(when, env, ctx)):
                return evaluate(then, env, ctx)
    if expr.default is not None:
        return evaluate(expr.default, env, ctx)
    return None


def is_true(value: object) -> bool:
    """SQL truth test: NULL/unknown counts as false."""
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExecutionError(f"expression of type {type(value).__name__} used as a condition")


# ----------------------------------------------------------------------
# operator evaluation


def _unary(op: str, value: object) -> object:
    if op == "-":
        if value is None:
            return None
        if not isinstance(value, (int, float)):
            raise ExecutionError(f"cannot negate {value!r}")
        return -value
    if op == "NOT":
        if value is None:
            return None
        return not is_true(value)
    raise ExecutionError(f"unknown unary operator {op}")


# AND / OR evaluate their right operand, ``right(*args)``, only when the
# left one does not decide.
def _and(left: object, right: Callable, *args) -> object:
    if left is not None and not is_true(left):
        return False
    right = right(*args)
    if right is not None and not is_true(right):
        return False
    if left is None or right is None:
        return None
    return True


def _or(left: object, right: Callable, *args) -> object:
    if left is not None and is_true(left):
        return True
    right = right(*args)
    if right is not None and is_true(right):
        return True
    if left is None or right is None:
        return None
    return False


def _binary(op: str, left: object, right: object) -> object:
    if op in ("+", "-", "*", "/", "%"):
        return _eval_arithmetic(op, left, right)
    if op in ("=", "<>", "<", "<=", ">", ">="):
        return _eval_comparison(op, left, right)
    if op in ("LIKE", "NOT LIKE"):
        if left is None or right is None:
            return None
        matched = _like_match(str(left), str(right))
        return matched if op == "LIKE" else not matched
    raise ExecutionError(f"unknown binary operator {op}")


def _eval_arithmetic(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    # String concatenation with '+', as in T-SQL.
    if op == "+" and (isinstance(left, str) or isinstance(right, str)):
        return _as_text(left) + _as_text(right)
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ExecutionError(
            f"arithmetic on incompatible values {left!r} {op} {right!r}"
        )
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    raise ExecutionError("division by zero")
                quotient = left // right
                # T-SQL integer division truncates toward zero.
                if quotient < 0 and left % right != 0:
                    quotient += 1
                return quotient
            return left / right
        if op == "%":
            if right == 0:
                raise ExecutionError("division by zero")
            return left - right * int(left / right)
    except ZeroDivisionError as exc:
        raise ExecutionError("division by zero") from exc
    raise ExecutionError(f"unknown arithmetic operator {op}")


def _eval_comparison(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    left, right = _harmonize(left, right)
    try:
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError as exc:
        raise ExecutionError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        ) from exc
    raise ExecutionError(f"unknown comparison operator {op}")


def _harmonize(left: object, right: object) -> tuple[object, object]:
    """Coerce mixed operand types the way the engine's comparisons expect."""
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if isinstance(left, (int, float)) and isinstance(right, str):
        try:
            right = float(right) if isinstance(left, float) else int(right)
        except ValueError:
            left = str(left)
    elif isinstance(right, (int, float)) and isinstance(left, str):
        try:
            left = float(left) if isinstance(right, float) else int(left)
        except ValueError:
            right = str(right)
    elif isinstance(left, _dt.datetime) and isinstance(right, str):
        from .types import parse_datetime

        right = parse_datetime(right)
    elif isinstance(right, _dt.datetime) and isinstance(left, str):
        from .types import parse_datetime

        left = parse_datetime(left)
    return left, right


def _between(value: object, low: object, high: object, negated: bool) -> object:
    if value is None or low is None or high is None:
        return None
    lower_ok = _eval_comparison(">=", value, low)
    upper_ok = _eval_comparison("<=", value, high)
    result = bool(lower_ok) and bool(upper_ok)
    return (not result) if negated else result


def _in(value: object, candidates, negated: bool) -> object:
    """SQL ``[NOT] IN`` over lazy ``candidates``, consumed only until one
    matches (and not at all when ``value`` is NULL)."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
            continue
        if _eval_comparison("=", value, candidate):
            return not negated
    if saw_null:
        return None
    return negated


def _subquery_column(select, env: RowEnvironment, ctx: EvalContext):
    """The values of an IN subquery's one column (runs on first pull)."""
    for row in _run_subquery(select, env, ctx):
        if len(row) != 1:
            raise ExecutionError("IN subquery must return one column")
        yield row[0]


def _run_subquery(select, env: RowEnvironment, ctx: EvalContext) -> list[tuple]:
    if ctx.run_subquery is None:
        raise ExecutionError("subqueries are not available in this context")
    return ctx.run_subquery(select, env)


def _like_match(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards and ``[set]`` classes."""
    regex_parts: list[str] = []
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if char == "%":
            regex_parts.append(".*")
        elif char == "_":
            regex_parts.append(".")
        elif char == "[":
            end = pattern.find("]", index)
            if end == -1:
                regex_parts.append(re.escape(char))
            else:
                inner = pattern[index + 1 : end]
                if inner.startswith("^"):
                    regex_parts.append(f"[^{re.escape(inner[1:])}]")
                else:
                    regex_parts.append(f"[{re.escape(inner)}]")
                index = end
        else:
            regex_parts.append(re.escape(char))
        index += 1
    return re.fullmatch("".join(regex_parts), value, re.IGNORECASE) is not None


# ----------------------------------------------------------------------
# scalar builtins


def _as_text(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, _dt.datetime):
        from .types import format_datetime

        return format_datetime(value)
    return str(value)


def _function_handler(name: str, ctx: EvalContext) -> Callable:
    if name in AGGREGATE_FUNCTIONS:
        raise ExecutionError(
            f"aggregate function {name}() is only valid in a select list "
            "or HAVING clause"
        )
    handler = ctx.functions.get(name)
    if handler is None:
        raise ExecutionError(f"unknown function {name}()")
    return handler


def _function_args(expr: FunctionCall) -> tuple[list[str], tuple]:
    """``(keyword arguments, evaluated argument trees)`` of a call."""
    arg_exprs = expr.args
    if (
        expr.name in ("convert", "datediff", "dateadd", "datename")
        and arg_exprs
        and isinstance(arg_exprs[0], ColumnRef)
        and len(arg_exprs[0].parts) == 1
    ):
        # convert(varchar, x) / datediff(minute, a, b): the first argument
        # is a type or datepart keyword, which the parser necessarily read
        # as a column reference.
        return [arg_exprs[0].describe()], arg_exprs[1:]
    return [], arg_exprs


def compute_aggregate(call: FunctionCall, values: list) -> object:
    """Evaluate one aggregate call over its argument values, one per
    group member in binding order (``count(*)`` counts the entries)."""
    name = call.name
    if call.star:
        if name != "count":
            raise ExecutionError(f"{name}(*) is not valid")
        return len(values)
    if len(call.args) != 1:
        raise ExecutionError(f"aggregate {name}() takes exactly one argument")
    values = [value for value in values if value is not None]
    if call.distinct:
        seen: list[object] = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)  # type: ignore[arg-type]
    if name == "avg":
        total = sum(values)  # type: ignore[arg-type]
        return total / len(values)
    if name == "min":
        return min(values)  # type: ignore[type-var]
    if name == "max":
        return max(values)  # type: ignore[type-var]
    raise ExecutionError(f"unknown aggregate {name}()")
