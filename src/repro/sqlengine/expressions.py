"""Expression AST nodes for the SQL dialect.

The evaluator lives in :mod:`repro.sqlengine.evaluator`; these classes are
plain dataclasses so they can be constructed by tests and by the agent's
code generator as well as by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .statements import SelectStatement


class Expression:
    """Base class for all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, or NULL (``value is None``)."""

    value: object


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A possibly-qualified column reference.

    ``parts`` holds the dotted components as written, e.g.
    ``["stock", "price"]`` or ``["sentineldb", "sharma", "stock", "price"]``.
    The final component is the column name; any prefix identifies the table.
    """

    parts: tuple[str, ...]

    @property
    def column_name(self) -> str:
        return self.parts[-1]

    @property
    def qualifier(self) -> tuple[str, ...]:
        return self.parts[:-1]

    def describe(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class VariableRef(Expression):
    """A ``@local`` variable or procedure parameter reference."""

    name: str  # includes the leading '@'


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary minus or logical NOT."""

    op: str  # '-' or 'NOT'
    operand: Expression


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison, LIKE, or logical AND/OR."""

    op: str  # '+', '-', '*', '/', '%', '=', '<>', '<', '<=', '>', '>=',
    # 'AND', 'OR', 'LIKE', 'NOT LIKE'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A builtin or aggregate call, e.g. ``getdate()`` or ``count(*)``."""

    name: str  # lowercased
    args: tuple[Expression, ...] = ()
    star: bool = False      # count(*)
    distinct: bool = False  # count(distinct x)


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class Exists(Expression):
    """``EXISTS (SELECT ...)``."""

    subquery: "SelectStatement"


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """A parenthesized SELECT used as a scalar value."""

    subquery: "SelectStatement"


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``alias.*`` in a select list."""

    qualifier: tuple[str, ...] = ()


@dataclass(frozen=True)
class CaseExpr(Expression):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``.

    With an ``operand``, each WHEN is compared for equality against it
    (simple CASE); without, each WHEN is a boolean condition (searched
    CASE).
    """

    whens: tuple[tuple[Expression, Expression], ...]
    operand: Expression | None = None
    default: Expression | None = None


#: Aggregate function names recognized by the executor.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


def contains_aggregate(expr: Expression) -> bool:
    """Whether the expression tree contains an aggregate call."""
    return bool(aggregate_calls(expr))


def aggregate_calls(expr: Expression) -> list:
    """The aggregate calls in an expression tree, left to right (not
    descending into an aggregate's own arguments or subqueries)."""
    if isinstance(expr, (ColumnRef, Literal)):
        return []
    children: tuple = ()
    if isinstance(expr, FunctionCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return [expr]
        children = tuple(expr.args)
    elif isinstance(expr, UnaryOp):
        children = (expr.operand,)
    elif isinstance(expr, BinaryOp):
        children = (expr.left, expr.right)
    elif isinstance(expr, InList):
        children = (expr.operand, *expr.items)
    elif isinstance(expr, Between):
        children = (expr.operand, expr.low, expr.high)
    elif isinstance(expr, IsNull):
        children = (expr.operand,)
    elif isinstance(expr, CaseExpr):
        children = (expr.operand, *(part for pair in expr.whens
                                    for part in pair), expr.default)
    return [call for child in children if child is not None
            for call in aggregate_calls(child)]
