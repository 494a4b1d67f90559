"""Cost-based planner: lower a parsed statement into an operator DAG.

Every SELECT, UPDATE and DELETE gets an explicit plan — Scan/IndexScan,
Join, Filter, Aggregate, Sort, Project, Limit, and the write operators
— produced once per statement and reused across executions via the plan
memo in :class:`~repro.sqlengine.plancache.PlanCache`.  The semantics a
plan must preserve are those of a plain nested loop over the FROM
tables with the full WHERE checked per combination; that loop lives on
as the differential oracle, :mod:`repro.difftest.sqlref`.

Optimizer rules applied during lowering:

- **constant folding** — pure literal arithmetic/comparisons collapse to
  literals; a WHERE that folds false short-circuits the whole scan.
- **predicate pushdown** — single-source, subquery-free conjuncts move
  below the joins into their scan; ORs spanning tables, subqueries, and
  outer (correlated) references stay in the residual filter.
- **index selection** — equality / IN-list / join-probe rules over the
  WHERE's top-level conjuncts, each counted in ``index_scans``.
- **join ordering** — greedy order over live per-table cardinalities:
  smallest effective input first, then whichever remaining table has an
  equi-join edge to the tables already placed.

Plans are *logical* and session-safe: they hold table keys, column
names, and expression references — never ``Table`` objects or column
indexes — so a memoized plan re-binds cleanly inside triggers (pseudo
tables), across sessions, and across owner-qualified resolutions.  (The
closures a hot plan compiles do hold column slots; the table keys they
were compiled under include every source's column names.)  The
executing side (:mod:`repro.sqlengine.dagexec`) re-validates every index
hint against the runtime table and degrades gracefully when an index is
gone, keeping staleness a performance matter, never correctness.

Output order: unsorted output is FROM-order cross-product order, no
matter how the joins were reordered.  Every scan tags candidates with
their enumeration ordinal, and the DAG executor sorts surviving
bindings on the FROM-position ordinal tuple — so DISTINCT, TOP,
grouping, and unsorted SELECTs do not depend on the join order chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .evaluator import EvalContext, RowEnvironment, evaluate, is_true
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
    contains_aggregate,
)
from .statements import SelectStatement, UpdateStatement

__all__ = [
    "AggregateOp",
    "DeleteOp",
    "DmlPlan",
    "FilterOp",
    "IndexHint",
    "InsertOp",
    "JoinOp",
    "JoinSpec",
    "LimitOp",
    "Lowered",
    "ProjectOp",
    "ScanOp",
    "SelectPlan",
    "SortOp",
    "ValuesOp",
    "describe_expr",
    "fold_constants",
    "is_grouped",
    "plan_dml",
    "plan_select",
    "render_plan",
]

#: Textbook selectivity factors for cardinality estimates.  They only
#: steer join ordering and EXPLAIN output — never correctness.
_SELECTIVITY = {"eq": 0.1, "in": 0.25, "range": 0.4, "other": 0.6}
_RANGE_OPS = {"<", ">", "<=", ">="}

#: Canonical type name -> comparison family.  A hash join is only exact
#: (same matches as SQL ``=``) when both join columns share a family;
#: a cross-family edge is never hashed (its conjunct stays residual).
_TYPE_FAMILIES = {
    "int": "num", "float": "num", "bit": "num",
    "varchar": "str", "char": "str", "text": "str",
    "datetime": "dt",
}


# ----------------------------------------------------------------------
# plan nodes (the operator DAG)


@dataclass(frozen=True)
class IndexHint:
    """A static index narrowing chosen at plan time.

    ``kind`` is ``eq`` (one row-free value) or ``in`` (the IN-list
    items); ``exprs`` are evaluated fresh each execution.  The hint is
    re-validated at runtime: a missing index degrades to a full scan.
    """

    kind: str
    column: str
    exprs: tuple
    index_name: str


@dataclass(frozen=True)
class JoinSpec:
    """How a scan joins the tables already placed before it.

    ``strategy`` is ``probe`` (index bucket lookup per outer binding)
    or ``hash`` (build a hash table over this scan's candidates, probe
    with the outer side's value).  ``same_family``
    records whether both columns share a comparison type family, which
    is what licenses the hash fallback when a probe's index is gone.
    """

    strategy: str
    outer_position: int
    inner_expr: Expression
    outer_expr: Expression
    probe_column: str | None
    same_family: bool
    accounted: bool


@dataclass(frozen=True)
class ScanOp:
    """One FROM-clause input: a full scan or an index-narrowed scan."""

    position: int
    name: str
    alias: str | None
    pushed: tuple
    hint: IndexHint | None
    join: JoinSpec | None
    base_rows: int
    estimate: float

    def describe(self) -> str:
        """One EXPLAIN line for this scan."""
        label = self.name + (f" as {self.alias}" if self.alias else "")
        if self.hint is not None:
            if self.hint.kind == "eq":
                detail = (f"{self.hint.column} = "
                          f"{describe_expr(self.hint.exprs[0])}")
            else:
                items = ", ".join(describe_expr(e) for e in self.hint.exprs)
                detail = f"{self.hint.column} in ({items})"
            head = (f"IndexScan {label} "
                    f"(index {self.hint.index_name}: {detail})")
        else:
            head = f"Scan {label}"
        if self.pushed:
            preds = " and ".join(describe_expr(p) for p in self.pushed)
            head += f" pushed=[{preds}]"
        return f"{head} (~{self.estimate:.0f} of {self.base_rows} rows)"


@dataclass(frozen=True)
class JoinOp:
    """Join of everything planned so far (``outer``) with one scan."""

    outer: object
    scan: ScanOp
    estimate: float

    def describe(self) -> str:
        """One EXPLAIN line for this join."""
        spec = self.scan.join
        if spec is None:
            return f"Join [nested cross] (~{self.estimate:.0f} rows)"
        cond = (f"{describe_expr(spec.outer_expr)} = "
                f"{describe_expr(spec.inner_expr)}")
        if spec.strategy == "probe":
            return (f"Join [index probe on {spec.probe_column}: {cond}] "
                    f"(~{self.estimate:.0f} rows)")
        return f"Join [hash: {cond}] (~{self.estimate:.0f} rows)"


@dataclass(frozen=True)
class FilterOp:
    """The residual predicate: conjuncts pushdown could not claim."""

    child: object
    predicates: tuple
    estimate: float

    def describe(self) -> str:
        """One EXPLAIN line for the residual filter."""
        preds = " and ".join(describe_expr(p) for p in self.predicates)
        return f"Filter [{preds}] (~{self.estimate:.0f} rows)"


@dataclass(frozen=True)
class AggregateOp:
    """GROUP BY / aggregate-function evaluation over the join output."""

    child: object
    group_by: tuple
    having: Expression | None

    def describe(self) -> str:
        """One EXPLAIN line for the aggregation."""
        parts = []
        if self.group_by:
            keys = ", ".join(describe_expr(e) for e in self.group_by)
            parts.append(f"group by {keys}")
        if self.having is not None:
            parts.append(f"having {describe_expr(self.having)}")
        detail = "; ".join(parts) or "scalar aggregates"
        return f"Aggregate [{detail}]"


@dataclass(frozen=True)
class SortOp:
    """ORDER BY over the (projected) result rows."""

    child: object
    order_by: tuple

    def describe(self) -> str:
        """One EXPLAIN line for the sort."""
        keys = ", ".join(
            describe_expr(item.expr) + ("" if item.ascending else " desc")
            for item in self.order_by)
        return f"Sort [{keys}]"


@dataclass(frozen=True)
class ProjectOp:
    """The select list (with the DISTINCT flag, applied after sorting)."""

    child: object
    columns: tuple
    distinct: bool

    def describe(self) -> str:
        """One EXPLAIN line for the projection."""
        cols = ", ".join(self.columns) or "*"
        head = "Project [distinct]" if self.distinct else "Project"
        return f"{head} [{cols}]"


@dataclass(frozen=True)
class LimitOp:
    """TOP n, applied last (after DISTINCT and ORDER BY)."""

    child: object
    top: int

    def describe(self) -> str:
        """One EXPLAIN line for the row limit."""
        return f"Limit [{self.top}]"


@dataclass(frozen=True)
class ValuesOp:
    """Literal VALUES rows feeding an INSERT."""

    row_count: int

    def describe(self) -> str:
        """One EXPLAIN line for the VALUES input."""
        return f"Values [{self.row_count} rows]"


@dataclass(frozen=True)
class InsertOp:
    """INSERT write operator over a Values or select subtree."""

    child: object
    table: str
    columns: tuple

    def describe(self) -> str:
        """One EXPLAIN line for the insert."""
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        return f"Insert {self.table}{cols}"


@dataclass(frozen=True)
class UpdateOp:
    """UPDATE write operator over a filtered scan."""

    child: object
    table: str
    columns: tuple

    def describe(self) -> str:
        """One EXPLAIN line for the update."""
        return f"Update {self.table} set [{', '.join(self.columns)}]"


@dataclass(frozen=True)
class DeleteOp:
    """DELETE write operator over a filtered scan."""

    child: object
    table: str

    def describe(self) -> str:
        """One EXPLAIN line for the delete."""
        return f"Delete {self.table}"


@dataclass
class SelectPlan:
    """An optimized SELECT: the operator tree plus the executable shape.

    ``steps`` lists the scans in chosen join order; ``residual`` holds
    the conjuncts every surviving binding is still checked against
    (everything but pushed predicates and exact hash-join edges, so
    index narrowing can only ever *skip* work, never change answers).
    ``compiled`` is the plan's :class:`Lowered` closures, filled once on
    its first memo hit; until then every execution interprets.
    """

    statement: object
    epoch: int
    table_keys: tuple
    order: tuple
    steps: tuple
    residual: tuple
    empty: bool
    root: object = None
    compiled: "Lowered | None" = None

    @property
    def reordered(self) -> bool:
        """True when the join order differs from FROM order."""
        return self.order != tuple(range(len(self.order)))


class Lowered(NamedTuple):
    """A SELECT's per-row expressions as callables ``fn(env, ctx)``:
    per scan in :attr:`SelectPlan.steps` a ``(pushed, hint values,
    (inner, outer) join keys or None)`` triple, the residual, the
    select list (``expanded``: ``*`` expanded into ``(expr, name)``
    pairs), the GROUP BY keys, and the argument of each aggregate call
    in ``calls``."""

    steps: list
    residual: list
    expanded: list
    items: list
    group_by: list
    calls: list
    arguments: list


@dataclass
class DmlPlan:
    """An optimized single-table UPDATE/DELETE: hint + write operator."""

    statement: object
    epoch: int
    table_keys: tuple
    hint: IndexHint | None
    root: object = None


# ----------------------------------------------------------------------
# expression utilities

_FOLD_CTX = EvalContext(session=None, variables={}, run_subquery=None,
                        functions=None)


def _is_pure(expr: Expression) -> bool:
    """True for expressions built only from literals and operators —
    the only shapes constant folding may evaluate at plan time."""
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, UnaryOp):
        return _is_pure(expr.operand)
    if isinstance(expr, BinaryOp):
        return _is_pure(expr.left) and _is_pure(expr.right)
    return False


def fold_constants(expr: Expression) -> Expression:
    """Collapse pure literal subtrees to literals, bottom-up.

    Anything that could differ per execution — variables, functions,
    column references, subqueries — is left untouched, as is any pure
    subtree whose evaluation raises (the error must keep surfacing at
    execution time, per row, as unoptimized evaluation would).  A
    short-circuit rewrite handles ``false AND x`` / ``true OR x`` even
    when ``x`` is not foldable, mirroring the evaluator's 3VL.
    """
    if isinstance(expr, UnaryOp):
        folded = UnaryOp(expr.op, fold_constants(expr.operand))
        return _try_fold(folded)
    if isinstance(expr, BinaryOp):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        folded = BinaryOp(expr.op, left, right)
        op = expr.op.upper()
        if op in ("AND", "OR") and isinstance(left, Literal):
            try:
                truth = left.value is not None and is_true(left.value)
            except Exception:
                return folded
            if op == "AND" and left.value is not None and not truth:
                return Literal(False)
            if op == "OR" and truth:
                return Literal(True)
            return folded
        return _try_fold(folded)
    return expr


def _try_fold(expr: Expression) -> Expression:
    """Evaluate a rebuilt operator node if it is pure; keep it if not
    (or if evaluating raises)."""
    if not _is_pure(expr):
        return expr
    try:
        return Literal(evaluate(expr, RowEnvironment([]), _FOLD_CTX))
    except Exception:
        return expr


def describe_expr(expr: Expression) -> str:
    """A compact, stable rendering of an expression for EXPLAIN text."""
    if isinstance(expr, Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, str):
            return f"'{expr.value}'"
        return str(expr.value)
    if isinstance(expr, ColumnRef):
        return ".".join(expr.parts)
    if isinstance(expr, VariableRef):
        return expr.name
    if isinstance(expr, Star):
        return ".".join(expr.qualifier) + ".*" if expr.qualifier else "*"
    if isinstance(expr, UnaryOp):
        joint = "" if expr.op == "-" else " "
        return f"{expr.op.lower()}{joint}{describe_expr(expr.operand)}"
    if isinstance(expr, BinaryOp):
        left, right = describe_expr(expr.left), describe_expr(expr.right)
        if isinstance(expr.left, BinaryOp):
            left = f"({left})"
        if isinstance(expr.right, BinaryOp):
            right = f"({right})"
        return f"{left} {expr.op.lower()} {right}"
    if isinstance(expr, FunctionCall):
        if expr.star:
            return f"{expr.name}(*)"
        args = ", ".join(describe_expr(a) for a in expr.args)
        prefix = "distinct " if expr.distinct else ""
        return f"{expr.name}({prefix}{args})"
    if isinstance(expr, InList):
        items = ", ".join(describe_expr(i) for i in expr.items)
        joint = "not in" if expr.negated else "in"
        return f"{describe_expr(expr.operand)} {joint} ({items})"
    if isinstance(expr, InSubquery):
        joint = "not in" if expr.negated else "in"
        return f"{describe_expr(expr.operand)} {joint} (subquery)"
    if isinstance(expr, Between):
        return (f"{describe_expr(expr.operand)} between "
                f"{describe_expr(expr.low)} and {describe_expr(expr.high)}")
    if isinstance(expr, IsNull):
        tail = "is not null" if expr.negated else "is null"
        return f"{describe_expr(expr.operand)} {tail}"
    if isinstance(expr, Exists):
        return "exists (subquery)"
    if isinstance(expr, ScalarSubquery):
        return "(subquery)"
    if isinstance(expr, CaseExpr):
        return "case ... end"
    return type(expr).__name__.lower()


_SUBQUERY_NODES = (ScalarSubquery, InSubquery, Exists)


def _conjunct_info(conjunct: Expression, sources, env) -> tuple:
    """Classify one WHERE conjunct: ``(positions, pushable)``.

    ``positions`` are the inner FROM positions it references; a conjunct
    is only pushable when every reference resolves to exactly one inner
    source and it contains no subquery and no side-effecting function
    call (``syb_sendmsg`` — its datagram count is observable).  Outer
    (correlated) and unresolvable references make it residual-only, so
    any resolution error still surfaces during execution.
    """
    positions: set[int] = set()
    pushable = True

    def visit(node) -> None:
        nonlocal pushable
        if isinstance(node, _SUBQUERY_NODES):
            pushable = False
            return
        if isinstance(node, FunctionCall):
            if node.name.lower() == "syb_sendmsg":
                pushable = False
            for arg in node.args:
                visit(arg)
            return
        if isinstance(node, ColumnRef):
            try:
                source, _index = env.resolve(node)
            except Exception:
                pushable = False
                return
            for position, candidate in enumerate(sources):
                if candidate is source:
                    positions.add(position)
                    return
            pushable = False  # resolved into an outer query's sources
            return
        if isinstance(node, BinaryOp):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, UnaryOp):
            visit(node.operand)
        elif isinstance(node, InList):
            visit(node.operand)
            for item in node.items:
                visit(item)
        elif isinstance(node, Between):
            visit(node.operand)
            visit(node.low)
            visit(node.high)
        elif isinstance(node, IsNull):
            visit(node.operand)
        elif isinstance(node, CaseExpr):
            if node.operand is not None:
                visit(node.operand)
            for when, then in node.whens:
                visit(when)
                visit(then)
            if node.default is not None:
                visit(node.default)
        elif isinstance(node, Star):
            pushable = False

    visit(conjunct)
    return positions, pushable


def _column_family(column: ColumnRef, env) -> str | None:
    """The comparison type family of a resolved column, or None."""
    try:
        source, index = env.resolve(column)
    except Exception:
        return None
    return _TYPE_FAMILIES.get(source.schema.columns[index].sql_type.name)


def _selectivity(conjunct: Expression) -> float:
    """Selectivity factor of one pushed conjunct (estimates only)."""
    if isinstance(conjunct, BinaryOp):
        if conjunct.op == "=":
            return _SELECTIVITY["eq"]
        if conjunct.op in _RANGE_OPS:
            return _SELECTIVITY["range"]
    if isinstance(conjunct, InList) and not conjunct.negated:
        return _SELECTIVITY["in"]
    if isinstance(conjunct, Between):
        return _SELECTIVITY["range"]
    return _SELECTIVITY["other"]


# ----------------------------------------------------------------------
# planning


@dataclass
class _Draft:
    """Mutable per-position working state while planning a SELECT."""

    pushed: list = field(default_factory=list)
    hint: IndexHint | None = None
    probe: tuple | None = None  # (column, other_position, other_expr,
    #                              own_expr, index_name, same_family)


def plan_select(statement, sources, tables, table_keys: tuple, env,
                epoch: int) -> SelectPlan:
    """Lower one SELECT into an optimized :class:`SelectPlan`.

    Planning happens at execution time (tables must be resolved to see
    schemas, indexes, and live cardinalities) and the result is memoized
    by the plan cache, keyed on statement identity + schema epoch +
    the per-position table keys.  A variable-assignment SELECT
    (:class:`~repro.sqlengine.statements.AssignSelect`) plans the same
    way; having no select list, its tree stops at the residual filter.
    """
    n = len(sources)
    conjuncts = [fold_constants(c) for c in _conjuncts(statement.where)]

    drafts = [_Draft() for _ in range(n)]
    edges: list[tuple] = []
    residual: list[Expression] = []
    empty = False

    for conjunct in conjuncts:
        if isinstance(conjunct, Literal):
            try:
                if conjunct.value is not None and is_true(conjunct.value):
                    continue  # folded true: drop entirely
            except Exception:
                residual.append(conjunct)
                continue
            empty = True  # folded false/NULL: no row can qualify
            continue
        positions, pushable = _conjunct_info(conjunct, sources, env)
        if pushable and len(positions) == 1:
            drafts[positions.pop()].pushed.append(conjunct)
        else:
            residual.append(conjunct)
            if (isinstance(conjunct, BinaryOp) and conjunct.op == "="
                    and isinstance(conjunct.left, ColumnRef)
                    and isinstance(conjunct.right, ColumnRef)
                    and len(positions) == 2 and pushable is not False):
                left_pos = _position_of(conjunct.left, sources, env)
                right_pos = _position_of(conjunct.right, sources, env)
                if (left_pos is not None and right_pos is not None
                        and left_pos != right_pos):
                    family_l = _column_family(conjunct.left, env)
                    family_r = _column_family(conjunct.right, env)
                    same = (family_l is not None and family_l == family_r)
                    edges.append((left_pos, conjunct.left,
                                  right_pos, conjunct.right, same,
                                  conjunct))

    _choose_index_hints(conjuncts, sources, tables, env, drafts)

    # Greedy join order from live cardinalities: cheapest effective
    # input first, then prefer tables connected to what's placed.
    estimates = [
        _scan_estimate(len(tables[p].rows), drafts[p]) for p in range(n)]
    order: list[int] = []
    remaining = set(range(n))
    while remaining:
        if not order:
            pick = min(remaining, key=lambda p: (estimates[p], p))
        else:
            placed = set(order)

            def score(p: int) -> tuple:
                connected = any(
                    (a in placed and b == p) or (b in placed and a == p)
                    for a, _el, b, _er, _s, _c in edges
                ) or (drafts[p].probe is not None
                      and drafts[p].probe[1] in placed)
                return (0 if connected else 1, estimates[p], p)

            pick = min(remaining, key=score)
        order.append(pick)
        remaining.discard(pick)

    # Build the scan steps in join order, attaching join specs.
    steps: list[ScanOp] = []
    consumed_edges: set[int] = set()
    running = 1.0
    outer_node = None
    for position in order:
        draft = drafts[position]
        placed = {step.position for step in steps}
        spec = _join_spec(draft, position, placed, edges, consumed_edges)
        ref = statement.tables[position]
        estimate = max(1.0, estimates[position])
        scan = ScanOp(
            position=position,
            name=ref.name.describe(),
            alias=ref.alias,
            pushed=tuple(draft.pushed),
            hint=draft.hint,
            join=spec,
            base_rows=len(tables[position].rows),
            estimate=estimate,
        )
        if outer_node is None:
            running = estimate
            outer_node = scan
        else:
            running = max(1.0, running * estimate *
                          (_SELECTIVITY["eq"] if spec is not None else 1.0))
            outer_node = JoinOp(outer=outer_node, scan=scan,
                                estimate=running)
        steps.append(scan)

    # Drop residual conjuncts fully accounted for by exact hash joins.
    final_residual = tuple(
        c for c in residual if id(c) not in consumed_edges)

    node = outer_node
    if final_residual and node is not None:
        node = FilterOp(child=node, predicates=final_residual,
                        estimate=max(1.0, running * _SELECTIVITY["other"]))
    if isinstance(statement, SelectStatement):
        node = _output_ops(statement, node)

    return SelectPlan(
        statement=statement,
        epoch=epoch,
        table_keys=table_keys,
        order=tuple(order),
        steps=tuple(steps),
        residual=final_residual,
        empty=empty,
        root=node,
    )


def is_grouped(statement: SelectStatement) -> bool:
    """Whether a SELECT aggregates: GROUP BY, HAVING, or an aggregate
    call in the select list."""
    return bool(statement.group_by) or statement.having is not None or any(
        contains_aggregate(item.expr) for item in statement.items)


def _output_ops(statement: SelectStatement, node):
    """Stack the operators above the binding stream — Aggregate, Sort,
    Project, Limit — in the order the executor applies them."""
    if is_grouped(statement):
        node = AggregateOp(child=node, group_by=tuple(statement.group_by),
                           having=statement.having)
    if statement.order_by:
        node = SortOp(child=node, order_by=tuple(statement.order_by))
    node = ProjectOp(
        child=node,
        columns=tuple(
            _item_label(item) for item in statement.items),
        distinct=statement.distinct,
    )
    if statement.top is not None:
        node = LimitOp(child=node, top=statement.top)
    return node


def _join_spec(draft: _Draft, position: int, placed: set, edges: list,
               consumed_edges: set) -> JoinSpec | None:
    """Pick the join strategy for one scan given what's already placed.

    The index probe wins when its outer side is placed (one
    ``index_scans`` count, candidates in bucket order); otherwise the
    first same-family equi-edge becomes a hash join, whose conjunct is
    *exact* (same matches as ``=``) and leaves the residual.
    """
    if draft.probe is not None and draft.probe[1] in placed:
        column, other_pos, other_expr, own_expr, _name, same = draft.probe
        return JoinSpec(strategy="probe", outer_position=other_pos,
                        inner_expr=own_expr, outer_expr=other_expr,
                        probe_column=column, same_family=same,
                        accounted=False)
    for left_pos, left_expr, right_pos, right_expr, same, conjunct in edges:
        if not same:
            continue
        own, other = None, None
        if left_pos == position and right_pos in placed:
            own, other, other_pos = left_expr, right_expr, right_pos
        elif right_pos == position and left_pos in placed:
            own, other, other_pos = right_expr, left_expr, left_pos
        if own is None:
            continue
        consumed_edges.add(id(conjunct))
        return JoinSpec(strategy="hash", outer_position=other_pos,
                        inner_expr=own, outer_expr=other,
                        probe_column=None, same_family=True,
                        accounted=True)
    return None


def _choose_index_hints(conjuncts, sources, tables, env, drafts) -> None:
    """Index selection over the WHERE's top-level conjuncts.

    First matching conjunct wins, at most one hint per position:
    ``col = <row-free expr>`` and ``col IN (<row-free exprs>)`` over an
    indexed column become static :class:`IndexHint` scans; an equi-join
    conjunct ``a.x = b.y`` whose later-in-FROM side is indexed becomes
    a probe.  Each hint comes from one conjunct and every candidate is
    still checked against the rest of the WHERE, so an index only skips
    rows that cannot satisfy that conjunct.
    """
    hinted: set[int] = set()
    for conjunct in conjuncts:
        if isinstance(conjunct, InList) and not conjunct.negated:
            if any(_expr_has_columns(item) for item in conjunct.items):
                continue
            resolved = _indexed_position(
                conjunct.operand, sources, tables, env, hinted)
            if resolved is None:
                continue
            position, table_index = resolved
            drafts[position].hint = IndexHint(
                kind="in", column=conjunct.operand.column_name,
                exprs=tuple(conjunct.items),
                index_name=table_index.name)
            hinted.add(position)
            continue
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            resolved_left = _indexed_position(
                left, sources, tables, env, set())
            resolved_right = _indexed_position(
                right, sources, tables, env, set())
            best = None
            for own, other, own_expr in ((resolved_right, left, right),
                                         (resolved_left, right, left)):
                if own is None:
                    continue
                position, table_index = own
                if position in hinted:
                    continue
                other_source = _position_of(other, sources, env)
                if other_source is None or other_source >= position:
                    continue
                best = (position, table_index, other, own_expr)
                break
            if best is None:
                continue
            position, table_index, probe_expr, own_expr = best
            family_own = _column_family(own_expr, env)
            family_other = _column_family(probe_expr, env)
            drafts[position].probe = (
                own_expr.column_name, _position_of(probe_expr, sources, env),
                probe_expr, own_expr, table_index.name,
                family_own is not None and family_own == family_other)
            hinted.add(position)
            continue
        for column_side, value_side in ((left, right), (right, left)):
            if _expr_has_columns(value_side):
                continue
            resolved = _indexed_position(
                column_side, sources, tables, env, hinted)
            if resolved is None:
                continue
            position, table_index = resolved
            drafts[position].hint = IndexHint(
                kind="eq", column=column_side.column_name,
                exprs=(value_side,), index_name=table_index.name)
            hinted.add(position)
            break


def _indexed_position(column, sources, tables, env,
                      taken: set) -> tuple | None:
    """``(position, index)`` when a column reference binds to a not yet
    hinted inner source whose table has an index on that column."""
    position = _position_of(column, sources, env)
    if position is None or position in taken:
        return None
    table_index = tables[position].index_on(column.column_name)
    if table_index is None:
        return None
    return position, table_index


def _position_of(column, sources, env) -> int | None:
    """The inner FROM position a column reference binds to, or None."""
    if not isinstance(column, ColumnRef):
        return None
    try:
        source, _column_index = env.resolve(column)
    except Exception:
        return None
    for position, candidate in enumerate(sources):
        if candidate is source:
            return position
    return None


def _scan_estimate(base_rows: int, draft: _Draft) -> float:
    """Effective input size after hints and pushed predicates."""
    estimate = float(base_rows)
    if draft.hint is not None:
        estimate *= _SELECTIVITY[draft.hint.kind]
    for conjunct in draft.pushed:
        estimate *= _selectivity(conjunct)
    return max(1.0, estimate)


def _item_label(item) -> str:
    """Display label for one select-list item in EXPLAIN output."""
    if item.alias:
        return item.alias
    return describe_expr(item.expr)


def plan_dml(statement, source, table, table_keys, env,
             epoch: int) -> DmlPlan:
    """Plan a single-table UPDATE or DELETE: the write operator over a
    (possibly index-narrowed) scan.  Candidate selection is all the
    plan decides; the executor applies the rows (triggers, tx-log,
    unique re-checks) and re-checks the full WHERE per candidate."""
    where = statement.where
    conjuncts = [fold_constants(c) for c in _conjuncts(where)]
    drafts = [_Draft()]
    _choose_index_hints(conjuncts, [source], [table], env, drafts)
    draft = drafts[0]
    base = len(table.rows)
    scan = ScanOp(
        position=0, name=statement.table.describe(), alias=None,
        pushed=(), hint=draft.hint, join=None, base_rows=base,
        estimate=_scan_estimate(base, draft))
    node: object = scan
    if where is not None:
        node = FilterOp(child=node, predicates=(where,),
                        estimate=max(1.0, scan.estimate *
                                     _SELECTIVITY["other"]))
    if isinstance(statement, UpdateStatement):
        node = UpdateOp(
            child=node, table=statement.table.describe(),
            columns=tuple(column for column, _ in statement.assignments))
    else:
        node = DeleteOp(child=node, table=statement.table.describe())
    return DmlPlan(statement=statement, epoch=epoch, table_keys=table_keys,
                   hint=draft.hint, root=node)


# ----------------------------------------------------------------------
# rendering


def render_plan(root, indent: int = 0) -> list[str]:
    """The indented EXPLAIN lines for an operator tree, root first."""
    if root is None:
        return []
    lines = [("  " * indent) + root.describe()]
    if isinstance(root, JoinOp):
        lines.extend(render_plan(root.outer, indent + 1))
        lines.extend(render_plan(root.scan, indent + 1))
        return lines
    child = getattr(root, "child", None)
    if child is not None:
        lines.extend(render_plan(child, indent + 1))
    return lines


def _conjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten top-level ANDs into a conjunct list (empty for None)."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _expr_has_columns(expr: Expression) -> bool:
    """True when an expression references any column (subqueries are
    conservatively treated as row-dependent)."""
    if isinstance(expr, ColumnRef):
        return True
    if isinstance(expr, _SUBQUERY_NODES):
        return True
    if isinstance(expr, BinaryOp):
        return _expr_has_columns(expr.left) or _expr_has_columns(expr.right)
    if isinstance(expr, UnaryOp):
        return _expr_has_columns(expr.operand)
    if isinstance(expr, FunctionCall):
        return expr.star or any(_expr_has_columns(a) for a in expr.args)
    if isinstance(expr, InList):
        return _expr_has_columns(expr.operand) or any(
            _expr_has_columns(i) for i in expr.items)
    if isinstance(expr, Between):
        return (_expr_has_columns(expr.operand)
                or _expr_has_columns(expr.low)
                or _expr_has_columns(expr.high))
    if isinstance(expr, IsNull):
        return _expr_has_columns(expr.operand)
    if isinstance(expr, CaseExpr):
        parts = [expr.operand, expr.default]
        for when, then in expr.whens:
            parts.extend((when, then))
        return any(p is not None and _expr_has_columns(p) for p in parts)
    if isinstance(expr, Star):
        return True
    return False
