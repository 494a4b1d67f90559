"""Compiled expression closures: equal to the interpreter, compiled once.

A memoised SELECT plan lowers its per-row expressions into closures on
its first memo hit (``evaluator.compile_expr``); every other execution
interprets.  These tests pin that the closures answer exactly what
``evaluate`` answers — values and errors — and when compiling happens.
"""

from __future__ import annotations

import datetime as dt
import sys
import threading
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.agent import EcaAgent
from repro.sqlengine import SqlServer
from repro.sqlengine import executor as executor_module
from repro.sqlengine.builtins import standard_functions
from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.evaluator import (
    EvalContext,
    RowEnvironment,
    RowSource,
    compile_expr,
    evaluate,
)
from repro.sqlengine.expressions import (
    Between,
    BinaryOp,
    CaseExpr,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    VariableRef,
)
from repro.sqlengine.schema import Column, TableSchema
from repro.sqlengine.types import SqlType

# ----------------------------------------------------------------------
# property: compile_expr(e, env)(env, ctx) == evaluate(e, env, ctx)

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.floats(width=32),
    st.sampled_from(["0", "2", "2.5", "abc", "A%", "", "1999-01-01"]),
    st.datetimes(min_value=dt.datetime(1990, 1, 1),
                 max_value=dt.datetime(2030, 1, 1)),
)
rows = st.none() | st.lists(values, min_size=2, max_size=2)

#: ``a(x, y)`` and ``b(y, z)``: ``y`` is ambiguous, ``w`` and ``c.x``
#: unknown, the rest resolve to exactly one source.
columns = st.sampled_from([
    ("x",), ("a", "y"), ("b", "y"), ("z",), ("b", "z"), ("y",), ("w",),
    ("c", "x"),
]).map(ColumnRef)
leaves = st.one_of(
    values.map(Literal),
    st.sampled_from([None, True, False]).map(Literal),  # three-valued logic
    columns,
    st.sampled_from(["@v", "@@rowcount", "@missing"]).map(VariableRef),
)
binary_ops = st.sampled_from([
    "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
    "LIKE", "NOT LIKE",
])
functions = st.sampled_from(
    ["isnull", "upper", "abs", "coalesce", "len", "nosuch", "max"])


def _extend(children):
    return st.one_of(
        st.builds(UnaryOp, st.sampled_from(["-", "NOT"]), children),
        st.builds(BinaryOp, binary_ops, children, children),
        st.builds(IsNull, children, st.booleans()),
        st.builds(InList, children,
                  st.lists(children, max_size=3).map(tuple), st.booleans()),
        st.builds(Between, children, children, children, st.booleans()),
        st.builds(FunctionCall, functions,
                  st.lists(children, max_size=2).map(tuple)),
        st.builds(lambda e: FunctionCall(
            "convert", (ColumnRef(("varchar",)), e)), children),
        st.builds(CaseExpr,
                  st.lists(st.tuples(children, children), min_size=1,
                           max_size=2).map(tuple),
                  st.none() | children, st.none() | children),
    )


expressions = st.recursive(leaves, _extend, max_leaves=8)


def _env(a_row, b_row) -> RowEnvironment:
    def source(label, names, row):
        schema = TableSchema(
            [Column(name, SqlType.parse("int")) for name in names])
        return RowSource(keys=frozenset({label}), schema=schema, row=row,
                         label=label)

    return RowEnvironment([source("a", ("x", "y"), a_row),
                           source("b", ("y", "z"), b_row)])


def _outcome(fn, env, ctx) -> tuple:
    try:
        value = fn(env, ctx)
    except Exception as exc:  # the same class and message, whatever it is
        return "raised", type(exc), str(exc)
    return "value", type(value), repr(value)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expr=expressions, a_row=rows, b_row=rows, variable=values)
@example(expr=BinaryOp("AND", ColumnRef(("z",)), Literal(True)),
         a_row=None, b_row=[1, None], variable=None)  # NULL AND TRUE
@example(expr=BinaryOp("OR", VariableRef("@v"), Literal(False)),
         a_row=None, b_row=None, variable=None)  # NULL OR FALSE
def test_compiled_equals_interpreted(expr, a_row, b_row, variable):
    # Compiled against one environment and run in another of the same
    # shape, as a hot plan's closures are on every later execution.
    compiled = compile_expr(expr, _env(None, None))
    env = _env(a_row, b_row)
    ctx = EvalContext(
        session=SimpleNamespace(global_vars={"@@rowcount": 3}),
        variables={"@v": variable}, functions=standard_functions())
    interpreted = _outcome(lambda env, ctx: evaluate(expr, env, ctx),
                           env, ctx)
    assert _outcome(compiled, env, ctx) == interpreted


# ----------------------------------------------------------------------
# fixed cases, each run three times: planned, then compiled (hot) twice


def _thrice(conn, sql):
    results = [conn.execute(sql).last.rows for _ in range(3)]
    assert results[0] == results[1] == results[2]
    return results[0]


def test_ambiguous_column_over_empty_table_raises_nothing(conn):
    conn.execute("create table t1 (x int)")
    conn.execute("create table t2 (x int)")
    conn.execute("insert t1 values (1)")
    assert _thrice(conn, "select x from t1, t2") == []
    conn.execute("insert t2 values (2)")
    for _ in range(3):
        with pytest.raises(ExecutionError, match="ambiguous column name"):
            conn.execute("select x from t1, t2")


def test_correlated_exists_outer_reference(conn):
    conn.execute("create table t1 (a int)")
    conn.execute("create table t2 (b int)")
    conn.execute("insert t1 values (1) insert t1 values (2) "
                 "insert t1 values (3)")
    conn.execute("insert t2 values (2) insert t2 values (3)")
    assert _thrice(conn, "select a from t1 where exists "
                         "(select * from t2 where t2.b = t1.a)") == [
        (2,), (3,)]


def test_count_distinct(conn):
    conn.execute("create table t (x int)")
    for value in (1, 1, 2, None, 2, 3):
        conn.execute(f"insert t values ({'null' if value is None else value})")
    assert _thrice(conn, "select count(distinct x), count(x), count(*) "
                         "from t") == [(3, 5, 6)]


def test_avg_over_floats_is_bit_identical(conn):
    floats = [0.1, 0.2, 0.3, 1e16, -1e16, 0.7, 1 / 3]
    conn.execute("create table t (g int, x float)")
    for index, value in enumerate(floats):
        conn.execute(f"insert t values ({index % 2}, {value!r})")
    [[total, mean]] = _thrice(conn, "select sum(x), avg(x) from t")
    assert repr(total) == repr(sum(floats))
    assert repr(mean) == repr(sum(floats) / len(floats))
    by_group = _thrice(conn, "select g, avg(x) from t group by g")
    for group, mean in by_group:
        members = floats[group::2]
        assert repr(mean) == repr(sum(members) / len(members))


def test_having_and_order_by_on_an_aggregate(conn):
    conn.execute("create table t (g varchar(5), v int)")
    for group, value in (("a", 1), ("b", 5), ("a", 2), ("c", 9), ("b", 6),
                         ("c", 1)):
        conn.execute(f"insert t values ('{group}', {value})")
    assert _thrice(
        conn, "select g, sum(v) from t group by g having count(*) > 1 "
              "and sum(v) > 3 order by sum(v) desc") == [("b", 11),
                                                         ("c", 10)]


def test_aggregates_are_computed_before_having_drops_a_group(conn):
    # As in SQL Server: every group's aggregate arguments are evaluated
    # before HAVING filters groups, so a group HAVING drops can raise.
    conn.execute("create table t (g int, x int)")
    conn.execute("insert t values (1, 2) insert t values (2, 0)")
    for _ in range(3):
        with pytest.raises(ExecutionError, match="division by zero"):
            conn.execute("select g, sum(10 / x) from t group by g "
                         "having min(x) > 0")
    assert _thrice(conn, "select g, sum(10 / x) from t where x > 0 "
                         "group by g") == [(1, 5)]


def test_scalar_function_over_an_aggregate(conn):
    conn.execute("create table t (g int, x int)")
    assert _thrice(conn, "select isnull(max(x), -1), count(*) from t") == [
        (-1, 0)]
    conn.execute("insert t values (1, 4) insert t values (1, 6) "
                 "insert t values (2, null)")
    assert _thrice(conn, "select g, isnull(max(x), -1) from t group by g "
                         "order by g") == [(1, 6), (2, -1)]


def test_assign_max_over_zero_rows_is_null(conn):
    conn.execute("create table t (x int)")
    sql = "declare @m int\nset @m = 5\nselect @m = max(x) from t\nselect @m"
    assert _thrice(conn, sql) == [(None,)]


# ----------------------------------------------------------------------
# the compile-once contract


@pytest.fixture
def compiles(monkeypatch):
    """Count the top-level ``compile_expr`` calls a plan's lowering makes."""
    calls = []

    def counting(expr, env):
        calls.append(expr)
        return compile_expr(expr, env)

    monkeypatch.setattr(executor_module, "compile_expr", counting)
    return calls


def test_compiles_once_on_the_first_memo_hit(conn, compiles,
                                             plan_cache_mode):
    # Two pushed conjuncts and two select-list items: four expressions.
    per_plan = 4 if plan_cache_mode == "plan-cache-on" else 0
    conn.execute("create table t (k int, v int)")
    for k in range(6):
        conn.execute(f"insert t values ({k}, {k * 10})")
    sql = "select k, v from t where v >= 20 and v < 50"
    expected = [(2, 20), (3, 30), (4, 40)]

    counts = []
    for _ in range(3):
        before = len(compiles)
        assert conn.execute(sql).last.rows == expected
        counts.append(len(compiles) - before)
    assert counts == [0, per_plan, 0]

    conn.execute("create table other (x int)")  # DDL: epoch bump
    counts = []
    for _ in range(3):
        before = len(compiles)
        assert conn.execute(sql).last.rows == expected
        counts.append(len(compiles) - before)
    assert counts == [0, per_plan, 0]


def test_cached_group_by_across_two_pool_sessions():
    groups = {"a": [], "b": [], "c": []}
    agent = EcaAgent(SqlServer(default_database="sentineldb"), workers=2)
    interval = sys.getswitchinterval()
    try:
        admin = agent.connect(user="sharma", database="sentineldb")
        admin.execute("create table t (g varchar(5), v int)")
        for index in range(60):
            group = "abc"[index % 3]
            groups[group].append(index)
            admin.execute(f"insert t values ('{group}', {index})")
        expected = [(g, len(vs), sum(vs)) for g, vs in groups.items()]
        sql = "select g, count(*), sum(v) from t group by g"
        conns = [agent.connect(user="sharma", database="sentineldb")
                 for _ in range(2)]
        replies: list[list] = [[], []]

        def run(index):
            for _ in range(200):
                replies[index].append(conns[index].execute(sql).last.rows)

        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        agent.close()
    for reply in replies:
        assert len(reply) == 200
        assert all(rows == expected for rows in reply)
