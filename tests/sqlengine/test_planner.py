"""Optimizer-rule tests for the cost-based plan-DAG executor.

Each optimizer rule is pinned through its observable surfaces: the
EXPLAIN rendering of the chosen plan (pushed predicates, index
selection, join order, cardinality estimates), the plan-memo counters
(a cached hit must skip parsing AND planning), and — the transparency
contract — the same rows as the naive nested-loop oracle
(:class:`repro.difftest.sqlref.NaiveExecutor`) on a twin server fed
the same statements.

EXPLAIN always plans fresh, so its assertions hold with the plan cache
on or off; tests that exercise the memo force the cache on explicitly.
"""

from collections import Counter

import pytest

from repro.difftest.sqlref import NaiveExecutor
from repro.sqlengine import SqlServer, connect

QUOTES_DDL = (
    "create table quotes (symbol varchar(10), bid float, ask float)")
ORDERS_DDL = (
    "create table orders (symbol varchar(10), n int)")


def _populate(conn):
    """stock (16 rows), quotes (8 rows), orders (4 rows) — skewed
    cardinalities with a shared ``symbol`` join column."""
    conn.execute(
        "create table stock (symbol varchar(10), price float, qty int)")
    conn.execute(QUOTES_DDL)
    conn.execute(ORDERS_DDL)
    for i in range(16):
        conn.execute(
            f"insert stock values ('S{i % 8}', {100 + i}, {i})")
    for i in range(8):
        conn.execute(
            f"insert quotes values ('S{i}', {50 + i}, {51 + i})")
    for i in range(4):
        conn.execute(f"insert orders values ('S{i}', {10 * i})")
    return conn


@pytest.fixture
def joined(conn):
    return _populate(conn)


def _plan(conn, sql):
    """The EXPLAIN lines of one statement."""
    result = conn.execute(f"explain {sql}")
    assert result.last.columns == ["plan"]
    return [row[0] for row in result.last.rows]


def _rows(conn, sql):
    result = conn.execute(sql)
    return result.last.rows if result.last else []


# ----------------------------------------------------------------------
# predicate pushdown

class TestPredicatePushdown:
    def test_single_table_conjunct_pushed_into_scan(self, joined):
        lines = _plan(joined, (
            "select s.symbol from stock s, quotes q "
            "where s.symbol = q.symbol and s.qty > 3"))
        [scan] = [line for line in lines if "pushed=[s.qty > 3]" in line]
        assert scan.strip().startswith(("Scan stock", "IndexScan stock"))
        assert not any("Filter" in line and "qty" in line for line in lines)

    def test_cross_table_or_stays_residual(self, joined):
        lines = _plan(joined, (
            "select s.symbol from stock s, quotes q "
            "where s.symbol = q.symbol and (s.qty > 3 or q.bid > 55)"))
        [residual] = [line for line in lines if "Filter" in line]
        assert "(s.qty > 3) or (q.bid > 55)" in residual
        assert not any("pushed" in line for line in lines)

    def test_subquery_conjunct_stays_residual(self, joined):
        lines = _plan(joined, (
            "select s.symbol from stock s, quotes q "
            "where s.symbol = q.symbol "
            "and s.qty > (select min(n) from orders)"))
        [residual] = [line for line in lines if "Filter" in line]
        assert "subquery" in residual
        assert not any("pushed" in line for line in lines)

    def test_pushed_predicate_lowers_the_estimate(self, joined):
        lines = _plan(joined, "select * from stock where qty > 3")
        [line] = [l for l in lines if "Scan" in l]
        assert "pushed=[qty > 3]" in line
        assert "of 16 rows" in line
        estimate = float(line.split("(~")[1].split(" of")[0])
        assert estimate < 16

    def test_always_false_where_returns_no_rows(self, joined):
        assert _rows(joined, "select * from stock where 1 = 0") == []

    def test_folded_where_still_filters(self, joined):
        rows = _rows(
            joined, "select * from stock where qty > 3 and 1 = 1")
        assert len(rows) == 12


# ----------------------------------------------------------------------
# join ordering

class TestJoinOrder:
    def test_smallest_table_drives_the_join(self, joined):
        lines = _plan(joined, (
            "select s.symbol from stock s, quotes q, orders o "
            "where s.symbol = q.symbol and q.symbol = o.symbol"))
        assert lines[0].startswith("join order: o -> ")

    def test_connected_tables_preferred_over_cartesian(self, joined):
        # q joins o; s is disconnected — the greedy order keeps the
        # connected pair together even though stock's estimate is larger.
        lines = _plan(joined, (
            "select s.symbol from stock s, quotes q, orders o "
            "where q.symbol = o.symbol"))
        assert lines[0] == "join order: o -> q -> s"

    def test_single_table_has_no_join_order_line(self, joined):
        lines = _plan(joined, "select * from stock")
        assert not any(line.startswith("join order") for line in lines)

    def test_pushdown_skews_the_order(self, joined):
        # An equality pushdown makes stock (16 rows) cheaper than
        # quotes (8 rows): ~1.6 estimated rows drive the join.
        lines = _plan(joined, (
            "select s.symbol from stock s, quotes q "
            "where s.symbol = q.symbol and s.symbol = 'S1'"))
        assert lines[0].startswith("join order: s -> ")


# ----------------------------------------------------------------------
# index selection

class TestIndexSelection:
    def test_eq_predicate_selects_index_scan(self, joined):
        joined.execute("create index ix_sym on stock (symbol)")
        lines = _plan(joined, "select * from stock where symbol = 'S1'")
        [line] = [l.strip() for l in lines if "Scan" in l]
        assert line.startswith("IndexScan stock (index ix_sym: "
                               "symbol = 'S1')")

    def test_in_list_selects_index_scan(self, joined):
        joined.execute("create index ix_sym on stock (symbol)")
        lines = _plan(
            joined, "select * from stock where symbol in ('S1', 'S2')")
        [line] = [l.strip() for l in lines if "Scan" in l]
        assert "symbol in ('S1', 'S2')" in line
        assert line.startswith("IndexScan")

    def test_join_probe_uses_the_inner_index(self, joined):
        # orders (4 rows) drives; quotes is the inner side and has the
        # index, so the planner keeps PR 4's per-outer-row probe.
        joined.execute("create index ix_q on quotes (symbol)")
        lines = _plan(joined, (
            "select o.n, q.bid from orders o, quotes q "
            "where o.symbol = q.symbol"))
        assert any("Join [index probe on symbol" in line for line in lines)

    def test_equi_join_without_index_hashes(self, joined):
        lines = _plan(joined, (
            "select s.symbol from stock s, quotes q "
            "where s.symbol = q.symbol"))
        assert any("Join [hash: " in line for line in lines)

    def test_cross_join_is_nested(self, joined):
        lines = _plan(joined, "select * from quotes q, orders o")
        assert any("Join [nested cross]" in line for line in lines)


# ----------------------------------------------------------------------
# plan memo: cached hits skip parse AND plan; DDL invalidates

class TestPlanMemo:
    @pytest.fixture
    def hot(self, joined):
        """Plan cache force-on (the memo lives in it)."""
        server = joined.endpoint.server
        server.plan_cache.enabled = True
        server.plan_cache.clear()
        return joined

    def test_cached_hit_skips_parse_and_plan(self, hot):
        sql = "select * from stock where qty > 3"
        for _ in range(3):
            hot.execute(sql)
        stats = hot.endpoint.server.plan_cache.stats()
        assert stats["misses"] == 1      # parsed once
        assert stats["hits"] >= 2        # text-cache hits after that
        assert stats["plan_misses"] == 1  # planned once
        assert stats["plan_hits"] >= 2   # memoized DAG reused

    def test_ddl_invalidates_cached_plans(self, hot):
        server = hot.endpoint.server
        sql = "select * from stock where symbol = 'S1'"
        hot.execute(sql)
        hot.execute(sql)
        before = server.plan_cache.stats()
        assert before["plan_hits"] >= 1
        # DDL bumps the schema epoch: the memoized full-scan plan must
        # be replanned — and the replan must pick up the new index.
        hot.execute("create index ix_sym on stock (symbol)")
        scans_before = server.index_scans
        hot.execute(sql)
        after = server.plan_cache.stats()
        assert after["plan_misses"] > before["plan_misses"]
        assert server.index_scans > scans_before

    def test_explain_does_not_populate_the_memo(self, hot):
        server = hot.endpoint.server
        hot.execute("explain select * from stock where qty > 3")
        assert server.plan_cache.stats()["plans"] == 0


# ----------------------------------------------------------------------
# transparency: planned results == naive-oracle results

class _Twin:
    """The planned server and the naive oracle, fed the same statements."""

    def __init__(self):
        oracle = SqlServer(default_database="sentineldb")
        oracle.executor = NaiveExecutor(oracle)
        self.planned, self.oracle = (
            connect(server, user="sharma", database="sentineldb")
            for server in (SqlServer(default_database="sentineldb"), oracle))

    def execute(self, sql):
        """Run ``sql`` on both; returns (planned, oracle) batch results."""
        return self.planned.execute(sql), self.oracle.execute(sql)

    def assert_same(self, sql):
        """Both servers answer ``sql`` alike: every result set (a DML
        statement's come from its trigger) has the same columns and the
        same rows — in sequence under ORDER BY, as a multiset otherwise
        (an index scan's candidate order is the planner's business)."""
        planned, oracle = self.execute(sql)
        assert planned.rowcount == oracle.rowcount
        assert len(planned.result_sets) == len(oracle.result_sets)
        for ours, theirs in zip(planned.result_sets, oracle.result_sets):
            assert ours.columns == theirs.columns
            if "order by" in sql:
                assert ours.rows == theirs.rows
            else:
                assert _multiset(ours.rows) == _multiset(theirs.rows)
        return planned


def _multiset(rows):
    return Counter(tuple(row) for row in rows)


@pytest.fixture
def twin():
    pair = _Twin()
    for conn in (pair.planned, pair.oracle):
        _populate(conn)
    pair.execute("create index ix_q on quotes (symbol)")
    pair.execute("create index ix_sym on stock (symbol)")
    return pair


BATTERY = [
    "select * from stock",
    "select * from stock where qty > 3",
    "select s.symbol, q.bid from stock s, quotes q "
    "where s.symbol = q.symbol",
    "select s.symbol, q.bid, o.n from stock s, quotes q, orders o "
    "where s.symbol = q.symbol and q.symbol = o.symbol and s.qty > 2",
    "select * from quotes q, orders o",
    "select symbol, count(*), sum(qty) from stock group by symbol "
    "having count(*) > 1",
    "select distinct symbol from stock order by symbol desc",
    "select top 3 * from stock order by qty",
    "select * from stock where symbol in ('S3', 'S1')",
    "select * from stock where symbol = 'S2' and qty in (2, 99)",
    "select * from stock where qty > 3 and price < 110 and symbol <> 'S4'",
    "select * from stock where qty > (select min(n) from orders)",
    "select s.symbol from stock s where exists "
    "(select * from orders o where o.symbol = s.symbol)",
    "select s.symbol, s.qty from stock s where not exists "
    "(select * from quotes q, orders o "
    "where q.symbol = s.symbol and o.symbol = q.symbol and o.n > s.qty)",
    "select q.symbol, (select count(*) from stock s "
    "where s.symbol = q.symbol and s.qty > q.bid - 50) from quotes q",
    "select symbol from stock union select symbol from orders",
    "select o.n, s.price from orders o, stock s "
    "where o.symbol = s.symbol and (o.n > 10 or s.qty < 4) order by 2, 1",
    "select * from stock where 1 = 0",
    "select * from stock where symbol = null",
]


class TestPlannedMatchesLegacy:
    """Planned vs :class:`NaiveExecutor` (the class keeps the name it
    had when the in-engine row walker was the reference)."""

    @pytest.mark.parametrize("sql", BATTERY)
    def test_battery(self, twin, sql):
        twin.assert_same(sql)

    def test_in_list_index_scan_is_item_major(self, twin):
        """Why unordered SELECTs compare as multisets: the index scan
        walks the IN items in order, the oracle walks the heap."""
        planned, oracle = twin.execute(
            "select qty from stock where symbol in ('S3', 'S1')")
        assert [r[0] for r in planned.last.rows] == [3, 11, 1, 9]
        assert [r[0] for r in oracle.last.rows] == [1, 3, 9, 11]

    def test_hint_survives_drop_index_between_cached_executions(self, twin):
        sql = ("select s.qty, q.bid from stock s, quotes q "
               "where s.symbol = q.symbol and q.symbol in ('S1', 'S2')")
        twin.assert_same(sql)
        twin.assert_same(sql)  # plan-memo hit (when the cache is on)
        twin.execute("drop index quotes.ix_q")
        twin.assert_same(sql)
        twin.execute("drop index stock.ix_sym")
        twin.assert_same(sql)

    @pytest.mark.parametrize("indexed", ["", "ints (k)", "floats (k)"])
    def test_mixed_int_float_join_columns(self, twin, indexed):
        """int = float joins by value whether the planner hashes (same
        ``num`` family, no index) or probes an index on either side."""
        twin.execute("create table ints (k int null, tag varchar(5))")
        twin.execute("create table floats (k float null, tag varchar(5))")
        twin.execute("insert ints values (1, 'a'), (2, 'b'), (2, 'c'), "
                     "(null, 'n'), (4, 'd')")
        twin.execute("insert floats values (1.0, 'x'), (2.0, 'y'), "
                     "(2.5, 'z'), (null, 'm'), (4.0, 'w'), (4.0, 'v')")
        if indexed:
            twin.execute(f"create index ix_k on {indexed}")
        planned = twin.assert_same(
            "select i.tag, f.tag from ints i, floats f where i.k = f.k")
        assert len(planned.last.rows) == 5
        twin.assert_same(
            "select f.tag, i.tag from floats f, ints i "
            "where f.k = i.k and i.k > 1")

    def test_view_in_from(self, twin):
        twin.execute("create view busy as select symbol, qty from stock "
                     "where qty > 5")
        twin.assert_same("select * from busy")
        twin.assert_same(
            "select b.symbol, b.qty, q.ask from busy b, quotes q "
            "where b.symbol = q.symbol and b.symbol in ('S1', 'S7')")

    def test_select_over_transition_tables_in_a_trigger(self, twin):
        twin.execute(
            "create trigger stock_upd on stock for update as "
            "select i.symbol, d.qty, i.qty from inserted i, deleted d "
            "where i.symbol = d.symbol and i.price = d.price "
            "select count(*) from inserted "
            "where qty in (select n from orders)")
        planned = twin.assert_same(
            "update stock set qty = qty * 10 where symbol in ('S0', 'S1')")
        assert len(planned.result_sets[0].rows) == 4
        twin.execute(
            "create trigger stock_del on stock for delete as "
            "select d.symbol, o.n from deleted d, orders o "
            "where d.symbol = o.symbol")
        twin.assert_same("delete stock where qty >= 100")

    @pytest.mark.parametrize("dml", [
        "update stock set qty = qty + 1 where symbol = 'S1'",
        "update stock set qty = 0 where symbol in ('S5', 'S2', 'S5')",
        "update stock set symbol = 'S9' where symbol = 'S3' and qty > 3",
        "update stock set price = price * 2 where qty > 11 or symbol = 'S0'",
        "update stock set qty = (select max(n) from orders) "
        "where symbol in (select symbol from orders where n > 10)",
        "update stock set qty = 1 where symbol = 'nope'",
        "delete stock where symbol = 'S1'",
        "delete stock where symbol in ('S7', 'S0') and price > 100",
        "delete stock where qty < 4",
        "delete stock where symbol = 'S2' or symbol = 'S3'",
        "delete stock",
    ])
    def test_update_and_delete_candidates_match(self, twin, dml):
        """A DML statement touches the same rows, leaves the same heap
        (content and order) and reports the same rowcount on both."""
        planned = twin.assert_same(dml)
        assert planned.rowcount == twin.oracle.execute(
            "select @@rowcount").last.scalar()
        twin.assert_same("select * from stock order by symbol, price")
        ours, theirs = twin.execute("select * from stock")
        assert ours.last.rows == theirs.last.rows
        twin.assert_same("select * from stock where symbol = 'S1'")


# ----------------------------------------------------------------------
# EXPLAIN over writes

class TestExplainWrites:
    def test_update_plan_shows_index_and_columns(self, joined):
        joined.execute("create index ix_sym on stock (symbol)")
        lines = _plan(
            joined, "update stock set qty = 0 where symbol = 'S1'")
        assert lines[0].startswith("Update stock")
        assert "qty" in lines[0]
        assert any("IndexScan" in line for line in lines)

    def test_delete_plan(self, joined):
        lines = _plan(joined, "delete stock where qty > 3")
        assert lines[0].startswith("Delete stock")

    def test_insert_values_plan(self, joined):
        lines = _plan(joined, "insert stock values ('S9', 1, 1)")
        assert lines[0].startswith("Insert stock")
        assert any("Values [1 rows]" in line for line in lines)

    def test_insert_select_plan(self, joined):
        lines = _plan(joined, (
            "insert orders select symbol, qty from stock where qty > 3"))
        assert lines[0].startswith("Insert orders")
        assert any("Scan stock" in line for line in lines)

    def test_explain_rejects_unplannable_statements(self, joined):
        from repro.sqlengine.errors import SqlError

        with pytest.raises(SqlError):
            joined.execute("explain create table t (a int)")


class TestExplainThroughTheAgent:
    def test_explain_passes_through_the_language_filter(self, astock):
        """EXPLAIN is ordinary SQL to the gateway: the Language Filter
        passes it to the engine and the plan comes back as a result
        set, like any query (the paper's transparency constraint)."""
        result = astock.execute(
            "explain select * from stock where qty > 3")
        assert result.last.columns == ["plan"]
        assert any("Scan stock" in row[0] for row in result.last.rows)
