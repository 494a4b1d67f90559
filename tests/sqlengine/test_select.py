"""Integration tests for the SELECT pipeline on the live engine."""

import pytest

from repro.sqlengine.errors import CatalogError, ExecutionError, SchemaError


@pytest.fixture
def filled(stock):
    stock.execute(
        "insert stock values ('IBM', 100.0, 10), ('MSFT', 50.0, 20), "
        "('ORCL', 25.0, 40), ('SUNW', 50.0, 5)"
    )
    return stock


class TestProjectionAndFilter:
    def test_star(self, filled):
        result = filled.execute("select * from stock").last
        assert result.columns == ["symbol", "price", "qty"]
        assert len(result.rows) == 4

    def test_rows_are_tuples(self, filled):
        for sql in ("select * from stock",
                    "select price, count(*) from stock group by price",
                    "select symbol from stock union select 'X'"):
            rows = filled.execute(sql).last.rows
            assert rows and all(type(row) is tuple for row in rows)

    def test_column_projection(self, filled):
        result = filled.execute("select symbol from stock").last
        assert result.columns == ["symbol"]

    def test_computed_column_with_alias(self, filled):
        result = filled.execute(
            "select symbol, price * qty as notional from stock "
            "where symbol = 'IBM'").last
        assert result.rows == [("IBM", 1000.0)]

    def test_where_comparison(self, filled):
        rows = filled.execute("select symbol from stock where price >= 50").last
        assert sorted(r[0] for r in rows) == ["IBM", "MSFT", "SUNW"]

    def test_where_and_or(self, filled):
        rows = filled.execute(
            "select symbol from stock where price = 50 and qty > 10 "
            "or symbol = 'IBM'").last
        assert sorted(r[0] for r in rows) == ["IBM", "MSFT"]

    def test_where_like(self, filled):
        rows = filled.execute("select symbol from stock where symbol like '%S%'").last
        assert sorted(r[0] for r in rows) == ["MSFT", "SUNW"]

    def test_where_in_list(self, filled):
        rows = filled.execute(
            "select symbol from stock where symbol in ('IBM', 'ORCL')").last
        assert len(rows.rows) == 2

    def test_where_between(self, filled):
        rows = filled.execute(
            "select symbol from stock where price between 25 and 50").last
        assert sorted(r[0] for r in rows) == ["MSFT", "ORCL", "SUNW"]

    def test_false_constant_predicate(self, filled):
        # The `where 1 = 2` idiom of Figure 11's codegen.
        assert filled.execute("select * from stock where 1 = 2").last.rows == []

    def test_unknown_column(self, filled):
        with pytest.raises(SchemaError):
            filled.execute("select nosuch from stock")

    def test_unknown_table(self, filled):
        with pytest.raises(CatalogError):
            filled.execute("select * from nothere")


class TestNullSemantics:
    def test_null_comparison_filters_row(self, stock):
        stock.execute("insert stock values ('X', null, 1)")
        assert stock.execute("select * from stock where price > 0").last.rows == []
        assert stock.execute("select * from stock where price is null").last.rows != []

    def test_not_of_null_is_unknown(self, stock):
        stock.execute("insert stock values ('X', null, 1)")
        assert stock.execute(
            "select * from stock where not (price > 0)").last.rows == []

    def test_in_list_with_null_operand(self, stock):
        stock.execute("insert stock values ('X', null, 1)")
        assert stock.execute(
            "select * from stock where price in (1, 2)").last.rows == []


class TestAggregates:
    def test_count_star(self, filled):
        assert filled.execute("select count(*) from stock").last.scalar() == 4

    def test_count_ignores_nulls(self, filled):
        filled.execute("insert stock values ('X', null, 1)")
        assert filled.execute("select count(price) from stock").last.scalar() == 4

    def test_sum_avg_min_max(self, filled):
        row = filled.execute(
            "select sum(qty), avg(price), min(price), max(price) from stock"
        ).last.rows[0]
        assert row == (75, 56.25, 25.0, 100.0)

    def test_aggregate_over_empty_table(self, stock):
        row = stock.execute("select count(*), sum(qty) from stock").last.rows[0]
        assert row == (0, None)

    def test_group_by(self, filled):
        result = filled.execute(
            "select price, count(*) n from stock group by price order by price"
        ).last
        assert result.rows == [(25.0, 1), (50.0, 2), (100.0, 1)]

    def test_group_by_having(self, filled):
        result = filled.execute(
            "select price, count(*) n from stock group by price "
            "having count(*) > 1").last
        assert result.rows == [(50.0, 2)]

    def test_count_distinct(self, filled):
        assert filled.execute(
            "select count(distinct price) from stock").last.scalar() == 3

    def test_aggregate_arithmetic(self, filled):
        assert filled.execute(
            "select max(price) - min(price) from stock").last.scalar() == 75.0


class TestOrderingAndLimits:
    def test_order_by_asc(self, filled):
        rows = filled.execute("select symbol from stock order by price").last
        assert [r[0] for r in rows] == ["ORCL", "MSFT", "SUNW", "IBM"]

    def test_order_by_desc_then_secondary(self, filled):
        rows = filled.execute(
            "select symbol from stock order by price desc, symbol asc").last
        assert [r[0] for r in rows] == ["IBM", "MSFT", "SUNW", "ORCL"]

    def test_order_by_position(self, filled):
        rows = filled.execute("select symbol, price from stock order by 2").last
        assert rows.rows[0][0] == "ORCL"

    def test_order_by_output_alias(self, filled):
        rows = filled.execute(
            "select symbol, price + qty total from stock "
            "order by total desc").last
        assert rows.rows[0][0] == "IBM"      # 100 + 10
        assert rows.rows[-1][0] == "SUNW"    # 50 + 5

    def test_nulls_sort_first(self, filled):
        filled.execute("insert stock values ('NUL', null, 0)")
        rows = filled.execute("select symbol from stock order by price").last
        assert rows.rows[0][0] == "NUL"

    def test_top(self, filled):
        rows = filled.execute(
            "select top 2 symbol from stock order by price desc").last
        assert [r[0] for r in rows] == ["IBM", "MSFT"]

    def test_distinct(self, filled):
        rows = filled.execute("select distinct price from stock").last
        assert len(rows.rows) == 3


class TestJoinsAndSubqueries:
    def test_cross_join_with_where(self, filled, conn):
        conn.execute("create table ref (symbol varchar(10), sector varchar(20))")
        conn.execute(
            "insert ref values ('IBM', 'hardware'), ('MSFT', 'software')")
        result = conn.execute(
            "select stock.symbol, ref.sector from stock, ref "
            "where stock.symbol = ref.symbol order by stock.symbol").last
        assert result.rows == [("IBM", "hardware"), ("MSFT", "software")]

    def test_alias_join(self, filled, conn):
        result = conn.execute(
            "select a.symbol from stock a, stock b "
            "where a.price < b.price and b.symbol = 'IBM' order by a.symbol"
        ).last
        assert [r[0] for r in result] == ["MSFT", "ORCL", "SUNW"]

    def test_ambiguous_column_raises(self, filled, conn):
        with pytest.raises(ExecutionError):
            conn.execute("select symbol from stock a, stock b")

    def test_scalar_subquery(self, filled):
        assert filled.execute(
            "select symbol from stock "
            "where price = (select max(price) from stock)").last.rows == [("IBM",)]

    def test_in_subquery(self, filled, conn):
        conn.execute("create table watch (symbol varchar(10))")
        conn.execute("insert watch values ('IBM'), ('ORCL')")
        rows = conn.execute(
            "select symbol from stock where symbol in "
            "(select symbol from watch) order by symbol").last
        assert [r[0] for r in rows] == ["IBM", "ORCL"]

    def test_correlated_exists(self, filled, conn):
        conn.execute("create table watch (symbol varchar(10))")
        conn.execute("insert watch values ('MSFT')")
        rows = conn.execute(
            "select symbol from stock where exists "
            "(select * from watch where watch.symbol = stock.symbol)").last
        assert rows.rows == [("MSFT",)]

    def test_scalar_subquery_multiple_rows_raises(self, filled):
        with pytest.raises(ExecutionError):
            filled.execute(
                "select * from stock where price = (select price from stock)")


class TestSelectInto:
    def test_clone_empty_schema(self, filled, conn):
        conn.execute("select * into stock_copy from stock where 1 = 2")
        result = conn.execute("select * from stock_copy").last
        assert result.columns == ["symbol", "price", "qty"]
        assert result.rows == []

    def test_copies_rows(self, filled, conn):
        conn.execute("select symbol, price into expensive from stock "
                     "where price > 40")
        assert len(conn.execute("select * from expensive").last.rows) == 3

    def test_into_existing_table_raises(self, filled, conn):
        with pytest.raises(CatalogError):
            conn.execute("select * into stock from stock")

    def test_into_requires_column_names(self, filled, conn):
        with pytest.raises(ExecutionError):
            conn.execute("select price * 2 into doubled from stock")

    def test_into_then_alter_add(self, filled, conn):
        # Figure 11's exact sequence.
        conn.execute("select * into snap from stock where 1 = 2")
        conn.execute("alter table snap add vNo int null")
        result = conn.execute("select * from snap").last
        assert result.columns == ["symbol", "price", "qty", "vNo"]


class TestSelectWithoutFrom:
    def test_constant_select(self, conn):
        assert conn.execute("select 40 + 2").last.scalar() == 42

    def test_function_select(self, conn):
        assert conn.execute("select upper('abc')").last.scalar() == "ABC"
