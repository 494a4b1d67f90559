"""Integration tests for INSERT / UPDATE / DELETE / TRUNCATE."""

import pytest

from repro.sqlengine.errors import IntegrityError, SchemaError, SqlTypeError


class TestInsert:
    def test_insert_full_row(self, stock):
        stock.execute("insert stock values ('IBM', 100.0, 10)")
        assert stock.execute("select * from stock").last.rows == [
            ("IBM", 100.0, 10)]

    def test_insert_multiple_rows(self, stock):
        result = stock.execute("insert stock values ('A', 1, 1), ('B', 2, 2)")
        assert result.rowcount == 2

    def test_insert_with_column_list_nulls_rest(self, stock):
        stock.execute("insert stock (symbol) values ('X')")
        assert stock.execute("select * from stock").last.rows == [
            ("X", None, None)]

    def test_insert_coerces_types(self, stock):
        stock.execute("insert stock values ('A', 10, 5)")
        row = stock.execute("select price from stock").last.rows[0]
        assert isinstance(row[0], float)

    def test_insert_not_null_violation(self, stock):
        with pytest.raises(IntegrityError):
            stock.execute("insert stock values (null, 1.0, 1)")

    def test_insert_arity_mismatch(self, stock):
        with pytest.raises(SchemaError):
            stock.execute("insert stock values ('A', 1.0)")

    def test_insert_type_mismatch(self, stock):
        with pytest.raises(SqlTypeError):
            stock.execute("insert stock values ('A', 'not a price', 1)")

    def test_insert_select(self, stock, conn):
        stock.execute("insert stock values ('A', 1, 1), ('B', 2, 2)")
        conn.execute("select * into copy from stock where 1 = 2")
        result = conn.execute("insert copy select * from stock")
        assert result.rowcount == 2
        assert len(conn.execute("select * from copy").last.rows) == 2

    def test_insert_select_with_extra_literal_column(self, stock, conn):
        # The codegen pattern: snapshot rows tagged with an extra value.
        stock.execute("insert stock values ('A', 1, 1)")
        conn.execute("select * into snap from stock where 1 = 2")
        conn.execute("alter table snap add vNo int null")
        conn.execute("insert snap select *, 7 from stock")
        assert conn.execute("select vNo from snap").last.rows == [(7,)]

    def test_rowcount_global(self, stock, conn):
        stock.execute("insert stock values ('A', 1, 1), ('B', 2, 2)")
        assert conn.execute("select @@rowcount").last.scalar() == 2


class TestUpdate:
    @pytest.fixture
    def filled(self, stock):
        stock.execute("insert stock values ('A', 10.0, 1), ('B', 20.0, 2)")
        return stock

    def test_update_all(self, filled):
        result = filled.execute("update stock set qty = 0")
        assert result.rowcount == 2
        assert filled.execute("select sum(qty) from stock").last.scalar() == 0

    def test_update_where(self, filled):
        filled.execute("update stock set price = price * 2 where symbol = 'A'")
        rows = filled.execute("select symbol, price from stock order by symbol").last
        assert rows.rows == [("A", 20.0), ("B", 20.0)]

    def test_update_sees_old_values(self, filled):
        # Both assignments use pre-update values of the row.
        filled.execute("update stock set price = qty, qty = price where symbol = 'A'")
        rows = filled.execute("select price, qty from stock where symbol = 'A'").last
        assert rows.rows == [(1.0, 10)]

    def test_update_zero_rows(self, filled):
        assert filled.execute(
            "update stock set qty = 9 where symbol = 'Z'").rowcount == 0

    def test_update_not_null_violation(self, filled):
        with pytest.raises(SchemaError):
            filled.execute("update stock set symbol = null where symbol = 'A'")

    def test_update_with_subquery_value(self, filled):
        filled.execute(
            "update stock set price = (select max(price) from stock) "
            "where symbol = 'A'")
        assert filled.execute(
            "select price from stock where symbol = 'A'").last.scalar() == 20.0


class TestDelete:
    @pytest.fixture
    def filled(self, stock):
        stock.execute("insert stock values ('A', 10.0, 1), ('B', 20.0, 2)")
        return stock

    def test_delete_where(self, filled):
        assert filled.execute("delete stock where symbol = 'A'").rowcount == 1
        assert filled.execute("select count(*) from stock").last.scalar() == 1

    def test_delete_all_without_from(self, filled):
        assert filled.execute("delete stock").rowcount == 2

    def test_delete_zero_rows(self, filled):
        assert filled.execute("delete stock where qty > 99").rowcount == 0

    def test_truncate(self, filled):
        result = filled.execute("truncate table stock")
        assert result.rowcount == 2
        assert filled.execute("select count(*) from stock").last.scalar() == 0
