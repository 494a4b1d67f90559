"""Integration tests for stored procedures, variables, and control flow."""

import pytest

from repro.sqlengine.errors import CatalogError, ExecutionError


class TestProcedures:
    def test_create_and_execute(self, stock):
        stock.execute("insert stock values ('IBM', 100.0, 10)")
        stock.execute(
            "create procedure list_stock as select symbol from stock")
        result = stock.execute("exec list_stock")
        assert result.last.rows == [("IBM",)]

    def test_positional_parameters(self, stock):
        stock.execute("insert stock values ('IBM', 100.0, 10), ('X', 5.0, 1)")
        stock.execute(
            "create proc above @limit float as "
            "select symbol from stock where price > @limit")
        assert stock.execute("exec above 50").last.rows == [("IBM",)]

    def test_named_parameters(self, stock):
        stock.execute(
            "create proc greet @name varchar(20) as print 'hi ' + @name")
        assert stock.execute("exec greet @name = 'bob'").messages == ["hi bob"]

    def test_default_parameter(self, conn):
        conn.execute("create proc pdef @n int = 7 as select @n")
        assert conn.execute("exec pdef").last.scalar() == 7
        assert conn.execute("exec pdef 3").last.scalar() == 3

    def test_missing_parameter_is_null(self, conn):
        conn.execute("create proc pn @n int as select @n")
        assert conn.execute("exec pn").last.scalar() is None

    def test_too_many_arguments(self, conn):
        conn.execute("create proc p0 as select 1")
        with pytest.raises(ExecutionError):
            conn.execute("exec p0 1")

    def test_unknown_named_parameter(self, conn):
        conn.execute("create proc p1 @a int as select @a")
        with pytest.raises(ExecutionError):
            conn.execute("exec p1 @zz = 1")

    def test_duplicate_procedure_raises(self, conn):
        conn.execute("create proc p as select 1")
        with pytest.raises(CatalogError):
            conn.execute("create proc p as select 2")

    def test_drop_procedure(self, conn):
        conn.execute("create proc p as select 1")
        conn.execute("drop proc p")
        with pytest.raises(CatalogError):
            conn.execute("exec p")

    def test_return_stops_execution(self, conn):
        conn.execute(
            "create proc early as\nprint 'before'\nreturn\nprint 'after'")
        result = conn.execute("exec early")
        assert result.messages == ["before"]

    def test_nested_procedure_calls(self, conn):
        conn.execute("create proc inner_p as print 'inner'")
        conn.execute("create proc outer_p as\nprint 'outer'\nexecute inner_p")
        assert conn.execute("exec outer_p").messages == ["outer", "inner"]

    def test_procedure_source_preserved(self, server, conn):
        text = "create proc keeper as select 42"
        conn.execute(text)
        db = server.catalog.get_database("sentineldb")
        proc = db.find_procedure("keeper", "sharma")
        assert proc.source == text


class TestVariablesAndControlFlow:
    def test_declare_set_select(self, conn):
        result = conn.execute(
            "declare @x int\nset @x = 5\nselect @x + 1")
        assert result.last.scalar() == 6

    def test_assign_select_from_table(self, stock):
        stock.execute("insert stock values ('A', 10.0, 1), ('B', 30.0, 2)")
        result = stock.execute(
            "declare @m float\nselect @m = max(price) from stock\nselect @m")
        assert result.last.scalar() == 30.0

    def test_assign_select_no_rows_keeps_value(self, stock):
        result = stock.execute(
            "declare @p float\nset @p = 99\n"
            "select @p = price from stock where 1 = 2\nselect @p")
        assert result.last.scalar() == 99

    def test_if_true_branch(self, conn):
        assert conn.execute("if 1 = 1 print 'yes' else print 'no'").messages == ["yes"]

    def test_if_false_branch(self, conn):
        assert conn.execute("if 1 = 2 print 'yes' else print 'no'").messages == ["no"]

    def test_if_exists_pattern(self, stock):
        stock.execute("insert stock values ('A', 10.0, 1)")
        result = stock.execute(
            "if exists (select * from stock where price > 5) print 'rich'")
        assert result.messages == ["rich"]

    def test_while_loop(self, conn):
        result = conn.execute(
            "declare @i int\nset @i = 0\n"
            "while @i < 3 begin print convert(varchar, @i) set @i = @i + 1 end")
        assert result.messages == ["0", "1", "2"]

    def test_undeclared_variable_raises(self, conn):
        with pytest.raises(ExecutionError):
            conn.execute("select @ghost")

    def test_trancount_global(self, conn):
        assert conn.execute("select @@trancount").last.scalar() == 0
        conn.execute("begin tran")
        assert conn.execute("select @@trancount").last.scalar() == 1
        conn.execute("rollback")
