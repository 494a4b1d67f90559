"""Native trigger semantics, including Section 2.2's documented limitations."""

import pytest

from repro.sqlengine import SqlServer, connect
from repro.sqlengine.errors import TriggerRecursionError


@pytest.fixture
def audited(stock, conn):
    conn.execute("create table audit (symbol varchar(10), what varchar(10))")
    return conn


class TestTriggerFiring:
    def test_insert_trigger_sees_inserted(self, audited):
        audited.execute(
            "create trigger tr_i on stock for insert as "
            "insert audit select symbol, 'ins' from inserted")
        audited.execute("insert stock values ('IBM', 1.0, 1)")
        assert audited.execute("select * from audit").last.rows == [("IBM", "ins")]

    def test_delete_trigger_sees_deleted(self, audited):
        audited.execute("insert stock values ('IBM', 1.0, 1)")
        audited.execute(
            "create trigger tr_d on stock for delete as "
            "insert audit select symbol, 'del' from deleted")
        audited.execute("delete stock")
        assert audited.execute("select * from audit").last.rows == [("IBM", "del")]

    def test_update_trigger_sees_both(self, audited):
        audited.execute("insert stock values ('IBM', 1.0, 1)")
        audited.execute(
            "create trigger tr_u on stock for update as "
            "insert audit select symbol, 'old' from deleted "
            "insert audit select symbol, 'new' from inserted")
        audited.execute("update stock set price = 2.0")
        assert sorted(r[1] for r in audited.execute(
            "select * from audit").last.rows) == ["new", "old"]

    def test_statement_level_once_per_statement(self, audited):
        audited.execute(
            "create trigger tr on stock for insert as "
            "insert audit values ('batch', 'ins')")
        audited.execute("insert stock values ('A', 1, 1), ('B', 2, 2)")
        assert len(audited.execute("select * from audit").last.rows) == 1

    def test_trigger_fires_even_for_zero_row_update(self, audited):
        # Sybase statement triggers fire regardless of rows affected.
        audited.execute(
            "create trigger tr on stock for update as "
            "insert audit values ('none', 'upd')")
        audited.execute("update stock set qty = 1 where symbol = 'ZZZ'")
        assert len(audited.execute("select * from audit").last.rows) == 1

    def test_trigger_print_reaches_client(self, stock):
        stock.execute(
            "create trigger tr on stock for insert as print 'fired'")
        result = stock.execute("insert stock values ('A', 1, 1)")
        assert "fired" in result.messages

    def test_truncate_skips_triggers(self, audited):
        audited.execute("insert stock values ('A', 1, 1)")
        audited.execute(
            "create trigger tr on stock for delete as "
            "insert audit values ('x', 'del')")
        audited.execute("truncate table stock")
        assert audited.execute("select count(*) from audit").last.scalar() == 0

    def test_cascading_triggers(self, audited):
        audited.execute("create table audit2 (what varchar(10))")
        audited.execute(
            "create trigger tr1 on stock for insert as "
            "insert audit values ('c', 'ins')")
        audited.execute(
            "create trigger tr2 on audit for insert as "
            "insert audit2 values ('cascade')")
        audited.execute("insert stock values ('A', 1, 1)")
        assert audited.execute("select * from audit2").last.rows == [("cascade",)]

    def test_recursion_limit(self, conn):
        conn.execute("create table loopy (n int)")
        conn.execute(
            "create trigger tr on loopy for insert as "
            "insert loopy values (1)")
        with pytest.raises(TriggerRecursionError):
            conn.execute("insert loopy values (0)")

    def test_triggers_can_be_disabled_server_wide(self, audited, server):
        audited.execute(
            "create trigger tr on stock for insert as "
            "insert audit values ('x', 'ins')")
        server.triggers_enabled = False
        audited.execute("insert stock values ('A', 1, 1)")
        server.triggers_enabled = True
        assert audited.execute("select count(*) from audit").last.scalar() == 0


class TestSection22Limitations:
    """Each native restriction the paper lists, demonstrated live."""

    def test_one_trigger_per_operation_silent_overwrite(self, stock, server):
        stock.execute("create trigger first_tr on stock for insert as print 'one'")
        result = stock.execute(
            "create trigger second_tr on stock for insert as print 'two'")
        # No warning message is given before the overwrite occurs.
        assert result.messages == []
        assert server.last_displaced_triggers == ["sharma.first_tr"]
        out = stock.execute("insert stock values ('A', 1, 1)")
        assert out.messages == ["two"]

    def test_trigger_applies_to_exactly_one_table(self, stock, conn):
        # The syntax itself has no way to name two tables.
        from repro.sqlengine.errors import SqlParseError

        with pytest.raises(SqlParseError):
            conn.execute(
                "create trigger tr on stock, audit for insert as print 'x'")

    def test_no_named_or_composite_events(self, stock):
        # `event` is not part of the native dialect at all.
        from repro.sqlengine.errors import SqlParseError

        with pytest.raises(SqlParseError):
            stock.execute(
                "create trigger tr on stock for insert event e1 as print 'x'")

    def test_same_operation_two_triggers_different_tables_ok(self, stock, conn):
        conn.execute("create table other (a int)")
        conn.execute("create trigger tr1 on stock for insert as print 'a'")
        conn.execute("create trigger tr2 on other for insert as print 'b'")
        assert conn.execute("insert other values (1)").messages == ["b"]

    def test_update_trigger_does_not_displace_insert_trigger(self, stock, server):
        stock.execute("create trigger tri on stock for insert as print 'i'")
        stock.execute("create trigger tru on stock for update as print 'u'")
        assert server.last_displaced_triggers == []
        assert stock.execute("insert stock values ('A', 1, 1)").messages == ["i"]
