"""Scalar builtin functions, including the syb_sendmsg notification hook."""

import datetime as dt

import pytest

from repro.sqlengine import SqlServer, connect
from repro.sqlengine.errors import ExecutionError


class TestStringFunctions:
    def test_upper_lower(self, conn):
        assert conn.execute("select upper('ab'), lower('CD')").last.rows == [
            ("AB", "cd")]

    def test_len(self, conn):
        assert conn.execute("select len('hello')").last.scalar() == 5

    def test_substring(self, conn):
        assert conn.execute("select substring('hello', 2, 3)").last.scalar() == "ell"

    def test_charindex(self, conn):
        assert conn.execute("select charindex('ll', 'hello')").last.scalar() == 3
        assert conn.execute("select charindex('zz', 'hello')").last.scalar() == 0

    def test_ltrim_rtrim(self, conn):
        assert conn.execute("select ltrim('  x'), rtrim('x  ')").last.rows == [
            ("x", "x")]

    def test_null_propagation(self, conn):
        assert conn.execute("select upper(null)").last.scalar() is None


class TestNumericFunctions:
    def test_abs_round_floor_ceiling(self, conn):
        row = conn.execute(
            "select abs(-3), round(2.567, 1), floor(2.9), ceiling(2.1)"
        ).last.rows[0]
        assert row == (3, 2.6, 2, 3)

    def test_isnull(self, conn):
        assert conn.execute("select isnull(null, 7)").last.scalar() == 7
        assert conn.execute("select isnull(5, 7)").last.scalar() == 5

    def test_coalesce(self, conn):
        assert conn.execute("select coalesce(null, null, 3)").last.scalar() == 3

    def test_convert(self, conn):
        assert conn.execute("select convert(varchar, 42)").last.scalar() == "42"
        assert conn.execute("select convert(int, '17')").last.scalar() == 17

    def test_integer_division_truncates(self, conn):
        assert conn.execute("select 7 / 2").last.scalar() == 3
        assert conn.execute("select -7 / 2").last.scalar() == -3

    def test_division_by_zero(self, conn):
        with pytest.raises(ExecutionError):
            conn.execute("select 1 / 0")

    def test_modulo(self, conn):
        assert conn.execute("select 7 % 3").last.scalar() == 1


class TestSessionFunctions:
    def test_user_and_db_name(self, conn):
        assert conn.execute("select user_name(), db_name()").last.rows == [
            ("sharma", "sentineldb")]

    def test_getdate_uses_server_clock(self):
        frozen = dt.datetime(1999, 2, 1, 12, 0, 0)
        server = SqlServer(default_database="d", clock=lambda: frozen)
        conn = connect(server, database="d")
        assert conn.execute("select getdate()").last.scalar() == frozen

    def test_datediff_and_dateadd(self, conn):
        assert conn.execute(
            "select datediff(minute, '1999-02-01 10:00', '1999-02-01 11:30')"
        ).last.scalar() == 90
        moved = conn.execute(
            "select dateadd(hour, 2, '1999-02-01 10:00')").last.scalar()
        assert moved == dt.datetime(1999, 2, 1, 12, 0)

    def test_datename(self, conn):
        assert conn.execute(
            "select datename(month, '1999-02-01')").last.scalar() == "February"

    def test_object_id(self, stock):
        assert stock.execute("select object_id('stock')").last.scalar() is not None
        assert stock.execute("select object_id('ghost')").last.scalar() is None

    def test_unknown_function_raises(self, conn):
        with pytest.raises(ExecutionError):
            conn.execute("select frobnicate(1)")


class TestSybSendmsg:
    def test_returns_zero(self, server, conn):
        assert conn.execute(
            "select syb_sendmsg('127.0.0.1', 10006, 'hello')").last.scalar() == 0

    def test_datagram_reaches_sink(self, server, conn):
        received = []
        server.set_datagram_sink(lambda host, port, msg: received.append(
            (host, port, msg)))
        conn.execute("select syb_sendmsg('10.0.0.1', 9999, 'payload')")
        assert received == [("10.0.0.1", 9999, "payload")]

    def test_without_sink_messages_are_stashed(self, server, conn):
        conn.execute("select syb_sendmsg('h', 1, 'm')")
        assert server.unsunk_datagrams == [("h", 1, "m")]

    def test_assign_select_form_produces_no_result_set(self, server, conn):
        # The codegen uses `select @r = syb_sendmsg(...)` so that the
        # notification does not leak a result set to the client.
        result = conn.execute(
            "declare @r int select @r = syb_sendmsg('h', 1, 'm')")
        assert result.result_sets == []
        assert server.unsunk_datagrams == [("h", 1, "m")]
