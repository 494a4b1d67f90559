"""Section 5.6 end-to-end: parameter contexts through the whole stack.

The four-step context handling: snapshot on primitive occurrence, derive
the parameter list from the LED occurrence, insert into ``sysContext``,
and join ``sysContext`` with the snapshot table inside the generated
procedure.  Each context must deliver its documented parameter rows to
the action's ``<table>.inserted`` view.
"""

import pytest


def setup_events(conn):
    conn.execute(
        "create trigger t_add on stock for insert event addStk as print 'a'")
    conn.execute(
        "create trigger t_del on stock for delete event delStk as print 'd'")


def tmp_rows(agent):
    return agent.persistent_manager.execute(
        "sentineldb",
        "select symbol from sentineldb.sharma.stock_inserted_tmp "
        "order by symbol").last.rows


class TestContextsEndToEnd:
    def test_recent_delivers_latest_insert(self, astock, agent):
        setup_events(astock)
        astock.execute(
            "create trigger tc event c = addStk AND delStk RECENT as "
            "select symbol from stock.inserted")
        astock.execute("insert stock values ('OLD', 1, 1)")
        astock.execute("insert stock values ('NEW', 2, 2)")
        astock.execute("delete stock where symbol = 'OLD'")
        assert tmp_rows(agent) == [("NEW",)]

    def test_chronicle_delivers_oldest_insert(self, astock, agent):
        setup_events(astock)
        astock.execute(
            "create trigger tc event c = addStk AND delStk CHRONICLE as "
            "select symbol from stock.inserted")
        astock.execute("insert stock values ('OLD', 1, 1)")
        astock.execute("insert stock values ('NEW', 2, 2)")
        astock.execute("delete stock where symbol = 'NEW'")
        assert tmp_rows(agent) == [("OLD",)]

    def test_cumulative_delivers_all_inserts(self, astock, agent):
        setup_events(astock)
        astock.execute(
            "create trigger tc event c = addStk AND delStk CUMULATIVE as "
            "select symbol from stock.inserted")
        astock.execute("insert stock values ('A', 1, 1)")
        astock.execute("insert stock values ('B', 2, 2)")
        astock.execute("delete stock where symbol = 'A'")
        assert tmp_rows(agent) == [("A",), ("B",)]

    def test_continuous_fires_per_initiator(self, astock, agent):
        setup_events(astock)
        astock.execute(
            "create trigger tc event c = addStk AND delStk CONTINUOUS as "
            "select symbol from stock.inserted")
        astock.execute("insert stock values ('A', 1, 1)")
        astock.execute("insert stock values ('B', 2, 2)")
        astock.execute("delete stock where symbol = 'A'")
        records = [r for r in agent.action_handler.action_log
                   if r.trigger_internal.endswith("tc")]
        assert len(records) == 2

    def test_deleted_side_parameters(self, astock, agent):
        setup_events(astock)
        astock.execute(
            "create trigger tc event c = addStk AND delStk RECENT as "
            "select symbol from stock.deleted")
        astock.execute("insert stock values ('A', 1, 1)")
        astock.execute("insert stock values ('B', 2, 2)")
        astock.execute("delete stock where symbol = 'A'")
        rows = agent.persistent_manager.execute(
            "sentineldb",
            "select symbol from sentineldb.sharma.stock_deleted_tmp"
        ).last.rows
        assert rows == [("A",)]

    def test_multi_row_statement_binds_whole_statement(self, astock, agent):
        setup_events(astock)
        astock.execute(
            "create trigger tc event c = addStk AND delStk RECENT as "
            "select symbol from stock.inserted")
        astock.execute("insert stock values ('X', 1, 1), ('Y', 2, 2)")
        astock.execute("delete stock where symbol = 'X'")
        # Both rows of the single insert statement share one vNo.
        assert tmp_rows(agent) == [("X",), ("Y",)]

    def test_stale_context_rows_cleared_between_firings(self, astock, agent):
        setup_events(astock)
        astock.execute(
            "create trigger tc event c = addStk AND delStk RECENT as "
            "select symbol from stock.inserted")
        astock.execute("insert stock values ('A', 1, 1)")
        astock.execute("insert stock values ('B', 1, 1)")
        astock.execute("delete stock where symbol = 'A'")
        astock.execute("insert stock values ('C', 1, 1)")
        astock.execute("delete stock where symbol = 'B'")
        assert tmp_rows(agent) == [("C",)]

    def test_two_rules_different_contexts_coexist(self, astock, agent):
        setup_events(astock)
        astock.execute(
            "create trigger t_recent event c1 = addStk AND delStk RECENT as "
            "select symbol from stock.inserted")
        astock.execute(
            "create trigger t_cumulative event c2 = addStk AND delStk "
            "CUMULATIVE as select symbol from stock.inserted")
        astock.execute("insert stock values ('A', 1, 1)")
        astock.execute("insert stock values ('B', 2, 2)")
        astock.execute("delete stock where symbol = 'A'")
        rows = agent.persistent_manager.execute(
            "sentineldb",
            "select context, vNo from sysContext "
            "where tableName = 'sentineldb.sharma.stock_inserted' "
            "order by context, vNo").last.rows
        assert ("CUMULATIVE", 1) in rows
        assert ("CUMULATIVE", 2) in rows
        assert ("RECENT", 2) in rows
        assert ["RECENT", 1] not in rows
