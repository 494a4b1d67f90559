"""E-FIG13/14 / Example 2: composite event triggers and context processing."""

import pytest

from repro.agent.messages import NotiStr

EXAMPLE_2_SETUP = [
    "create trigger t_addStk on stock for insert event addStk "
    "as print 'addStk occurred'",
    "create trigger t_delStk on stock for delete event delStk "
    "as print 'delStk occurred'",
]

EXAMPLE_2 = """create trigger t_and
event addDel = delStk ^ addStk
RECENT
as
print "trigger t_and on composite event addDel = delStk ^ addStk"
select symbol, price from stock.inserted"""


@pytest.fixture
def installed(astock):
    for sql in EXAMPLE_2_SETUP:
        astock.execute(sql)
    astock.execute(EXAMPLE_2)
    return astock


class TestGeneratedObjects:
    def test_composite_event_in_led(self, installed, agent):
        assert agent.led.has_event("sentineldb.sharma.addDel")

    def test_rule_registered_with_recent_context(self, installed, agent):
        rules = agent.led.rules_for("sentineldb.sharma.addDel")
        assert len(rules) == 1
        assert rules[0].context.value == "RECENT"

    def test_tmp_tables_created(self, installed, server):
        db = server.catalog.get_database("sentineldb")
        assert db.get_table("sharma", "stock_inserted_tmp") is not None
        assert db.get_table("sharma", "stock_deleted_tmp") is not None

    def test_action_proc_contains_context_processing(self, installed, server):
        db = server.catalog.get_database("sentineldb")
        proc = db.get_procedure("sharma", "t_and__Proc")
        source = proc.source
        # Figure 14's structure.
        assert "/* context processing */" in source
        assert "delete sentineldb.sharma.stock_inserted_tmp" in source
        assert 'sysContext.context = "RECENT"' in source
        assert "stock_inserted.vNo = sentineldb.dbo.sysContext.vNo" in source
        assert "/* action function */" in source

    def test_action_rewritten_to_tmp_table(self, installed, server):
        db = server.catalog.get_database("sentineldb")
        proc = db.get_procedure("sharma", "t_and__Proc")
        assert "from sentineldb.sharma.stock_inserted_tmp" in proc.source
        assert "stock.inserted" not in proc.source

    def test_persistence_row(self, installed, agent):
        rows = agent.persistent_manager.execute(
            "sentineldb",
            "select userName, eventName, eventDescribe, context "
            "from SysCompositeEvent").last.rows
        assert len(rows) == 1
        user, name, describe, context = rows[0]
        assert (user, name) == ("sharma", "addDel")
        assert describe == ("(sentineldb.sharma.delStk AND "
                            "sentineldb.sharma.addStk)")
        assert context.strip() == "RECENT"

    def test_notistr_shape(self):
        # Figure 13's structure carried by the action handler.
        noti = NotiStr(
            store_proc="sentineldb.sharma.t_and__Proc",
            event_name="sentineldb.sharma.addDel",
            context="RECENT",
        )
        assert noti.store_proc.endswith("__Proc")


class TestRuntimeBehaviour:
    def test_example_2_functional_run(self, installed):
        installed.execute("insert stock values ('IBM', 101.5, 10)")
        installed.execute("delete stock where symbol = 'IBM'")
        result = installed.execute("insert stock values ('MSFT', 60.0, 5)")
        assert ("trigger t_and on composite event addDel = delStk ^ addStk"
                in result.messages)
        # The action's parameter query returns the inserted row.
        assert any(rs.columns == ["symbol", "price"]
                   and rs.rows == [("MSFT", 60.0)]
                   for rs in result.result_sets)

    def test_no_fire_on_single_constituent(self, installed, agent):
        installed.execute("insert stock values ('A', 1, 1)")
        log = agent.action_handler.action_log
        assert not any("t_and" in record.trigger_internal for record in log)

    def test_sys_context_rows_written(self, installed, agent):
        installed.execute("insert stock values ('A', 1, 1)")
        installed.execute("delete stock")
        installed.execute("insert stock values ('B', 2, 2)")
        rows = agent.persistent_manager.execute(
            "sentineldb",
            "select tableName, context, vNo from sysContext "
            "order by tableName").last.rows
        # Numbers count statements on stock (insert 1, delete 2, insert
        # 3), not occurrences of each event.
        assert ("sentineldb.sharma.stock_deleted", "RECENT", 2) in rows
        assert ("sentineldb.sharma.stock_inserted", "RECENT", 3) in rows

    def test_recent_context_uses_latest_occurrence(self, installed, agent):
        installed.execute("insert stock values ('OLD', 1, 1)")
        installed.execute("insert stock values ('NEW', 2, 2)")
        installed.execute("delete stock where symbol = 'OLD'")
        # AND fires when the second constituent (delete) arrives; RECENT
        # pairs it with the most recent insert (NEW).
        records = [r for r in agent.action_handler.action_log
                   if "t_and" in r.trigger_internal]
        assert len(records) == 1
        rows = agent.persistent_manager.execute(
            "sentineldb",
            "select symbol from sentineldb.sharma.stock_inserted_tmp"
        ).last.rows
        assert rows == [("NEW",)]

    def test_composite_over_two_tables(self, agent, astock):
        astock.execute("create table orders (id int, symbol varchar(10))")
        astock.execute(
            "create trigger to1 on orders for insert event newOrder "
            "as print 'order'")
        astock.execute(
            "create trigger ts1 on stock for insert event newStock "
            "as print 'stock'")
        astock.execute(
            "create trigger tboth event both = newOrder AND newStock "
            "as print 'both happened'")
        astock.execute("insert orders values (1, 'IBM')")
        result = astock.execute("insert stock values ('IBM', 1, 1)")
        assert "both happened" in result.messages


AUDIT_DDL = "create table audit (rule varchar(10) null, n int null)"


def _audit(conn) -> list[list]:
    return conn.execute("select rule, n from audit").last.rows


class TestSharedSnapshotNumbering:
    """Events on one table share its snapshots, so they must share one
    occurrence counter: the Figure 14 join by ``vNo`` may only return
    the rows of the statements the occurrence is built from."""

    def test_update_and_delete_rows_do_not_collide(self, astock):
        astock.execute(AUDIT_DDL)
        astock.execute("insert stock values ('A', 1, 1), ('B', 2, 2)")
        for sql in EXAMPLE_2_SETUP:
            astock.execute(sql)
        astock.execute(
            "create trigger t_upd on stock for update event updStk "
            "as print 'updStk occurred'")
        astock.execute(
            "create trigger t_n event delAdd = delStk ^ addStk RECENT "
            "as insert audit select 't', count(*) from stock.deleted")
        astock.execute("update stock set price = 5 where symbol = 'A'")
        astock.execute("delete stock where symbol = 'B'")
        astock.execute("insert stock values ('C', 3, 3)")
        # Only the delete's row: the update's old row is in the same
        # snapshot table under a different number.
        assert _audit(astock) == [("t", 1)]

    def test_two_events_one_statement_one_copy(self, astock, agent):
        astock.execute(AUDIT_DDL)
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print 'e1'")
        astock.execute(
            "create trigger t2 on stock for insert event e2 as print 'e2'")
        astock.execute(
            "create trigger t_both event both12 = e1 ^ e2 RECENT "
            "as insert audit select 't', count(*) from stock.inserted")
        payloads = []
        original = agent.channel._receiver
        agent.channel.attach(
            lambda payload: (payloads.append(payload), original(payload)))
        astock.execute("insert stock values ('A', 1, 1), ('B', 2, 2)")
        assert _audit(astock) == [("t", 2)]
        snapshot = agent.persistent_manager.execute(
            "sentineldb",
            "select vNo from sentineldb.sharma.stock_inserted").last.rows
        assert snapshot == [(1,), (1,)]
        [payload] = payloads
        segments = payload.split(";")
        assert [segment.split()[-1] for segment in segments] == ["1", "1"]


class TestCompositeOfComposite:
    def test_event_reuse_through_full_stack(self, installed, astock):
        astock.execute(
            "create trigger t_chain event chained = addDel SEQ addStk "
            "CHRONICLE as print 'chained fired'")
        astock.execute("insert stock values ('A', 1, 1)")
        astock.execute("delete stock")          # addDel completes
        result = astock.execute("insert stock values ('B', 2, 2)")
        assert "chained fired" in result.messages
