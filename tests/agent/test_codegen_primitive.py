"""E-FIG11 / Example 1: code generation for a primitive-event trigger.

Verifies the generated server-side objects match Figure 11's structure:
snapshot tables with the vNo column, the occurrence-number (Version)
table, the action procedure, the native trigger with notification and
bookkeeping, and the persistence inserts.
"""

import pytest

EXAMPLE_1 = """create trigger t_addStk on stock for insert
event addStk
as print " trigger t_addStk on primitive event addStk occurs"
select * from stock"""


@pytest.fixture
def installed(astock, agent):
    astock.execute(EXAMPLE_1)
    return astock


class TestGeneratedObjects:
    def test_snapshot_table_created_with_vno(self, installed, server):
        db = server.catalog.get_database("sentineldb")
        snapshot = db.get_table("sharma", "stock_inserted")
        assert snapshot is not None
        assert snapshot.schema.column_names == ["symbol", "price", "qty", "vNo"]

    def test_no_deleted_snapshot_for_insert_event(self, installed, server):
        db = server.catalog.get_database("sentineldb")
        assert db.get_table("sharma", "stock_deleted") is None

    def test_version_table_seeded_with_zero(self, installed, agent):
        result = agent.persistent_manager.execute(
            "sentineldb", "select vNo from sentineldb.sharma.stock_Version")
        assert result.last.rows == [(0,)]

    def test_action_procedure_created(self, installed, server):
        assert "sharma.t_addStk__Proc" in server.procedure_names("sentineldb")

    def test_native_trigger_created(self, installed, server):
        assert "sharma.ECA_stock_insert" in server.trigger_names("sentineldb")

    def test_native_trigger_source_structure(self, installed, server):
        db = server.catalog.get_database("sentineldb")
        trigger = db.get_trigger("sharma", "ECA_stock_insert")
        source = trigger.source
        # The Figure 11 ingredients, in order; the number is drawn from
        # the table's one counter, not SysPrimitiveEvent.
        assert "update sentineldb.sharma.stock_Version set vNo = vNo + 1" \
            in source
        assert "SysPrimitiveEvent" not in source
        assert "insert sentineldb.sharma.stock_inserted" in source
        assert "syb_sendmsg" in source
        assert "execute sentineldb.sharma.t_addStk__Proc" in source
        assert source.index("set vNo = vNo + 1") < source.index(
            "insert sentineldb.sharma.stock_inserted")

    def test_persistence_rows(self, installed, agent):
        pm = agent.persistent_manager
        primitive = pm.execute(
            "sentineldb",
            "select dbName, userName, eventName, tableName, operation, vNo "
            "from SysPrimitiveEvent").last.rows
        assert primitive == [
            ("sentineldb", "sharma", "addStk", "stock", "insert", 0)]
        trigger = pm.execute(
            "sentineldb",
            "select userName, triggerName, triggerProc, eventName "
            "from SysEcaTrigger").last.rows
        assert trigger == [(
            "sharma", "t_addStk", "sentineldb.sharma.t_addStk__Proc",
            "sentineldb.sharma.addStk")]

    def test_event_registered_in_led(self, installed, agent):
        assert agent.led.has_event("sentineldb.sharma.addStk")


class TestRuntimeBehaviour:
    def test_example_1_functional_run(self, installed):
        result = installed.execute("insert stock values ('IBM', 101.5, 10)")
        assert " trigger t_addStk on primitive event addStk occurs" in \
            result.messages
        # `select * from stock` output reaches the client.
        assert any(rs.columns == ["symbol", "price", "qty"]
                   for rs in result.result_sets)

    def test_vno_increments_per_statement(self, installed, agent):
        installed.execute("insert stock values ('A', 1, 1)")
        installed.execute("insert stock values ('B', 2, 2)")
        assert agent.persistent_manager.current_v_no(
            agent.primitive_events["sentineldb.sharma.addstk"]) == 2

    def test_snapshot_rows_tagged_with_vno(self, installed, agent):
        installed.execute("insert stock values ('A', 1, 1), ('B', 2, 2)")
        installed.execute("insert stock values ('C', 3, 3)")
        rows = agent.persistent_manager.execute(
            "sentineldb",
            "select symbol, vNo from sentineldb.sharma.stock_inserted "
            "order by symbol").last.rows
        assert rows == [("A", 1), ("B", 1), ("C", 2)]

    def test_notification_payload_format(self, installed, agent):
        payloads = []
        original = agent.channel._receiver
        agent.channel.attach(
            lambda payload: (payloads.append(payload), original(payload)))
        installed.execute("insert stock values ('A', 1, 1)")
        assert payloads == [
            "sharma stock insert begin sentineldb.sharma.addStk 1"]


class TestUpdateAndDeleteEvents:
    def test_update_event_snapshots_both_directions(self, astock, agent, server):
        astock.execute(
            "create trigger t_upd on stock for update event updStk "
            "as print 'upd'")
        db = server.catalog.get_database("sentineldb")
        assert db.get_table("sharma", "stock_inserted") is not None
        assert db.get_table("sharma", "stock_deleted") is not None
        astock.execute("insert stock values ('A', 1, 1)")
        astock.execute("update stock set price = 2 where symbol = 'A'")
        pm = agent.persistent_manager
        old = pm.execute(
            "sentineldb",
            "select price from sentineldb.sharma.stock_deleted").last.rows
        new = pm.execute(
            "sentineldb",
            "select price from sentineldb.sharma.stock_inserted").last.rows
        assert old == [(1.0,)]
        assert new == [(2.0,)]

    def test_delete_event_uses_deleted_snapshot(self, astock, agent, server):
        astock.execute(
            "create trigger t_del on stock for delete event delStk "
            "as print 'del'")
        astock.execute("insert stock values ('A', 1, 1)")
        result = astock.execute("delete stock")
        assert "del" in result.messages
        rows = agent.persistent_manager.execute(
            "sentineldb",
            "select symbol, vNo from sentineldb.sharma.stock_deleted").last.rows
        assert rows == [("A", 1)]


class TestSharedSnapshots:
    def test_two_events_same_table_share_snapshot(self, astock, agent, server):
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print 'e1'")
        astock.execute(
            "create trigger t2 on stock for insert event e2 as print 'e2'")
        result = astock.execute("insert stock values ('A', 1, 1)")
        assert "e1" in result.messages and "e2" in result.messages
        # The statement's rows are copied once, under one number both
        # events carry.
        rows = agent.persistent_manager.execute(
            "sentineldb",
            "select vNo from sentineldb.sharma.stock_inserted").last.rows
        assert rows == [(1,)]
