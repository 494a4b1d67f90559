"""Dropping triggers and events: cleanup of every generated artifact."""

import pytest

from repro.agent.errors import NameError_


@pytest.fixture
def base(astock):
    astock.execute(
        "create trigger t1 on stock for insert event e1 as print '1'")
    return astock


class TestDropTrigger:
    def test_removes_proc_and_persistence(self, base, agent, server):
        base.execute("drop trigger t1")
        assert "sharma.t1__Proc" not in server.procedure_names("sentineldb")
        count = agent.persistent_manager.execute(
            "sentineldb", "select count(*) from SysEcaTrigger").last.scalar()
        assert count == 0

    def test_native_trigger_regenerated_without_inline_proc(self, base, server):
        base.execute("drop trigger t1")
        db = server.catalog.get_database("sentineldb")
        trigger = db.get_trigger("sharma", "ECA_stock_insert")
        assert trigger is not None          # event still registered
        assert "t1__Proc" not in trigger.source

    def test_drop_unknown_trigger_falls_through_to_engine(self, base):
        # Not an ECA trigger, so the command passes through and the
        # engine's own catalog error surfaces.
        from repro.sqlengine import CatalogError

        with pytest.raises(CatalogError):
            base.execute("drop trigger ghost")

    def test_drop_led_rule_for_composite_trigger(self, base, agent):
        base.execute(
            "create trigger t2 on stock for delete event e2 as print '2'")
        base.execute("create trigger tc event c = e1 AND e2 as print 'c'")
        base.execute("drop trigger tc")
        assert agent.led.rules_for("sentineldb.sharma.c") == []


class TestDropEvent:
    def test_drop_event_with_triggers_refused(self, base):
        with pytest.raises(NameError_) as excinfo:
            base.execute("drop event e1")
        assert "t1" in str(excinfo.value)

    def test_drop_primitive_event_cleans_everything(self, base, agent, server):
        base.execute("drop trigger t1")
        base.execute("drop event e1")
        db = server.catalog.get_database("sentineldb")
        assert db.get_table("sharma", "stock_inserted") is None
        assert db.get_table("sharma", "stock_Version") is None
        assert db.get_trigger("sharma", "ECA_stock_insert") is None
        assert not agent.led.has_event("sentineldb.sharma.e1")
        count = agent.persistent_manager.execute(
            "sentineldb",
            "select count(*) from SysPrimitiveEvent").last.scalar()
        assert count == 0

    def test_drop_event_keeps_shared_snapshot(self, base, agent, server):
        base.execute(
            "create trigger t2 on stock for insert event e2 as print '2'")
        base.execute("drop trigger t1")
        base.execute("drop event e1")
        db = server.catalog.get_database("sentineldb")
        # e2 still snapshots stock_inserted and numbers from stock_Version.
        assert db.get_table("sharma", "stock_inserted") is not None
        assert db.get_table("sharma", "stock_Version") is not None
        assert db.get_trigger("sharma", "ECA_stock_insert") is not None

    def test_family_counter_outlives_all_but_the_last_event(
            self, base, agent, server):
        # A delete event shares the table's counter but not its
        # inserted snapshot: the counter goes with the family's last event.
        base.execute(
            "create trigger t2 on stock for delete event e2 as print '2'")
        base.execute("insert stock values ('A', 1, 1)")
        base.execute("drop trigger t1")
        base.execute("drop event e1")
        db = server.catalog.get_database("sentineldb")
        assert db.get_table("sharma", "stock_inserted") is None
        assert db.get_table("sharma", "stock_Version") is not None
        result = base.execute("delete stock")
        assert "2" in result.messages
        assert agent.persistent_manager.current_v_no(
            agent.primitive_events["sentineldb.sharma.e2"]) == 2
        base.execute("drop trigger t2")
        base.execute("drop event e2")
        assert db.get_table("sharma", "stock_Version") is None
        assert db.get_table("sharma", "stock_deleted") is None

    def test_drop_event_used_by_composite_refused(self, base, agent):
        base.execute(
            "create trigger t2 on stock for delete event e2 as print '2'")
        base.execute("create trigger tc event c = e1 AND e2 as print 'c'")
        base.execute("drop trigger t1")
        with pytest.raises(NameError_):
            base.execute("drop event e1")

    def test_drop_composite_event(self, base, agent):
        base.execute(
            "create trigger t2 on stock for delete event e2 as print '2'")
        base.execute("create trigger tc event c = e1 AND e2 as print 'c'")
        base.execute("drop trigger tc")
        base.execute("drop event c")
        assert not agent.led.has_event("sentineldb.sharma.c")
        count = agent.persistent_manager.execute(
            "sentineldb",
            "select count(*) from SysCompositeEvent").last.scalar()
        assert count == 0

    def test_drop_unknown_event(self, base):
        with pytest.raises(NameError_):
            base.execute("drop event ghost")

    def test_dropped_primitive_no_longer_notifies(self, base, agent):
        base.execute("drop trigger t1")
        base.execute("drop event e1")
        sent_before = agent.channel.sent_count
        base.execute("insert stock values ('A', 1, 1)")
        assert agent.channel.sent_count == sent_before

    def test_event_name_reusable_after_drop(self, base, agent):
        base.execute("drop trigger t1")
        base.execute("drop event e1")
        base.execute(
            "create trigger t1 on stock for delete event e1 as print 'new e1'")
        base.execute("insert stock values ('A', 1, 1)")
        result = base.execute("delete stock")
        assert "new e1" in result.messages
