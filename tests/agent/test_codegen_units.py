"""Unit tests for the code generator helpers (Figures 11/14 building blocks)."""

import re

import pytest

from repro.agent import codegen
from repro.agent.model import EcaTriggerDef, PrimitiveEventDef, TableOpRegistration
from repro.led.rules import Context


@pytest.fixture
def event():
    return PrimitiveEventDef(
        db_name="sentineldb", user_name="sharma", event_name="addStk",
        table_owner="sharma", table_name="stock", operation="insert")


@pytest.fixture
def trigger():
    return EcaTriggerDef(
        db_name="sentineldb", user_name="sharma", trigger_name="t_and",
        event_internal="sentineldb.sharma.addDel",
        action_sql="select symbol from stock.inserted",
        context=Context.RECENT)


class TestModelDerivedNames:
    def test_internal_name(self, event):
        assert event.internal == "sentineldb.sharma.addStk"

    def test_snapshot_table(self, event):
        assert event.snapshot_table() == "sentineldb.sharma.stock_inserted"

    def test_delete_event_snapshot_direction(self):
        delete_event = PrimitiveEventDef(
            db_name="d", user_name="u", event_name="e",
            table_owner="u", table_name="t", operation="delete")
        assert delete_event.snapshot_direction == "deleted"
        assert delete_event.snapshot_directions == ("deleted",)

    def test_update_event_snapshots_both(self):
        update_event = PrimitiveEventDef(
            db_name="d", user_name="u", event_name="e",
            table_owner="u", table_name="t", operation="update")
        assert update_event.snapshot_directions == ("deleted", "inserted")

    def test_version_table(self, event):
        # One counter per snapshot family (db, user, table), not per event.
        assert event.version_table == "sentineldb.sharma.stock_Version"
        delete_event = PrimitiveEventDef(
            db_name="sentineldb", user_name="sharma", event_name="delStk",
            table_owner="sharma", table_name="stock", operation="delete")
        assert delete_event.version_table == event.version_table

    def test_native_trigger_name(self, event):
        assert event.native_trigger_name == "ECA_stock_insert"

    def test_proc_name_matches_paper(self, trigger):
        # Example 1 stores "sentineldb.sharma.t_addStk__Proc".
        assert trigger.proc_name == "sentineldb.sharma.t_and__Proc"


class TestSnapshotSql:
    def test_uses_select_into_where_1_2(self, event):
        sql = codegen.snapshot_table_sql(
            event, "inserted", "sentineldb.sharma.stock")
        assert "select * into sentineldb.sharma.stock_inserted" in sql
        assert "where 1 = 2" in sql
        assert "add vNo int null" in sql

    def test_version_table_seeded(self, event):
        sql = codegen.version_table_sql(event)
        assert "create table sentineldb.sharma.stock_Version" in sql
        assert "values (0)" in sql


def _same_family(operation: str, count: int) -> list[PrimitiveEventDef]:
    return [
        PrimitiveEventDef(
            db_name="sentineldb", user_name="sharma", event_name=f"e{index}",
            table_owner="sharma", table_name="stock", operation=operation)
        for index in range(count)
    ]


class TestNativeTriggerSql:
    def test_one_block_per_event(self, event):
        second = PrimitiveEventDef(
            db_name="sentineldb", user_name="sharma", event_name="other",
            table_owner="sharma", table_name="stock", operation="insert")
        registration = TableOpRegistration(
            db_name="sentineldb", table_owner="sharma",
            table_name="stock", operation="insert")
        sql = codegen.native_trigger_sql(
            registration, [event, second], [], "127.0.0.1", 10006)
        # One numbering + snapshot block for the family, one datagram
        # segment per event, each carrying the family's number.
        assert sql.count("/* events ") == 1
        assert sql.count("convert(varchar, @v0)") == 2
        # Both events' segments travel in ONE coalesced datagram.
        assert sql.count("syb_sendmsg") == 1
        assert 'select @msg = @msg + ";"' in sql

    @pytest.mark.parametrize("operation, directions", [
        ("insert", 1), ("update", 2), ("delete", 1)])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_one_counter_per_family(self, operation, directions, count):
        registration = TableOpRegistration(
            db_name="sentineldb", table_owner="sharma",
            table_name="stock", operation=operation)
        sql = codegen.native_trigger_sql(
            registration, _same_family(operation, count), [], "h", 1)
        bumps = [line for line in sql.splitlines()
                 if "set vNo = vNo + 1" in line]
        assert bumps == [
            "update sentineldb.sharma.stock_Version set vNo = vNo + 1"]
        assert sql.count("insert sentineldb.sharma.stock_") == directions
        assert "SysPrimitiveEvent" not in sql
        assert not re.search(r"delete \S*_Version", sql)
        assert sql.count("begin sentineldb.sharma.e") == count

    def test_one_variable_per_family_in_event_order(self):
        # Two defining users watching one table are two families: each
        # segment carries its own family's number, in registration order.
        registration = TableOpRegistration(
            db_name="sentineldb", table_owner="sharma",
            table_name="stock", operation="insert")
        events = _same_family("insert", 2)
        events.insert(1, PrimitiveEventDef(
            db_name="sentineldb", user_name="dbo", event_name="x",
            table_owner="sharma", table_name="stock", operation="insert"))
        sql = codegen.native_trigger_sql(registration, events, [], "h", 1)
        assert sql.count("set vNo = vNo + 1") == 2
        assert "select @v1 = vNo from sentineldb.dbo.stock_Version" in sql
        segments = re.findall(r"begin (\S+) \" \+ convert\(varchar, (@v\d)\)",
                              sql)
        assert segments == [("sentineldb.sharma.e0", "@v0"),
                            ("sentineldb.dbo.x", "@v1"),
                            ("sentineldb.sharma.e1", "@v0")]

    def test_inline_procs_appended_in_order(self, event):
        registration = TableOpRegistration(
            db_name="sentineldb", table_owner="sharma",
            table_name="stock", operation="insert")
        sql = codegen.native_trigger_sql(
            registration, [event], ["p.first", "p.second"], "h", 1)
        assert sql.index("execute p.first") < sql.index("execute p.second")

    def test_notification_address_baked_in(self, event):
        registration = TableOpRegistration(
            db_name="sentineldb", table_owner="sharma",
            table_name="stock", operation="insert")
        sql = codegen.native_trigger_sql(
            registration, [event], [], "128.227.205.215", 10006)
        # The paper's Figure 11 hard-codes exactly this form.
        assert '"128.227.205.215", 10006' in sql


class TestActionRewriting:
    def resolve(self, text):
        if text.split(".")[-1].lower() == "stock":
            return "sentineldb.sharma.stock"
        return None

    def test_tmp_mode(self):
        rewritten = codegen.rewrite_action_sql(
            "select * from stock.inserted where x in "
            "(select y from stock.deleted)", self.resolve, "tmp")
        assert "sentineldb.sharma.stock_inserted_tmp" in rewritten
        assert "sentineldb.sharma.stock_deleted_tmp" in rewritten

    def test_pseudo_mode(self):
        rewritten = codegen.rewrite_action_sql(
            "select * from stock.inserted", self.resolve, "pseudo")
        assert rewritten == "select * from inserted"

    def test_unknown_table_left_alone(self):
        text = "select * from other.inserted"
        assert codegen.rewrite_action_sql(text, self.resolve, "tmp") == text

    def test_owner_qualified_reference(self):
        rewritten = codegen.rewrite_action_sql(
            "select * from sharma.stock.inserted", self.resolve, "tmp")
        assert "stock_inserted_tmp" in rewritten

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            codegen.rewrite_action_sql("x", self.resolve, "nope")

    def test_plain_table_reference_untouched(self):
        text = "select inserted_total from stock"
        assert codegen.rewrite_action_sql(text, self.resolve, "tmp") == text


class TestContextProcessingSql:
    def test_figure_14_join_shape(self):
        statements = codegen.context_processing_sql(
            ["sentineldb.sharma.stock_inserted"], Context.RECENT,
            "sentineldb.dbo")
        assert statements[0] == "delete sentineldb.sharma.stock_inserted_tmp"
        join = statements[1]
        assert 'sysContext.context = "RECENT"' in join
        assert 'tableName = "sentineldb.sharma.stock_inserted"' in join
        assert "stock_inserted.vNo = sentineldb.dbo.sysContext.vNo" in join

    def test_one_block_per_snapshot(self):
        statements = codegen.context_processing_sql(
            ["a.b.t1_inserted", "a.b.t2_deleted"], Context.CHRONICLE, "a.dbo")
        assert len(statements) == 4


class TestSysContextRefreshSql:
    def test_clears_all_then_inserts_participants(self):
        statements, params = codegen.sys_context_refresh_sql(
            entries=[("a.b.t1_inserted", 3)],
            all_tables=["a.b.t1_inserted", "a.b.t2_deleted"],
            context=Context.RECENT,
            system_db_prefix="a.dbo",
        )
        deletes = [s for s in statements if s.startswith("delete")]
        inserts = [s for s in statements if s.startswith("insert")]
        assert len(deletes) == 2          # stale rows cleared everywhere
        assert len(inserts) == 1
        # occurrence numbers travel as parameter slots, not literals, so
        # the batch text repeats across firings (plan-cache friendly)
        assert '"a.b.t1_inserted", "RECENT", @eca_vno0' in inserts[0]
        assert params == {"@eca_vno0": 3}

    def test_refresh_text_is_constant_across_firings(self):
        kwargs = dict(
            all_tables=["a.b.t1_inserted"],
            context=Context.RECENT,
            system_db_prefix="a.dbo",
        )
        first, params1 = codegen.sys_context_refresh_sql(
            entries=[("a.b.t1_inserted", 3)], **kwargs)
        second, params2 = codegen.sys_context_refresh_sql(
            entries=[("a.b.t1_inserted", 99)], **kwargs)
        assert first == second
        assert params1 != params2
