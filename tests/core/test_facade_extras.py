"""Facade coverage for the extension surface (conditions, introspection)."""

import pytest

from repro.core import ActiveDatabase


class TestFacadeExtensions:
    def test_trace_accessible_through_facade(self, adb):
        adb.agent.trace.enabled = True
        adb.execute("create table t (a int)")
        adb.define_rule("t1", event="e1", on_table="t",
                        operation="insert", action="print 'x'")
        adb.execute("insert t values (1)")
        steps = adb.agent.trace.steps()
        assert any(step.startswith("fig4") for step in steps)

    def test_sp_help_through_facade(self, adb):
        adb.execute("create table t (a int)")
        result = adb.execute("exec sp_help 't'")
        assert result.result_sets[1].rows[0][0] == "a"

    def test_views_through_mediated_connection(self, adb):
        adb.execute("create table t (a int)")
        adb.execute("insert t values (1), (2)")
        adb.execute("create view big as select a from t where a > 1")
        assert adb.execute("select * from big").last.rows == [(2,)]

    def test_rule_action_may_query_view(self, adb):
        adb.execute("create table t (a int)")
        adb.execute("create view all_t as select a from t")
        adb.define_rule(
            "t1", event="e1", on_table="t", operation="insert",
            action="select count(*) n from all_t")
        result = adb.execute("insert t values (1)")
        assert any(rs.columns == ["n"] for rs in result.result_sets)

    def test_two_active_databases_are_independent(self):
        one = ActiveDatabase(database="db_one", user="u")
        two = ActiveDatabase(database="db_two", user="u")
        try:
            one.execute("create table t (a int)")
            two.execute("create table t (a int)")
            one.define_rule("t1", event="e1", on_table="t",
                            operation="insert", action="print 'one'")
            assert two.execute("insert t values (1)").messages == []
            assert one.execute("insert t values (1)").messages == ["one"]
        finally:
            one.close()
            two.close()

    def test_facade_survives_many_define_drop_cycles(self, adb):
        adb.execute("create table t (a int)")
        for index in range(15):
            adb.define_rule(f"t{index}", event=f"e{index}", on_table="t",
                            operation="insert", action=f"print '{index}'")
            adb.drop_rule(f"t{index}")
            adb.drop_event(f"e{index}")
        assert adb.agent.eca_triggers == {}
        assert adb.execute("insert t values (1)").messages == []
