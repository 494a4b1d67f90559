"""The native-trigger-only toolkit (Section 2.2 configuration)."""

import pytest

from repro.baselines import NativeTriggerToolkit


@pytest.fixture
def toolkit(server, stock):
    return NativeTriggerToolkit(server, database="sentineldb", user="sharma")


class TestToolkit:
    def test_create_and_fire(self, toolkit):
        toolkit.create_trigger("tr", "stock", "insert", "print 'fired'")
        assert toolkit.execute("insert stock values ('A', 1, 1)").messages == \
            ["fired"]

    def test_silent_displacement_observable(self, toolkit):
        toolkit.create_trigger("tr1", "stock", "insert", "print 'one'")
        result = toolkit.create_trigger("tr2", "stock", "insert", "print 'two'")
        assert result.messages == []  # no warning to the client
        assert toolkit.displaced_by_last_create() == ["sharma.tr1"]

    def test_drop_trigger(self, toolkit):
        toolkit.create_trigger("tr", "stock", "insert", "print 'fired'")
        toolkit.drop_trigger("tr")
        assert toolkit.execute("insert stock values ('A', 1, 1)").messages == []

    def test_composite_requires_manual_state_tables(self, toolkit):
        """What the paper's users had to do before the agent: hand-rolled
        correlation state in trigger bodies."""
        toolkit.execute("create table seen_insert (n int)")
        toolkit.execute("create table alerts (msg varchar(40))")
        toolkit.create_trigger(
            "t_ins", "stock", "insert", "insert seen_insert values (1)")
        toolkit.create_trigger(
            "t_del", "stock", "delete",
            "if exists (select * from seen_insert) "
            "insert alerts values ('insert-then-delete')")
        toolkit.execute("insert stock values ('A', 1, 1)")
        toolkit.execute("delete stock")
        assert toolkit.execute("select * from alerts").last.rows == [
            ("insert-then-delete",)]
