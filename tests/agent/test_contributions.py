"""E-SEC1: one test per claimed contribution (paper Section 1).

1. A client can create composite events and triggers on them.
2. Reuse of previously defined events (both primitive & composite).
3. Drop triggers associated with primitive or composite events.
4. A client can create multiple triggers on the same event.
5. Once events are created, they become persistent in the database system.
6. All primitive and composite events can be detected, and actions are
   invoked within SQL Server.
"""

import pytest


@pytest.fixture
def base(astock):
    astock.execute(
        "create trigger t_add on stock for insert event addStk as print 'a'")
    astock.execute(
        "create trigger t_del on stock for delete event delStk as print 'd'")
    return astock


class TestContribution1CompositeEvents:
    def test_client_creates_composite_and_trigger(self, base):
        base.execute(
            "create trigger t_and event both = addStk AND delStk as "
            "print 'composite!'")
        base.execute("insert stock values ('A', 1, 1)")
        result = base.execute("delete stock")
        assert "composite!" in result.messages

    def test_every_snoop_operator_accepted(self, base, agent):
        operators = {
            "c_or": "addStk OR delStk",
            "c_and": "addStk AND delStk",
            "c_seq": "addStk SEQ delStk",
            "c_not": "NOT(addStk, delStk, addStk)",
            "c_a": "A(addStk, delStk, addStk)",
            "c_astar": "A*(addStk, delStk, addStk)",
            "c_p": "P(addStk, [10 sec], delStk)",
            "c_pstar": "P*(addStk, [10 sec], delStk)",
            "c_plus": "addStk PLUS [5 sec]",
        }
        for index, (name, expr) in enumerate(operators.items()):
            base.execute(
                f"create trigger tr_{name} event {name} = {expr} as print 'x'")
        assert len(agent.composite_events) == len(operators)


class TestContribution2EventReuse:
    def test_primitive_event_reused_by_two_composites(self, base, agent):
        base.execute("create trigger c1 event x1 = addStk AND delStk as print '1'")
        base.execute("create trigger c2 event x2 = addStk SEQ delStk as print '2'")
        assert len(agent.composite_events) == 2

    def test_composite_event_reused_as_constituent(self, base):
        base.execute("create trigger c1 event x1 = addStk AND delStk as print '1'")
        base.execute("create trigger c2 event x2 = x1 SEQ addStk CHRONICLE as print '2'")
        base.execute("insert stock values ('A', 1, 1)")
        base.execute("delete stock")
        result = base.execute("insert stock values ('B', 2, 2)")
        assert "2" in result.messages

    def test_trigger_on_existing_event_without_redefining(self, base):
        base.execute("create trigger extra event addStk as print 'extra'")
        result = base.execute("insert stock values ('A', 1, 1)")
        assert "extra" in result.messages


class TestContribution3DropTriggers:
    def test_drop_trigger_on_primitive_event(self, base):
        base.execute("drop trigger t_add")
        result = base.execute("insert stock values ('A', 1, 1)")
        assert "a" not in result.messages

    def test_drop_trigger_on_composite_event(self, base, agent):
        base.execute("create trigger tc event c = addStk AND delStk as print 'c'")
        base.execute("drop trigger tc")
        base.execute("insert stock values ('A', 1, 1)")
        result = base.execute("delete stock")
        assert "c" not in result.messages
        assert agent.led.rules_for("sentineldb.sharma.c") == []

    def test_event_survives_trigger_drop(self, base, agent):
        base.execute("drop trigger t_add")
        assert agent.led.has_event("sentineldb.sharma.addStk")
        # ...and can immediately get a new trigger.
        base.execute("create trigger t_new event addStk as print 'new'")
        result = base.execute("insert stock values ('A', 1, 1)")
        assert "new" in result.messages


class TestContribution4MultipleTriggers:
    def test_multiple_triggers_same_primitive_event(self, base):
        base.execute("create trigger t_add2 event addStk as print 'a2'")
        base.execute("create trigger t_add3 event addStk as print 'a3'")
        result = base.execute("insert stock values ('A', 1, 1)")
        assert {"a", "a2", "a3"} <= set(result.messages)

    def test_multiple_triggers_same_composite_event(self, base, agent):
        base.execute("create trigger tc1 event c = addStk AND delStk as print 'c1'")
        base.execute("create trigger tc2 event c as print 'c2'")
        base.execute("insert stock values ('A', 1, 1)")
        result = base.execute("delete stock")
        assert "c1" in result.messages and "c2" in result.messages

    def test_priorities_order_execution(self, base):
        base.execute("create trigger p1 event addStk 1 as print 'low'")
        base.execute("create trigger p9 event addStk 9 as print 'high'")
        result = base.execute("insert stock values ('A', 1, 1)")
        low, high = result.messages.index("low"), result.messages.index("high")
        assert high < low


class TestContribution5Persistence:
    def test_events_stored_in_native_tables(self, base, agent):
        pm = agent.persistent_manager
        primitives = pm.execute(
            "sentineldb", "select eventName from SysPrimitiveEvent").last
        assert sorted(r[0] for r in primitives.rows) == ["addStk", "delStk"]

    def test_composites_stored_in_native_tables(self, base, agent):
        base.execute("create trigger tc event c = addStk AND delStk as print 'c'")
        rows = agent.persistent_manager.execute(
            "sentineldb", "select eventName from SysCompositeEvent").last.rows
        assert rows == [("c",)]

    def test_persistence_is_plain_sql_queryable(self, base):
        # Persistence uses the native DBMS: an ordinary client can read it.
        result = base.execute(
            "select eventName, tableName, operation from dbo.SysPrimitiveEvent "
            "order by eventName")
        assert result.last.rows == [
            ("addStk", "stock", "insert"), ("delStk", "stock", "delete")]


class TestContribution6DetectionAndInvocation:
    def test_primitive_detection_and_action_in_server(self, base, server):
        # The action is a stored procedure executed inside the engine.
        assert "sharma.t_add__Proc" in server.procedure_names("sentineldb")
        result = base.execute("insert stock values ('A', 1, 1)")
        assert "a" in result.messages

    def test_composite_detection_in_agent_action_in_server(self, base, agent,
                                                           server):
        base.execute(
            "create trigger tc event c = addStk AND delStk as "
            "insert stock values ('ACT_ROW', 0, 0)")
        base.execute("insert stock values ('A', 1, 1)")
        base.execute("delete stock where symbol = 'A'")
        # The action ran inside the server: its effect is in the table.
        rows = base.execute(
            "select symbol from stock where symbol = 'ACT_ROW'").last.rows
        assert rows == [("ACT_ROW",)]
