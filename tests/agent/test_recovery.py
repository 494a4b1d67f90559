"""E-FIG8: persistence and recovery of ECA rules on agent restart.

The paper: "On ECA Agent starting or recovery, Persistent Manager
restores and creates all events and rules from these tables."  Here the
engine survives (it is the persistent store) and a *new* agent instance
attaches to it.
"""

import pytest

from repro.agent import EcaAgent


@pytest.fixture
def populated(server, agent, astock):
    astock.execute(
        "create trigger t_add on stock for insert event addStk as "
        "print 'add!'")
    astock.execute(
        "create trigger t_del on stock for delete event delStk as "
        "print 'del!'")
    astock.execute(
        "create trigger t_and event addDel = delStk ^ addStk RECENT as "
        "print 'and!'")
    astock.execute("insert stock values ('SEED', 1, 1)")
    agent.close()
    return server


class TestRecovery:
    def test_counts(self, populated):
        restarted = EcaAgent(populated)
        counts = restarted.recover()  # idempotent second call
        assert counts == {"primitive": 0, "composite": 0, "trigger": 0,
                          "repaired": 0}
        assert len(restarted.primitive_events) == 2
        assert len(restarted.composite_events) == 1
        assert len(restarted.eca_triggers) == 3
        restarted.close()

    def test_events_restored_into_led(self, populated):
        restarted = EcaAgent(populated)
        for name in ("sentineldb.sharma.addStk", "sentineldb.sharma.delStk",
                     "sentineldb.sharma.addDel"):
            assert restarted.led.has_event(name)
        restarted.close()

    def test_primitive_rules_fire_after_restart(self, populated):
        restarted = EcaAgent(populated)
        conn = restarted.connect(user="sharma", database="sentineldb")
        result = conn.execute("insert stock values ('X', 2, 2)")
        assert "add!" in result.messages
        restarted.close()

    def test_composite_rules_fire_after_restart(self, populated):
        restarted = EcaAgent(populated)
        conn = restarted.connect(user="sharma", database="sentineldb")
        conn.execute("delete stock where symbol = 'SEED'")
        result = conn.execute("insert stock values ('Y', 3, 3)")
        assert "and!" in result.messages
        restarted.close()

    def test_occurrence_numbers_continue(self, populated):
        restarted = EcaAgent(populated)
        conn = restarted.connect(user="sharma", database="sentineldb")
        conn.execute("insert stock values ('X', 2, 2)")
        assert restarted.persistent_manager.current_v_no(
            restarted.primitive_events["sentineldb.sharma.addstk"]
        ) == 2  # 1 before restart
        restarted.close()

    def test_new_rules_can_be_added_after_recovery(self, populated):
        restarted = EcaAgent(populated)
        conn = restarted.connect(user="sharma", database="sentineldb")
        conn.execute("create trigger t_more event addStk as print 'more!'")
        result = conn.execute("insert stock values ('Z', 4, 4)")
        assert "add!" in result.messages and "more!" in result.messages
        restarted.close()

    def test_recovery_of_composite_of_composite(self, server, agent, astock):
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        astock.execute(
            "create trigger t2 on stock for delete event e2 as print '2'")
        astock.execute(
            "create trigger tc event c1 = e1 AND e2 as print 'c1'")
        astock.execute(
            "create trigger tcc event c2 = c1 SEQ e1 CHRONICLE as print 'c2'")
        agent.close()
        restarted = EcaAgent(server)
        assert len(restarted.composite_events) == 2
        conn = restarted.connect(user="sharma", database="sentineldb")
        conn.execute("insert stock values ('A', 1, 1)")
        conn.execute("delete stock")          # c1 fires
        result = conn.execute("insert stock values ('B', 2, 2)")
        assert "c2" in result.messages
        restarted.close()

    def test_fresh_server_recovers_nothing(self, server):
        agent = EcaAgent(server)
        assert agent.primitive_events == {}
        assert agent.composite_events == {}
        agent.close()

    def test_dropped_rules_stay_dropped(self, server, agent, astock):
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        astock.execute("drop trigger t1")
        agent.close()
        restarted = EcaAgent(server)
        assert restarted.eca_triggers == {}
        assert len(restarted.primitive_events) == 1  # event survives
        restarted.close()
