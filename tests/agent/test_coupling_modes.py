"""E-EXT1: IMMEDIATE / DEFERRED / DETACHED coupling through the full stack.

The paper implements IMMEDIATE and names deferred/detached as future work
(Section 6); this reproduction implements all three.
"""

import pytest


class TestImmediate:
    def test_primitive_immediate_runs_inside_statement(self, astock):
        astock.execute(
            "create trigger t on stock for insert event e as print 'now'")
        result = astock.execute("insert stock values ('A', 1, 1)")
        assert "now" in result.messages

    def test_composite_immediate_runs_inside_statement(self, astock):
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        astock.execute(
            "create trigger t2 on stock for update event e2 as print '2'")
        astock.execute(
            "create trigger tc event c = e1 SEQ e2 as print 'seq fired'")
        astock.execute("insert stock values ('A', 1, 1)")
        result = astock.execute("update stock set price = 2")
        assert "seq fired" in result.messages


class TestDeferred:
    @pytest.fixture
    def deferred_rule(self, astock):
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        astock.execute(
            "create trigger td event e1 DEFERRED as "
            "print 'deferred fired'")
        return astock

    def test_runs_at_commit(self, deferred_rule, agent):
        deferred_rule.execute("begin tran")
        result = deferred_rule.execute("insert stock values ('A', 1, 1)")
        assert "deferred fired" not in result.messages
        assert agent.led.deferred_count == 1
        deferred_rule.execute("commit")
        log = [r for r in agent.action_handler.action_log
               if "td" in r.trigger_internal]
        assert len(log) == 1

    def test_discarded_on_rollback(self, deferred_rule, agent):
        deferred_rule.execute("begin tran")
        deferred_rule.execute("insert stock values ('A', 1, 1)")
        deferred_rule.execute("rollback")
        log = [r for r in agent.action_handler.action_log
               if "td" in r.trigger_internal]
        assert log == []
        assert agent.led.deferred_count == 0

    def test_autocommit_statement_flushes_at_end(self, deferred_rule, agent):
        # Outside a transaction each statement is its own transaction.
        deferred_rule.execute("insert stock values ('A', 1, 1)")
        log = [r for r in agent.action_handler.action_log
               if "td" in r.trigger_internal]
        assert len(log) == 1

    def test_multiple_deferred_fire_in_order(self, astock, agent):
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        astock.execute(
            "create trigger ta event e1 DEFERRED 5 as print 'a'")
        astock.execute(
            "create trigger tb event e1 DEFERRED 1 as print 'b'")
        astock.execute("begin tran")
        astock.execute("insert stock values ('A', 1, 1)")
        astock.execute("commit")
        names = [r.trigger_internal.split(".")[-1]
                 for r in agent.action_handler.action_log]
        assert names == ["ta", "tb"]


class TestDeferredAcrossSessions:
    """A DEFERRED firing belongs to the transaction that raised it.

    The LED keeps one queue for every session, so another session's
    statement end flushes or discards it.  Each case pins that fault
    and flips to a pass once firings are tagged with their session.
    """

    @pytest.fixture
    def sessions(self, astock, agent):
        astock.execute("create table other (id int null)")
        astock.execute(
            "create trigger t1 on stock for insert event e1 DEFERRED as "
            "print 'deferred fired'")
        return astock, agent.connect(user="sharma", database="sentineldb")

    @pytest.mark.xfail(strict=True, reason="one deferred queue for every "
                       "session: B's autocommit statement flushes A's firing")
    def test_other_sessions_statement_does_not_flush(self, sessions, agent):
        a, b = sessions
        a.execute("begin tran")
        a.execute("insert stock values ('A', 1, 1)")
        result = b.execute("select count(*) from other")
        assert "deferred fired" not in result.messages
        assert agent.action_handler.action_log == []
        a.execute("rollback")
        assert agent.action_handler.action_log == []

    @pytest.mark.xfail(strict=True, reason="one deferred queue for every "
                       "session: B's rollback discards A's firing")
    def test_other_sessions_rollback_does_not_discard(self, sessions, agent):
        a, b = sessions
        a.execute("begin tran")
        a.execute("insert stock values ('A', 1, 1)")
        b.execute("begin tran insert other values (1) rollback")
        a.execute("commit")
        assert len(agent.action_handler.action_log) == 1


class TestDetached:
    def test_runs_on_worker_thread(self, astock, agent):
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        astock.execute(
            "create trigger tx event e1 DETACHED as "
            "print 'detached fired'")
        result = astock.execute("insert stock values ('A', 1, 1)")
        agent.action_handler.join_detached()
        log = [r for r in agent.action_handler.action_log
               if r.trigger_internal.endswith("tx")]
        assert len(log) == 1
        assert log[0].messages == ["detached fired"]
        # Detached output does NOT go to the triggering client.
        assert "detached fired" not in result.messages

    def test_detached_firing_recorded_in_led_history(self, astock, agent):
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        astock.execute(
            "create trigger tx event e1 DETACHED as print 'd'")
        astock.execute("insert stock values ('A', 1, 1)")
        agent.action_handler.join_detached()
        detached = [f for f in agent.led.history
                    if f.coupling.value == "DETACHED"]
        assert len(detached) == 1
        assert detached[0].error is None

    def test_primitive_detached_not_inlined_in_native_trigger(
            self, astock, agent, server):
        astock.execute(
            "create trigger t1 on stock for insert event e1 DETACHED as "
            "print 'async primitive'")
        db = server.catalog.get_database("sentineldb")
        trigger = db.get_trigger("sharma", "ECA_stock_insert")
        assert "execute" not in trigger.source.lower().replace(
            "executed", "")  # no inline proc call
        astock.execute("insert stock values ('A', 1, 1)")
        agent.action_handler.join_detached()
        log = [r for r in agent.action_handler.action_log
               if r.trigger_internal.endswith("t1")]
        assert len(log) == 1

    def test_finished_detached_threads_are_not_retained(self, astock, agent):
        """Regression: the handler kept one ``Thread`` object per
        DETACHED firing until ``agent.close()`` — a long-running agent
        grew without bound.  What it keeps is bounded by what is still
        running (plus the thread it just started)."""
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        astock.execute("create trigger tx event e1 DETACHED as print 'd'")
        handler = agent.action_handler
        for number in range(200):
            astock.execute(f"insert stock values ('A', {number}, 1)")
            for thread in list(handler._threads):   # await this firing
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            assert len(handler._threads) <= 1
        assert len([f for f in agent.led.history
                    if f.coupling.value == "DETACHED"]) == 200
        agent.action_handler.join_detached()
        assert handler._threads == []


class TestDefaults:
    def test_default_coupling_is_immediate(self, astock, agent):
        astock.execute(
            "create trigger t on stock for insert event e as print 'x'")
        trigger = agent.eca_triggers["sentineldb.sharma.t"]
        assert trigger.coupling.value == "IMMEDIATE"

    def test_default_context_is_recent(self, astock, agent):
        astock.execute(
            "create trigger t on stock for insert event e as print 'x'")
        trigger = agent.eca_triggers["sentineldb.sharma.t"]
        assert trigger.context.value == "RECENT"

    def test_composite_event_defaults_flow_to_triggers(self, astock, agent):
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        astock.execute(
            "create trigger tc event c = e1 OR e1 DEFERRED CHRONICLE 4 as "
            "print 'c'")
        astock.execute("create trigger tc2 event c as print 'c2'")
        second = agent.eca_triggers["sentineldb.sharma.tc2"]
        assert second.coupling.value == "DEFERRED"
        assert second.context.value == "CHRONICLE"
        assert second.priority == 4
