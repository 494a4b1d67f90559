"""Long-running mixed-workload integration: the full stack stays sane.

Drives the paper's stock workload through an agent with several rules in
different contexts and couplings, then checks global invariants that
would catch drift anywhere in the pipeline (lost notifications, stale
sysContext rows, snapshot corruption, occurrence-number skew).
"""

import pytest

from repro.workloads import StockWorkload


@pytest.fixture
def loaded(astock, agent):
    astock.execute(
        "create trigger t_add on stock for insert event addStk as print 'a'")
    astock.execute(
        "create trigger t_del on stock for delete event delStk as print 'd'")
    astock.execute(
        "create trigger t_upd on stock for update event updStk as print 'u'")
    astock.execute(
        "create trigger tc1 event c1 = addStk AND delStk RECENT as "
        "select symbol from stock.inserted")
    astock.execute(
        "create trigger tc2 event c2 = addStk SEQ updStk CHRONICLE as "
        "select symbol from stock.inserted")
    astock.execute(
        "create trigger tc3 event c3 = updStk OR delStk CUMULATIVE as "
        "print 'volatility'")
    return astock


def run_workload(conn, count=250, seed=7):
    workload = StockWorkload(seed=seed)
    counts = {"insert": 0, "update": 0, "delete": 0}
    for sql in workload.operations(count):
        kind = sql.split()[0]
        result = conn.execute(sql)
        if result.rowcount > 0:
            counts[kind] += 1
    return counts


class TestWorkloadInvariants:
    def test_every_statement_notifies_once_per_event(self, loaded, agent):
        counts = run_workload(loaded)
        # update statements with 0 rows still fire (Sybase semantics) but
        # the workload only updates held rows; every op notifies once.
        assert agent.notifier.received == agent.channel.sent_count
        assert agent.notifier.rejected == 0

    def test_v_no_matches_statement_count(self, loaded, agent):
        # The insert, update and delete events on stock share one
        # counter, bumped once by every statement that fires a trigger.
        workload = StockWorkload(seed=11)
        firing = 0
        for sql in workload.operations(200):
            loaded.execute(sql)
            if sql.split()[0] in ("insert", "update", "delete"):
                firing += 1
        assert agent.persistent_manager.current_v_no(
            agent.primitive_events["sentineldb.sharma.addstk"]) == firing

    def test_snapshot_vno_values_are_dense(self, loaded, agent):
        # Each firing statement takes the next number, and the snapshot
        # rows under a number are that one statement's (every workload
        # statement touches one row).  Per direction the numbers are
        # increasing but not dense: the other direction's statements
        # take the numbers in between.
        pm = agent.persistent_manager
        addstk = agent.primitive_events["sentineldb.sharma.addstk"]
        expected = {"inserted": [], "deleted": []}
        last = 0
        for sql in StockWorkload(seed=7).operations(150):
            loaded.execute(sql)
            v_no = pm.current_v_no(addstk)
            assert v_no == last + 1
            last = v_no
            kind = sql.split()[0]
            if kind != "delete":
                expected["inserted"].append(v_no)
            if kind != "insert":
                expected["deleted"].append(v_no)
        for direction, numbers in expected.items():
            rows = pm.execute(
                "sentineldb",
                f"select vNo from sentineldb.sharma.stock_{direction} "
                "order by vNo").last.rows
            assert [row[0] for row in rows] == numbers

    def test_no_failed_actions(self, loaded, agent):
        run_workload(loaded)
        assert [r for r in agent.action_handler.action_log if r.error] == []

    def test_chronicle_seq_fires_bounded_by_initiators(self, loaded, agent):
        counts = run_workload(loaded)
        seq_firings = len([
            r for r in agent.action_handler.action_log
            if r.trigger_internal.endswith("tc2")])
        assert seq_firings <= counts["insert"]
        assert seq_firings > 0

    def test_sys_context_only_holds_active_contexts(self, loaded, agent):
        run_workload(loaded)
        contexts = agent.persistent_manager.execute(
            "sentineldb",
            "select distinct context from sysContext").last.rows
        # Exactly the contexts of the three composite rules, nothing else.
        assert set(row[0] for row in contexts) <= {
            "RECENT", "CHRONICLE", "CUMULATIVE"}

    def test_stack_survives_and_rules_remain_live(self, loaded, agent):
        run_workload(loaded, count=100)
        result = loaded.execute("insert stock values ('FINAL', 1.0, 1)")
        assert "a" in result.messages

    def test_deterministic_rerun(self, server):
        """Two identical stacks given identical workloads agree exactly."""
        from repro.agent import EcaAgent
        from repro.sqlengine import SqlServer

        outcomes = []
        for _ in range(2):
            srv = SqlServer(default_database="sentineldb")
            agent = EcaAgent(srv)
            conn = agent.connect(user="sharma", database="sentineldb")
            conn.execute(
                "create table stock (symbol varchar(10) not null, "
                "price float null, qty int null)")
            conn.execute("create trigger t_add on stock for insert "
                         "event addStk as print 'a'")
            conn.execute("create trigger t_del on stock for delete "
                         "event delStk as print 'd'")
            conn.execute("create trigger tc event c = addStk AND delStk "
                         "CHRONICLE as select symbol from stock.inserted")
            for sql in StockWorkload(seed=3).operations(150):
                conn.execute(sql)
            outcomes.append((
                len(agent.action_handler.action_log),
                agent.persistent_manager.current_v_no(
                    agent.primitive_events["sentineldb.sharma.addstk"]),
                sorted(map(tuple, conn.execute(
                    "select * from stock").last.rows)),
            ))
            agent.close()
        assert outcomes[0] == outcomes[1]
