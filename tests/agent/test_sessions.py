"""The multi-session gateway: session isolation, worker-pool scheduling,
backpressure, fine-grained locking under concurrency, and deterministic
LED ordering across client interleavings (docs/CONCURRENCY.md).

Clock hygiene: nothing here reads or sleeps on the wall clock directly —
blocking is expressed through ``Future.result(timeout)``, ``join``
timeouts, and ``waitfor delay`` SQL (which the *engine* sleeps on, on a
pool worker, which is exactly the behaviour under test).
"""

import threading
from concurrent.futures import Future

import pytest

from repro.agent import EcaAgent
from repro.agent.gateway import RECENT_CLOSED_LIMIT
from repro.agent.session import AgentSession
from repro.agent.workers import WorkerPool, drain_session
from repro.difftest import (
    compare_stack_runs,
    generate_scenario,
    run_interleaved,
    run_stack,
)
from repro.led import ManualClock
from repro.sqlengine import SqlServer

USER = "sharma"
DATABASE = "sentineldb"


def pooled_agent(workers: int) -> EcaAgent:
    server = SqlServer(default_database=DATABASE)
    return EcaAgent(server, clock=ManualClock(), channel="sync",
                    workers=workers)


class TestSessionIsolation:
    def test_sessions_have_distinct_ids_and_state(self, agent):
        a = agent.gateway.open_session(USER, DATABASE)
        b = agent.gateway.open_session("jukka", DATABASE)
        assert a.session_id != b.session_id
        assert a.state == "idle" and b.state == "idle"
        assert a.user == USER and b.user == "jukka"

    def test_commands_attributed_to_their_session(self, agent):
        gateway = agent.gateway
        a = gateway.open_session(USER, DATABASE)
        b = gateway.open_session(USER, DATABASE)
        gateway.execute_for(a, "create table iso_a (x int null)")
        for _ in range(3):
            gateway.execute_for(a, "insert iso_a values (1)")
        gateway.execute_for(b, "select 1")
        by_id = {s["session_id"]: s for s in gateway.session_snapshots()}
        assert by_id[a.session_id]["enqueued"] == 4
        assert by_id[a.session_id]["executed"] == 4
        assert by_id[b.session_id]["executed"] == 1

    def test_engine_state_stays_per_session(self, agent):
        gateway = agent.gateway
        a = gateway.open_session(USER, DATABASE)
        b = gateway.open_session(USER, DATABASE)
        gateway.execute_for(a, "create table iso_tx (x int null)")
        gateway.execute_for(a, "begin transaction\ninsert iso_tx values (1)")
        assert a.tx_log.active
        assert not b.tx_log.active
        gateway.execute_for(a, "rollback")
        result = gateway.execute_for(b, "select count(*) from iso_tx")
        assert [list(r) for r in result.last.rows] == [[0]]


class TestWorkerPool:
    def test_pooled_commands_run_off_the_client_thread(self):
        agent = pooled_agent(2)
        try:
            gateway = agent.gateway
            session = gateway.open_session(USER, DATABASE)
            future = gateway.submit_for(session, "select 1")
            assert [list(r) for r in future.result(timeout=10).last.rows] == [[1]]
            # the pool's completion counter proves a worker ran it
            assert gateway.pool.completed >= 1
            assert session.executed_total == 1
        finally:
            agent.close()

    def test_per_session_fifo_under_pool(self):
        agent = pooled_agent(4)
        try:
            gateway = agent.gateway
            session = gateway.open_session(USER, DATABASE)
            gateway.execute_for(
                session, "create table fifo_t (x int not null)")
            futures = [gateway.submit_for(
                session, f"insert fifo_t values ({n})")
                for n in range(20)]
            for future in futures:
                future.result(timeout=30)
            result = gateway.execute_for(session, "select x from fifo_t")
            # one session's commands never reorder, even with 4 workers
            assert [row[0] for row in result.last.rows] == list(range(20))
        finally:
            agent.close()

    def test_sessions_progress_in_parallel(self):
        agent = pooled_agent(4)
        try:
            gateway = agent.gateway
            sessions = [gateway.open_session(USER, DATABASE)
                        for _ in range(4)]
            gateway.execute_for(
                sessions[0], "create table par_t (x int null)")
            futures = [gateway.submit_for(
                s, 'waitfor delay "0:0:0.05"\ninsert par_t values (1)')
                for s in sessions]
            for future in futures:
                future.result(timeout=30)
            result = gateway.execute_for(
                sessions[0], "select count(*) from par_t")
            assert [list(r) for r in result.last.rows] == [[4]]
        finally:
            agent.close()

    def test_pooled_run_records_queue_wait_and_both_lock_paths(self):
        """With metrics on, every pooled dequeue lands in
        ``agent_queue_wait_seconds`` (the watchdog's p95 ceiling reads
        it), and a mixed run takes both engine lock paths: exclusive
        for DDL, shared for plain DML on a trigger-free table."""
        agent = pooled_agent(2)
        agent.metrics.enabled = True
        try:
            gateway = agent.gateway
            sessions = [gateway.open_session(USER, DATABASE)
                        for _ in range(4)]
            gateway.execute_for(
                sessions[0], "create table qw_t (k int not null, v int null)")
            gateway.execute_for(sessions[0], "insert qw_t values (1, 0)")
            futures = [gateway.submit_for(session, sql)
                       for _ in range(5) for session in sessions
                       for sql in ("update qw_t set v = v + 1 where k = 1",
                                   "select v from qw_t where k = 1")]
            for future in futures:
                future.result(timeout=30)
            wait = agent.metrics.get("agent_queue_wait_seconds").summary()
            assert wait.count > 0
            locks = agent.server.lock_manager.stats()
            assert locks["shared_batches"] > 0
            assert locks["exclusive_batches"] > 0
        finally:
            agent.close()

    def test_backpressure_blocks_then_drains(self):
        agent = pooled_agent(1)
        try:
            gateway = agent.gateway
            server = agent.server
            session = AgentSession(
                server.create_session(USER, DATABASE), queue_limit=2)
            # occupy the single worker, then fill the bounded queue
            blocker = gateway.submit_for(session, 'waitfor delay "0:0:0.3"')
            overflow_done = threading.Event()
            futures = []

            def flood():
                for n in range(4):
                    futures.append(
                        gateway.submit_for(session, f"select {n}"))
                overflow_done.set()

            flooder = threading.Thread(target=flood, daemon=True)
            flooder.start()
            # the flooder must be throttled by the bounded queue, then
            # released as the worker drains it
            assert overflow_done.wait(timeout=30)
            blocker.result(timeout=30)
            for future in futures:
                future.result(timeout=30)
            assert session.backpressure_waits >= 1
            assert session.executed_total == 5
            assert session.queue_depth() == 0
        finally:
            agent.close()

    def test_resize_swaps_pool_without_losing_commands(self):
        agent = pooled_agent(2)
        try:
            conn = agent.connect(user=USER, database=DATABASE)
            conn.execute("create table rsz_t (x int null)")
            old_pool = agent.gateway.pool
            for size in (4, 1, 8):
                result = conn.execute(f"set agent workers {size}")
                assert any("resized" in m for m in result.messages)
                assert agent.gateway.worker_count() == size
                conn.execute("insert rsz_t values (1)")
            assert agent.gateway.pool is not old_pool
            result = conn.execute("select count(*) from rsz_t")
            assert [list(r) for r in result.last.rows] == [[3]]
            conn.execute("set agent workers 0")
            assert agent.gateway.pool is None
            result = conn.execute("select count(*) from rsz_t")
            assert [list(r) for r in result.last.rows] == [[3]]
        finally:
            agent.close()

    def test_stopped_pool_rejects_then_gateway_falls_back(self):
        pool = WorkerPool(1)
        pool.stop(join=True)
        session = AgentSession(
            SqlServer().create_session(USER, "master"))
        with pytest.raises(RuntimeError):
            pool.submit(session, lambda: None)


class TestResizeNeverStrands:
    """Regression: a pool replacement used to wedge sessions whose
    backlog was re-queued behind the old pool's stop sentinels."""

    def test_resize_with_queued_backlog_resolves_every_future(self):
        agent = pooled_agent(1)
        try:
            gateway = agent.gateway
            session = gateway.open_session(USER, DATABASE)
            gateway.execute_for(
                session, "create table strand_t (x int null)")
            # one slow command in flight + a backlog queued behind it
            futures = [gateway.submit_for(
                session,
                f'waitfor delay "0:0:0.05"\ninsert strand_t values ({n})')
                for n in range(5)]
            gateway.set_workers(2)  # swap pools while the backlog waits
            for future in futures:
                future.result(timeout=30)
            # the session must stay usable on the replacement pool
            result = gateway.execute_for(
                session, "select count(*) from strand_t")
            assert [list(r) for r in result.last.rows] == [[5]]
            assert session.queue_depth() == 0
            assert not session.scheduled and not session.active
        finally:
            agent.close()

    def test_resize_to_zero_drains_backlog_then_runs_inline(self):
        agent = pooled_agent(2)
        try:
            gateway = agent.gateway
            session = gateway.open_session(USER, DATABASE)
            gateway.execute_for(
                session, "create table strand_z (x int null)")
            futures = [gateway.submit_for(
                session,
                f'waitfor delay "0:0:0.05"\ninsert strand_z values ({n})')
                for n in range(4)]
            gateway.set_workers(0)
            for future in futures:
                future.result(timeout=30)
            result = gateway.execute_for(
                session, "select count(*) from strand_z")
            assert [list(r) for r in result.last.rows] == [[4]]
        finally:
            agent.close()

    def test_stop_drains_commands_queued_behind_sentinels(self):
        pool = WorkerPool(1)
        session = AgentSession(SqlServer().create_session(USER, "master"))
        gate = threading.Event()
        blocker = pool.submit(session, gate.wait)
        followers = [pool.submit(session, lambda n=n: n) for n in range(3)]
        # sentinel enters the run queue while the blocker is in flight,
        # so the session's re-queue lands BEHIND it — the drain must
        # still service it
        pool.stop(join=False)
        gate.set()
        assert blocker.result(timeout=10) is True
        assert [f.result(timeout=10) for f in followers] == [0, 1, 2]
        pool.stop(join=True)  # idempotent; joins the drained workers
        assert session.queue_depth() == 0

    def test_reschedule_hands_stranded_session_to_current_pool(self):
        agent = pooled_agent(2)
        try:
            gateway = agent.gateway
            session = gateway.open_session(USER, DATABASE)
            future = Future()
            # simulate a task whose run-queue entry died with an old
            # pool: enqueued (scheduled=True) but in no live run queue
            session.enqueue((lambda: "rescued", future))
            gateway._reschedule(session)
            assert future.result(timeout=10) == "rescued"
        finally:
            agent.close()

    def test_reschedule_drains_inline_without_a_pool(self, agent):
        gateway = agent.gateway
        assert gateway.pool is None
        session = gateway.open_session(USER, DATABASE)
        future = Future()
        session.enqueue((lambda: "inline", future))
        gateway._reschedule(session)
        assert future.result(timeout=1) == "inline"
        assert not session.scheduled

    def test_drain_session_runs_backlog_to_exhaustion(self):
        session = AgentSession(SqlServer().create_session(USER, "master"))
        futures = [Future() for _ in range(3)]
        for n, future in enumerate(futures):
            session.enqueue((lambda n=n: n * 10, future))
        assert drain_session(session) == 3
        assert [f.result(timeout=1) for f in futures] == [0, 10, 20]
        assert not session.scheduled and session.queue_depth() == 0

    def test_take_yields_to_the_active_worker(self):
        session = AgentSession(SqlServer().create_session(USER, "master"))
        session.enqueue((lambda: 1, Future()))
        session.enqueue((lambda: 2, Future()))
        first = session.take()
        assert first is not None and session.active
        # a second worker holding a redundant run-queue entry backs off
        # without clearing the scheduling state
        assert session.take() is None
        assert session.scheduled and session.active
        session.active = False
        assert session.take() is not None


class TestConcurrentDdlVsCachedSelect:
    def test_ddl_storm_against_cached_selects(self):
        agent = pooled_agent(4)
        try:
            gateway = agent.gateway
            setup = gateway.open_session(USER, DATABASE)
            gateway.execute_for(
                setup, "create table ddl_t (k int not null, v int null)")
            gateway.execute_for(setup, "insert ddl_t values (1, 10)")
            readers = [gateway.open_session(USER, DATABASE)
                       for _ in range(3)]
            ddl = gateway.open_session(USER, DATABASE)
            futures = []
            for round_no in range(10):
                for reader in readers:
                    futures.append(gateway.submit_for(
                        reader, "select v from ddl_t where k = 1"))
                futures.append(gateway.submit_for(
                    ddl, f"create table ddl_side_{round_no} (x int null)"))
            for future in futures:
                result = future.result(timeout=60)
                if result.last is not None:
                    assert [list(r) for r in result.last.rows] == [[10]]
            stats = agent.server.lock_manager.stats()
            # both paths ran; any epoch race was retried, not corrupted
            assert stats["exclusive_batches"] > 0
            assert stats["shared_batches"] > 0
        finally:
            agent.close()

    def test_index_ddl_while_selecting(self):
        agent = pooled_agent(4)
        try:
            gateway = agent.gateway
            setup = gateway.open_session(USER, DATABASE)
            gateway.execute_for(
                setup, "create table idx_t (k int not null, v int null)")
            for n in range(20):
                gateway.execute_for(
                    setup, f"insert idx_t values ({n}, {n * 10})")
            readers = [gateway.open_session(USER, DATABASE)
                       for _ in range(3)]
            futures = [gateway.submit_for(
                r, f"select v from idx_t where k = {n}")
                for n in range(10) for r in readers]
            futures.append(gateway.submit_for(
                setup, "create index ix_k on idx_t (k)"))
            futures.extend(gateway.submit_for(
                r, f"select v from idx_t where k = {n}")
                for n in range(10, 20) for r in readers)
            for future in futures:
                future.result(timeout=60)
            result = gateway.execute_for(
                setup, "select v from idx_t where k = 7")
            assert [list(r) for r in result.last.rows] == [[70]]
        finally:
            agent.close()


class TestDeterministicOrdering:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_interleaved_clients_match_serial_schedule(self, seed,
                                                       plan_cache_mode):
        scenario = generate_scenario(seed)
        cache_on = plan_cache_mode == "plan-cache-on"
        serial = run_stack(scenario, plan_cache=cache_on)
        pooled = run_interleaved(scenario, clients=6, workers=4,
                                 seed=seed, plan_cache=cache_on)
        divergences = compare_stack_runs(
            serial, pooled, label_a="serial", label_b="interleaved")
        assert divergences == []

    def test_same_session_led_order_is_stable(self):
        agent = pooled_agent(4)
        try:
            conn = agent.connect(user=USER, database=DATABASE)
            conn.execute("create table led_t (x int null)")
            log = agent.start_detection_log()
            conn.execute(
                "create trigger t_led on led_t for insert\n"
                "event ledIns\n"
                "as print 'ledIns'")
            for n in range(10):
                conn.execute(f"insert led_t values ({n})")
            agent.stop_detection_log()
            seqs = [occ.seq for _n, _c, occ in log]
            assert seqs == sorted(seqs)
            assert len(seqs) == 10
        finally:
            agent.close()


class TestSessionEviction:
    """Closed sessions leave the live table for a bounded ring, so a
    gateway serving many short-lived connections stays O(live + ring)."""

    def test_closed_sessions_move_to_bounded_ring(self, agent):
        gateway = agent.gateway
        keep = gateway.open_session(USER, DATABASE)
        for _ in range(RECENT_CLOSED_LIMIT + 8):
            conn = agent.connect(user=USER, database=DATABASE)
            conn.execute("select 1")
            conn.close()
        with gateway._sessions_lock:
            live = list(gateway._sessions)
        assert live == [keep.session_id]
        snapshots = gateway.session_snapshots()
        assert len(snapshots) == 1 + RECENT_CLOSED_LIMIT
        closed = [s for s in snapshots if s["session_id"] != keep.session_id]
        assert all(s["state"] == "closed" for s in closed)
        # newest first, and the oldest closed sessions were dropped
        ids = [s["session_id"] for s in snapshots]
        assert ids == sorted(ids, reverse=True)

    def test_close_is_evicted_once_and_counts_survive(self, agent):
        gateway = agent.gateway
        conn = agent.connect(user=USER, database=DATABASE)
        conn.execute("select 1")
        session = conn.session
        conn.close()
        session.closed = True  # double close must not double-evict
        snapshots = [s for s in gateway.session_snapshots()
                     if s["session_id"] == session.session_id]
        assert len(snapshots) == 1
        assert snapshots[0]["state"] == "closed"
        assert snapshots[0]["executed"] == 1


class TestAbandonedTransactions:
    """A client that disconnects mid-transaction must not pin the engine
    onto the exclusive gate (the lock manager tracks tx sessions by id
    and the close path rolls the transaction back)."""

    def test_disconnect_mid_transaction_rolls_back_and_unpins(self, agent):
        conn = agent.connect(user=USER, database=DATABASE)
        conn.execute("create table aband_t (x int null)")
        conn.execute("begin transaction\ninsert aband_t values (1)")
        lock_manager = agent.server.lock_manager
        assert lock_manager.transaction_sessions() == {
            conn.session.session_id}
        conn.close()
        assert lock_manager.transaction_sessions() == set()
        probe = agent.connect(user=USER, database=DATABASE)
        before = lock_manager.shared_batches
        result = probe.execute("select count(*) from aband_t")
        # the abandoned insert was rolled back...
        assert result.last.scalar() == 0
        # ...and the batch ran fine-grained, not forced exclusive
        assert lock_manager.shared_batches == before + 1
        probe.close()

    def test_commit_then_disconnect_leaves_no_residue(self, agent):
        conn = agent.connect(user=USER, database=DATABASE)
        conn.execute("create table aband_c (x int null)")
        conn.execute(
            "begin transaction\ninsert aband_c values (7)\ncommit")
        conn.close()
        assert agent.server.lock_manager.transaction_sessions() == set()
        probe = agent.connect(user=USER, database=DATABASE)
        assert probe.execute(
            "select count(*) from aband_c").last.scalar() == 1
        probe.close()

    #: rule definitions whose action runs on a session of its own; the
    #: inline IMMEDIATE primitive action is absent on purpose — it runs
    #: inside the client's session, as a native trigger body does
    ACTION_RULES = {
        "immediate-composite": (
            "create trigger t2 on stock for update event e2 as print '2'",
            "create trigger ta event c = e1 SEQ e2 as "),
        "deferred": ("create trigger ta event e1 DEFERRED as ",),
        "detached": ("create trigger ta event e1 DETACHED as ",),
    }

    @pytest.mark.parametrize("coupling", sorted(ACTION_RULES))
    def test_action_left_open_transaction_is_rolled_back(
            self, astock, agent, coupling):
        astock.execute("create table audit (x int null)")
        astock.execute(
            "create trigger t1 on stock for insert event e1 as print '1'")
        *setup, action = self.ACTION_RULES[coupling]
        for sql in setup:
            astock.execute(sql)
        astock.execute(action + "begin tran insert audit values (1)")
        astock.execute("insert stock values ('A', 1, 1)")
        if coupling == "immediate-composite":
            astock.execute("update stock set price = 2")
        agent.action_handler.join_detached()
        assert [r.error for r in agent.action_handler.action_log
                if r.trigger_internal.endswith("ta")] == [None]
        lock_manager = agent.server.lock_manager
        # no orphaned action session pins the engine to the exclusive gate
        assert lock_manager.transaction_sessions() == set()
        before = lock_manager.shared_batches
        # the action's open insert was rolled back as on a disconnect
        assert astock.execute(
            "select count(*) from audit").last.scalar() == 0
        assert lock_manager.shared_batches == before + 1


class TestAdminSurface:
    def test_show_agent_sessions_rows(self):
        agent = pooled_agent(2)
        try:
            conn = agent.connect(user=USER, database=DATABASE)
            conn.execute("select 1")
            result = conn.execute("show agent sessions")
            rows = result.result_sets[0]
            assert rows.columns[:4] == [
                "session_id", "user", "database", "state"]
            assert len(rows.rows) == 1
        finally:
            agent.close()

    def test_show_agent_workers_reports_pool_and_locks(self):
        agent = pooled_agent(3)
        try:
            conn = agent.connect(user=USER, database=DATABASE)
            result = conn.execute("show agent workers")
            pool_rows, lock_rows = result.result_sets
            assert pool_rows.rows[0][1] == 3  # size
            stats = {name: value for name, value in lock_rows.rows}
            assert set(stats) == {
                "exclusive_batches", "shared_batches", "retries"}
        finally:
            agent.close()

    def test_set_agent_workers_validation(self, agent):
        conn = agent.connect(user=USER, database=DATABASE)
        bad = conn.execute("set agent workers nope")
        assert "thread count" in bad.result_sets[0].rows[0][0]
        negative = conn.execute("set agent workers -2")
        assert ">= 0" in negative.result_sets[0].rows[0][0]
