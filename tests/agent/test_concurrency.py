"""Concurrency: the agent is 'a multithread program' (paper Section 3).

Multiple client threads drive mediated connections simultaneously while
rules fire; the engine's scheduler lock plus the agent's internal locks
must keep every counter and snapshot consistent.
"""

import threading

import pytest


class TestConcurrentClients:
    def test_parallel_inserts_all_counted(self, agent, astock):
        astock.execute(
            "create trigger t on stock for insert event ev as print 'x'")
        errors: list[BaseException] = []

        def worker(worker_id: int) -> None:
            try:
                conn = agent.connect(user="sharma", database="sentineldb")
                for index in range(20):
                    conn.execute(
                        f"insert stock values ('W{worker_id}_{index}', 1.0, 1)")
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        total = astock.execute("select count(*) from stock").last.scalar()
        assert total == 100
        assert agent.persistent_manager.current_v_no(
            agent.primitive_events["sentineldb.sharma.ev"]) == 100
        assert agent.notifier.received == 100

    def test_parallel_rule_creation(self, agent, astock):
        errors: list[BaseException] = []
        created: list[str] = []
        lock = threading.Lock()

        def worker(worker_id: int) -> None:
            try:
                conn = agent.connect(user="sharma", database="sentineldb")
                for index in range(5):
                    name = f"t_{worker_id}_{index}"
                    conn.execute(
                        f"create trigger {name} on stock for insert "
                        f"event e_{worker_id}_{index} as print '{name}'")
                    with lock:
                        created.append(name)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert len(agent.eca_triggers) == 20
        # Every rule is live: one insert prints all 20 messages.
        result = astock.execute("insert stock values ('GO', 1.0, 1)")
        assert len([m for m in result.messages if m.startswith("t_")]) == 20

    def test_parallel_detached_actions_with_queries(self, agent, astock):
        astock.execute("create table hits (n int)")
        astock.execute(
            "create trigger t on stock for insert event ev as print 'p'")
        astock.execute(
            "create trigger tr event ev DETACHED as insert hits values (1)")

        def writer() -> None:
            conn = agent.connect(user="sharma", database="sentineldb")
            for index in range(10):
                conn.execute(f"insert stock values ('X{index}', 1.0, 1)")

        def reader(results: list) -> None:
            conn = agent.connect(user="sharma", database="sentineldb")
            for _ in range(20):
                results.append(
                    conn.execute("select count(*) from stock").last.scalar())

        counts: list[int] = []
        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=writer),
            threading.Thread(target=reader, args=(counts,)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        agent.action_handler.join_detached()
        final = agent.persistent_manager.execute(
            "sentineldb", "select count(*) from sharma.hits").last.scalar()
        assert final == 20
        # Reader snapshots are monotone (no torn reads through the lock).
        assert counts == sorted(counts)


class TestThreadedChannelUnderLoad:
    def test_no_lost_notifications(self, server):
        from repro.agent import EcaAgent

        agent = EcaAgent(server, channel="threaded")
        try:
            conn = agent.connect(user="sharma", database="sentineldb")
            conn.execute("create table t (a int)")
            conn.execute(
                "create trigger tr on t for insert event ev DETACHED as "
                "print 'async'")
            for index in range(50):
                conn.execute(f"insert t values ({index})")
            assert agent.drain(timeout=10.0)
            agent.action_handler.join_detached(timeout=10.0)
            assert agent.notifier.received == 50
            done = [r for r in agent.action_handler.action_log
                    if r.error is None]
            assert len(done) == 50
        finally:
            agent.close()
