"""E-FIG16: the Action Handler — inline vs thread-per-action cost.

Expected shape: the detached (thread-per-action, the paper's design)
path adds thread-spawn latency per action but removes the action from
the client's critical path; the inline path is cheapest end-to-end.
"""

import time

from _helpers import agent_stack, print_series


def _with_rule(coupling: str):
    _server, agent, conn = agent_stack()
    conn.execute(
        "create trigger tp on stock for insert event ev as print 'p'")
    conn.execute(
        f"create trigger tr event ev {coupling} as "
        "insert dbo.sysContext values ('probe', 'RECENT', 0)")
    # give the secondary rule a real server-side action target
    return agent, conn


def test_immediate_action_cycle(benchmark):
    agent, conn = _with_rule("IMMEDIATE")
    benchmark(conn.execute, "insert stock values ('X', 1.0, 1)")


def test_detached_action_cycle(benchmark):
    agent, conn = _with_rule("DETACHED")

    def fire():
        conn.execute("insert stock values ('X', 1.0, 1)")
        agent.action_handler.join_detached()

    # Fixed rounds: unbounded calibration would spawn thousands of
    # concurrent worker threads.
    benchmark.pedantic(fire, rounds=30, iterations=1)


def test_client_latency_with_detached_vs_immediate(benchmark):
    """Figure series: what the *client* waits for under each coupling."""

    def client_cost(coupling, n=100):
        agent, conn = _with_rule(coupling)
        start = time.perf_counter()
        for _ in range(n):
            conn.execute("insert stock values ('X', 1.0, 1)")
        client = (time.perf_counter() - start) / n * 1e3
        agent.action_handler.join_detached()
        # IMMEDIATE primitive rules run inline inside the native trigger,
        # so count completed actions by their observable effect.
        done = agent.persistent_manager.execute(
            "sentineldb",
            "select count(*) from sysContext where tableName = 'probe'"
        ).last.scalar()
        return client, done

    immediate_ms, immediate_done = client_cost("IMMEDIATE")
    detached_ms, detached_done = client_cost("DETACHED")
    assert immediate_done == detached_done == 100
    print_series(
        "E-FIG16 client-visible latency per coupling",
        [
            ("IMMEDIATE (inline)", f"{immediate_ms:.3f}"),
            ("DETACHED (thread per action)", f"{detached_ms:.3f}"),
        ],
        ("coupling", "ms/stmt (client)"),
    )
    benchmark(lambda: None)
