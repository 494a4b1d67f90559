"""Worker-thread hygiene (no cross-session attribution).

A pool worker is recycled across sessions.  If a task leaks ambient
per-thread observability state — an unclosed span, an inherited trace
context, a provenance stack, an accounting frame — the NEXT session's
command on that thread would be silently attributed to the previous
one.  The pool's ``cleanup`` hook (the agent's ``Ambient.reset``) must
clear all of it after every serviced task, and a replacement pool
installed by ``set agent workers`` must carry the same hook.
"""

import pytest

from repro.agent import EcaAgent
from repro.obs import Handoff
from repro.obs.tracing import TraceContext

STOCK_DDL = (
    "create table stock (symbol varchar(10) not null, "
    "price float null, qty int null)")


@pytest.fixture
def pooled(server):
    """A single-worker agent: every session's commands share one thread,
    so any leak WILL hit the next session."""
    agent = EcaAgent(server, workers=1)
    conn = agent.connect(user="sharma", database="sentineldb")
    conn.execute(STOCK_DDL)
    agent.trace.enabled = True
    yield agent
    agent.close()


def _submit(agent, session, fn):
    """Queue a raw callable as one of ``session``'s commands (the same
    path ``submit_for`` uses, minus the gateway routing)."""
    return agent.gateway.pool.submit(session, fn)


class TestCleanupBetweenTasks:
    def test_leaked_thread_state_does_not_cross_sessions(self, pooled):
        agent = pooled
        gateway = agent.gateway
        session_a = gateway.open_session("sharma", "sentineldb")
        session_b = gateway.open_session("sharma", "sentineldb")

        def leaky():
            # A buggy task leaves every ambient surface dirty: a
            # hand-off adopted but never exited (foreign trace context,
            # provenance parent, session A's accounting frame), an open
            # span, and a command frame that is never finished.
            agent.ambient.adopt(Handoff(
                TraceContext(trace_id="t-session-a", parent_span=1,
                             depth=1),
                (999,), session_a.session_id, "sharma",
                "sentineldb")).__enter__()
            agent.trace.span("leaked-span").__enter__()
            agent.accounting.begin(session_a)
            return "leaked"

        assert _submit(agent, session_a, leaky).result() == "leaked"

        seen = {}

        def probe():
            seen["parent"] = agent.trace.current()
            seen["trace_id"] = agent.ambient.active_trace_id()
            seen["journal_parents"] = tuple(agent.journal.ambient_parents())
            seen["frame"] = agent.accounting.current()
            seen["handoff"] = agent.ambient.capture()
            return "probed"

        assert _submit(agent, session_b, probe).result() == "probed"
        assert seen["parent"] is None
        assert seen["trace_id"] is None
        assert seen["journal_parents"] == ()
        assert seen["frame"] is None
        assert seen["handoff"] == Handoff()

    def test_two_sessions_commands_get_distinct_roots(self, pooled):
        agent = pooled
        gateway = agent.gateway
        session_a = gateway.open_session("sharma", "sentineldb")
        session_b = gateway.open_session("sharma", "sentineldb")
        gateway.submit_for(
            session_a, "insert stock values ('A', 1.0, 1)").result()
        gateway.submit_for(
            session_b, "insert stock values ('B', 2.0, 2)").result()
        trace_a, trace_b = agent.trace.trace_ids()[-2:]
        assert trace_a != trace_b
        for trace_id, session in ((trace_a, session_a),
                                  (trace_b, session_b)):
            spans = agent.trace.spans_for(trace_id)
            (root,) = [s for s in spans if s.parent is None]
            assert root.trace_id == trace_id
        # the root's detail names session A's statement, not B's
        root_a = agent.trace.spans_for(trace_a)[0]
        assert root_a.detail.startswith("insert stock values ('A'")


class TestReplacementPoolKeepsTheHook:
    def test_resized_pool_carries_cleanup(self, pooled):
        agent = pooled
        gateway = agent.gateway
        old_pool = gateway.pool
        conn = agent.connect(user="sharma", database="sentineldb")
        conn.execute("set agent workers 2")
        assert gateway.pool is not old_pool
        assert gateway.pool.cleanup == old_pool.cleanup \
            == agent.ambient.reset

    def test_leak_cleared_across_a_resize(self, pooled):
        agent = pooled
        gateway = agent.gateway
        session = gateway.open_session("sharma", "sentineldb")

        def leaky():
            agent.trace.span("leaked-span").__enter__()
            return "leaked"

        _submit(agent, session, leaky).result()
        conn = agent.connect(user="sharma", database="sentineldb")
        conn.execute("set agent workers 3")

        seen = {}

        def probe():
            seen["parent"] = agent.trace.current()
            return "probed"

        gateway.pool.submit(session, probe).result()
        assert seen["parent"] is None
