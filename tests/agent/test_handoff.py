"""The hand-off, as one property over its four crossing points.

Work leaves the thread a client command runs on in four places — the
gateway's pool queue, a DETACHED action's thread, the ``syb_sendmsg``
datagram (here over a threaded channel's listener) and the sharded GED's
route — and each crossing uses the same ``Ambient.capture()`` /
``adopt()`` pair (the wire carries its ``;tc=`` form).  For every
crossing, with tracing on *and* off, the far side must

(a) record spans under the originating command's trace id, forming one
    connected tree (tracing on; with it off there are simply no spans),
(b) link its provenance records, parent by parent, back to the
    notification that started it all, every one of them carrying the
    originating command's id,
(c) charge its work to the originating session when the hand-off
    carries that session's identity — and to *no other* session ever,
(d) leave the executing thread's ambient state empty afterwards.

On (c): the pool worker opens the command's own frame and a DETACHED
thread adopts the dispatcher's session identity, so both charge the
session with the event *and* the action.  The wire form carries the
command's context only — never a session identity — so what a
channel listener does (raise + action) or another site's shard does
(the global rule) is charged to its rule, never to a session; on the GED
route the home site's raise still happens inside the command.
"""

import threading
from contextlib import contextmanager

import pytest

from repro.agent import EcaAgent
from repro.agent.notifier import ThreadedChannel
from repro.ged import ShardedGed
from repro.obs import Handoff
from repro.obs.provenance import KIND_ACTION, KIND_FIRING, KIND_NOTIFICATION
from repro.obs.tracing import (
    FIG4_ACTION_RUN,
    SPAN_GED_ROUTE,
    SPAN_GED_SHARD,
    SPAN_QUEUE_WAIT,
)
from repro.sqlengine import SqlServer

STOCK_DDL = (
    "create table stock (symbol varchar(10) not null, "
    "price float null, qty int null)")
E_ADD = "create trigger t_add on stock for insert event e_add as print 'add'"
E_DEL = "create trigger t_del on stock for delete event e_del as print 'del'"
INSERT = "insert stock values ('IBM', 1.0, 1)"

#: what a thread with nothing ambient on it looks like
CLEAN = (Handoff(), None, False)


def ambient_of(agent):
    """The calling thread's ambient state, through public surfaces."""
    return (agent.ambient.capture(), agent.trace.current(),
            agent.accounting.active())


def start(agent, tracing, *rules, database="sentineldb", user="sharma"):
    conn = agent.connect(user=user, database=database)
    for sql in rules:
        conn.execute(sql)
    conn.execute("set agent provenance on")
    agent.trace.enabled = tracing
    return conn


class Crossed:
    """What one scenario hands the shared assertions."""

    def __init__(self, agent, conn, command, far_kind, far_name,
                 far_steps, far_states, charged):
        self.agent, self.conn, self.command = agent, conn, command
        self.far_kind, self.far_name = far_kind, far_name
        self.far_steps, self.far_states = far_steps, far_states
        #: which of the session's ("events", "actions") columns the
        #: crossing's work must show up in; the others must stay 0
        self.charged = charged


def cross_pool(tracing, closers):
    """Client thread -> 2-worker pool: the command itself (and the
    DEFERRED action flushed at its end) runs on a worker."""
    agent = EcaAgent(SqlServer(default_database="sentineldb"), workers=2)
    closers.append(agent.close)
    conn = start(agent, tracing, STOCK_DDL, E_ADD,
                 "create trigger t_far event e_add DEFERRED as print 'far'")
    conn.execute(INSERT)
    # Probe BOTH workers afterwards: two raw tasks that meet at a
    # barrier necessarily occupy one worker each.
    barrier = threading.Barrier(2, timeout=5.0)

    def probe():
        state = ambient_of(agent)
        barrier.wait()
        return state

    futures = [agent.gateway.pool.submit(
        agent.gateway.open_session("sharma", "sentineldb"), probe)
        for _ in range(2)]
    states = [future.result(timeout=5.0) for future in futures]
    return Crossed(agent, conn, INSERT, KIND_ACTION,
                   "sentineldb.sharma.t_far",
                   [SPAN_QUEUE_WAIT, FIG4_ACTION_RUN], states,
                   {"events", "actions"})


def cross_detached(tracing, closers):
    """Command thread -> one new thread per DETACHED action."""
    agent = EcaAgent(SqlServer(default_database="sentineldb"))
    closers.append(agent.close)
    conn = start(agent, tracing, STOCK_DDL, E_ADD,
                 "create trigger t_far event e_add DETACHED as print 'far'")
    states = []
    adopt = agent.ambient.adopt

    @contextmanager
    def probed_adopt(handoff):
        with adopt(handoff):
            yield handoff
        if threading.current_thread().name.startswith("eca-action-"):
            # on the action thread, right after its adopt() exited
            states.append(ambient_of(agent))

    agent.ambient.adopt = probed_adopt
    conn.execute(INSERT)
    agent.action_handler.join_detached()
    return Crossed(agent, conn, INSERT, KIND_ACTION,
                   "sentineldb.sharma.t_far", [FIG4_ACTION_RUN], states,
                   {"events", "actions"})


class _ProbedChannel(ThreadedChannel):
    """A threaded channel noting the listener's ambient state after
    every delivery."""

    def __init__(self):
        super().__init__()
        self.agent = None
        self.states = []

    def _deliver(self, payload):
        try:
            super()._deliver(payload)
        finally:
            self.states.append(ambient_of(self.agent))


def cross_datagram(tracing, closers):
    """Command thread -> datagram -> channel listener thread, which
    raises the event, completes the composite and runs its action."""
    channel = _ProbedChannel()
    agent = EcaAgent(SqlServer(default_database="sentineldb"),
                     channel=channel)
    channel.agent = agent
    closers.append(agent.close)
    conn = start(
        agent, tracing, STOCK_DDL, E_ADD, E_DEL,
        "create trigger t_far event e_both = e_del ^ e_add RECENT "
        "as print 'far'")
    for sql in (INSERT, "delete stock", INSERT):
        conn.execute(sql)
        assert agent.drain()
    return Crossed(agent, conn, INSERT, KIND_ACTION,
                   "sentineldb.sharma.t_far", [FIG4_ACTION_RUN],
                   channel.states, set())


def cross_ged(tracing, closers):
    """Site nyc's command -> GED transport -> the shard at tokyo, which
    detects the global composite and fires the global rule."""
    agents, conns = {}, {}
    for site in ("nyc", "tokyo"):
        agent = EcaAgent(SqlServer(default_database="ops"))
        closers.append(agent.close)
        conns[site] = start(
            agent, tracing and site == "nyc",
            "create table audit_log (entry varchar(20))",
            "create trigger t_audit on audit_log for insert "
            "event auditRow as print 'row'", database="ops", user="sre")
        agents[site] = agent
    nyc = agents["nyc"]
    ged = ShardedGed(trace=nyc.trace)
    for site, agent in agents.items():
        ged.add_site(site, agent)
        ged.import_event(site, "ops.sre.auditRow")
    ged.define_global_event(
        "G", "(ops.sre.auditRow::nyc OR ops.sre.auditRow::tokyo)",
        owner="tokyo")
    fired = []
    ged.add_global_rule("r_far", "G", action=fired.append)
    # the shard journals into the originating site's journal, so the
    # ambient parent crossing the (same-thread) route is observable
    ged.shards["tokyo"].led.attach_observability(
        nyc.metrics, nyc.trace, nyc.journal)
    command = "insert audit_log values ('a')"
    conns["nyc"].execute(command)
    assert len(fired) == 1
    # the in-process transport routes on the sending thread: this one
    return Crossed(nyc, conns["nyc"], command, KIND_FIRING, "r_far",
                   [SPAN_GED_ROUTE, SPAN_GED_SHARD], [ambient_of(nyc)],
                   {"events"})


CROSSINGS = {"pool": cross_pool, "detached": cross_detached,
             "datagram": cross_datagram, "ged-route": cross_ged}


@pytest.fixture
def closers():
    pending = []
    yield pending
    for close in pending:
        close()


@pytest.mark.parametrize("tracing", [True, False],
                         ids=["trace-on", "trace-off"])
@pytest.mark.parametrize("crossing", list(CROSSINGS))
def test_far_side_works_on_behalf_of_the_origin(crossing, tracing, closers):
    crossed = CROSSINGS[crossing](tracing, closers)
    agent, journal = crossed.agent, crossed.agent.journal

    # (a) one connected tree under the originating command's trace id
    if tracing:
        [spans] = [
            spans for spans in map(agent.trace.spans_for,
                                   agent.trace.trace_ids())
            if spans[0].parent is None
            and spans[0].detail == crossed.command
            and set(crossed.far_steps) <= {span.step for span in spans}]
        seqs = {span.seq for span in spans}
        assert [s for s in spans if s.parent is None] == spans[:1]
        assert [s for s in spans if s.parent not in seqs | {None}] == []
        assert {span.trace_id for span in spans} == {spans[0].trace_id}
    else:
        assert len(agent.trace) == 0

    # (b) the far side's record links back to the notification
    far = [record for record in journal.snapshot()
           if (record.kind, record.name)
           == (crossed.far_kind, crossed.far_name)][-1]
    lineage = journal.lineage(far.seq)
    assert lineage[-1].kind == KIND_NOTIFICATION, lineage
    # ... and carries the originating command's id (minted whenever any
    # record plane is on — here provenance — not only under tracing)
    origin_id = [record for record in journal.snapshot()
                 if record.kind == KIND_NOTIFICATION][-1].trace_id
    assert origin_id is not None and far.trace_id == origin_id
    if tracing:
        assert origin_id == spans[0].trace_id

    # (c) charged to the originating session, never to another one
    [sessions] = crossed.conn.execute(
        "show agent top sessions 50").result_sets
    rows = {row["session"]: row for row in sessions.as_dicts()}
    origin = crossed.conn._session.session_id
    assert rows[origin]["commands"] >= 1
    assert {column for column in ("events", "actions")
            if rows[origin][column]} == crossed.charged
    assert [row for session, row in rows.items()
            if session != origin and (row["actions"] or row["events"])] == []

    # (d) nothing ambient is left on the executing thread(s)
    assert crossed.far_states and set(crossed.far_states) == {CLEAN}
