"""The SQL engine's counters are folded accounting frames.

The engine charges statements, scans and plan-cache lookups to the open
:class:`~repro.obs.opcontext.OpContext` frames and reports nothing else;
a frame that closes with no other frame beneath it on its thread folds
into ``sql_statements_total``, ``sql_index_scans_total`` and
``sql_plan_cache_total{outcome}``.  So the registry must agree exactly
with the accounting totals — every statement counted once, whether it
ran in a client command, a hand-off's adopted frame or a rule action on
a listener thread.
"""

import pytest

from repro.agent import EcaAgent
from repro.sqlengine import SqlServer

FIELDS = ("sql_statements", "index_scans", "plan_cache_hits",
          "plan_cache_misses")

SETUP = (
    "create table stock (symbol varchar(10) not null, "
    "price float null, qty int null)",
    "create index ix_symbol on stock (symbol)",
    "create table audit (symbol varchar(10) null)",
)


def registry_counts(agent) -> dict:
    metrics = agent.metrics
    cache = metrics.get("sql_plan_cache_total")
    return {
        "sql_statements": metrics.get("sql_statements_total").value(),
        "index_scans": metrics.get("sql_index_scans_total").value(),
        "plan_cache_hits": cache.labels("hit").value(),
        "plan_cache_misses": cache.labels("miss").value(),
    }


def summed(totals) -> dict:
    return {field: sum(getattr(row, field) for row in totals)
            for field in FIELDS}


def build(rules, **options):
    agent = EcaAgent(SqlServer(default_database="sentineldb"), **options)
    conn = agent.connect(user="sharma", database="sentineldb")
    for sql in SETUP + rules:
        conn.execute(sql)
    conn.execute("set agent stats on")
    conn.execute("reset agent stats")
    conn.execute("reset agent accounting")
    return agent, conn


def workload(agent, conn) -> None:
    for number in range(4):
        for sql in (f"insert stock values ('S{number}', {number}, 1)",
                    "select * from stock where symbol = 'S1'",
                    "delete stock where symbol = 'S0'"):
            conn.execute(sql)
            assert agent.drain()
    agent.action_handler.join_detached()


@pytest.fixture
def closers():
    pending = []
    yield pending
    for close in pending:
        close()


def test_registry_equals_session_totals_on_a_pooled_sync_stack(closers):
    agent, conn = build((
        "create trigger t_imm on stock for insert event e_add as "
        "insert audit values ('imm')",
        "create trigger t_det event e_add DETACHED as "
        "select count(*) from stock where symbol = 'S1'",
    ), workers=2)
    closers.append(agent.close)
    workload(agent, conn)

    sessions = summed(agent.accounting.top_sessions(1 << 30))
    assert registry_counts(agent) == sessions
    # every family saw real work, so the equality is not 0 == 0
    assert all(sessions.values()), sessions
    # the DETACHED action ran, and its adopted frame charged the session
    assert summed(agent.accounting.top_rules(1 << 30))["sql_statements"]


def test_listener_thread_actions_are_counted_exactly_once(closers):
    agent, conn = build((
        "create trigger t_add on stock for insert event e_add as print 'a'",
        "create trigger t_del on stock for delete event e_del as print 'd'",
        "create trigger t_both event e_both = e_del ^ e_add RECENT as "
        "insert audit values ('both')",
        "create trigger t_det event e_add DETACHED as "
        "select count(*) from stock where symbol = 'S1'",
    ), channel="threaded")
    closers.append(agent.close)
    workload(agent, conn)

    # No session frame is open on the listener or on the DETACHED
    # threads it starts: each action's rule frame closes alone there and
    # folds itself, so the registry is the sessions' work plus the rules'.
    sessions = summed(agent.accounting.top_sessions(1 << 30))
    rules = summed(agent.accounting.top_rules(1 << 30))
    assert rules["sql_statements"] > 0
    assert registry_counts(agent) == {
        field: sessions[field] + rules[field] for field in FIELDS}


def test_nothing_folds_while_stats_are_off(closers):
    agent, conn = build((
        "create trigger t_imm on stock for insert event e_add as "
        "insert audit values ('imm')",))
    closers.append(agent.close)
    conn.execute("set agent stats off")
    workload(agent, conn)
    assert summed(agent.accounting.top_sessions(1 << 30))["sql_statements"]
    assert set(registry_counts(agent).values()) == {0}
