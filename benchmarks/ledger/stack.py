"""Build the program for one plan and drive the plan's commands at it.

Stacks are built with the constructors' defaults (sync channel,
``ManualClock``, metrics/trace/provenance off, accounting on); the only
argument passed is the worker count of the ``sessions`` workload.  All
loads are closed loop: a client sends its next command when the reply to
the previous one has arrived.
"""

from __future__ import annotations

import threading
import time

from repro.agent import EcaAgent
from repro.sqlengine import SqlServer, connect

from .workloads import DATABASE, RECOVER, USER, Plan, observe, probe_recovered


class Stack:
    """Server, agent and client connections for one :class:`Plan`.

    ``agent=False`` builds the bare ``SqlServer`` the transparency check
    compares against; ``rules=False`` the rule-free twin that
    ``sqlengine.trigger_overhead_us`` is measured against; ``workers=0``
    the inline twin of the ``sessions`` workload.
    """

    def __init__(self, plan: Plan, *, agent: bool = True, rules: bool = True,
                 workers: int | None = None):
        self.plan = plan
        self.workers = plan.workers if workers is None else workers
        self.server = SqlServer(default_database=DATABASE)
        self.agent = self._new_agent() if agent else None
        self.admin = self._connect()
        for sql in plan.setup_sql:
            self.admin.execute(sql)
        if agent and rules:
            for sql in plan.rule_sql:
                self.admin.execute(sql)
        self.conns = [self._connect() for _ in plan.clients]
        #: agent-side counters of the agents closed by ``recover``
        self._carried: dict[str, float] = {}

    def _new_agent(self) -> EcaAgent:
        if self.workers:
            return EcaAgent(self.server, workers=self.workers)
        return EcaAgent(self.server)

    def _connect(self):
        if self.agent is None:
            return connect(self.server, user=USER, database=DATABASE)
        return self.agent.connect(user=USER, database=DATABASE)

    def execute(self, client: int, sql: str, tracer=None):
        """Send one command on a client's connection, as the client."""
        if sql is RECOVER:
            return self.recover(tracer)
        return self.conns[client].execute(sql)

    def recover(self, tracer=None) -> None:
        """Close the agent and build a fresh one on the same server; the
        constructor recovers the whole rule base from the system tables."""
        self._carried = self._agent_counters()
        span = tracer.open("agent", "recover") if tracer else None
        try:
            for conn in (self.admin, *self.conns):
                conn.close()
            self.agent.close()
            self.agent = self._new_agent()
        finally:
            if span is not None:
                tracer.end(span)
        if tracer is not None:
            tracer.install(self.agent)
        self.admin = self._connect()
        self.conns = [self._connect() for _ in self.plan.clients]

    def close(self) -> None:
        if self.agent is not None:
            self.agent.close()

    def counters(self) -> dict[str, float]:
        """The program's own always-on counters, read from outside and
        cumulative across agent restarts."""
        cache = self.server.plan_cache
        locks = self.server.lock_manager
        out = {
            "cache_hits": cache.hits, "cache_misses": cache.misses,
            "plan_hits": cache.plan_hits, "plan_misses": cache.plan_misses,
            "evictions": cache.evictions,
            "exclusive": locks.exclusive_batches,
            "shared": locks.shared_batches, "lock_retries": locks.retries,
        }
        if self.agent is not None:
            out.update(self._agent_counters())
        return out

    def _agent_counters(self) -> dict[str, float]:
        agent = self.agent
        totals = agent.accounting.top_sessions(1 << 30)
        log = agent.action_handler.action_log
        out = {name: sum(getattr(total, name) for total in totals)
               for name in ("sql_statements", "rows_scanned", "index_scans",
                            "full_scans")}
        out.update({
            "commands": agent.gateway.commands_total,
            "passed_through": agent.gateway.commands_passed_through,
            "payloads": agent.channel.sent_count,
            "events": agent.notifier.received,
            "firings": len(agent.led.history),
            "actions": len(log),
            "action_errors": sum(1 for r in log if r.error is not None),
            "backpressure_waits": sum(
                conn.session.backpressure_waits for conn in self.conns),
        })
        return {name: value + self._carried.get(name, 0)
                for name, value in out.items()}

    def state_rows(self) -> dict[str, int]:
        """Rows held in the agent's growing server-side tables."""
        database = self.server.catalog.get_database(DATABASE)
        rows = {"snapshot": 0, "syscontext": 0}
        for table in database.tables.values():
            name = table.name.lower()
            if name.endswith(("_inserted", "_deleted")):
                rows["snapshot"] += len(table.rows)
            elif name == "syscontext":
                rows["syscontext"] += len(table.rows)
        return rows


def check_reply(stack: Stack, cmd, reply) -> str | None:
    """Why one reply is wrong, or None.  Run between commands, outside
    the clock reads that time them."""
    if isinstance(reply, Exception):
        return f"{cmd.op} raised {type(reply).__name__}: {reply}"
    expect = cmd.expect
    if cmd.sql is RECOVER:
        failures = probe_recovered(stack, expect[1])
        return failures[0] if failures else None
    if any(message.startswith("Agent error") for message in reply.messages):
        return f"{cmd.op} returned an Agent error: {reply.messages}"
    if expect is None:
        return None
    if isinstance(expect, str):
        if not any(expect in message for message in reply.messages):
            return f"{cmd.op}: no message contains {expect!r}"
        return None
    got = observe(reply)
    if got != expect:
        return f"{cmd.op} {cmd.sql!r}: got {got}, expected {expect}"
    return None


def exact(reply) -> tuple:
    """A reply as the client sees it, order included (transparency)."""
    if isinstance(reply, Exception):
        return ("error", type(reply).__name__, str(reply))
    return (tuple(reply.messages),
            tuple((tuple(rs.columns), tuple(map(tuple, rs.rows)))
                  for rs in reply.result_sets),
            reply.rowcount)


class Drive:
    """What one pass over a plan's command lists measured."""

    def __init__(self, plan: Plan):
        #: per client: seconds per timed command, in list order
        self.latency: list[list[float]] = [[] for _ in plan.clients]
        self.failures: list[str] = []
        self.attempted = sum(len(commands) for commands in plan.clients)
        #: per client: ``exact()`` of every reply, when asked to record
        self.replies: list[list[tuple]] = [[] for _ in plan.clients]


def drive(stack: Stack, tracer=None, on_warm=None,
          record: bool = False) -> Drive:
    """Run every client's list: the first tenth untimed, the rest timed
    at the client around ``conn.execute``.  ``on_warm`` runs between the
    two (all clients waiting), e.g. to install the tracer.  With a
    tracer, each timed command is the root span of its trace."""
    plan = stack.plan
    out = Drive(plan)
    barrier = threading.Barrier(len(plan.clients), action=on_warm)

    def client(index: int) -> None:
        commands = plan.clients[index]
        warm = len(commands) // 10
        latency = out.latency[index]
        clock = time.perf_counter
        execute = stack.execute
        for position, cmd in enumerate(commands):
            if position == warm:
                barrier.wait()
            timed = position >= warm
            root = (tracer.begin(index * 10_000_000 + position)
                    if tracer is not None and timed else None)
            start = clock() if root is None else 0.0
            try:
                reply = execute(index, cmd.sql, tracer)
            except Exception as exc:  # counted as a failed command
                reply = exc
            elapsed = (clock() - start if root is None
                       else tracer.end(root))
            if timed:
                latency.append(elapsed)
            if record:
                out.replies[index].append(exact(reply))
            problem = check_reply(stack, cmd, reply)
            if problem is not None:
                out.failures.append(problem)

    if len(plan.clients) == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(plan.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return out


def final_failures(stack: Stack) -> list[str]:
    """The plan's final-state checks against this stack."""
    plan = stack.plan
    return plan.final(stack, plan.model) if plan.final is not None else []
