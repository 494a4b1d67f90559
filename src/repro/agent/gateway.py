"""The Gateway Open Server — the agent's General Interface (Figure 2).

Presents exactly the same endpoint surface as the SQL server
(:class:`repro.sqlengine.client.SqlEndpoint`), so existing clients connect
to the agent without modification.  Each incoming command flows through
the Language Filter: ECA commands go to the agent's ECA parser, agent
admin commands (``show agent ...``) to the introspection surface, plain
SQL passes straight through to the server (Figure 3 steps 1-3).

The gateway is multi-session: :meth:`open_session` returns an
:class:`~repro.agent.session.AgentSession` (session id, scheduling
state, bounded command queue) and a configurable
:class:`~repro.agent.workers.WorkerPool` sits between the sessions and
the engine — the reproduction of the Open Server thread pool the paper's
gateway inherits from Sybase.  ``set agent workers <N>`` swaps the pool
at runtime; size 0 removes it, running every command inline on the
client's thread (the original single-threaded behaviour).  Commands of
one session never run concurrently or out of order; commands of
different sessions run in parallel up to the pool size, with the
engine's lock manager arbitrating below.

The gateway also routes the output of IMMEDIATE rule actions back into
the result stream of the client command that raised the event (Figure 4
step 6 / Figure 16), via a per-thread slot the action handler writes to
(the slot lives on whichever thread — client or worker — executes the
command, which is also the thread any IMMEDIATE action runs on).

Observability: every command is wrapped in a root trace span (the whole
Figure 3/4 tree hangs off it) and, when stats are on, counted and timed
by classification (``agent_commands_total`` / ``agent_command_seconds``).
Accounting frames open on the executing thread, so per-session
attribution (``show agent top sessions``) is exact under concurrency.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

from repro.faults import FaultError, POINT_GATEWAY_PROCESS
from repro.obs.tracing import (
    FIG3_CLASSIFIED_ECA,
    FIG3_COMMAND_RECEIVED,
    FIG3_PASSED_THROUGH,
    FIG4_RESULTS_ROUTED,
    SPAN_CLASSIFY,
    SPAN_QUEUE_WAIT,
)
from repro.sqlengine.results import BatchResult

from .session import AgentSession
from .workers import WorkerPool, drain_session

#: Closed sessions kept (as a ring) for ``show agent sessions``.
RECENT_CLOSED_LIMIT = 32


class GatewayOpenServer:
    """SqlEndpoint implementation mediating between clients and server."""

    def __init__(self, agent, workers: int = 0):
        self.agent = agent
        self._local = threading.local()
        #: live (open) sessions, keyed by session id (admin plane)
        self._sessions: dict[int, AgentSession] = {}
        #: bounded ring of recently-closed sessions, newest last
        self._recent_closed: deque = deque(maxlen=RECENT_CLOSED_LIMIT)
        self._sessions_lock = threading.Lock()
        # The pool's between-task hook drops the worker thread's ambient
        # state, so a recycled thread never attributes later work to a
        # previous command.
        self._pool: WorkerPool | None = (
            WorkerPool(workers, cleanup=agent.ambient.reset)
            if workers else None)
        #: statistics for the transparency/overhead benches (E-PERF1)
        self.commands_total = 0
        self.commands_passed_through = 0
        self.commands_eca = 0
        self.commands_admin = 0
        self._m_commands = agent.metrics.counter(
            "agent_commands_total",
            "Client commands routed by the gateway, by classification",
            ("kind",))
        self._m_command_seconds = agent.metrics.histogram(
            "agent_command_seconds",
            "End-to-end client command latency through the gateway "
            "(seconds)", ("kind",))
        self._m_queue_wait = agent.metrics.histogram(
            "agent_queue_wait_seconds",
            "Time a command spent queued on its session before a pool "
            "worker dequeued it (seconds)")

    # ------------------------------------------------------------------
    # SqlEndpoint surface

    def open_session(self, user: str, database: str | None) -> AgentSession:
        """Open a gateway session (wrapping a server session) for one
        client connection.  Closing it (``session.closed = True``) evicts
        it from the live-session table into a bounded recently-closed
        ring, so short-lived connections never grow the gateway."""
        session = AgentSession(
            self.agent.server.create_session(user, database))
        session.on_close = self._evict_session
        with self._sessions_lock:
            self._sessions[session.session_id] = session
        return session

    def _evict_session(self, session: AgentSession) -> None:
        """Move one closed session out of the live table (on_close hook)."""
        with self._sessions_lock:
            if self._sessions.pop(session.session_id, None) is not None:
                self._recent_closed.append(session)

    def execute_for(self, session, sql: str) -> BatchResult:
        """Route one client command (Figure 3, steps 1-4), synchronously.

        With a worker pool, the command is queued on its session and the
        calling client thread blocks on the result — same contract, but
        other sessions' commands proceed in parallel.  Without a pool it
        runs inline.
        """
        return self.submit_for(session, sql).result()

    def submit_for(self, session, sql: str):
        """Queue one command and return a Future of its BatchResult.

        The open-loop load generator uses this directly; ``execute_for``
        is this plus a blocking wait.  Raw engine sessions (no queue) and
        pool-less gateways execute inline and return a resolved Future.

        The command's :class:`~repro.obs.tracing.TraceContext` is minted
        *here*, on the submitting client's thread, and rides the queued
        closure — the worker adopts it, so the hand-off across the
        queue keeps the causal chain (and the enqueue timestamp yields
        the queue-wait span).
        """
        pool = self._pool
        ctx = self.agent.events.command_context(session)
        while pool is not None and isinstance(session, AgentSession):
            enqueued_at = time.perf_counter()
            try:
                future = pool.submit(
                    session, lambda: self._run_command(
                        session, sql, ctx, enqueued_at))
            except RuntimeError:
                # The pool was swapped by ``set agent workers`` between
                # our read and the submit; retry against the new one
                # (or fall through to inline if the pool went away).
                new_pool = self._pool
                pool = None if new_pool is pool else new_pool
                continue
            if pool.stopping:
                # The submit raced with a resize AFTER the task was
                # enqueued: the old pool's drain may already be past
                # this session.  Hand it to the current pool as well —
                # at-least-once scheduling is safe, the session's
                # execution guard keeps it single-threaded.
                self._reschedule(session)
            return future
        future: Future = Future()
        if future.set_running_or_notify_cancel():
            try:
                if isinstance(session, AgentSession):
                    with session.inline_execution():
                        future.set_result(
                            self._run_command(session, sql, ctx))
                else:
                    future.set_result(self._run_command(session, sql, ctx))
            except BaseException as exc:
                future.set_exception(exc)
        return future

    def _reschedule(self, session: AgentSession) -> None:
        """Re-offer a session whose run-queue entry may have died with a
        stopped pool.  Schedules it on the current pool (looping past
        further resizes); with no pool left, drains it inline."""
        while True:
            pool = self._pool
            if pool is None:
                drain_session(session)
                return
            pool.schedule(session)
            if not pool.stopping:
                return
            if self._pool is pool:
                # A stopped pool that is still current (direct stop);
                # don't spin — service the session on this thread.
                drain_session(session)
                return

    # ------------------------------------------------------------------
    # worker-pool administration

    @property
    def pool(self) -> WorkerPool | None:
        """The current worker pool (None = inline execution)."""
        return self._pool

    def set_workers(self, count: int) -> int:
        """Resize the worker pool by replacement; returns the new size.

        The old pool drains asynchronously (``join=False``): this method
        may itself be running on one of the old pool's workers, and a
        thread must never join itself.
        """
        old = self._pool
        self._pool = (WorkerPool(count, cleanup=self.agent.ambient.reset)
                      if count > 0 else None)
        if old is not None:
            old.stop(join=False)
        return count

    def worker_count(self) -> int:
        """Current pool size (0 = inline)."""
        pool = self._pool
        return pool.size if pool is not None else 0

    def stop_workers(self) -> None:
        """Join and discard the pool (agent shutdown)."""
        old = self._pool
        self._pool = None
        if old is not None:
            old.stop(join=True)

    def session_snapshots(self) -> list[dict]:
        """Session rows for ``show agent sessions``, newest first: every
        live session plus a bounded ring of recently-closed ones."""
        with self._sessions_lock:
            sessions = list(self._sessions.values()) + list(
                self._recent_closed)
        return [s.snapshot() for s in
                sorted(sessions, key=lambda s: s.session_id, reverse=True)]

    # ------------------------------------------------------------------
    # command execution (runs on a worker thread, or inline)

    def _run_command(self, session, sql: str, ctx=None,
                     enqueued_at: float | None = None) -> BatchResult:
        """Execute one routed command on the current thread.

        ``ctx`` is the command context minted at submit time (None with
        every record plane off); it is adopted here so every event
        recorded for the command — on this worker thread and any thread
        it hands off to — carries one command id, and the Figure 3/4
        span tree hangs off one root.  ``enqueued_at`` (pool
        path only) dates the submit, yielding the queue-wait span and
        the ``agent_queue_wait_seconds`` observation.

        Failure semantics: real errors (SQL errors, name-check failures,
        :class:`~repro.agent.errors.PersistenceError`) propagate to the
        issuing client unchanged.  *Injected* faults that survive the
        retry policies (:class:`~repro.faults.FaultError`, including
        ``RetryExhaustedError``) degrade gracefully instead: the client
        receives an error result for this one command and the agent
        keeps serving — only a :class:`~repro.faults.SimulatedCrash`
        takes the agent down.
        """
        self.commands_total += 1
        agent = self.agent
        metrics = agent.metrics
        timed = metrics.enabled
        accounting = agent.accounting
        frame = accounting.begin(session)
        events = agent.events
        # Read the threshold before routing: ``set agent slowlog off``
        # issued *by this command* must not null it under us.
        slow_threshold = events.slow_ms
        # The health and accounting planes need wall time even with
        # stats off; one perf_counter pair per command is in the noise.
        start = time.perf_counter()
        if timed and enqueued_at is not None:
            self._m_queue_wait.observe(start - enqueued_at)
        trace_id = ctx.trace_id if ctx is not None else None
        kind = "error"
        try:
            # Detail: the command's first line, capped (sliced first —
            # this is evaluated with tracing off too).
            with events.activate(ctx), events.span(
                    FIG3_COMMAND_RECEIVED, sql[:60].partition("\n")[0]):
                if enqueued_at is not None:
                    events.record_span(SPAN_QUEUE_WAIT,
                                       start=enqueued_at, end=start)
                kind, result = self._route(session, sql)
        except FaultError as exc:
            kind = "degraded"
            result = BatchResult(messages=[
                f"Agent error: command not applied ({exc}). "
                "The agent compensated and remains consistent."])
        finally:
            duration = time.perf_counter() - start
            if timed:
                self._m_commands.labels(kind).inc()
                if trace_id is not None:
                    self._m_command_seconds.labels(kind).observe_with_trace(
                        duration, trace_id)
                else:
                    self._m_command_seconds.labels(kind).observe(duration)
            if (slow_threshold is not None
                    and duration * 1e3 >= slow_threshold):
                agent.flightrec.capture(
                    kind=kind, statement=sql, session=session,
                    duration=duration, frame=frame,
                    threshold_ms=slow_threshold, trace_id=trace_id,
                    plan=agent.server.explain_text(
                        sql, getattr(session, "server_session", session)))
            accounting.finish(frame, duration)
        return result

    def _route(self, session, sql: str) -> tuple[str, BatchResult]:
        """Classify and dispatch; returns (classification label, result)."""
        filter_ = self.agent.language_filter
        events = self.agent.events
        with events.span(SPAN_CLASSIFY):
            kind = filter_.classify(sql)

        if kind == filter_.AGENT_ADMIN:
            # The admin plane is never faulted: ``set agent faults off``
            # must remain available while a chaos plan is wreaking havoc.
            self.commands_admin += 1
            return "admin", self.agent.admin.handle(sql, session)

        faults = self.agent.faults
        if faults.enabled:
            faults.fire(POINT_GATEWAY_PROCESS, sql)

        if kind == filter_.ECA:
            self.commands_eca += 1
            events.emit(FIG3_CLASSIFIED_ECA)
            return "eca", self.agent.handle_eca(sql, session)

        if kind == filter_.MAYBE_DROP_TRIGGER:
            if self.agent.owns_drop_trigger(sql, session):
                self.commands_eca += 1
                return "eca", self.agent.handle_eca(sql, session)

        self.commands_passed_through += 1
        events.emit(FIG3_PASSED_THROUGH)
        return "passthrough", self._pass_through(session, sql)

    def _pass_through(self, session, sql: str) -> BatchResult:
        """Run plain SQL on the server, merging any IMMEDIATE action
        output raised by it into the client's result stream."""
        owns_slot = not hasattr(self._local, "slot") or self._local.slot is None
        if owns_slot:
            self._local.slot = BatchResult()
        engine_session = getattr(session, "server_session", session)
        try:
            result = self.agent.server.execute(sql, engine_session)
            self.agent.after_client_command(session)
        finally:
            if owns_slot:
                slot = self._local.slot
                self._local.slot = None
        if owns_slot and (slot.result_sets or slot.messages):
            result.result_sets.extend(slot.result_sets)
            result.messages.extend(slot.messages)
        return result

    # ------------------------------------------------------------------
    # action output routing

    def push_action_output(self, action_result: BatchResult) -> bool:
        """Append an action's output to the in-flight client result.

        Returns False when no client command is executing on this thread
        (detached actions land in the agent's action log instead).
        """
        slot = getattr(self._local, "slot", None)
        if slot is None:
            return False
        slot.messages.extend(action_result.messages)
        slot.result_sets.extend(action_result.result_sets)
        self.agent.events.emit(FIG4_RESULTS_ROUTED)
        return True
