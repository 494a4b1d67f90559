"""One event record in one log: the observability stream.

The paper's Figure 3/4 flow — command → filter → ECA parser → SQL server
→ ``syb_sendmsg`` → notifier → LED → action — is one causal chain, so it
is recorded as one stream.  Every record is an :class:`Event`; its
``kind`` says what happened and puts it on one of three *planes*:

- a **span** (kind = a Figure 3/4 / ``SPAN_*`` step name): a timed,
  nested region; ``parents[0]`` is the enclosing span;
- a **hop** (kind = one of the ``KIND_*`` provenance kinds below): one
  step of a rule firing's lineage; ``parents`` are the records that
  caused it;
- a **slow op** (kind ``slow_op``): the summary of one over-threshold
  client command; ``attrs`` holds the statement, threshold, counters,
  plan, wall-clock ``at`` and the command's own events.

An :class:`EventLog` is the one store: one sequence counter (a parent's
seq is smaller than its child's *across* planes), one lock, one clock,
one :class:`~repro.obs.ambient.Ambient`.  Which planes record is the
log's ``planes`` bit set — zero means everything is off, and a hook
site's off path is ``log.planes`` read once.  Every recording method is
a no-op while its plane is off, so a site that found ``planes`` non-zero
says what happened and the log decides what is kept.
:class:`~repro.obs.tracing.PipelineTrace`,
:class:`~repro.obs.provenance.ProvenanceJournal` and
:class:`~repro.obs.flightrec.FlightRecorder` are :class:`View`\\ s: the
plane's on/off flag plus read-time filters over this log.

Every event recorded on behalf of one client command carries that
command's id (``trace_id``, minted by :meth:`EventLog.command_context`
whenever any plane is on and handed across threads and the datagram by
the ambient :class:`~repro.obs.ambient.Handoff`), and is pinned under it
in a bounded per-command index — which is how ``show agent trace <id>``
and the slow-op capture find a command's records by identity rather
than by position in a log other sessions are appending to.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from collections import OrderedDict, deque
from contextlib import nullcontext

from .ambient import Ambient, Handoff, TraceContext
from .boundedlog import _SEQ, BoundedLog
from .metrics import HistogramSummary, summarize

__all__ = [
    "Event",
    "EventLog",
    "View",
    "NodeStat",
    "SPANS",
    "HOPS",
    "SLOW",
    "plane_of",
    "KIND_NOTIFICATION",
    "KIND_RAISE",
    "KIND_TIMER",
    "KIND_DETECTION",
    "KIND_CONDITION",
    "KIND_FIRING",
    "KIND_ACTION",
    "KIND_SLOW_OP",
]

#: Hop kinds, in causal order along the Figure 4 pipeline.
KIND_NOTIFICATION = "notification"   # payload received by the notifier
KIND_RAISE = "raise"                 # primitive event raised in the LED
KIND_TIMER = "timer"                 # synthetic timer occurrence (P/P*/PLUS)
KIND_DETECTION = "detection"         # composite occurrence emitted by a node
KIND_CONDITION = "condition"         # rule condition evaluated
KIND_FIRING = "firing"               # rule dispatched/executed by the LED
KIND_ACTION = "action"               # agent action procedure executed
#: The one slow-op kind.
KIND_SLOW_OP = "slow_op"

_HOP_KINDS = frozenset({
    KIND_NOTIFICATION, KIND_RAISE, KIND_TIMER, KIND_DETECTION,
    KIND_CONDITION, KIND_FIRING, KIND_ACTION})

#: Plane bits (the bits of :attr:`EventLog.planes`).
SPANS, HOPS, SLOW = 1, 2, 4

#: Context tag of context-independent events (spans, primitive raises).
NO_CONTEXT = "-"

#: Latency samples retained per (node, context) for the p95 statistics.
LATENCY_WINDOW = 512

#: Longest hop detail retained (bounds the log in bytes, not just count).
_DETAIL_LIMIT = 120

#: Reusable no-op context manager (plane off, nothing to adopt).
_NULL = nullcontext()


def plane_of(kind: str) -> int:
    """The plane an event of ``kind`` belongs to (every kind that is not
    a hop or the slow-op kind is a span step)."""
    if kind in _HOP_KINDS:
        return HOPS
    return SLOW if kind == KIND_SLOW_OP else SPANS


class Event:
    """One record of the stream.

    ``start``/``end`` are readings of the log's clock: a span is open
    while ``end`` is None; a hop's ``end`` is set only when the hop was
    timed (an action).  Sequence numbers are stamped in append order, so
    every parent's seq is smaller than its child's.
    """

    __slots__ = ("seq", "kind", "name", "context", "detail", "parents",
                 "depth", "start", "end", "trace_id", "attrs")

    def __init__(self, kind: str, name: str = "", context: str = NO_CONTEXT,
                 detail: str = "", parents: tuple[int, ...] = (),
                 depth: int = 0, start: float = 0.0,
                 end: float | None = None, trace_id: str | None = None,
                 attrs: dict | None = None):
        self.seq = 0        # stamped by the log on append
        self.kind = kind
        self.name = name
        self.context = context
        self.detail = detail
        self.parents = parents
        self.depth = depth
        self.start = start
        self.end = end
        #: id of the client command this event was recorded for (None
        #: outside any command's context)
        self.trace_id = trace_id
        self.attrs = attrs

    @property
    def step(self) -> str:
        """A span's step name (its kind)."""
        return self.kind

    @property
    def parent(self) -> int | None:
        """The first parent (a span's enclosing span), or None."""
        return self.parents[0] if self.parents else None

    @property
    def duration(self) -> float | None:
        """Elapsed seconds, or None for an open span / untimed hop."""
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        return (f"Event(seq={self.seq}, kind={self.kind!r}, "
                f"name={self.name!r}, detail={self.detail!r}, "
                f"parents={self.parents}, trace_id={self.trace_id!r})")


class NodeStat:
    """Aggregate statistics for one (event node, context) pair.

    ``fires`` counts detections (or raises, for primitives); ``consumed``
    counts the constituent occurrences incorporated into detections in
    *consuming* contexts (everything but RECENT, whose initiators are
    reused, not consumed).  ``latencies`` is a bounded window of per-hop
    propagation times feeding the p95 column of ``explain trigger``.
    """

    __slots__ = ("fires", "consumed", "latencies")

    def __init__(self, latency_window: int):
        self.fires = 0
        self.consumed = 0
        self.latencies: deque[float] = deque(maxlen=latency_window)

    def summary(self) -> HistogramSummary:
        """Latency summary over the retained window."""
        return summarize(list(self.latencies))


class _OpenSpan:
    """Context manager opening a span on entry and closing it on exit."""

    __slots__ = ("_log", "_step", "_detail", "event")

    def __init__(self, log: "EventLog", step: str, detail: str):
        self._log = log
        self._step = step
        self._detail = detail
        self.event: Event | None = None

    def __enter__(self) -> Event:
        log = self._log
        self.event = log._span(self._step, self._detail, log.clock(), None)
        return self.event

    def __exit__(self, *_exc) -> bool:
        event = self.event
        event.end = self._log.clock()
        stack = self._log.ambient.state().spans
        if stack and stack[-1] is event:
            stack.pop()
        elif event in stack:  # pragma: no cover - unbalanced exit guard
            stack.remove(event)
        return False


class EventLog(BoundedLog):
    """The one bounded, thread-safe event store of an agent.

    Args:
        capacity: events retained across all planes; the oldest tenth
            is dropped when full.
        clock: timestamp source of every ``start``/``end`` (default
            ``time.perf_counter``; injectable for deterministic tests).
    """

    #: Bounds on the per-command pin index (oldest finished command
    #: evicted; events past the per-command cap stay in the log only).
    MAX_TRACES = 256
    MAX_TRACE_EVENTS = 512

    def __init__(self, capacity: int = 10_000, clock=time.perf_counter):
        super().__init__(capacity)
        #: which planes record (``SPANS | HOPS | SLOW`` bits; 0 = all off)
        self.planes = 0
        #: slow-op threshold in ms (None = disarmed; the flight recorder
        #: view sets it together with the ``SLOW`` bit)
        self.slow_ms: float | None = None
        self.clock = clock
        #: the per-thread nesting state (open spans, inherited command
        #: context, hop parents) every plane reads and writes
        self.ambient = Ambient()
        self._command_seq = itertools.count(1)
        #: command id -> its pinned events, insertion-ordered
        self._traces: OrderedDict[str, list[Event]] = OrderedDict()
        #: ``trace next <N>`` sampling window state
        self._sampling = False
        self._sample_remaining = 0
        self._sample_restore = False
        #: occurrence identity -> (pinned occurrence, hop seq).  The
        #: occurrence object is pinned so its ``id()`` cannot be reused
        #: while the mapping entry lives; entries are evicted FIFO.
        self._occ_ids: dict[int, tuple[object, int]] = {}
        #: composed-occurrence identity -> direct-part hop seqs, staged
        #: by the operator's ``_compose`` and consumed by the detection
        #: hop (gives true operator-level lineage edges instead of the
        #: flattened primitive constituents).
        self._pending_parts: dict[int, tuple[object, tuple[int, ...]]] = {}
        self._stats: dict[tuple[str, str], NodeStat] = {}

    def set_plane(self, plane: int, on: bool) -> None:
        """Turn one plane's recording on or off."""
        with self._lock:
            self.planes = self.planes | plane if on else self.planes & ~plane

    # ------------------------------------------------------------------
    # the one append path

    def record(self, event: Event) -> Event:
        """Stamp, retain and (when it belongs to a command) pin one
        event.  Callers have decided the event's plane is on."""
        with self._lock:
            self._append(event)
            if event.trace_id is not None and event.kind != KIND_SLOW_OP:
                pinned = self._traces.get(event.trace_id)
                if pinned is None:
                    if len(self._traces) >= self.MAX_TRACES:
                        self._evict_trace()
                    pinned = self._traces[event.trace_id] = []
                if len(pinned) < self.MAX_TRACE_EVENTS:
                    pinned.append(event)
        return event

    def _evict_trace(self) -> None:
        """Drop the oldest pinned command that is not still being
        written — one whose root span is open is in flight (at most one
        per executing thread), and a slow command must find its own
        records however many short ones ran meanwhile (lock held)."""
        for trace_id, pinned in self._traces.items():
            root = pinned[0]
            if root.end is not None or plane_of(root.kind) != SPANS:
                del self._traces[trace_id]
                return
        self._traces.popitem(last=False)

    # ------------------------------------------------------------------
    # spans

    def _span(self, step: str, detail: str, start: float,
              end: float | None) -> Event:
        """Record one span parented by this thread's ambient state: the
        innermost open span wins; with no open span, the inherited
        :class:`TraceContext` (if any) supplies parent, depth and
        command id."""
        state = self.ambient.state()
        if state.spans:
            parent = state.spans[-1]
            parents, depth, trace_id = (
                (parent.seq,), parent.depth + 1, parent.trace_id)
        elif state.ctx is not None:
            ctx = state.ctx
            parents = () if ctx.parent_span is None else (ctx.parent_span,)
            depth, trace_id = ctx.depth, ctx.trace_id
        else:
            parents, depth, trace_id = (), 0, None
        event = self.record(Event(
            step, detail=detail, parents=parents, depth=depth,
            start=start, end=end, trace_id=trace_id))
        if end is None:
            state.spans.append(event)
        return event

    def emit(self, step: str, detail: str = "") -> None:
        """Record one instantaneous span (no-op while spans are off)."""
        if self.planes & SPANS:
            now = self.clock()
            self._span(step, detail, now, now)

    def span(self, step: str, detail: str = ""):
        """A context manager recording a timed span around the ``with``
        body (the span opens on entry, not at call time).  Children
        recorded on the same thread inside the body are linked to it.
        Returns a shared no-op context manager while spans are off (one
        branch, no allocation)."""
        if not self.planes & SPANS:
            return _NULL
        return _OpenSpan(self, step, detail)

    def record_span(self, step: str, detail: str = "", *,
                    start: float, end: float) -> Event | None:
        """Record an already-measured span with explicit timestamps,
        parented like any other on this thread (no-op while spans are
        off).  Used for regions measured before the command's context
        existed — the gateway's queue-wait interval, whose start was
        stamped on the submitting client thread."""
        if not self.planes & SPANS:
            return None
        return self._span(step, detail, start, end)

    # ------------------------------------------------------------------
    # command identity

    def command_context(self, session=None) -> TraceContext | None:
        """A fresh root context for one client command — minted whenever
        any plane is on, ``None`` (one branch) while all are off.
        Consumes one slot of an armed ``trace next <N>`` window; when
        the window is spent, the *next* call restores the pre-sampling
        spans flag, so the last sampled command finishes fully traced."""
        if self._sampling:
            with self._lock:
                if self._sampling:
                    if self._sample_remaining <= 0:
                        self._sampling = False
                        self.planes = (self.planes | SPANS
                                       if self._sample_restore
                                       else self.planes & ~SPANS)
                    else:
                        self._sample_remaining -= 1
        if not self.planes:
            return None
        baggage: dict = {"origin": "client"}
        session_id = getattr(session, "session_id", None)
        if session_id is not None:
            baggage["session_id"] = session_id
        user = getattr(session, "user", None)
        if user:
            baggage["user"] = user
        return TraceContext(
            trace_id=f"t{next(self._command_seq):06d}",
            parent_span=None, depth=0, baggage=baggage)

    def sample_next(self, count: int) -> None:
        """Arm span recording for the next ``count`` client commands
        (``trace next <N>``): forces spans on and restores the previous
        flag once the window is spent."""
        with self._lock:
            count = max(0, int(count))
            if count and not self._sampling:
                self._sampling = True
                self._sample_restore = bool(self.planes & SPANS)
                self.planes |= SPANS
            self._sample_remaining = count

    def sampling_remaining(self) -> int:
        """Commands left in the armed sampling window (0 = disarmed)."""
        return self._sample_remaining if self._sampling else 0

    def activate(self, ctx: TraceContext | None):
        """Context manager installing ``ctx`` as this thread's inherited
        command context for the ``with`` body — the context-only case of
        :meth:`Ambient.adopt <repro.obs.ambient.Ambient.adopt>`.
        ``None`` returns a shared no-op (one branch on the off path)."""
        if ctx is None:
            return _NULL
        return self.ambient.adopt(Handoff(ctx))

    def events_for(self, trace_id: str) -> list[Event]:
        """The pinned events (spans and hops) of one command, oldest
        first; empty when the id is unknown or evicted."""
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def trace_ids(self) -> list[str]:
        """Command ids retained in the pin index, oldest first."""
        with self._lock:
            return list(self._traces)

    def trace_count(self) -> int:
        """Number of commands currently retained in the pin index."""
        return len(self._traces)

    # ------------------------------------------------------------------
    # hops

    def ambient_parents(self) -> tuple[int, ...]:
        """This thread's innermost ambient hop as a ``parents`` tuple
        (empty when none)."""
        return tuple(self.ambient.state().parents[-1:])

    def under(self, hop: Event | None):
        """Context manager making ``hop`` the ambient parent of the hops
        recorded in the ``with`` body (no-op for ``None``)."""
        if hop is None:
            return _NULL
        return self.ambient.adopt(Handoff(parents=(hop.seq,)))

    def hop(self, kind: str, name: str, context: str = NO_CONTEXT,
            detail: str = "", parents: tuple[int, ...] | None = None,
            cause=None, binds=None,
            duration: float | None = None) -> Event | None:
        """Record one lineage hop (``None`` while hops are off).

        ``parents`` defaults to the hop registered for the occurrence
        ``cause`` (if given and known), else this thread's ambient
        parent.  ``binds`` registers an occurrence as *created by* this
        hop, so later hops can name it as their ``cause``.  A timed hop
        passes its ``duration``; it ends now."""
        if not self.planes & HOPS:
            return None
        if parents is None:
            parents = self.ids_for((cause,)) or self.ambient_parents()
        now = self.clock()
        event = self.record(Event(
            kind, name, context or NO_CONTEXT, detail[:_DETAIL_LIMIT],
            parents, start=now if duration is None else now - duration,
            end=None if duration is None else now,
            trace_id=self.ambient.active_trace_id()))
        if binds is not None:
            with self._lock:
                self._occ_ids[id(binds)] = (binds, event.seq)
                while len(self._occ_ids) > self.capacity:
                    self._occ_ids.pop(next(iter(self._occ_ids)))
        return event

    def ids_for(self, occurrences) -> tuple[int, ...]:
        """Hop seqs registered for a sequence of occurrences
        (deduplicated, order preserved; unregistered ones skipped)."""
        out: list[int] = []
        for occurrence in occurrences:
            entry = self._occ_ids.get(id(occurrence))
            if (entry is not None and entry[0] is occurrence
                    and entry[1] not in out):
                out.append(entry[1])
        return tuple(out)

    def note_parts(self, composed, parts) -> None:
        """Stage the direct parts of a freshly composed occurrence; the
        next :meth:`detection` of it uses them as parents."""
        if not self.planes & HOPS:
            return
        parents = self.ids_for(parts)
        with self._lock:
            self._pending_parts[id(composed)] = (composed, parents)
            while len(self._pending_parts) > 256:
                self._pending_parts.pop(next(iter(self._pending_parts)))

    def detection(self, name: str, context: str, occurrence,
                  consuming: bool) -> Event | None:
        """Record a composite detection, linked to the occurrences that
        composed it, and update the node's aggregate statistics."""
        if not self.planes & HOPS:
            return None
        with self._lock:
            staged = self._pending_parts.pop(id(occurrence), None)
        if staged is not None and staged[0] is occurrence and staged[1]:
            parents = staged[1]
        else:
            parents = self.ids_for(occurrence.flatten())
        self.observe_node(
            name, context, fires=1,
            consumed=len(occurrence.flatten()) if consuming else 0)
        return self.hop(KIND_DETECTION, name, context,
                        occurrence.describe(), parents=parents or None,
                        binds=occurrence)

    # ------------------------------------------------------------------
    # per-node aggregates

    def observe_node(self, name: str, context: str, fires: int = 0,
                     consumed: int = 0, latency: float | None = None) -> None:
        """Fold one observation into the (node, context) aggregate
        (no-op while hops are off)."""
        if not self.planes & HOPS:
            return
        key = (name, context or NO_CONTEXT)
        with self._lock:
            stat = self._stats.get(key)
            if stat is None:
                stat = NodeStat(LATENCY_WINDOW)
                self._stats[key] = stat
            stat.fires += fires
            stat.consumed += consumed
            if latency is not None:
                stat.latencies.append(latency)

    def node_summary(self, name: str, context: str) -> dict | None:
        """Aggregate dict for one (node, context), or None if never seen:
        ``{fires, consumed, latency_count, mean_ms, p95_ms}``."""
        with self._lock:
            stat = self._stats.get((name, context or NO_CONTEXT))
            if stat is None:
                return None
            fires, consumed = stat.fires, stat.consumed
            samples = list(stat.latencies)
        latency = summarize(samples)
        return {
            "fires": fires,
            "consumed": consumed,
            "latency_count": latency.count,
            "mean_ms": latency.mean * 1e3,
            "p95_ms": latency.p95 * 1e3,
        }

    def node_stats(self) -> list[tuple[str, str, NodeStat]]:
        """(name, context, stat) triples, sorted — for export and dumps."""
        with self._lock:
            items = sorted(self._stats.items())
        return [(name, context, stat) for (name, context), stat in items]

    # ------------------------------------------------------------------
    # inspection

    def resolve(self, seq: int) -> Event | None:
        """The retained event with this sequence number, if any."""
        with self._lock:
            index = bisect_left(self._records, seq, key=_SEQ)
            if index < len(self._records) and self._records[index].seq == seq:
                return self._records[index]
            return None

    def lineage(self, seq: int, max_depth: int = 32) -> list[Event]:
        """The ancestor chain of one event (nearest first), following
        first parents through the retained window."""
        out: list[Event] = []
        current = self.resolve(seq)
        while current is not None and len(out) < max_depth:
            out.append(current)
            if not current.parents:
                break
            current = self.resolve(current.parents[0])
        return out

    def clear(self, plane: int | None = None) -> None:
        """Drop the retained and pinned events of one plane (all planes
        for ``None``); clearing hops also drops the occurrence registry
        and node aggregates.  Flags and sequence numbers are untouched."""
        with self._lock:
            if plane is None:
                self._records.clear()
                self._traces.clear()
            else:
                self._records[:] = [event for event in self._records
                                    if plane_of(event.kind) != plane]
                for trace_id, pinned in list(self._traces.items()):
                    pinned[:] = [event for event in pinned
                                 if plane_of(event.kind) != plane]
                    if not pinned:
                        del self._traces[trace_id]
            if plane in (None, HOPS):
                self._occ_ids.clear()
                self._pending_parts.clear()
                self._stats.clear()


class View:
    """One plane of an :class:`EventLog`, filtered at read time.

    A view stores nothing: its rows are the log's own events, and
    whatever it does not filter — recording, command identity, node
    statistics, ``ambient``, ``capacity`` — is the log's own attribute,
    reached through the view.  A standalone view builds a private log
    (``capacity`` / ``clock`` shape it); the agent points its three at
    ``agent.events`` with ``log=``.
    """

    #: the plane bit this view reads (set by subclasses)
    PLANE = 0

    def __init__(self, enabled: bool = False, capacity: int = 10_000,
                 clock=time.perf_counter, log: EventLog | None = None):
        self.log = log if log is not None else EventLog(capacity, clock)
        self.enabled = enabled

    def _is_on(self) -> bool:
        return bool(self.log.planes & self.PLANE)

    def _turn(self, on: bool) -> None:
        self.log.set_plane(self.PLANE, on)

    enabled = property(_is_on, _turn, doc=(
        "Whether this plane records (``set agent trace|provenance "
        "on|off``)."))

    def __getattr__(self, name: str):
        if name == "log":   # not constructed yet (copy / unpickle)
            raise AttributeError(name)
        return getattr(self.log, name)

    def snapshot(self) -> list[Event]:
        """Every retained event of this plane, oldest first."""
        return [event for event in self.log.snapshot()
                if plane_of(event.kind) == self.PLANE]

    def tail(self, count: int) -> list[Event]:
        """The most recent ``count`` events of this plane, oldest first."""
        return self.snapshot()[-count:] if count > 0 else []

    def __len__(self) -> int:
        return len(self.snapshot())

    def clear(self) -> None:
        """Drop this plane's events from the log (the view's flag and
        the other planes are untouched)."""
        self.log.clear(self.PLANE)
