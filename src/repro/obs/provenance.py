"""Causality-aware event journal: the lineage of every rule firing.

The metrics registry answers "how many" and the span trace answers "how
long", but neither answers the operator's diagnostic question: *why did
this rule fire, and which occurrences did it consume?*  This module adds
the missing provenance layer.  Every hop of the paper's Figure 4 flow —
notification receipt, primitive-event raise, operator-node propagation,
composite detection, condition evaluation, rule firing, action execution
— appends one :class:`ProvenanceRecord` with links to the records that
caused it, so the full lineage of any firing is reconstructible per
parameter context (RECENT / CHRONICLE / CONTINUOUS / CUMULATIVE).

Design constraints (shared with the rest of ``repro.obs``):

- **Cheap when disabled**: every hook in the instrumented pipeline is one
  ``journal is not None and journal.enabled`` branch; nothing is
  allocated while off (the default).
- **Bounded**: the journal is a :class:`~repro.obs.boundedlog.BoundedLog`
  (oldest tenth dropped when full).  Parent ids always point
  *backwards* (a parent id is smaller than its child's), so links never
  dangle: a parent id either resolves within the retained window or is
  older than every retained record.
- **Thread-safe**: notification-listener threads, detached action
  workers, and client threads append concurrently under one lock; the
  ambient parent chain (notification → raise) is tracked per thread in
  the :class:`~repro.obs.ambient.Ambient` shared with the span trace.

Besides the journal itself, per-node aggregates (`fires`, `consumed`,
a bounded latency window) are kept per ``(event node, context)`` — these
are exact counters that survive record eviction and feed the
``explain trigger`` admin command's per-node statistics.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .ambient import Ambient
from .boundedlog import BoundedLog
from .metrics import HistogramSummary, summarize

__all__ = [
    "KIND_NOTIFICATION",
    "KIND_RAISE",
    "KIND_TIMER",
    "KIND_DETECTION",
    "KIND_CONDITION",
    "KIND_FIRING",
    "KIND_ACTION",
    "NodeStat",
    "ProvenanceJournal",
    "ProvenanceRecord",
]

#: Record kinds, in causal order along the Figure 4 pipeline.
KIND_NOTIFICATION = "notification"   # payload received by the notifier
KIND_RAISE = "raise"                 # primitive event raised in the LED
KIND_TIMER = "timer"                 # synthetic timer occurrence (P/P*/PLUS)
KIND_DETECTION = "detection"         # composite occurrence emitted by a node
KIND_CONDITION = "condition"         # rule condition evaluated
KIND_FIRING = "firing"               # rule dispatched/executed by the LED
KIND_ACTION = "action"               # agent action procedure executed

#: Context tag used for context-independent records (primitive raises).
NO_CONTEXT = "-"

#: Longest detail string retained per record (keeps the journal bounded
#: in bytes, not just record count).
_DETAIL_LIMIT = 120


@dataclass
class ProvenanceRecord:
    """One journal entry: a named pipeline hop and its causal parents.

    ``parents`` holds the ids of the records that caused this one — a
    detection's parents are the occurrences it composed, a firing's
    parent is the detection (or raise) that triggered the rule.  Ids are
    assigned in append order, so every parent id is smaller than its
    child's id.
    """

    seq: int
    kind: str
    name: str
    context: str = NO_CONTEXT
    detail: str = ""
    parents: tuple[int, ...] = ()
    at: float = 0.0
    duration: float | None = None
    #: trace id of the client command this hop belongs to (stamped from
    #: the thread's ambient trace context, None when none is active)
    trace_id: str | None = None


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


class ProvenanceJournal(BoundedLog):
    """Bounded, thread-safe journal of causally linked pipeline records.

    Args:
        enabled: start collecting immediately (default False — the agent
            enables it at runtime via ``set agent provenance on``).
        capacity: maximum retained records; the oldest tenth is dropped
            when full (always at least one, so tiny capacities stay
            bounded).
        latency_window: per-(node, context) latency samples retained for
            the p95 statistics.
        clock: timestamp source for record ``at`` fields and propagation
            latencies (default ``time.perf_counter``; injectable for
            deterministic tests).
    """

    def __init__(self, enabled: bool = False, capacity: int = 10_000,
                 latency_window: int = 512, clock=time.perf_counter):
        super().__init__(capacity)
        self.enabled = enabled
        self._clock = clock
        #: per-thread ambient parent stack + the active trace id (private
        #: here; the agent points its three planes at one shared ambient)
        self.ambient = Ambient()
        self._latency_window = latency_window
        #: occurrence identity -> (pinned occurrence, record id).  The
        #: occurrence object is pinned so its ``id()`` cannot be reused
        #: while the mapping entry lives; entries are evicted FIFO.
        self._occ_ids: dict[int, tuple[object, int]] = {}
        #: composed-occurrence identity -> direct-part record ids, staged
        #: by the operator's ``_compose`` and consumed by the detection
        #: record (gives true operator-level lineage edges instead of the
        #: flattened primitive constituents).
        self._pending_parts: dict[int, tuple[object, tuple[int, ...]]] = {}
        self._stats: dict[tuple[str, str], NodeStat] = {}

    def now(self) -> float:
        """The journal's clock (used by hooks timing propagation hops)."""
        return self._clock()

    # ------------------------------------------------------------------
    # ambient per-thread parent chain (notification -> raise nesting)

    def push(self, record_id: int) -> None:
        """Make ``record_id`` the ambient parent for this thread."""
        self.ambient.state().parents.append(record_id)

    def pop(self) -> None:
        """Drop this thread's innermost ambient parent."""
        parents = self.ambient.state().parents
        if parents:
            parents.pop()

    def ambient_parents(self) -> tuple[int, ...]:
        """This thread's innermost ambient parent as a ``parents`` tuple
        (empty when none)."""
        return tuple(self.ambient.state().parents[-1:])

    # ------------------------------------------------------------------
    # recording

    def append(self, kind: str, name: str, context: str = NO_CONTEXT,
               detail: str = "", parents: tuple[int, ...] = (),
               duration: float | None = None) -> ProvenanceRecord:
        """Append one record (callers have already checked ``enabled``)."""
        record = ProvenanceRecord(
            seq=self._next_seq(), kind=kind, name=name,
            context=context or NO_CONTEXT,
            detail=detail[:_DETAIL_LIMIT], parents=parents,
            at=self._clock(), duration=duration,
            trace_id=self.ambient.active_trace_id(),
        )
        with self._lock:
            self._append(record)
        return record

    def register(self, occurrence, record_id: int) -> None:
        """Bind an occurrence to the record that created it, so later
        hops (detections, conditions, firings, actions) can link back."""
        with self._lock:
            self._occ_ids[id(occurrence)] = (occurrence, record_id)
            while len(self._occ_ids) > self.capacity:
                self._occ_ids.pop(next(iter(self._occ_ids)))

    def id_for(self, occurrence) -> int | None:
        """The record id an occurrence was registered under, if retained."""
        entry = self._occ_ids.get(id(occurrence))
        if entry is not None and entry[0] is occurrence:
            return entry[1]
        return None

    def ids_for(self, occurrences) -> tuple[int, ...]:
        """Resolved record ids for a sequence of occurrences (deduplicated,
        order preserved; unregistered occurrences are skipped)."""
        out: list[int] = []
        for occurrence in occurrences:
            rid = self.id_for(occurrence)
            if rid is not None and rid not in out:
                out.append(rid)
        return tuple(out)

    def note_parts(self, composed, parts) -> None:
        """Stage the direct parts of a freshly composed occurrence; the
        next :meth:`record_detection` for it uses them as parents."""
        parents = self.ids_for(parts)
        with self._lock:
            self._pending_parts[id(composed)] = (composed, parents)
            while len(self._pending_parts) > 256:
                self._pending_parts.pop(next(iter(self._pending_parts)))

    def record_detection(self, name: str, context: str, occurrence,
                         consuming: bool) -> ProvenanceRecord:
        """Record a composite detection, linked to the occurrences that
        composed it, and update the node's aggregate statistics."""
        with self._lock:
            staged = self._pending_parts.pop(id(occurrence), None)
        if staged is not None and staged[0] is occurrence and staged[1]:
            parents = staged[1]
        else:
            parents = self.ids_for(occurrence.flatten())
        if not parents:
            parents = self.ambient_parents()
        record = self.append(
            KIND_DETECTION, name, context=context,
            detail=occurrence.describe(), parents=parents)
        self.register(occurrence, record.seq)
        self.observe_node(
            name, context, fires=1,
            consumed=len(occurrence.flatten()) if consuming else 0)
        return record

    def record_action(self, name: str, context: str, occurrence,
                      error: BaseException | None = None,
                      duration: float | None = None) -> ProvenanceRecord:
        """Record one executed action, linked to its triggering occurrence."""
        detail = "ok" if error is None else f"error: {error}"
        return self.append(
            KIND_ACTION, name, context=context, detail=detail,
            parents=self.ids_for((occurrence,)) or self.ambient_parents(),
            duration=duration)

    # ------------------------------------------------------------------
    # per-node aggregates

    def observe_node(self, name: str, context: str, fires: int = 0,
                     consumed: int = 0, latency: float | None = None) -> None:
        """Fold one observation into the (node, context) aggregate."""
        key = (name, context or NO_CONTEXT)
        with self._lock:
            stat = self._stats.get(key)
            if stat is None:
                stat = NodeStat(self._latency_window)
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

    def resolve(self, record_id: int) -> ProvenanceRecord | None:
        """The retained record with ``seq == record_id``, if any."""
        with self._lock:
            records = self._records
            if not records:
                return None
            # Ids are append-ordered: binary-search the retained window.
            lo, hi = 0, len(records)
            while lo < hi:
                mid = (lo + hi) // 2
                if records[mid].seq < record_id:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < len(records) and records[lo].seq == record_id:
                return records[lo]
            return None

    def lineage(self, record_id: int, max_depth: int = 32) -> list[ProvenanceRecord]:
        """The ancestor chain of one record (nearest first), following
        first parents through the retained window."""
        out: list[ProvenanceRecord] = []
        current = self.resolve(record_id)
        while current is not None and len(out) < max_depth:
            out.append(current)
            if not current.parents:
                break
            current = self.resolve(current.parents[0])
        return out

    def clear(self) -> None:
        """Drop every record, registration, and node aggregate (the
        ``reset agent provenance`` command; ``enabled`` is untouched)."""
        with self._lock:
            self._records.clear()
            self._occ_ids.clear()
            self._pending_parts.clear()
            self._stats.clear()
