"""The provenance view of the event stream: the lineage of every firing.

The metrics registry answers "how many" and the span view answers "how
long", but neither answers the operator's diagnostic question: *why did
this rule fire, and which occurrences did it consume?*  Every hop of the
paper's Figure 4 flow — notification receipt, primitive-event raise,
operator-node propagation, composite detection, condition evaluation,
rule firing, action execution — is recorded in the agent's
:class:`~repro.obs.events.EventLog` as one hop
:class:`~repro.obs.events.Event` (kind = one of the ``KIND_*`` names
re-exported here) linked to the events that caused it, so the full
lineage of any firing is reconstructible per parameter context (RECENT /
CHRONICLE / CONTINUOUS / CUMULATIVE).

:class:`ProvenanceJournal` is the hops-plane
:class:`~repro.obs.events.View` of that log: the on/off flag (``set
agent provenance on``) and read-time filters.  What it inherits from the
log:

- **Cheap when disabled**: every hook in the instrumented pipeline is
  one ``log.planes`` read; nothing is allocated while off (the default).
- **Bounded**: parent ids always point *backwards* (a parent's seq is
  smaller than its child's), so links never dangle: a parent id either
  resolves within the retained window or is older than every retained
  event.
- **Thread-safe**: notification-listener threads, detached action
  workers, and client threads record concurrently under the log's one
  lock; the ambient parent chain (notification → raise) is tracked per
  thread in the log's :class:`~repro.obs.ambient.Ambient`.

Besides the hops themselves, per-node aggregates (`fires`, `consumed`,
a bounded latency window) are kept per ``(event node, context)`` — exact
counters that survive event eviction and feed the ``explain trigger``
admin command's per-node statistics.
"""

from __future__ import annotations

from .events import (
    HOPS,
    KIND_ACTION,
    KIND_CONDITION,
    KIND_DETECTION,
    KIND_FIRING,
    KIND_NOTIFICATION,
    KIND_RAISE,
    KIND_TIMER,
    NodeStat,
    View,
)

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
]


class ProvenanceJournal(View):
    """The hop plane of an event log (``ProvenanceJournal(enabled,
    capacity, clock)`` standalone, ``ProvenanceJournal(log=agent.events)``
    shared).  Recording (``hop`` / ``detection`` / ``observe_node``) and
    the aggregates and walks (``node_summary`` / ``node_stats`` /
    ``lineage``) are the log's own methods."""

    PLANE = HOPS
