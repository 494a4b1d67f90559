"""Event-graph nodes: the base class and primitive event leaves.

The event graph mirrors Sentinel's LED: leaves are primitive events (here,
the database operations the agent's generated triggers notify about) and
inner nodes are Snoop operators.  Nodes propagate occurrences upward,
tagged with the parameter context in which the receiving node is
detecting.  A node participates in a context only if some rule on it or
above it requires that context (:meth:`EventNode.activate`), so unused
context machinery costs nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.tracing import FIG4_DETECTED, SPAN_LED_OP_PREFIX

from .occurrences import Occurrence
from .rules import Context

if TYPE_CHECKING:  # pragma: no cover
    from .detector import LocalEventDetector


class EventNode:
    """Base class of all event-graph nodes."""

    def __init__(self, detector: "LocalEventDetector", name: str):
        self.detector = detector
        self.name = name
        #: (parent node, role) registrations; one child may feed several
        #: parents (event reuse) or several roles of one parent.
        self.parents: list[tuple["EventNode", str]] = []
        self.active_contexts: set[Context] = set()

    # -- wiring ---------------------------------------------------------

    #: When one child occurrence feeds several roles (e.g. the same event
    #: is both initiator and terminator of a NOT), terminator-like roles
    #: must be processed first: the occurrence closes existing windows
    #: before opening/starting new ones.
    _ROLE_ORDER = {
        "terminator": 0,
        "right": 1,
        "middle": 2,
        "left": 3,
        "initiator": 4,
    }

    def attach_parent(self, parent: "EventNode", role: str) -> None:
        self.parents.append((parent, role))
        self.parents.sort(key=lambda entry: self._ROLE_ORDER.get(entry[1], 5))
        for context in parent.active_contexts:
            self.activate(context)

    def detach_parent(self, parent: "EventNode") -> None:
        self.parents = [
            (node, role) for node, role in self.parents if node is not parent
        ]

    def children(self) -> list["EventNode"]:
        """Direct constituents (empty for primitives)."""
        return []

    def role_children(self) -> list[tuple[str, "EventNode"]]:
        """(role, child) pairs (empty for primitives) — introspection
        surface for the ``explain trigger`` event-subgraph walk."""
        return []

    def activate(self, context: Context) -> None:
        """Enable detection in ``context`` for this node and its subtree."""
        if context in self.active_contexts:
            return
        self.active_contexts.add(context)
        for child in self.children():
            child.activate(context)

    # -- propagation ------------------------------------------------------

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        """Receive a child occurrence in a given context (composites only)."""
        raise NotImplementedError

    def emit(self, occurrence: Occurrence, context: Context) -> None:
        """Publish an occurrence of this node detected in ``context``:
        fire this node's rules for that context, then feed parents."""
        detector = self.detector
        metrics = detector.metrics
        if metrics is not None and metrics.enabled:
            detector._m_detected.labels("composite", context.value).inc()
        accounting = detector.accounting
        if accounting is not None and accounting.active():
            accounting.note_detection()
        eventlog = detector.eventlog
        recording = eventlog is not None and eventlog.planes
        if recording:
            eventlog.emit(FIG4_DETECTED, f"{self.name} [{context.value}]")
            # RECENT keeps its initiators for reuse; every other context
            # consumes the occurrences incorporated into a detection.
            eventlog.detection(self.name, context.value, occurrence,
                             consuming=context is not Context.RECENT)
        log = detector.detection_log
        if log is not None:
            log.append((self.name, context, occurrence))
        detector._dispatch_rules(self, occurrence, context)
        for parent, role in self.parents:
            if context in parent.active_contexts:
                if recording:
                    self._feed_slow(parent, role, occurrence, context,
                                    eventlog)
                else:
                    parent.process(role, occurrence, context)

    def _feed_slow(self, parent: "EventNode", role: str,
                   occurrence: Occurrence, context: Context,
                   eventlog) -> None:
        """Recorded propagation of one occurrence into one parent (spans
        the hop; times it into the parent's latency window)."""
        start = eventlog.clock()
        with eventlog.span(SPAN_LED_OP_PREFIX + type(parent).__name__,
                         parent.name):
            parent.process(role, occurrence, context)
        eventlog.observe_node(parent.name, context.value,
                            latency=eventlog.clock() - start)

    def reset(self) -> None:
        """Discard any partial detection state (composites override)."""

    def describe(self) -> str:
        return self.name


class PrimitiveEventNode(EventNode):
    """A leaf: a named primitive event raised from outside the detector.

    Primitive occurrences are context-independent; when raised, the node
    fires its own rules once and feeds each parent once per context the
    parent is active in.
    """

    def on_raise(self, occurrence: Occurrence) -> None:
        detector = self.detector
        eventlog = detector.eventlog
        recording = eventlog is not None and eventlog.planes
        detector._dispatch_rules(self, occurrence, None)
        for parent, role in self.parents:
            # Canonical Context definition order, not set order: Enum
            # members hash by identity, so iterating the set directly
            # would feed multi-context parents in an order that varies
            # between interpreter runs — unacceptable for seed-exact
            # reproduction (difftest corpus replay).
            for context in Context:
                if context not in parent.active_contexts:
                    continue
                if recording:
                    self._feed_slow(parent, role, occurrence, context,
                                    eventlog)
                else:
                    parent.process(role, occurrence, context)

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        raise AssertionError("primitive events have no children")
