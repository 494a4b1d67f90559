"""Reference interpreter for Snoop composite-event semantics.

A second, independent implementation of the paper's Section 2 event
algebra used as the oracle of the differential-testing harness.  It is
deliberately small and direct: every parameter context is implemented as
a literal transcription of its definition (Chakravarthy et al., *Snoop*;
paper Section 2.1/2.2), with none of the production concerns of
:mod:`repro.led` — no locks, no observability hooks, no timers, no
incremental optimisation.  The only code shared with the production
detector is the Snoop *parser* (:mod:`repro.snoop`), i.e. the syntax
front end; all detection state machines here are separate.

Scope: the non-temporal operators ``OR``, ``AND``, ``SEQ``, ``NOT``,
``A`` and ``A*``.  The temporal operators (``P``, ``P*``, ``PLUS``)
need a clock and are exercised by the dedicated LED temporal suite
instead (``tests/led/test_temporal.py``); asking this interpreter for
one raises :class:`ReferenceError`.

The four parameter contexts, as implemented here (paper Section 2.2):

RECENT
    A terminator pairs with the *most recent* initiator; initiators are
    never consumed, only displaced by a newer occurrence of their event.
CHRONICLE
    Initiator/terminator pairs form in FIFO order; the oldest initiator
    pairs and is consumed.
CONTINUOUS
    Every open initiator window is terminated separately: one detection
    per open initiator, all of them consumed.
CUMULATIVE
    All occurrences accumulated since the previous detection combine
    into a single detection and are consumed together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.snoop.ast import (
    And,
    Aperiodic,
    AperiodicStar,
    EventExpr,
    EventName,
    Not,
    Or,
    Seq,
)
from repro.snoop.parser import parse_event_expression

#: Parameter contexts in canonical (enum-definition) order; plain strings
#: so the interpreter never imports :mod:`repro.led`.
CONTEXTS = ("RECENT", "CHRONICLE", "CONTINUOUS", "CUMULATIVE")

#: Coupling modes the reference models.  DETACHED actions run on worker
#: threads in the real stack and are excluded from differential runs.
COUPLINGS = ("IMMEDIATE", "DEFERRED")


class ReferenceError(Exception):
    """Definition error in the reference interpreter."""


@dataclass(frozen=True)
class RefOccurrence:
    """One event occurrence in the reference model.

    ``start``/``end`` are ``(time, seq)`` pairs spanning the occurrence
    interval; ``prims`` holds the ``(time, seq, name)`` triples of the
    primitive constituents in chronological order — exactly the
    parameters a Snoop context collects.
    """

    event_name: str
    start: tuple[float, int]
    end: tuple[float, int]
    prims: tuple[tuple[float, int, str], ...]

    def before(self, other: "RefOccurrence") -> bool:
        """Interval order: this occurrence ends before the other starts."""
        return self.end < other.start

    def seqs(self) -> tuple[int, ...]:
        """Sequence numbers of the primitive constituents."""
        return tuple(seq for _, seq, _ in self.prims)


def ref_primitive(name: str, time: float, seq: int) -> RefOccurrence:
    """A primitive occurrence: a point interval, its own constituent."""
    point = (time, seq)
    return RefOccurrence(name, point, point, ((time, seq, name),))


def ref_compose(name: str, parts: list[RefOccurrence]) -> RefOccurrence:
    """Combine part occurrences into a composite occurrence of ``name``.

    The interval spans all parts; constituents are the parts' primitives
    sorted chronologically (ties keep encounter order, which cannot
    happen for distinct primitives since ``seq`` is unique).
    """
    prims = [prim for part in parts for prim in part.prims]
    prims.sort(key=lambda prim: (prim[0], prim[1]))
    return RefOccurrence(
        name,
        min(part.start for part in parts),
        max(part.end for part in parts),
        tuple(prims),
    )


@dataclass(frozen=True)
class RefRule:
    """An ECA rule attached to an event in the reference model."""

    name: str
    event_name: str
    context: str
    coupling: str
    priority: int = 1


@dataclass(frozen=True)
class RefDetection:
    """A recorded detection: ``context`` is ``None`` for primitives."""

    event_name: str
    context: str | None
    occurrence: RefOccurrence


@dataclass(frozen=True)
class RefFiring:
    """A recorded rule firing (the reference runs no real actions)."""

    rule_name: str
    event_name: str
    context: str
    coupling: str
    occurrence: RefOccurrence


# ---------------------------------------------------------------------------
# graph nodes

#: When one occurrence feeds several roles of a parent, terminator-like
#: roles close existing windows before initiator-like roles open new ones.
_ROLE_ORDER = {"terminator": 0, "right": 1, "middle": 2, "left": 3,
               "initiator": 4}


class _Node:
    """Base node: context activation and upward propagation."""

    def __init__(self, interp: "ReferenceDetector", name: str):
        self.interp = interp
        self.name = name
        self.parents: list[tuple["_Node", str]] = []
        self.active: list[str] = []

    def children(self) -> list["_Node"]:
        return []

    def attach(self, parent: "_Node", role: str) -> None:
        self.parents.append((parent, role))
        self.parents.sort(key=lambda entry: _ROLE_ORDER.get(entry[1], 5))
        for context in parent.active:
            self.activate(context)

    def activate(self, context: str) -> None:
        if context in self.active:
            return
        self.active.append(context)
        self.active.sort(key=CONTEXTS.index)
        for child in self.children():
            child.activate(context)

    def emit(self, occurrence: RefOccurrence, context: str) -> None:
        """Publish a detection: record it, fire rules, feed parents."""
        self.interp._note(self.name, context, occurrence)
        self.interp._dispatch(self.name, occurrence, context)
        for parent, role in self.parents:
            if context in parent.active:
                parent.process(role, occurrence, context)

    def process(self, role: str, occurrence: RefOccurrence,
                context: str) -> None:
        raise NotImplementedError


class _PrimitiveNode(_Node):
    """A leaf event raised from the explicit occurrence stream."""

    def on_raise(self, occurrence: RefOccurrence) -> None:
        self.interp._dispatch(self.name, occurrence, None)
        for parent, role in self.parents:
            for context in CONTEXTS:
                if context in parent.active:
                    parent.process(role, occurrence, context)


class _OperatorNode(_Node):
    """Base for operator nodes: per-context state, role-keyed children."""

    def __init__(self, interp, name, children: dict[str, _Node]):
        super().__init__(interp, name)
        self._children = children
        self._state: dict[str, object] = {}
        for role, child in children.items():
            child.attach(self, role)

    def children(self) -> list[_Node]:
        return list(self._children.values())

    def state(self, context: str):
        if context not in self._state:
            self._state[context] = self._new_state()
        return self._state[context]

    def _new_state(self):
        raise NotImplementedError


class _OrNode(_OperatorNode):
    """``E1 OR E2``: either constituent occurs — stateless relabeling,
    identical in every context (a disjunction never pairs occurrences)."""

    def _new_state(self):
        return None

    def process(self, role, occurrence, context):
        self.emit(ref_compose(self.name, [occurrence]), context)


class _AndNode(_OperatorNode):
    """``E1 AND E2``: both constituents, in either order.

    Either side initiates; the other side's arrival terminates.  State is
    the pending unpaired occurrences of each side.
    """

    def _new_state(self):
        return {"left": [], "right": []}

    def process(self, role, occurrence, context):
        state = self.state(context)
        mine, other = state[role], state["right" if role == "left" else "left"]
        if context == "RECENT":
            # Pair with the other side's most recent occurrence (kept, not
            # consumed); this occurrence becomes its side's most recent.
            if other:
                self.emit(ref_compose(self.name, [other[-1], occurrence]),
                          context)
            state[role] = [occurrence]
        elif context == "CHRONICLE":
            # FIFO pairing: the oldest waiting partner is consumed.
            if other:
                self.emit(ref_compose(self.name, [other.pop(0), occurrence]),
                          context)
            else:
                mine.append(occurrence)
        elif context == "CONTINUOUS":
            # Terminate every open window of the other side, one detection
            # per partner, all consumed.
            if other:
                partners, other[:] = list(other), []
                for partner in partners:
                    self.emit(
                        ref_compose(self.name, [partner, occurrence]), context)
            else:
                mine.append(occurrence)
        else:  # CUMULATIVE
            # Everything accumulated on both sides joins one detection.
            if other:
                parts = state["left"] + state["right"] + [occurrence]
                state["left"], state["right"] = [], []
                self.emit(ref_compose(self.name, parts), context)
            else:
                mine.append(occurrence)


def _pair_initiators(initiators: list[RefOccurrence],
                     terminator: RefOccurrence, context: str):
    """Pair a terminator with the open initiators that precede it.

    Returns ``(groups, consumed)``: each group composes with the
    terminator into one detection; consumed initiators leave the open
    list.  This is the common initiator/terminator discipline of SEQ and
    NOT (paper Section 2.2):

    - RECENT: the most recent initiator pairs and is *retained*;
    - CHRONICLE: the oldest initiator pairs and is consumed;
    - CONTINUOUS: every initiator pairs separately, all consumed;
    - CUMULATIVE: all initiators pair together, all consumed.
    """
    candidates = [init for init in initiators if init.before(terminator)]
    if not candidates:
        return [], []
    if context == "RECENT":
        return [[candidates[-1]]], []
    if context == "CHRONICLE":
        return [[candidates[0]]], [candidates[0]]
    if context == "CONTINUOUS":
        return [[init] for init in candidates], list(candidates)
    return [candidates], list(candidates)  # CUMULATIVE


class _SeqNode(_OperatorNode):
    """``E1 SEQ E2``: E1 strictly before E2 in interval order."""

    def _new_state(self):
        return {"initiators": []}

    def process(self, role, occurrence, context):
        state = self.state(context)
        if role == "left":
            if context == "RECENT":
                state["initiators"] = [occurrence]
            else:
                state["initiators"].append(occurrence)
            return
        groups, consumed = _pair_initiators(
            state["initiators"], occurrence, context)
        for init in consumed:
            state["initiators"].remove(init)
        for group in groups:
            self.emit(ref_compose(self.name, group + [occurrence]), context)


class _NotNode(_OperatorNode):
    """``NOT(E1, E2, E3)``: E3 after E1 with no E2 inside the window.

    The forbidden middle event cancels every window it falls into; the
    terminator then pairs with surviving initiators exactly like SEQ.
    """

    def _new_state(self):
        return {"initiators": []}

    def process(self, role, occurrence, context):
        state = self.state(context)
        if role == "initiator":
            if context == "RECENT":
                state["initiators"] = [occurrence]
            else:
                state["initiators"].append(occurrence)
            return
        if role == "middle":
            state["initiators"] = [
                init for init in state["initiators"]
                if not init.before(occurrence)
            ]
            return
        groups, consumed = _pair_initiators(
            state["initiators"], occurrence, context)
        for init in consumed:
            state["initiators"].remove(init)
        for group in groups:
            self.emit(ref_compose(self.name, group + [occurrence]), context)


class _AperiodicNode(_OperatorNode):
    """``A(E1, E2, E3)``: signal each E2 inside an open E1..E3 window.

    The middle event terminates each *signal* (pairing per context, but
    nothing is consumed — the window stays open); the closing event only
    ends windows and never signals.
    """

    def _new_state(self):
        return {"initiators": []}

    def process(self, role, occurrence, context):
        state = self.state(context)
        if role == "initiator":
            if context == "RECENT":
                state["initiators"] = [occurrence]
            else:
                state["initiators"].append(occurrence)
            return
        if role == "middle":
            # A signal pairs per context but consumes nothing: the
            # window stays open for further signals.
            groups, _ = _pair_initiators(
                state["initiators"], occurrence, context)
            for group in groups:
                self.emit(
                    ref_compose(self.name, group + [occurrence]), context)
            return
        # Closing event: consume windows, no detection.
        _, consumed = _pair_initiators(
            state["initiators"], occurrence, context)
        if context == "RECENT":
            # RECENT retains at most one initiator; a closing event that
            # follows it empties the window list.
            if any(init.before(occurrence) for init in state["initiators"]):
                state["initiators"] = []
        else:
            for init in consumed:
                state["initiators"].remove(init)


class _AperiodicStarNode(_OperatorNode):
    """``A*(E1, E2, E3)``: accumulate E2s, fire once when E3 closes.

    Fires at the terminator even when no middle occurrence was collected
    (the accumulated set is then empty), matching Snoop.
    """

    def _new_state(self):
        return {"windows": []}

    def process(self, role, occurrence, context):
        state = self.state(context)
        windows = state["windows"]
        if role == "initiator":
            window = (occurrence, [])
            if context == "RECENT":
                state["windows"] = [window]
            else:
                windows.append(window)
            return
        if role == "middle":
            for initiator, collected in windows:
                if initiator.before(occurrence):
                    collected.append(occurrence)
            return
        candidates = [
            window for window in windows if window[0].before(occurrence)
        ]
        if not candidates:
            return
        if context == "RECENT":
            initiator, collected = candidates[-1]
            state["windows"] = []
            self.emit(ref_compose(
                self.name, [initiator, *collected, occurrence]), context)
        elif context == "CHRONICLE":
            window = candidates[0]
            windows.remove(window)
            self.emit(ref_compose(
                self.name, [window[0], *window[1], occurrence]), context)
        elif context == "CONTINUOUS":
            for window in candidates:
                windows.remove(window)
            for initiator, collected in candidates:
                self.emit(ref_compose(
                    self.name, [initiator, *collected, occurrence]), context)
        else:  # CUMULATIVE
            parts: list[RefOccurrence] = []
            for window in candidates:
                windows.remove(window)
                parts.append(window[0])
                parts.extend(window[1])
            parts.append(occurrence)
            self.emit(ref_compose(self.name, parts), context)


# ---------------------------------------------------------------------------
# the interpreter


class ReferenceDetector:
    """The reference oracle: event definitions, rules, explicit raises.

    Usage mirrors the LED's public surface so the differential runner can
    drive both identically::

        ref = ReferenceDetector()
        ref.define_primitive("addStk")
        ref.define_primitive("delStk")
        ref.define_composite("c", "addStk AND delStk")
        ref.add_rule("r", "c", context="RECENT", coupling="IMMEDIATE")
        ref.raise_event("addStk")
        ref.raise_event("delStk")
        ref.flush_deferred()
        ref.detections, ref.firings   # the comparison surfaces
    """

    def __init__(self) -> None:
        self.events: dict[str, _Node] = {}
        self.rules: dict[str, RefRule] = {}
        self._rules_by_event: dict[str, list[RefRule]] = {}
        self._deferred: list[tuple[RefRule, RefOccurrence, str]] = []
        self._seq = itertools.count(1)
        self._anon = itertools.count(1)
        #: every primitive raise (context ``None``) and composite
        #: detection, in propagation order
        self.detections: list[RefDetection] = []
        #: every rule firing, in execution order (deferred ones appear
        #: when flushed)
        self.firings: list[RefFiring] = []

    # -- definitions ----------------------------------------------------

    def define_primitive(self, name: str) -> None:
        if name in self.events:
            raise ReferenceError(f"event '{name}' already exists")
        self.events[name] = _PrimitiveNode(self, name)

    def define_composite(self, name: str,
                         expression: EventExpr | str) -> None:
        if name in self.events:
            raise ReferenceError(f"event '{name}' already exists")
        expr = (parse_event_expression(expression)
                if isinstance(expression, str) else expression)
        node = self._build(expr, top_name=name)
        if isinstance(node, _PrimitiveNode) or not isinstance(node, _OperatorNode):
            raise ReferenceError(
                f"expression for '{name}' must use at least one operator")
        self.events[name] = node

    def _build(self, expr: EventExpr, top_name: str | None = None) -> _Node:
        name = top_name or f"_refanon{next(self._anon)}"
        if isinstance(expr, EventName):
            node = self.events.get(expr.name)
            if node is None:
                raise ReferenceError(f"event '{expr.name}' is not defined")
            return node
        if isinstance(expr, Or):
            return _OrNode(self, name, {
                "left": self._build(expr.left),
                "right": self._build(expr.right)})
        if isinstance(expr, And):
            return _AndNode(self, name, {
                "left": self._build(expr.left),
                "right": self._build(expr.right)})
        if isinstance(expr, Seq):
            return _SeqNode(self, name, {
                "left": self._build(expr.left),
                "right": self._build(expr.right)})
        if isinstance(expr, Not):
            return _NotNode(self, name, {
                "initiator": self._build(expr.initiator),
                "middle": self._build(expr.event),
                "terminator": self._build(expr.terminator)})
        if isinstance(expr, Aperiodic):
            return _AperiodicNode(self, name, {
                "initiator": self._build(expr.initiator),
                "middle": self._build(expr.event),
                "terminator": self._build(expr.terminator)})
        if isinstance(expr, AperiodicStar):
            return _AperiodicStarNode(self, name, {
                "initiator": self._build(expr.initiator),
                "middle": self._build(expr.event),
                "terminator": self._build(expr.terminator)})
        raise ReferenceError(
            f"temporal operator {type(expr).__name__} is outside the "
            "differential-test scope (see tests/led/test_temporal.py)")

    def add_rule(self, name: str, event_name: str, *,
                 context: str = "RECENT", coupling: str = "IMMEDIATE",
                 priority: int = 1) -> None:
        if name in self.rules:
            raise ReferenceError(f"rule '{name}' already exists")
        node = self.events.get(event_name)
        if node is None:
            raise ReferenceError(f"event '{event_name}' is not defined")
        if context not in CONTEXTS:
            raise ReferenceError(f"unknown context {context!r}")
        if coupling not in COUPLINGS:
            raise ReferenceError(
                f"coupling {coupling!r} is outside the differential-test "
                "scope (DETACHED actions are asynchronous)")
        rule = RefRule(name, event_name, context, coupling, priority)
        self.rules[name] = rule
        bucket = self._rules_by_event.setdefault(event_name, [])
        bucket.append(rule)
        bucket.sort(key=lambda r: (-r.priority, r.name))
        node.activate(context)

    # -- the occurrence stream ------------------------------------------

    def raise_event(self, name: str, time: float = 0.0) -> RefOccurrence:
        """Raise one primitive occurrence at ``time``."""
        node = self.events.get(name)
        if node is None:
            raise ReferenceError(f"event '{name}' is not defined")
        if not isinstance(node, _PrimitiveNode):
            raise ReferenceError(f"'{name}' is a composite event")
        occurrence = ref_primitive(name, time, next(self._seq))
        self._note(name, None, occurrence)
        node.on_raise(occurrence)
        return occurrence

    def flush_deferred(self) -> None:
        """Fire queued DEFERRED rules, in queue order (statement end)."""
        queued, self._deferred = self._deferred, []
        for rule, occurrence, context in queued:
            self.firings.append(RefFiring(
                rule.name, rule.event_name, context, rule.coupling,
                occurrence))

    # -- recording ------------------------------------------------------

    def _note(self, event_name: str, context: str | None,
              occurrence: RefOccurrence) -> None:
        self.detections.append(RefDetection(event_name, context, occurrence))

    def _dispatch(self, event_name: str, occurrence: RefOccurrence,
                  context: str | None) -> None:
        for rule in self._rules_by_event.get(event_name, ()):
            if context is not None and rule.context != context:
                continue
            effective = context if context is not None else rule.context
            if rule.coupling == "IMMEDIATE":
                self.firings.append(RefFiring(
                    rule.name, rule.event_name, effective, rule.coupling,
                    occurrence))
            else:  # DEFERRED
                self._deferred.append((rule, occurrence, effective))


# ---------------------------------------------------------------------------
# the multi-site twin


class MultiSiteReference:
    """Paper-literal multi-site oracle: per-site Snoops plus a composer.

    The model of the sharded GED's semantics, sharing *no* code with
    :mod:`repro.ged`: one :class:`ReferenceDetector` per site interprets
    that site's local primitive stream, and a single *global composer*
    :class:`ReferenceDetector` re-raises every imported occurrence under
    its qualified name (``db.user.event::site``).  The composer's own
    raise counter plays the router's global sequence: raises arrive in
    exactly the global statement order, so its sequence numbers equal
    the GED's ``gseq`` one-for-one — which is what makes the comparison
    surfaces directly diffable.

    Occurrence numbers (``vNo``) are counted per ``(site, table)`` and
    drawn once per statement — the agent's one counter per snapshot
    family (``<table>_Version``), which every event a statement notifies
    carries in the same notification datagram.
    """

    def __init__(self, sites) -> None:
        #: per-site reference interpreters, keyed by site name
        self.sites: dict[str, ReferenceDetector] = {
            site: ReferenceDetector() for site in sites}
        #: the global composer over qualified primitive names
        self.composer = ReferenceDetector()
        self._qualified: dict[tuple[str, str], str] = {}
        #: (site, table) -> the last occurrence number drawn
        self._vno: dict[tuple[str, str], int] = {}
        #: the global primitive stream: (qualified name, global seq, vNo)
        self.primitives: list[tuple[str, int, int]] = []

    def define_site_primitive(self, site: str, event: str) -> None:
        """Register a primitive event at one site's local interpreter."""
        self.sites[site].define_primitive(event)

    def import_event(self, site: str, event: str, qualified: str) -> None:
        """Import a site primitive into the composer under its
        qualified global name."""
        self.composer.define_primitive(qualified)
        self._qualified[(site, event)] = qualified

    def define_global_event(self, name: str, expression: str) -> None:
        """Define a global composite over qualified leaf names."""
        self.composer.define_composite(name, expression)

    def add_global_rule(self, name: str, event_name: str, *,
                        context: str = "RECENT",
                        coupling: str = "IMMEDIATE",
                        priority: int = 1) -> None:
        """Attach a global rule at the composer."""
        self.composer.add_rule(name, event_name, context=context,
                               coupling=coupling, priority=priority)

    def raise_statement(self, site: str, table: str,
                        events: list[str]) -> None:
        """Raise the primitives one statement on ``table`` notifies at its
        site, in order, all under one occurrence number; imported ones
        propagate to the composer.  A statement that notifies nothing
        fires no trigger and draws no number."""
        if not events:
            return
        key = (site, table)
        v_no = self._vno[key] = self._vno.get(key, 0) + 1
        for event in events:
            self.sites[site].raise_event(event)
            qualified = self._qualified.get((site, event))
            if qualified is not None:
                occurrence = self.composer.raise_event(qualified)
                self.primitives.append(
                    (qualified, occurrence.seqs()[0], v_no))

    def flush_deferred(self) -> None:
        """Statement end: flush the composer, then every site."""
        self.composer.flush_deferred()
        for detector in self.sites.values():
            detector.flush_deferred()
