"""Snoop operator nodes: the composite event state machines.

Each operator keeps detection state *per parameter context*; the context
determines how initiator occurrences pair with terminators and what is
consumed on detection (see :class:`repro.led.rules.Context`).

Terminology (paper Section 2.1): the *initiator* of a composite event is
the constituent that can start its detection; the *terminator* is the
constituent whose occurrence completes a detection.  For ``AND`` either
side can initiate; for ``SEQ``/``NOT``/``A``/``A*``/``P``/``P*`` the
initiator is the first argument and the terminator the last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .nodes import EventNode
from .occurrences import Occurrence, compose
from .rules import Context
from .snooptime import TimerHandle

LEFT = "left"
RIGHT = "right"
INITIATOR = "initiator"
MIDDLE = "middle"
TERMINATOR = "terminator"


class CompositeNode(EventNode):
    """Base for operator nodes: per-context state plus child bookkeeping."""

    ROLES: tuple[str, ...] = ()

    def __init__(self, detector, name: str, children: dict[str, EventNode]):
        super().__init__(detector, name)
        self._children = children
        self._state: dict[Context, object] = {}
        for role, child in children.items():
            if role not in self.ROLES:
                raise ValueError(f"{type(self).__name__} has no role {role!r}")
            child.attach_parent(self, role)

    def children(self) -> list[EventNode]:
        return list(self._children.values())

    def role_children(self) -> list[tuple[str, EventNode]]:
        return list(self._children.items())

    def child(self, role: str) -> EventNode:
        return self._children[role]

    def state(self, context: Context):
        if context not in self._state:
            self._state[context] = self._new_state()
        return self._state[context]

    def _new_state(self):
        raise NotImplementedError

    def reset(self) -> None:
        self._state.clear()

    def _compose(self, parts: list[Occurrence]) -> Occurrence:
        composed = compose(self.name, parts)
        eventlog = self.detector.eventlog
        if eventlog is not None and eventlog.planes:
            # Stage the direct parts' hop ids now: composition flattens
            # constituents to primitives, so operator-level lineage edges
            # (this composite <- that composite) exist only here.
            eventlog.note_parts(composed, parts)
        return composed


class OrNode(CompositeNode):
    """``E1 OR E2`` — stateless: every constituent occurrence passes
    through (relabeled), identically in every context."""

    ROLES = (LEFT, RIGHT)

    def _new_state(self):
        return None

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        self.emit(self._compose([occurrence]), context)


class AndNode(CompositeNode):
    """``E1 AND E2`` — both constituents, in any order."""

    ROLES = (LEFT, RIGHT)

    def _new_state(self):
        return {LEFT: [], RIGHT: []}

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        state = self.state(context)
        other_role = RIGHT if role == LEFT else LEFT
        pending = state[other_role]

        if context is Context.RECENT:
            if pending:
                self.emit(self._compose([pending[-1], occurrence]), context)
            # The most recent occurrence of each side is retained and is
            # never consumed — only displaced by a newer one.
            state[role] = [occurrence]
            return
        if context is Context.CHRONICLE:
            if pending:
                partner = pending.pop(0)
                self.emit(self._compose([partner, occurrence]), context)
            else:
                state[role].append(occurrence)
            return
        if context is Context.CONTINUOUS:
            if pending:
                partners = list(pending)
                pending.clear()
                for partner in partners:
                    self.emit(self._compose([partner, occurrence]), context)
            else:
                state[role].append(occurrence)
            return
        # CUMULATIVE
        if pending:
            parts = state[LEFT] + state[RIGHT] + [occurrence]
            state[LEFT] = []
            state[RIGHT] = []
            self.emit(self._compose(parts), context)
        else:
            state[role].append(occurrence)


class SeqNode(CompositeNode):
    """``E1 SEQ E2`` — E1 strictly before E2 (interval order)."""

    ROLES = (LEFT, RIGHT)

    def _new_state(self):
        return {LEFT: []}

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        state = self.state(context)
        if role == LEFT:
            if context is Context.RECENT:
                state[LEFT] = [occurrence]
            else:
                state[LEFT].append(occurrence)
            return

        candidates = [left for left in state[LEFT] if left.before(occurrence)]
        if not candidates:
            return
        if context is Context.RECENT:
            self.emit(self._compose([candidates[-1], occurrence]), context)
            return
        if context is Context.CHRONICLE:
            partner = candidates[0]
            state[LEFT].remove(partner)
            self.emit(self._compose([partner, occurrence]), context)
            return
        if context is Context.CONTINUOUS:
            for partner in candidates:
                state[LEFT].remove(partner)
            for partner in candidates:
                self.emit(self._compose([partner, occurrence]), context)
            return
        # CUMULATIVE
        for partner in candidates:
            state[LEFT].remove(partner)
        self.emit(self._compose(candidates + [occurrence]), context)


class NotNode(CompositeNode):
    """``NOT(E1, E2, E3)`` — E3 after E1 with no E2 in between.

    An occurrence of the forbidden event cancels every window it falls
    inside (all pending initiators, since they all started earlier).
    """

    ROLES = (INITIATOR, MIDDLE, TERMINATOR)

    def _new_state(self):
        return {INITIATOR: []}

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        state = self.state(context)
        if role == INITIATOR:
            if context is Context.RECENT:
                state[INITIATOR] = [occurrence]
            else:
                state[INITIATOR].append(occurrence)
            return
        if role == MIDDLE:
            # Kill windows the forbidden occurrence falls into.
            state[INITIATOR] = [
                init for init in state[INITIATOR] if not init.before(occurrence)
            ]
            return

        candidates = [
            init for init in state[INITIATOR] if init.before(occurrence)
        ]
        if not candidates:
            return
        if context is Context.RECENT:
            self.emit(self._compose([candidates[-1], occurrence]), context)
            return
        if context is Context.CHRONICLE:
            partner = candidates[0]
            state[INITIATOR].remove(partner)
            self.emit(self._compose([partner, occurrence]), context)
            return
        if context is Context.CONTINUOUS:
            for partner in candidates:
                state[INITIATOR].remove(partner)
            for partner in candidates:
                self.emit(self._compose([partner, occurrence]), context)
            return
        for partner in candidates:
            state[INITIATOR].remove(partner)
        self.emit(self._compose(candidates + [occurrence]), context)


class AperiodicNode(CompositeNode):
    """``A(E1, E2, E3)`` — signal each E2 inside an open E1..E3 window.

    The middle event is the terminator of each *signal*; the closing event
    only ends windows (it never signals).
    """

    ROLES = (INITIATOR, MIDDLE, TERMINATOR)

    def _new_state(self):
        return {INITIATOR: []}

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        state = self.state(context)
        if role == INITIATOR:
            if context is Context.RECENT:
                state[INITIATOR] = [occurrence]
            else:
                state[INITIATOR].append(occurrence)
            return
        if role == MIDDLE:
            candidates = [
                init for init in state[INITIATOR] if init.before(occurrence)
            ]
            if not candidates:
                return
            if context is Context.RECENT:
                self.emit(self._compose([candidates[-1], occurrence]), context)
            elif context is Context.CHRONICLE:
                self.emit(self._compose([candidates[0], occurrence]), context)
            elif context is Context.CONTINUOUS:
                for partner in candidates:
                    self.emit(self._compose([partner, occurrence]), context)
            else:  # CUMULATIVE — one signal carrying every open initiator
                self.emit(self._compose(candidates + [occurrence]), context)
            return
        # TERMINATOR: close windows, no signal.
        candidates = [
            init for init in state[INITIATOR] if init.before(occurrence)
        ]
        if not candidates:
            return
        if context is Context.RECENT:
            state[INITIATOR] = []
        elif context is Context.CHRONICLE:
            state[INITIATOR].remove(candidates[0])
        else:
            for partner in candidates:
                state[INITIATOR].remove(partner)


@dataclass
class _Window:
    """One open A*/P/P* interval."""

    initiator: Occurrence
    collected: list[Occurrence] = field(default_factory=list)
    timer: TimerHandle | None = None


class AperiodicStarNode(CompositeNode):
    """``A*(E1, E2, E3)`` — accumulate E2s, fire once at E3.

    Fires at the terminator even when no middle occurrences were
    collected (the accumulated set is then empty), matching Snoop.
    """

    ROLES = (INITIATOR, MIDDLE, TERMINATOR)

    def _new_state(self):
        return {"windows": []}

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        state = self.state(context)
        windows: list[_Window] = state["windows"]
        if role == INITIATOR:
            window = _Window(occurrence)
            if context is Context.RECENT:
                state["windows"] = [window]
            else:
                windows.append(window)
            return
        if role == MIDDLE:
            for window in windows:
                if window.initiator.before(occurrence):
                    window.collected.append(occurrence)
            return

        candidates = [
            window for window in windows if window.initiator.before(occurrence)
        ]
        if not candidates:
            return
        if context is Context.RECENT:
            window = candidates[-1]
            state["windows"] = []
            self.emit(
                self._compose([window.initiator, *window.collected, occurrence]),
                context,
            )
            return
        if context is Context.CHRONICLE:
            window = candidates[0]
            windows.remove(window)
            self.emit(
                self._compose([window.initiator, *window.collected, occurrence]),
                context,
            )
            return
        if context is Context.CONTINUOUS:
            for window in candidates:
                windows.remove(window)
            for window in candidates:
                self.emit(
                    self._compose([window.initiator, *window.collected, occurrence]),
                    context,
                )
            return
        parts: list[Occurrence] = []
        for window in candidates:
            windows.remove(window)
            parts.append(window.initiator)
            parts.extend(window.collected)
        parts.append(occurrence)
        self.emit(self._compose(parts), context)


class PeriodicNode(CompositeNode):
    """``P(E1, [t], E3)`` — fire every ``t`` while an E1 window is open.

    Each tick produces an occurrence composed of the window's initiator
    plus a synthetic timer occurrence carrying the tick time (and the
    optional ``:parameter`` annotation).
    """

    ROLES = (INITIATOR, TERMINATOR)

    def __init__(self, detector, name, children, period_seconds: float,
                 parameter: str | None = None):
        super().__init__(detector, name, children)
        self.period_seconds = period_seconds
        self.parameter = parameter

    def _new_state(self):
        return {"windows": []}

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        state = self.state(context)
        windows: list[_Window] = state["windows"]
        if role == INITIATOR:
            window = _Window(occurrence)
            if context is Context.RECENT:
                for old in windows:
                    self._cancel(old)
                state["windows"] = [window]
                windows = state["windows"]
            else:
                windows.append(window)
            self._schedule(window, context)
            return
        # TERMINATOR
        candidates = [
            window for window in windows if window.initiator.before(occurrence)
        ]
        if not candidates:
            return
        if context is Context.CHRONICLE:
            candidates = candidates[:1]
        for window in candidates:
            self._cancel(window)
            windows.remove(window)

    def _schedule(self, window: _Window, context: Context) -> None:
        base = window.timer.fire_at if window.timer else window.initiator.time
        window.timer = self.detector._schedule_timer(
            base + self.period_seconds,
            lambda fire_time: self._tick(window, context, fire_time),
        )

    def _cancel(self, window: _Window) -> None:
        if window.timer is not None:
            window.timer.cancel()
            window.timer = None

    def _tick(self, window: _Window, context: Context, fire_time: float) -> None:
        state = self.state(context)
        if window not in state["windows"]:
            return
        tick = self.detector._timer_occurrence(
            f"{self.name}.tick", fire_time, self.parameter)
        self.emit(self._compose([window.initiator, tick]), context)
        self._schedule(window, context)


class PeriodicStarNode(CompositeNode):
    """``P*(E1, [t], E3)`` — accumulate ticks, fire once at E3."""

    ROLES = (INITIATOR, TERMINATOR)

    def __init__(self, detector, name, children, period_seconds: float,
                 parameter: str | None = None):
        super().__init__(detector, name, children)
        self.period_seconds = period_seconds
        self.parameter = parameter

    def _new_state(self):
        return {"windows": []}

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        state = self.state(context)
        windows: list[_Window] = state["windows"]
        if role == INITIATOR:
            window = _Window(occurrence)
            if context is Context.RECENT:
                for old in windows:
                    self._cancel(old)
                state["windows"] = [window]
            else:
                windows.append(window)
            self._schedule(window, context)
            return
        candidates = [
            window for window in windows if window.initiator.before(occurrence)
        ]
        if not candidates:
            return
        if context is Context.RECENT:
            chosen = [candidates[-1]]
        elif context is Context.CHRONICLE:
            chosen = [candidates[0]]
        else:
            chosen = candidates
        if context is Context.CUMULATIVE:
            parts: list[Occurrence] = []
            for window in chosen:
                self._cancel(window)
                windows.remove(window)
                parts.append(window.initiator)
                parts.extend(window.collected)
            parts.append(occurrence)
            self.emit(self._compose(parts), context)
            return
        for window in chosen:
            self._cancel(window)
            windows.remove(window)
            self.emit(
                self._compose([window.initiator, *window.collected, occurrence]),
                context,
            )

    def _schedule(self, window: _Window, context: Context) -> None:
        base = window.timer.fire_at if window.timer else window.initiator.time
        window.timer = self.detector._schedule_timer(
            base + self.period_seconds,
            lambda fire_time: self._tick(window, context, fire_time),
        )

    def _cancel(self, window: _Window) -> None:
        if window.timer is not None:
            window.timer.cancel()
            window.timer = None

    def _tick(self, window: _Window, context: Context, fire_time: float) -> None:
        state = self.state(context)
        if window not in state["windows"]:
            return
        tick = self.detector._timer_occurrence(
            f"{self.name}.tick", fire_time, self.parameter)
        window.collected.append(tick)
        self._schedule(window, context)


class PlusNode(CompositeNode):
    """``E PLUS [t]`` — fire ``t`` after each occurrence of E."""

    ROLES = (INITIATOR,)

    def __init__(self, detector, name, children, delta_seconds: float):
        super().__init__(detector, name, children)
        self.delta_seconds = delta_seconds

    def _new_state(self):
        return None

    def process(self, role: str, occurrence: Occurrence, context: Context) -> None:
        self.detector._schedule_timer(
            occurrence.time + self.delta_seconds,
            lambda fire_time: self._fire(occurrence, context, fire_time),
        )

    def _fire(self, occurrence: Occurrence, context: Context,
              fire_time: float) -> None:
        tick = self.detector._timer_occurrence(
            f"{self.name}.timer", fire_time, None)
        self.emit(self._compose([occurrence, tick]), context)
