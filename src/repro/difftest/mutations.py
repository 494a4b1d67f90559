"""Intentional semantics bugs for harness self-checks.

A differential harness that never fires is worse than none: these named
mutations patch one precise bug into the production LED (Snoop
semantics) or the agent's code generator (parameter rows) so CI can
prove the harness both *catches* the divergence and *shrinks* it to a
small corpus reproduction (``tools/check_difftest.py mutate <name>``;
documented in docs/TESTING.md).

Each mutation returns a zero-argument restore callable; always restore
in a ``finally`` — the patch is process-global.
"""

from __future__ import annotations

from typing import Callable

from repro.agent.model import PrimitiveEventDef
from repro.agent.naming import internal_name
from repro.led import operators
from repro.led.rules import Context


def _mutate_seq_chronicle_newest() -> Callable[[], None]:
    """CHRONICLE SEQ pairs the *newest* initiator instead of the oldest.

    The kind of bug an event-graph optimisation could introduce: FIFO
    pairing silently becomes LIFO.  RECENT behaviour is identical when
    only one initiator is open, so only multi-initiator CHRONICLE
    windows expose it.
    """
    original = operators.SeqNode.process

    def mutated(self, role, occurrence, context):
        if role == operators.RIGHT and context is Context.CHRONICLE:
            state = self.state(context)
            candidates = [left for left in state[operators.LEFT]
                          if left.before(occurrence)]
            if not candidates:
                return
            partner = candidates[-1]          # BUG: should be [0]
            state[operators.LEFT].remove(partner)
            self.emit(self._compose([partner, occurrence]), context)
            return
        original(self, role, occurrence, context)

    operators.SeqNode.process = mutated

    def restore() -> None:
        operators.SeqNode.process = original

    return restore


def _mutate_and_cumulative_pair_only() -> Callable[[], None]:
    """CUMULATIVE AND forgets its accumulated occurrences.

    The detection carries only the closing pair instead of everything
    accumulated since the previous detection — accumulation state is
    still consumed, so the firing *count* stays right and only the
    constituent parameters betray the bug.
    """
    original = operators.AndNode.process

    def mutated(self, role, occurrence, context):
        if context is Context.CUMULATIVE:
            state = self.state(context)
            other = state[operators.RIGHT if role == operators.LEFT
                          else operators.LEFT]
            if other:
                partner = other[-1]           # BUG: drops accumulation
                state[operators.LEFT] = []
                state[operators.RIGHT] = []
                self.emit(self._compose([partner, occurrence]), context)
            else:
                state[role].append(occurrence)
            return
        original(self, role, occurrence, context)

    operators.AndNode.process = mutated

    def restore() -> None:
        operators.AndNode.process = original

    return restore


def _mutate_recent_consumes_initiator() -> Callable[[], None]:
    """RECENT SEQ consumes its initiator on detection.

    RECENT must *retain* the most recent initiator for later
    terminators; consuming it suppresses every detection after the
    first within one initiator window.
    """
    original = operators.SeqNode.process

    def mutated(self, role, occurrence, context):
        if role == operators.RIGHT and context is Context.RECENT:
            state = self.state(context)
            candidates = [left for left in state[operators.LEFT]
                          if left.before(occurrence)]
            if not candidates:
                return
            partner = candidates[-1]
            state[operators.LEFT].remove(partner)   # BUG: must retain
            self.emit(self._compose([partner, occurrence]), context)
            return
        original(self, role, occurrence, context)

    operators.SeqNode.process = mutated

    def restore() -> None:
        operators.SeqNode.process = original

    return restore


def _mutate_vno_per_event() -> Callable[[], None]:
    """Each event numbers its occurrences from its own counter again.

    The paper's Figure 11 numbering: every event on a table copies the
    statement's rows into the table's shared snapshot under its *own*
    ``vNo``, so the Figure 14 join by ``vNo`` also returns rows another
    event stored under the same number.  Firings stay right; only the
    parameter rows (``audit.n``) betray it.
    """
    original = PrimitiveEventDef.version_table
    PrimitiveEventDef.version_table = property(
        lambda event: internal_name(
            event.db_name, event.user_name,
            f"{event.event_name}_Version"))  # BUG: should key on table

    def restore() -> None:
        PrimitiveEventDef.version_table = original

    return restore


#: Registry of named mutations; each value arms the bug and returns the
#: restore callable.
MUTATIONS: dict[str, Callable[[], Callable[[], None]]] = {
    "seq-chronicle-newest": _mutate_seq_chronicle_newest,
    "and-cumulative-pair-only": _mutate_and_cumulative_pair_only,
    "seq-recent-consumes": _mutate_recent_consumes_initiator,
    "vno-per-event": _mutate_vno_per_event,
}


def apply_mutation(name: str) -> Callable[[], None]:
    """Arm a named mutation; returns the restore callable."""
    try:
        factory = MUTATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown mutation {name!r}; choose from "
            f"{sorted(MUTATIONS)}") from None
    return factory()
