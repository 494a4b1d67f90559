"""The one per-thread ambient context of ``repro.obs``, and its hand-off.

The paper's agent is a chain of hand-offs — gateway thread → Open Server
worker → ``syb_sendmsg`` datagram → notifier → LED → one ``SybaseAction``
thread per DETACHED firing — and three planes ask "on whose behalf is
this thread working": the span trace (open spans, inherited
:class:`TraceContext`), the provenance journal (parent records) and the
accounting plane (open frames).  An :class:`Ambient` holds all of it as
one per-thread state with one protocol for crossing a boundary:
:meth:`Ambient.capture` on the dispatching side returns a
:class:`Handoff` *value* (a live span or frame is never shared — it may
have closed or folded before the far side runs), :meth:`Ambient.adopt`
on the far side works a ``with`` body on its behalf, and
:meth:`Ambient.reset` drops what a finished task left behind.  The same
pair crosses the pool queue, the DETACHED thread, the ``;tc=`` datagram
trailer and the GED route.  An event log and a standalone accounting
plane each build a private ``Ambient``; the agent points its accounting
plane at its event log's.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["Ambient", "Handoff", "TraceContext"]

#: Characters allowed in one encoded baggage item — anything else is
#: silently dropped from the wire token (the datagram payload is
#: space-split and ``;``-coalesced, so tokens must avoid both).
_BAGGAGE_SAFE = re.compile(r"^[A-Za-z0-9_.=\-]+$")
#: Bounds on a *decoded* token: it arrives from outside the process (UDP
#: channel, GED transport) and its depth is rendered as indentation.
_TRACE_ID_SAFE = re.compile(r"^[A-Za-z0-9_.\-]{1,64}$")
_MAX_DEPTH = 1024


@dataclass
class TraceContext:
    """The portable causal identity of one client command.

    A context names the trace (``trace_id``), the span new work should
    be parented under (``parent_span`` — ``None`` for a trace root), the
    depth children should render at, and free-form ``baggage`` (session
    id, rule name, origin).  Contexts cross queues inside a
    :class:`Handoff` and cross the ``syb_sendmsg`` datagram hop via
    :meth:`encode`/:meth:`decode`.
    """

    trace_id: str | None
    parent_span: int | None = None
    depth: int = 0
    baggage: dict = field(default_factory=dict)

    def child_of(self, span) -> "TraceContext":
        """A derived context parenting new work under ``span``."""
        return TraceContext(
            trace_id=span.trace_id if span.trace_id else self.trace_id,
            parent_span=span.seq, depth=span.depth + 1,
            baggage=dict(self.baggage))

    def encode(self) -> str:
        """Serialize to a compact token safe inside a datagram payload
        (no spaces, no ``;``): ``<trace_id>:<parent>:<depth>[:<k=v,..>]``."""
        parent = "" if self.parent_span is None else str(self.parent_span)
        token = f"{self.trace_id or ''}:{parent}:{self.depth}"
        if self.baggage:
            items = ",".join(
                f"{key}={value}"
                for key, value in sorted(self.baggage.items())
                if _BAGGAGE_SAFE.match(f"{key}={value}"))
            if items:
                token = f"{token}:{items}"
        return token

    @classmethod
    def decode(cls, token: str) -> "TraceContext | None":
        """Parse :meth:`encode`'s token; ``None`` when malformed or out
        of bounds (a bad trace token must never fail the notification,
        and a hostile one must never size an indentation)."""
        parts = token.split(":", 3)
        if len(parts) < 3 or not _TRACE_ID_SAFE.match(parts[0]):
            return None
        try:
            parent = int(parts[1]) if parts[1] else None
            depth = int(parts[2])
        except ValueError:
            return None
        if not 0 <= depth <= _MAX_DEPTH or (parent is not None and parent < 0):
            return None
        baggage: dict = {}
        if len(parts) == 4 and parts[3]:
            for item in parts[3].split(","):
                key, sep, value = item.partition("=")
                if sep:
                    baggage[key] = value
        return cls(trace_id=parts[0], parent_span=parent, depth=depth,
                   baggage=baggage)


class Handoff(NamedTuple):
    """What one thread hands another across a queue, a thread start or
    the wire: values only, never a live span or frame."""

    ctx: TraceContext | None = None
    #: provenance record ids the far side's records should link back to
    parents: tuple[int, ...] = ()
    #: identity of the session that pays for the far side's work
    #: (``session_id is None``: nobody to charge)
    session_id: object = None
    user: str = ""
    database: str = ""


class _ThreadState:
    """One thread's ambient state (every stack starts empty)."""

    __slots__ = ("spans", "ctx", "parents", "frames")

    def __init__(self):
        self.spans: list = []       # open span events, innermost last
        self.ctx: TraceContext | None = None   # inherited trace context
        self.parents: list[int] = []           # provenance parent ids
        self.frames: list = []      # open accounting frames


class Ambient:
    """Per-thread ambient observability state shared by the span trace,
    the provenance journal and the accounting plane."""

    def __init__(self):
        self._local = threading.local()
        #: the accounting plane adopted session frames fold into (set by
        #: :class:`~repro.obs.opcontext.OpAccounting`; None: hand-offs
        #: carry no charge)
        self.accounting = None

    def state(self) -> _ThreadState:
        """This thread's state (the planes' one thread-local read)."""
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def trace_context(self) -> TraceContext | None:
        """This thread's causal position: a context parenting new work
        under the innermost open span, else the inherited context, else
        ``None``."""
        state = self.state()
        ctx = state.ctx
        if not state.spans:
            return ctx
        span = state.spans[-1]
        return TraceContext(
            trace_id=span.trace_id, parent_span=span.seq,
            depth=span.depth + 1,
            baggage=dict(ctx.baggage) if ctx is not None else {})

    def active_trace_id(self) -> str | None:
        """The trace id governing this thread right now: the innermost
        open span's, else the inherited context's, else ``None``."""
        state = self.state()
        if state.spans:
            return state.spans[-1].trace_id
        return state.ctx.trace_id if state.ctx is not None else None

    def capture(self) -> Handoff:
        """Snapshot this thread's ambient state for a hand-off: trace
        context, innermost provenance parent, and the identity of the
        outermost client-command frame (the session that pays)."""
        state = self.state()
        ctx = self.trace_context()
        parents = tuple(state.parents[-1:])
        for frame in state.frames:
            if frame.session_id is not None:
                return Handoff(ctx, parents, frame.session_id, frame.user,
                               frame.database)
        return Handoff(ctx, parents)

    @contextmanager
    def adopt(self, handoff: Handoff):
        """Work the ``with`` body on behalf of ``handoff``'s origin: its
        trace context is activated (``None`` leaves the thread's own),
        its provenance parents are pushed, and a *new* accounting frame
        with the origin's session identity (``commands = 0``) opens here
        and folds into that session's totals on exit."""
        state = self.state()
        previous = state.ctx
        if handoff.ctx is not None:
            state.ctx = handoff.ctx
        state.parents.extend(handoff.parents)
        frame = None
        if handoff.session_id is not None and self.accounting is not None:
            frame = self.accounting.begin(handoff, commands=0)
            start = time.perf_counter()
        try:
            yield handoff
        finally:
            if frame is not None:
                self.accounting.finish(frame, time.perf_counter() - start)
            if handoff.parents:
                del state.parents[-len(handoff.parents):]
            state.ctx = previous

    def reset(self) -> None:
        """Drop this thread's ambient state — worker-pool hygiene
        between tasks, so a recycled thread never parents or charges new
        work to a previous command."""
        self._local.state = _ThreadState()
