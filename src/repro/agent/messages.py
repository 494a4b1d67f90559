"""Notification messages and the ``NotiStr`` action-parameter structure.

The generated native triggers notify the agent with a ``syb_sendmsg``
datagram whose payload is (paper Figure 11)::

    <user> <table> <operation> begin <internal event name> [<vNo>]

The paper's message stops at the event name; we append the occurrence
number ``vNo`` so the notification is self-contained — the paper's agent
instead reads the current ``vNo`` back from ``SysPrimitiveEvent``, which
races when notifications are delivered asynchronously (documented
deviation, DESIGN.md §2).  The decoder accepts both forms.

Trace propagation rides the same datagram: a sender whose thread has an
active trace context appends one ``;``-separated ``tc=<encoded context>``
segment to the payload (:func:`stamp`), and the delivery side strips it
back off and adopts it (:func:`adopt_payload`) before the notification
decoder ever sees the payload — the wire form of the
:class:`~repro.obs.ambient.Ambient` hand-off, shared by the agent's
``syb_sendmsg`` sink and the sharded GED's transport.  The token is a
trailer, not a notification — ``decode_batch`` also skips any ``tc=``
segment defensively, so a traced payload that reaches an unaware decoder
still parses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.ambient import Ambient, Handoff, TraceContext

from .errors import NotificationError

#: Marker prefix of the trace-context trailer segment in a datagram.
TRACE_TOKEN_PREFIX = "tc="


def split_trace_context(payload: str) -> tuple[str, str | None]:
    """Split a payload into (clean payload, encoded trace context).

    The second element is None when the payload carries no ``tc=``
    trailer; the clean payload is always safe to hand to
    :meth:`Notification.decode_batch`.
    """
    head, sep, tail = payload.rpartition(";")
    if sep and tail.startswith(TRACE_TOKEN_PREFIX):
        return head, tail[len(TRACE_TOKEN_PREFIX):]
    return payload, None


def stamp(payload: str, ambient: Ambient) -> str:
    """The sending half of the datagram hand-off: ``payload`` with the
    sending thread's trace context appended as a ``;tc=`` trailer, or
    unchanged when no trace is active there (tracing off: one ambient
    read, byte-identical payload)."""
    ctx = ambient.trace_context()
    if ctx is None or ctx.trace_id is None:
        return payload
    return f"{payload};{TRACE_TOKEN_PREFIX}{ctx.encode()}"


def adopt_payload(payload: str, ambient: Ambient):
    """The receiving half: ``(clean payload, context manager)``.  The
    ``with`` body works on behalf of the sending command — spans parent
    into its trace even on a listener thread.  Malformed or hostile
    tokens decode to no context; the notification itself is unharmed."""
    clean, token = split_trace_context(payload)
    ctx = TraceContext.decode(token) if token else None
    return clean, ambient.adopt(Handoff(ctx))


@dataclass(frozen=True)
class Notification:
    """Decoded content of one primitive-event notification."""

    user: str
    table: str
    operation: str
    phase: str              # always "begin" for database events
    event_internal: str
    v_no: int | None = None

    def encode(self) -> str:
        """Render the datagram payload."""
        base = (
            f"{self.user} {self.table} {self.operation} "
            f"{self.phase} {self.event_internal}"
        )
        if self.v_no is None:
            return base
        return f"{base} {self.v_no}"

    @classmethod
    def decode(cls, payload: str) -> "Notification":
        """Parse a datagram payload; raises :class:`NotificationError`."""
        parts = payload.split()
        if len(parts) not in (5, 6):
            raise NotificationError(
                f"malformed notification payload {payload!r}"
            )
        v_no: int | None = None
        if len(parts) == 6:
            try:
                v_no = int(parts[5])
            except ValueError as exc:
                raise NotificationError(
                    f"bad occurrence number in {payload!r}"
                ) from exc
        return cls(
            user=parts[0],
            table=parts[1],
            operation=parts[2],
            phase=parts[3],
            event_internal=parts[4],
            v_no=v_no,
        )

    @classmethod
    def decode_batch(cls, payload: str) -> "list[Notification]":
        """Parse a (possibly coalesced) datagram payload.

        A native trigger serving several events on one (table, operation)
        sends a single datagram with ``;``-separated segments; a plain
        single-event payload is the degenerate one-segment case and
        decodes exactly as :meth:`decode` would.  A ``tc=`` trace-context
        trailer (normally stripped upstream by
        :func:`split_trace_context`) is skipped, not rejected.
        """
        segments = [part for part in
                    (segment.strip() for segment in payload.split(";"))
                    if part and not part.startswith(TRACE_TOKEN_PREFIX)]
        if not segments:
            raise NotificationError(
                f"malformed notification payload {payload!r}")
        return [cls.decode(segment) for segment in segments]


@dataclass
class NotiStr:
    """The action-parameter structure of paper Figure 13.

    Packs everything ``SybaseAction`` needs to run a rule's action inside
    the SQL server: the stored procedure to execute, the event name, the
    parameter context, and the client/thread association (here, the
    originating session id rather than a ``SRV_PROC*``).
    """

    store_proc: str
    event_name: str
    context: str
    session_id: int | None = None
