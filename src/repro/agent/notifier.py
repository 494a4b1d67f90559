"""The Event Notifier and its notification channels (paper Figure 15).

The generated native triggers call ``syb_sendmsg`` inside the SQL server;
the server's datagram sink hands the payload to a *notification channel*,
which delivers it to the :class:`EventNotifier`.  The notifier decodes the
message and raises the primitive event in the LED.

Three channels are provided:

- :class:`SynchronousChannel` — in-process, synchronous delivery.  The
  default: deterministic, and it makes IMMEDIATE coupling genuinely
  immediate (the action runs inside the triggering statement, as in the
  paper's single-address-space Open Server).
- :class:`ThreadedChannel` — in-process queue drained by a worker thread;
  models the asynchrony of a datagram network without sockets.
- :class:`UdpChannel` — a real localhost UDP socket pair, byte-for-byte
  the paper's transport (``syb_sendmsg`` -> UDP -> Notification Listener).
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Callable

from repro.faults import Directive, POINT_NOTIFIER_DECODE
from repro.obs.events import KIND_NOTIFICATION

from .errors import NotificationError
from .messages import Notification

#: A receiver consumes one decoded-ready payload string.
Receiver = Callable[[str], None]


class NotificationChannel:
    """Base class: transport from ``syb_sendmsg`` to the Event Notifier."""

    def __init__(self):
        self._receiver: Receiver | None = None
        self.sent_count = 0
        self.processed_count = 0

    def attach(self, receiver: Receiver) -> None:
        """Register the notifier's callback."""
        self._receiver = receiver

    def start(self) -> None:
        """Begin delivering (no-op for synchronous channels)."""

    def stop(self) -> None:
        """Stop delivering and release resources."""

    def send(self, host: str, port: int, payload: str) -> None:
        """Accept one datagram from the server's sink."""
        raise NotImplementedError

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until every sent payload has been processed."""
        deadline = time.monotonic() + timeout
        while self.processed_count < self.sent_count:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.001)
        return True

    def _deliver(self, payload: str) -> None:
        if self._receiver is None:
            raise NotificationError("no receiver attached to the channel")
        try:
            self._receiver(payload)
        finally:
            self.processed_count += 1


class SynchronousChannel(NotificationChannel):
    """Deliver each payload immediately on the sending thread."""

    def send(self, host: str, port: int, payload: str) -> None:
        self.sent_count += 1
        self._deliver(payload)


class ThreadedChannel(NotificationChannel):
    """Queue payloads; a daemon worker delivers them asynchronously."""

    def __init__(self):
        super().__init__()
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._worker: threading.Thread | None = None

    def start(self) -> None:
        if self._worker is not None:
            return
        self._worker = threading.Thread(
            target=self._run, name="eca-notifier", daemon=True)
        self._worker.start()

    def stop(self) -> None:
        if self._worker is None:
            return
        self._queue.put(None)
        self._worker.join(timeout=5.0)
        self._worker = None

    def send(self, host: str, port: int, payload: str) -> None:
        self.sent_count += 1
        self._queue.put(payload)

    def _run(self) -> None:
        while True:
            payload = self._queue.get()
            if payload is None:
                break
            try:
                self._deliver(payload)
            except Exception:
                # A bad notification must not kill the listener thread;
                # the error is observable via processed_count/last_error.
                self.last_error = payload


class UdpChannel(NotificationChannel):
    """A real UDP socket channel bound to ``127.0.0.1:port``.

    ``send`` transmits a datagram with an ordinary UDP socket — exactly
    what Sybase's ``syb_sendmsg`` does — and a listener thread (the
    paper's Notification Listener) receives and delivers it.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1"):
        super().__init__()
        self.host = host
        self._listener: threading.Thread | None = None
        self._socket: socket.socket | None = None
        self._send_socket: socket.socket | None = None
        self._requested_port = port
        self.port = port

    def start(self) -> None:
        if self._listener is not None:
            return
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._socket.bind((self.host, self._requested_port))
        self.port = self._socket.getsockname()[1]
        self._socket.settimeout(0.2)
        self._send_socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._stopping = False
        self._listener = threading.Thread(
            target=self._listen, name="eca-udp-listener", daemon=True)
        self._listener.start()

    def stop(self) -> None:
        if self._listener is None:
            return
        self._stopping = True
        self._listener.join(timeout=5.0)
        self._listener = None
        if self._socket is not None:
            self._socket.close()
            self._socket = None
        if self._send_socket is not None:
            self._send_socket.close()
            self._send_socket = None

    def send(self, host: str, port: int, payload: str) -> None:
        if self._send_socket is None:
            raise NotificationError("UDP channel is not started")
        self.sent_count += 1
        self._send_socket.sendto(
            payload.encode("utf-8"), (host or self.host, port or self.port))

    def _listen(self) -> None:
        assert self._socket is not None
        while not self._stopping:
            try:
                data, _addr = self._socket.recvfrom(4096)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                self._deliver(data.decode("utf-8"))
            except Exception:
                self.last_error = data


class EventNotifier:
    """Decodes notifications and raises primitive events in the LED
    (the Notifier half of paper Figure 15).

    Args:
        led: the local event detector to raise events into.
        event_lookup: maps an internal event name to its
            :class:`~repro.agent.model.PrimitiveEventDef` (or None).
        v_no_lookup: fallback used when a notification lacks the
            occurrence number (the paper's Figure 11 payload): maps the
            event's definition to the current ``vNo`` of its snapshot
            family's counter, read via the Persistent Manager.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; while
            enabled, decode-and-raise latency and outcomes are recorded
            (``agent_notification_seconds`` / ``agent_notifications_total``).
        faults: optional :class:`~repro.faults.FaultInjector` consulted
            at the ``notifier.decode`` point before decoding; a DROP
            directive silently discards the notification (counted in
            :attr:`dropped`).
        events: optional :class:`~repro.obs.EventLog`; while its
            provenance plane is on, each payload is recorded as a
            ``notification`` hop that becomes the causal parent of the
            raise (and everything downstream of it).
    """

    def __init__(self, led, event_lookup, v_no_lookup=None, metrics=None,
                 faults=None, events=None):
        self.led = led
        self.event_lookup = event_lookup
        self.v_no_lookup = v_no_lookup
        self.received: int = 0
        self.rejected: int = 0
        #: notifications discarded by an injected DROP fault
        self.dropped: int = 0
        #: coalesced payloads (>1 event per datagram) and the events in them
        self.coalesced_payloads: int = 0
        self.coalesced_events: int = 0
        self.faults = faults
        self.metrics = metrics
        self.events = events
        if metrics is not None:
            self._m_notifications = metrics.counter(
                "agent_notifications_total",
                "Notifications processed by the Event Notifier",
                ("status",))
            self._m_notification_seconds = metrics.histogram(
                "agent_notification_seconds",
                "Decode-and-raise latency per notification (seconds)")
            self._m_batch_events = metrics.histogram(
                "agent_notification_batch_events",
                "Primitive events carried per notification payload")
        else:
            self._m_notifications = None
            self._m_notification_seconds = None
            self._m_batch_events = None

    def on_payload(self, payload: str) -> None:
        """Channel callback: decode and raise.

        Failure semantics: an injected transient decode fault raises
        :class:`~repro.faults.TransientFaultError` (the agent's delivery
        wrapper retries it); a DROP fault models a lost datagram — the
        payload is discarded, counted in :attr:`dropped`, and the LED
        never sees the occurrence.
        """
        faults = self.faults
        if faults is not None and faults.enabled:
            if faults.fire(POINT_NOTIFIER_DECODE,
                           payload) is Directive.DROP:
                self.dropped += 1
                return
        events = self.events
        if events is None or not events.planes:
            self._decode_and_raise(payload)
            return
        # The 5th token of the (first) segment is the internal event
        # name (see Notification.encode); malformed payloads are
        # recorded too.  One hop parents every raise the payload
        # carries, so a coalesced datagram has one causal root.
        parts = payload.split(";", 1)[0].split()
        hop = events.hop(
            KIND_NOTIFICATION, parts[4] if len(parts) >= 5 else "malformed",
            detail=payload, parents=())
        with events.under(hop):
            self._decode_and_raise(payload)

    def _decode_and_raise(self, payload: str) -> None:
        metrics = self.metrics
        if metrics is None or not metrics.enabled:
            self._raise_all(Notification.decode_batch(payload))
            return
        start = time.perf_counter()
        try:
            notifications = Notification.decode_batch(payload)
            self._raise_all(notifications)
        except Exception:
            self._m_notifications.labels("error").inc()
            raise
        self._m_notifications.labels("ok").inc()
        self._m_notification_seconds.observe(time.perf_counter() - start)
        self._m_batch_events.observe(len(notifications))

    def on_notification(self, notification: Notification) -> None:
        """Raise one already-decoded notification (non-batched entry)."""
        self._raise_all([notification])

    def _raise_all(self, notifications: list[Notification]) -> None:
        """Resolve every notification, then raise them as one LED batch.

        Resolution happens before any raise so an unknown event rejects
        the whole payload without a partial batch.  Single-notification
        payloads (the overwhelmingly common case) take the plain
        :meth:`~repro.led.detector.LocalEventDetector.raise_event` path;
        coalesced payloads amortize the LED's locking and firing-scope
        bookkeeping through ``raise_events``.
        """
        batch = [
            (notification.event_internal, self._params_for(notification))
            for notification in notifications
        ]
        self.received += len(batch)
        if len(batch) == 1:
            name, params = batch[0]
            self.led.raise_event(name, params)
            return
        self.coalesced_payloads += 1
        self.coalesced_events += len(batch)
        self.led.raise_events(batch)

    def _params_for(self, notification: Notification) -> dict[str, object]:
        definition = self.event_lookup(notification.event_internal)
        if definition is None:
            self.rejected += 1
            raise NotificationError(
                f"notification for unknown event "
                f"{notification.event_internal!r}"
            )
        v_no = notification.v_no
        if v_no is None and self.v_no_lookup is not None:
            v_no = self.v_no_lookup(definition)
        return {
            "user": notification.user,
            "table": notification.table,
            "operation": notification.operation,
            "vNo": v_no,
            "snapshot_tables": {
                direction: definition.snapshot_table(direction)
                for direction in definition.snapshot_directions
            },
        }
