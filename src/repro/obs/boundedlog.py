"""A bounded, sequence-stamped, thread-safe record log.

"The most recent N records, numbered in append order", read the same
few ways — the newest few (``tail``), everything after a high-water mark
(``since``, the exporter's incremental primitive), or a consistent copy
(``snapshot``).  :class:`BoundedLog` is that one structure; the agent's
:class:`~repro.obs.events.EventLog` is its one subclass and adds what
the record planes share (the per-trace pin index, the occurrence
registry, node statistics).  When full, the oldest tenth is dropped
(always at least one record, so small logs stay bounded), which
amortises deleting from a list's head.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_right
from operator import attrgetter

__all__ = ["BoundedLog"]

_SEQ = attrgetter("seq")


class BoundedLog:
    """Append-ordered records with strictly ascending ``seq`` attributes.

    A subclass builds its record and, holding ``self._lock`` (the one
    lock that also guards whatever else the subclass keeps), calls
    :meth:`_append`, which stamps the sequence number — so list order
    *is* seq order and readers may binary-search.  Every reader copies
    under that lock, so no caller ever iterates a list another thread is
    trimming.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: list = []
        self._seq = itertools.count(1)
        self._lock = threading.Lock()

    def _append(self, record) -> None:
        """Stamp and retain ``record``, trimming first when full (lock
        held)."""
        if len(self._records) >= self.capacity:
            del self._records[: max(1, self.capacity // 10)]
        record.seq = next(self._seq)
        self._records.append(record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def tail(self, count: int) -> list:
        """The most recent ``count`` records, oldest first."""
        with self._lock:
            if count <= 0:
                return []
            return self._records[-count:]

    def snapshot(self) -> list:
        """A consistent copy of every retained record, oldest first."""
        with self._lock:
            return list(self._records)

    def last_seq(self) -> int:
        """The newest retained record's sequence number (0 when empty) —
        a high-water mark to pass to :meth:`since` later."""
        with self._lock:
            return self._records[-1].seq if self._records else 0

    def since(self, seq: int, limit: int | None = None) -> list:
        """Retained records with sequence numbers above ``seq``, oldest
        first; a ``limit`` keeps the *oldest* ``limit`` of them (the
        start of whatever began at the mark, not its tail)."""
        with self._lock:
            first = bisect_right(self._records, seq, key=_SEQ)
            if limit is None:
                return self._records[first:]
            return self._records[first:first + limit]

    def clear(self) -> None:
        """Drop every retained record (sequence numbers keep counting)."""
        with self._lock:
            self._records.clear()
