"""A bounded, sequence-stamped, thread-safe record log.

The span trace, the provenance journal and the slow-op flight recorder
each retain "the most recent N records, numbered in append order" and
are all read the same ways — the newest few (``tail``), everything after
a high-water mark (``since``, the flight recorder's slicing primitive),
or a consistent copy (``snapshot``).  :class:`BoundedLog` is that one
structure; the three planes subclass it and add what is theirs (the
pinned per-trace store, the occurrence registry, the capture logic).
When full, the oldest tenth is dropped (always at least one record, so
small logs stay bounded), which amortises deleting from a list's head.
"""

from __future__ import annotations

import itertools
import threading

__all__ = ["BoundedLog"]


class BoundedLog:
    """Append-ordered records with ascending ``seq`` attributes.

    A subclass draws a sequence number from :meth:`_next_seq`, builds
    its record around it and, holding ``self._lock`` (the one lock that
    also guards whatever else the subclass keeps), calls
    :meth:`_append`.  Every reader copies under that lock, so no caller
    ever iterates a list another thread is trimming.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: list = []
        self._seq = itertools.count(1)
        self._lock = threading.Lock()

    def _next_seq(self) -> int:
        return next(self._seq)

    def _append(self, record) -> None:
        """Retain ``record``, trimming first when full (lock held)."""
        if len(self._records) >= self.capacity:
            del self._records[: max(1, self.capacity // 10)]
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
        first (at most ``limit``).  Scans backwards from the tail, so
        the cost is proportional to the slice, not the log."""
        with self._lock:
            out: list = []
            for record in reversed(self._records):
                if record.seq <= seq:
                    break
                out.append(record)
                if limit is not None and len(out) >= limit:
                    break
        out.reverse()
        return out

    def clear(self) -> None:
        """Drop every retained record (sequence numbers keep counting)."""
        with self._lock:
            self._records.clear()
