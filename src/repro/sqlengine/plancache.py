"""The statement/plan cache: parsed batches keyed on batch text.

Parsing is the single largest fixed cost of executing a small statement
in this engine, and the hot paths of the ECA Agent re-issue the same
batch text over and over (generated native triggers, context-processing
refreshes, benchmark workloads).  The cache stores the parsed
``Statement`` tuple for a batch so a repeated batch executes with zero
re-tokenization.

Correctness model:

- Parsing is context-free in this dialect, but a cached plan must still
  never straddle a schema change: every entry records the catalog's
  *schema epoch* at parse time, and any DDL — even one that fails or
  crashes part-way — bumps the epoch (see ``Executor.execute``'s
  ``finally``), so stale or potentially poisoned entries miss and are
  re-parsed.
- Entries are immutable tuples; executors never mutate statement nodes.
- Eviction is LRU with a fixed capacity, so a workload with unbounded
  distinct batch text (e.g. literals inlined per row) cannot grow the
  cache without bound.

The cache keeps its own plain-int counters (always on, race-tolerant);
the server charges each lookup's outcome to the open accounting frames,
and that is all the engine reports.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Default number of distinct batch texts retained.
DEFAULT_CAPACITY = 512

#: Default number of optimized statement plans memoized alongside the
#: parsed batches (see :meth:`PlanCache.get_plan`).
DEFAULT_PLAN_CAPACITY = 512

#: Process default for newly constructed servers; the test suite's
#: parametrized fixture flips this to prove the cache is semantically
#: transparent (identical results force-enabled and force-disabled).
DEFAULT_ENABLED = True


class PlanCache:
    """An LRU cache of parsed batches with epoch-based invalidation."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool | None = None):
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = DEFAULT_ENABLED if enabled is None else enabled
        # text -> [epoch, statements, per-entry hit count]
        self._entries: "OrderedDict[str, list]" = OrderedDict()
        # id(statement) -> (statement, epoch, table_keys, plan).  The
        # strong statement reference keeps the id() stable: a memo slot
        # can only be found through the statement object it holds, so a
        # recycled id can never alias a different statement.
        self._plans: "OrderedDict[int, tuple]" = OrderedDict()
        self.plan_capacity = DEFAULT_PLAN_CAPACITY
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.plan_hits = 0
        self.plan_misses = 0
        #: per-origin hit/miss tallies ("client" batches vs LED-generated
        #: "rule" SQL vs "system"), so the composite-loop hit-rate gap
        #: (ROADMAP: ~0.45) can be attributed to a statement population
        self.origin_hits: dict[str, int] = {}
        self.origin_misses: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, text: str, epoch: int, origin: str | None = None):
        """The cached statements for ``text`` at ``epoch``, else None.

        An entry parsed under an older epoch is dropped (counted as an
        invalidation *and* a miss: the caller re-parses either way).
        ``origin`` classifies the lookup for the per-origin tallies.
        """
        with self._lock:
            entry = self._entries.get(text)
            if entry is None:
                self.misses += 1
                if origin is not None:
                    self.origin_misses[origin] = (
                        self.origin_misses.get(origin, 0) + 1)
                return None
            if entry[0] != epoch:
                del self._entries[text]
                self.invalidations += 1
                self.misses += 1
                if origin is not None:
                    self.origin_misses[origin] = (
                        self.origin_misses.get(origin, 0) + 1)
                return None
            self._entries.move_to_end(text)
            self.hits += 1
            entry[2] += 1
            if origin is not None:
                self.origin_hits[origin] = (
                    self.origin_hits.get(origin, 0) + 1)
            return entry[1]

    def put(self, text: str, epoch: int, statements) -> None:
        """Store a parsed batch (evicting the LRU entry at capacity)."""
        with self._lock:
            self._entries[text] = [epoch, tuple(statements), 0]
            self._entries.move_to_end(text)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_plan(self, statement, epoch: int, table_keys):
        """The memoized optimized plan for ``statement``, or None.

        A hit requires the *same statement object* (identity-checked
        against the memo's strong reference), the current schema epoch,
        and the same resolved ``table_keys`` — the per-execution
        (kind, database, owner, name, columns) fingerprint of every FROM
        source, which guards against name-resolution divergence between
        sessions (e.g. owner-fallback resolving to different tables).
        """
        if not self.enabled:
            return None
        with self._lock:
            slot = self._plans.get(id(statement))
            if (slot is None or slot[0] is not statement
                    or slot[1] != epoch or slot[2] != table_keys):
                self.plan_misses += 1
                return None
            self._plans.move_to_end(id(statement))
            self.plan_hits += 1
            return slot[3]

    def put_plan(self, statement, epoch: int, table_keys, plan) -> None:
        """Memoize an optimized plan (LRU at ``plan_capacity``)."""
        if not self.enabled:
            return
        with self._lock:
            self._plans[id(statement)] = (statement, epoch, table_keys, plan)
            self._plans.move_to_end(id(statement))
            while len(self._plans) > self.plan_capacity:
                self._plans.popitem(last=False)

    def has_plan(self, statement, epoch: int) -> bool:
        """Whether ``statement`` has a live plan memo at ``epoch``
        (used by ``show agent cache`` to label entries plan vs parse)."""
        with self._lock:
            slot = self._plans.get(id(statement))
            return (slot is not None and slot[0] is statement
                    and slot[1] == epoch)

    def entry_rows(self, count: int, epoch: int) -> list:
        """The ``count`` hottest batch entries as ``(text, kind, hits)``
        rows for ``show agent cache``: ``kind`` is ``"plan"`` when any
        statement of the batch has a live optimized-plan memo at the
        current epoch, else ``"parse"``."""
        with self._lock:
            snapshot = [(text, entry[0], entry[1], entry[2])
                        for text, entry in self._entries.items()]
        rows = []
        for text, entry_epoch, statements, hits in snapshot:
            kind = "parse"
            if entry_epoch == epoch and any(
                    self.has_plan(stmt, epoch) for stmt in statements):
                kind = "plan"
            rows.append((text, kind, hits))
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows[:count]

    def clear(self, reset_counters: bool = True) -> None:
        """Drop every entry (and, by default, zero the counters)."""
        with self._lock:
            self._entries.clear()
            self._plans.clear()
            if reset_counters:
                self.hits = 0
                self.misses = 0
                self.evictions = 0
                self.invalidations = 0
                self.plan_hits = 0
                self.plan_misses = 0
                self.origin_hits.clear()
                self.origin_misses.clear()

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses); 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, object]:
        """A snapshot of the cache's counters and occupancy."""
        with self._lock:
            origins = {}
            for origin in sorted(set(self.origin_hits)
                                 | set(self.origin_misses)):
                hits = self.origin_hits.get(origin, 0)
                misses = self.origin_misses.get(origin, 0)
                total = hits + misses
                origins[origin] = {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": round(hits / total, 4) if total else 0.0,
                }
            return {
                "enabled": self.enabled,
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 4),
                "plans": len(self._plans),
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
                "origins": origins,
            }
