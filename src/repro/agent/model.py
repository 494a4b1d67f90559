"""Runtime definitions the agent maintains for events and ECA triggers.

These mirror the rows of the system tables (Figures 5-7) plus the derived
information the agent needs at runtime (snapshot table names, generated
native trigger names, the rewritten action SQL).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.led.rules import Context, Coupling

from .naming import internal_name, split_internal


@dataclass
class PrimitiveEventDef:
    """A named primitive event: a (table, operation) pair (Figure 5)."""

    db_name: str
    user_name: str
    event_name: str          # short name as the user typed it
    table_owner: str         # owner of the monitored table
    table_name: str          # monitored table (short name)
    operation: str           # insert | update | delete

    @property
    def internal(self) -> str:
        """System-wide internal name, e.g. ``sentineldb.sharma.addStk``."""
        return internal_name(self.db_name, self.user_name, self.event_name)

    @property
    def snapshot_direction(self) -> str:
        """Which transition table this operation snapshots."""
        return "deleted" if self.operation == "delete" else "inserted"

    def snapshot_table(self, direction: str | None = None) -> str:
        """Internal name of the snapshot table rows are copied into.

        Updates snapshot both directions; inserts only ``inserted``;
        deletes only ``deleted``.
        """
        chosen = direction or self.snapshot_direction
        return internal_name(
            self.db_name, self.user_name, f"{self.table_name}_{chosen}")

    @property
    def snapshot_directions(self) -> tuple[str, ...]:
        if self.operation == "update":
            return ("deleted", "inserted")
        if self.operation == "delete":
            return ("deleted",)
        return ("inserted",)

    @property
    def version_table(self) -> str:
        """Internal name of the occurrence-number (``vNo``) counter.

        One counter per snapshot family — the (database, defining user,
        table) that :meth:`snapshot_table` keys on — so every event whose
        rows land in the same snapshot tables draws from one sequence and
        each firing statement gets one number (documented deviation from
        Figure 11's per-event ``SysPrimitiveEvent.vNo``, DESIGN.md §2).
        """
        return internal_name(
            self.db_name, self.user_name, f"{self.table_name}_Version")

    @property
    def native_trigger_name(self) -> str:
        """Name of the generated native trigger for this (table, op).

        One native trigger serves every primitive event on the same table
        and operation, since the engine allows only one (Section 2.2).
        """
        return f"ECA_{self.table_name}_{self.operation}"


@dataclass
class CompositeEventDef:
    """A named composite event over a Snoop expression (Figure 6)."""

    db_name: str
    user_name: str
    event_name: str
    event_describe: str      # Snoop expression with internal names
    coupling: Coupling = Coupling.IMMEDIATE
    context: Context = Context.RECENT
    priority: int = 1

    @property
    def internal(self) -> str:
        return internal_name(self.db_name, self.user_name, self.event_name)


@dataclass
class EcaTriggerDef:
    """One ECA trigger (rule) on a primitive or composite event (Figure 7).

    ``action_sql`` is the user's SQL as typed; ``proc_name`` is the
    generated stored procedure holding the rewritten action.
    """

    db_name: str
    user_name: str
    trigger_name: str
    event_internal: str      # internal name of the event it fires on
    action_sql: str
    coupling: Coupling = Coupling.IMMEDIATE
    context: Context = Context.RECENT
    priority: int = 1
    #: optional WHEN clause — the C of ECA, evaluated inside the generated
    #: procedure with the same parameter bindings as the action
    condition_sql: str | None = None

    @property
    def internal(self) -> str:
        return internal_name(self.db_name, self.user_name, self.trigger_name)

    @property
    def proc_name(self) -> str:
        """Internal name of the generated action procedure, e.g.
        ``sentineldb.sharma.t_addStk__Proc`` (paper Example 1)."""
        return internal_name(
            self.db_name, self.user_name, f"{self.trigger_name}__Proc")

    @property
    def rule_name(self) -> str:
        """Name under which the rule is registered in the LED."""
        return self.internal


def event_key(internal: str) -> tuple[str, str, str]:
    """Normalize an internal name to a case-insensitive lookup key."""
    db, user, obj = split_internal(internal)
    return db.lower(), user.lower(), obj.lower()


@dataclass
class TableOpRegistration:
    """Bookkeeping for one (database, table, operation): which primitive
    events watch it, so the native trigger can be (re)generated."""

    db_name: str
    table_owner: str
    table_name: str
    operation: str
    event_internals: list[str] = field(default_factory=list)
    #: ECA triggers executed inline in the native trigger (primitive
    #: events with IMMEDIATE coupling), in creation order.
    inline_proc_names: list[str] = field(default_factory=list)
