"""SQL code generation (paper Figures 11 and 14).

Given event and trigger definitions, this module produces the SQL the
agent installs in the (unmodified) SQL server:

- per snapshot family (database, defining user, table): snapshot
  tables (``<table>_inserted`` / ``<table>_deleted`` with the extra
  ``vNo`` column) and ONE occurrence counter, ``<table>_Version``, that
  every event on the family shares; per event, rows in the system tables;
- per (table, operation): ONE native trigger that — once per family of
  the primitive events registered on it — bumps the family's ``vNo``
  and snapshots the transition rows tagged with it, then sends one
  ``syb_sendmsg`` notification carrying every event's segment, and runs
  any inline (primitive + IMMEDIATE) action procedures;
- per ECA trigger: an action procedure; for composite (or non-immediate)
  triggers the procedure begins with the Figure 14 context-processing
  joins that materialize ``<snapshot>_tmp`` tables from ``sysContext``.

Differences from the paper's listings are deliberate and documented in
DESIGN.md §2: the occurrence number is incremented *before* the snapshot
(Figure 11 tags the snapshot with the stale number); it lives in one
counter per snapshot family instead of ``SysPrimitiveEvent.vNo`` plus a
``Version`` copy, so a statement's rows carry one number no other
statement shares; the notification carries ``vNo``; and the Figure 14
join projects ``<snapshot>.*`` instead of a bare ``*`` (which would also
project the ``sysContext`` columns).
"""

from __future__ import annotations

import re

from repro.led.rules import Context

from .model import EcaTriggerDef, PrimitiveEventDef, TableOpRegistration

#: Name of the per-database context table (Figure 17).
SYS_CONTEXT = "sysContext"

#: Suffix for per-trigger parameter-context materialization tables.
TMP_SUFFIX = "_tmp"


def snapshot_table_sql(event: PrimitiveEventDef, direction: str,
                       source_table: str) -> str:
    """DDL for one snapshot table (Figure 11's 'create two tables').

    The ``vNo`` key column gets an index: every context-processing join
    and parameter lookup probes the snapshot by occurrence number, and
    the snapshot grows with every event occurrence.
    """
    snapshot = event.snapshot_table(direction)
    return (
        f"select * into {snapshot} from {source_table} where 1 = 2\n"
        f"go\n"
        f"alter table {snapshot} add vNo int null\n"
        f"go\n"
        f"create index ECA_vNo on {snapshot} (vNo)\n"
        f"go"
    )


def version_table_sql(event: PrimitiveEventDef) -> str:
    """DDL + seed row for the event's snapshot-family counter."""
    version = event.version_table
    return (
        f"create table {version} (vNo int null)\n"
        f"go\n"
        f"insert {version} values (0)\n"
        f"go"
    )


def native_trigger_sql(registration: TableOpRegistration,
                       events: list[PrimitiveEventDef],
                       inline_procs: list[str],
                       notify_host: str, notify_port: int) -> str:
    """The generated native trigger for one (table, operation).

    One block per snapshot family (the events sharing one
    :attr:`~repro.agent.model.PrimitiveEventDef.version_table`; several
    named events may watch the same table and operation — something
    native triggers cannot express, Section 2.2): bump the family's
    counter once, read it into a variable, and copy each transition
    table into its snapshot once, tagged with that number.  Then ONE
    coalesced ``syb_sendmsg`` carrying every event's segment
    (``;``-separated, in registration order, each with its family's
    number), then the inline IMMEDIATE action procedures.  A
    single-event trigger sends the paper's exact Figure 11 payload;
    coalescing only changes the wire format when several named events
    share one (table, operation) — and then one datagram replaces N, so
    the agent decodes, journals, and locks once per statement.
    """
    table = f"{registration.db_name}.{registration.table_owner}.{registration.table_name}"
    trigger_name = (
        f"{registration.db_name}.{registration.table_owner}."
        f"ECA_{registration.table_name}_{registration.operation}"
    )
    #: family counter table -> the variable holding this statement's vNo
    counters: dict[str, str] = {}
    for event in events:
        counters.setdefault(event.version_table, f"@v{len(counters)}")
    declared = "".join(f"{variable} int, " for variable in counters.values())
    lines: list[str] = [
        f"create trigger {trigger_name}",
        f"on {table}",
        f"for {registration.operation}",
        "as",
        f"declare {declared}@r int, @msg varchar(2048)",
    ]
    for version, variable in counters.items():
        family = [event for event in events if event.version_table == version]
        lines.append(
            f"/* events {', '.join(event.internal for event in family)} */")
        lines.append(f"update {version} set vNo = vNo + 1")
        lines.append(f"select {variable} = vNo from {version}")
        for direction in family[0].snapshot_directions:
            lines.append(
                f"insert {family[0].snapshot_table(direction)} "
                f"select {direction}.*, {variable} from {direction}"
            )
    for position, event in enumerate(events):
        segment = (
            f'"{event.user_name} {event.table_name} {event.operation} '
            f'begin {event.internal} " + '
            f"convert(varchar, {counters[event.version_table]})"
        )
        if position == 0:
            lines.append(f"select @msg = {segment}")
        else:
            lines.append(f'select @msg = @msg + ";" + {segment}')
    if events:
        lines.append(
            f'select @r = syb_sendmsg("{notify_host}", {notify_port}, '
            f"@msg) /* Notification */"
        )
    for proc in inline_procs:
        lines.append(f"/* action function */")
        lines.append(f"execute {proc}")
    return "\n".join(lines)


def drop_native_trigger_sql(registration: TableOpRegistration) -> str:
    """DDL removing the generated native trigger."""
    return (
        f"drop trigger {registration.db_name}.{registration.table_owner}."
        f"ECA_{registration.table_name}_{registration.operation}"
    )


def tmp_table_sql(snapshot_table: str) -> str:
    """DDL for one ``<snapshot>_tmp`` parameter table (Figure 14)."""
    tmp = snapshot_table + TMP_SUFFIX
    return (
        f"select * into {tmp} from {snapshot_table} where 1 = 2\n"
        f"go"
    )


def context_processing_sql(snapshot_tables: list[str], context: Context,
                           system_db_prefix: str) -> list[str]:
    """The Figure 14 '/* context processing */' block.

    For each snapshot table the event may draw parameters from, refresh
    its ``_tmp`` table with the rows whose ``vNo`` matches the current
    ``sysContext`` entries for this parameter context.

    ``sysContext`` is listed first in the FROM clause so the (growing)
    snapshot table is the inner, index-probed side of the join: with the
    outer ``sysContext`` row bound, ``<snapshot>.vNo = sysContext.vNo``
    becomes an indexed probe instead of a scan.  The projection stays
    ``<snapshot>.*`` so the output is unchanged.
    """
    statements: list[str] = []
    for snapshot in snapshot_tables:
        tmp = snapshot + TMP_SUFFIX
        statements.append(f"delete {tmp}")
        statements.append(
            f"insert {tmp}\n"
            f"select {snapshot}.*\n"
            f"from {system_db_prefix}.{SYS_CONTEXT}, {snapshot}\n"
            f'where {system_db_prefix}.{SYS_CONTEXT}.context = "{context.value}"\n'
            f'  and {system_db_prefix}.{SYS_CONTEXT}.tableName = "{snapshot}"\n'
            f"  and {snapshot}.vNo = {system_db_prefix}.{SYS_CONTEXT}.vNo"
        )
    return statements


def action_proc_sql(trigger: EcaTriggerDef, rewritten_action: str,
                    snapshot_tables: list[str],
                    system_db_prefix: str,
                    with_context_processing: bool,
                    rewritten_condition: str | None = None) -> str:
    """CREATE PROCEDURE for an ECA trigger's action (Figures 11/14).

    A WHEN clause becomes a condition gate between the context
    processing and the action: the parameters the contexts collected are
    "passed to conditions and actions" (paper Section 6's functionality
    list) because both see the same ``_tmp``/pseudo tables.
    """
    lines = [f"create procedure {trigger.proc_name} as"]
    if with_context_processing and snapshot_tables:
        lines.append("/* context processing */")
        lines.extend(context_processing_sql(
            snapshot_tables, trigger.context, system_db_prefix))
    if rewritten_condition:
        lines.append("/* condition */")
        lines.append("declare @__cond int")
        lines.append(
            "select @__cond = case when "
            f"({rewritten_condition}) then 1 else 0 end")
        lines.append("if @__cond = 1")
        lines.append("begin")
        lines.append("/* action function */")
        lines.append(rewritten_action)
        lines.append("end")
        return "\n".join(lines)
    lines.append("/* action function */")
    lines.append(rewritten_action)
    return "\n".join(lines)


_TRANSITION_REF = re.compile(
    r"\b([A-Za-z_#][\w$#]*(?:\.[A-Za-z_#][\w$#]*){0,2})"
    r"\.(inserted|deleted)\b",
    re.IGNORECASE,
)


def rewrite_action_sql(action_sql: str, resolve_table, mode: str) -> str:
    """Rewrite ``<table>.inserted`` / ``<table>.deleted`` references.

    ``resolve_table(name)`` maps a (possibly qualified) table name as the
    user wrote it to the internal snapshot-table base name
    (``db.user.<table>``) or returns None to leave the text unchanged.

    ``mode``:
      - ``"pseudo"``  — the action runs inside the native trigger, so the
        references become the engine's ``inserted``/``deleted``
        transition pseudo-tables (primitive + IMMEDIATE).
      - ``"tmp"``     — the action runs later, from the agent, so the
        references become the ``_tmp`` parameter tables populated by the
        context-processing block.
    """
    if mode not in ("pseudo", "tmp"):
        raise ValueError(f"unknown rewrite mode {mode!r}")

    def replace(match: re.Match) -> str:
        table_text, direction = match.group(1), match.group(2).lower()
        base = resolve_table(table_text)
        if base is None:
            return match.group(0)
        if mode == "pseudo":
            return direction
        return f"{base}_{direction}{TMP_SUFFIX}"

    return _TRANSITION_REF.sub(replace, action_sql)


def sys_context_refresh_sql(
        entries: list[tuple[str, int]],
        all_tables: list[str],
        context: Context,
        system_db_prefix: str) -> tuple[list[str], dict[str, object]]:
    """Statements + parameters refreshing ``sysContext`` for one firing.

    ``entries`` are (snapshot table, vNo) pairs from the triggering
    occurrence's constituents; ``all_tables`` is every snapshot table the
    trigger's procedure will join, so stale rows are cleared even for
    constituents absent from this particular occurrence (e.g. the
    untriggered side of an OR).

    The occurrence numbers — the only values that change from firing to
    firing — are emitted as ``@eca_vno<i>`` parameter slots with their
    values in the returned dict (fed to ``SqlServer.execute(params=)``).
    The statement *text* therefore repeats across firings of the same
    trigger, so the plan cache serves rule-origin SQL instead of
    re-parsing a fresh literal-bearing batch every occurrence.
    """
    statements: list[str] = []
    params: dict[str, object] = {}
    for snapshot in all_tables:
        statements.append(
            f"delete {system_db_prefix}.{SYS_CONTEXT} "
            f'where tableName = "{snapshot}" and context = "{context.value}"'
        )
    for position, (snapshot, v_no) in enumerate(entries):
        slot = f"@eca_vno{position}"
        params[slot] = int(v_no)
        statements.append(
            f"insert {system_db_prefix}.{SYS_CONTEXT} "
            f'values ("{snapshot}", "{context.value}", {slot})'
        )
    return statements, params
