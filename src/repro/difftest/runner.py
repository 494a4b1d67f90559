"""Execute one scenario three ways and collect comparison surfaces.

The three executions of a :class:`~repro.difftest.scenario.Scenario`:

1. :func:`run_stack` — the full gateway/agent/LED stack over a live
   :class:`~repro.sqlengine.SqlServer`, with the plan cache on or off,
   optionally on the naive SQL oracle (:mod:`repro.difftest.sqlref`),
   and with an optional seeded fault plan;
2. :func:`run_reference` — the paper-literal reference interpreter fed
   the primitive-occurrence stream the scenario's triggers notify;
3. :func:`run_baselines` — a passive shadow replay cross-checked by the
   :mod:`repro.baselines` polling monitor and embedded situation client.

A fourth execution, :func:`run_interleaved`, replays the same statement
stream through N concurrent gateway sessions over a worker pool while
preserving the serial global schedule; its :class:`StackRun` must match
the serial one exactly.

Each returns a plain observation dataclass; :mod:`repro.difftest.compare`
diffs them.  All names in observations are *short* (the last segment of
the agent's internal dotted names), so the stack and the reference are
directly comparable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.agent import EcaAgent
from repro.baselines.embedded import EmbeddedSituationClient
from repro.baselines.polling import PollingMonitor
from repro.ged import ShardedGed
from repro.sqlengine import SqlServer, connect

from .reference import MultiSiteReference, ReferenceDetector
from .sqlref import NaiveExecutor
from .scenario import (
    AUDIT_DDL,
    DATABASE,
    MultiSiteScenario,
    Scenario,
    TABLE_DDL,
    USER,
)

#: Detections are compared as (event, context, constituent-seq-tuple);
#: firings add the rule name and coupling mode.
Detection = tuple[str, str | None, tuple[int, ...]]
Firing = tuple[str, str, str, str, tuple[int, ...]]


def _short(name: str) -> str:
    """``difftest.dbo.c0`` -> ``c0`` (already-short names pass through)."""
    return name.rsplit(".", 1)[-1]


@dataclass
class StackRun:
    """Observation of one full-stack execution."""

    primitives: list[tuple[str, int]] = field(default_factory=list)
    detections: list[Detection] = field(default_factory=list)
    firings: list[Firing] = field(default_factory=list)
    audit: Counter = field(default_factory=Counter)
    tables: dict[str, list[tuple]] = field(default_factory=dict)
    #: (statement index, message) for statements the gateway degraded
    degraded: list[tuple[int, str]] = field(default_factory=list)
    faults_injected: int = 0
    notifications_dropped: int = 0


@dataclass
class ReferenceRun:
    """Observation of the reference-interpreter execution."""

    primitives: list[tuple[str, int]] = field(default_factory=list)
    detections: list[Detection] = field(default_factory=list)
    firings: list[Firing] = field(default_factory=list)
    audit: Counter = field(default_factory=Counter)


@dataclass
class BaselineRun:
    """Observation of the passive shadow replay + baseline oracles."""

    tables: dict[str, list[tuple]] = field(default_factory=dict)
    #: every change the polling monitor inferred, in poll order
    polling_changes: list[tuple[str, str, tuple]] = field(
        default_factory=list)
    #: final row count each embedded check reported, per table
    embedded_counts: dict[str, int] = field(default_factory=dict)


@dataclass
class ScenarioRun:
    """All observations of one scenario execution."""

    stack: StackRun
    reference: ReferenceRun
    baseline: BaselineRun


def _read_rows(conn, table: str) -> list[tuple]:
    result = conn.execute(f"select * from {table}")
    rows = result.last.rows if result.last else []
    return sorted(tuple(row) for row in rows)


def _read_audit(conn) -> Counter:
    """The ``(rule, parameter rows)`` multiset the rule actions wrote."""
    return Counter(tuple(row) for row in _read_rows(conn, "audit"))


def _shadow(scenario: Scenario):
    """A bare engine (no agent) holding the scenario's empty tables: the
    passive replay the reference and the baseline oracles read."""
    shadow = SqlServer(default_database=DATABASE)
    conn = connect(shadow, user=USER, database=DATABASE)
    for table in scenario.tables:
        conn.execute(TABLE_DDL.format(name=table))
    return shadow, conn


def run_stack(scenario: Scenario, *, plan_cache: bool = True,
              sql_reference: bool = False, faults=None) -> StackRun:
    """Execute the scenario on the full gateway/agent/LED stack.

    ``sql_reference`` runs the same stack with the server's executor
    swapped for :class:`~repro.difftest.sqlref.NaiveExecutor`, the
    nested-loop oracle the planned path must be indistinguishable
    from.  ``faults`` is an optional
    :class:`~repro.faults.FaultPlan` (or injector) applied to the
    *statement stream only* — the injector is disarmed while tables and
    rules are created, so every chaos run starts from an identical
    installed rule set and the seeded schedule is counted from the first
    streamed statement.  The stream keeps going after degraded commands
    so chaos runs observe the agent's graceful-degradation contract.
    """
    server = SqlServer(default_database=DATABASE)
    server.plan_cache.enabled = bool(plan_cache)
    if sql_reference:
        server.executor = NaiveExecutor(server)
    agent = EcaAgent(server, channel="sync", faults=faults)
    run = StackRun()
    try:
        agent.faults.armed = False
        conn = agent.connect(user=USER, database=DATABASE)
        for table in scenario.tables:
            conn.execute(TABLE_DDL.format(name=table))
        conn.execute(AUDIT_DDL)
        for spec in scenario.primitives:
            conn.execute(spec.to_sql())
        for rule in scenario.rules:
            conn.execute(rule.to_sql(scenario.parameter_snapshots(rule.event)))
        log = agent.start_detection_log()
        agent.faults.armed = True
        for index, statement in enumerate(scenario.statements):
            result = conn.execute(statement.sql)
            for message in result.messages:
                if message.startswith("Agent error:"):
                    run.degraded.append((index, message))
        agent.faults.armed = False
        agent.stop_detection_log()

        composites = set(scenario.composite_events())
        for name, context, occurrence in log:
            short = _short(name)
            if context is None:
                run.primitives.append((short, occurrence.seq))
            elif short in composites:
                run.detections.append((
                    short, context.value,
                    tuple(occ.seq for occ in occurrence.flatten())))
        for firing in agent.firing_history():
            run.firings.append((
                _short(firing.rule_name), _short(firing.event_name),
                firing.context.value, firing.coupling.value,
                tuple(occ.seq for occ in firing.occurrence.flatten())))
        run.audit = _read_audit(conn)
        for table in scenario.tables:
            run.tables[table] = _read_rows(conn, table)
        run.faults_injected = agent.faults.injected_count
        run.notifications_dropped = agent.notifier.dropped
    finally:
        agent.close()
    return run


def run_interleaved(scenario: Scenario, *, clients: int = 4,
                    workers: int = 4, seed: int = 0,
                    plan_cache: bool = True) -> StackRun:
    """Execute the scenario through ``clients`` concurrent gateway
    sessions backed by a ``workers``-thread pool.

    Statements keep their scenario order but each is issued by a
    seeded-randomly chosen client session, with at most one command in
    flight at a time — so the *global* schedule matches the serial
    :func:`run_stack` schedule while the execution path exercises the
    session registry, the worker pool, the engine's fine-grained batch
    locking, and per-session accounting attribution.  The observation
    must be indistinguishable from the serial run's
    (:func:`~repro.difftest.compare.compare_stack_runs`).
    """
    import random

    server = SqlServer(default_database=DATABASE)
    server.plan_cache.enabled = bool(plan_cache)
    agent = EcaAgent(server, channel="sync", workers=workers)
    run = StackRun()
    rng = random.Random(seed)
    try:
        conns = [agent.connect(user=USER, database=DATABASE)
                 for _ in range(max(1, clients))]
        setup = conns[0]
        for table in scenario.tables:
            setup.execute(TABLE_DDL.format(name=table))
        setup.execute(AUDIT_DDL)
        for spec in scenario.primitives:
            setup.execute(spec.to_sql())
        for rule in scenario.rules:
            setup.execute(
                rule.to_sql(scenario.parameter_snapshots(rule.event)))
        log = agent.start_detection_log()
        for index, statement in enumerate(scenario.statements):
            conn = conns[rng.randrange(len(conns))]
            result = conn.execute(statement.sql)
            for message in result.messages:
                if message.startswith("Agent error:"):
                    run.degraded.append((index, message))
        agent.stop_detection_log()

        composites = set(scenario.composite_events())
        for name, context, occurrence in log:
            short = _short(name)
            if context is None:
                run.primitives.append((short, occurrence.seq))
            elif short in composites:
                run.detections.append((
                    short, context.value,
                    tuple(occ.seq for occ in occurrence.flatten())))
        for firing in agent.firing_history():
            run.firings.append((
                _short(firing.rule_name), _short(firing.event_name),
                firing.context.value, firing.coupling.value,
                tuple(occ.seq for occ in firing.occurrence.flatten())))
        run.audit = _read_audit(setup)
        for table in scenario.tables:
            run.tables[table] = _read_rows(setup, table)
        run.faults_injected = agent.faults.injected_count
        run.notifications_dropped = agent.notifier.dropped
    finally:
        agent.close()
    return run


def run_reference(scenario: Scenario) -> ReferenceRun:
    """Execute the scenario on the reference Snoop interpreter.

    The primitive-occurrence stream is derived from the scenario alone:
    each statement raises the events registered on its (table,
    operation), in trigger-creation order — exactly the segment order of
    the stack's coalesced notification datagram.  DEFERRED rules flush
    at statement end (no open transactions in generated streams).

    Each audited firing also predicts its ``n``: for every snapshot the
    rule reads (:meth:`~repro.difftest.scenario.Scenario.parameter_snapshots`),
    the rows of each *distinct* statement among the constituents that
    write it.  Row counts come from a bare-engine replay, never from the
    agent.
    """
    _, shadow = _shadow(scenario)
    ref = ReferenceDetector()
    audit_snapshots = {rule.trigger: scenario.parameter_snapshots(rule.event)
                       for rule in scenario.rules}
    writes = {spec.event: set(scenario.parameter_snapshots(spec.event))
              for spec in scenario.primitives}
    for spec in scenario.primitives:
        ref.define_primitive(spec.event)
        if spec.coupling != "IMMEDIATE":
            # IMMEDIATE primitive rules run inline inside the native
            # trigger (no LED rule); every other coupling is LED-managed.
            ref.add_rule(spec.trigger, spec.event,
                         context="RECENT", coupling=spec.coupling)
    for rule in scenario.rules:
        if rule.expression is not None:
            ref.define_composite(rule.event, rule.expression)
        ref.add_rule(rule.trigger, rule.event, context=rule.context,
                     coupling=rule.coupling, priority=rule.priority)
    #: reference seq -> (statement index, rows it affected)
    statement_of: dict[int, tuple[int, int]] = {}
    for index, statement in enumerate(scenario.statements):
        rows = shadow.execute(statement.sql).rowcount
        for event in scenario.raises_for(statement):
            seq = ref.raise_event(event).seqs()[0]
            statement_of[seq] = (index, rows)
        ref.flush_deferred()

    def parameter_rows(rule: str, occurrence) -> int:
        total = 0
        for snapshot in audit_snapshots[rule]:
            statements = {statement_of[seq]
                          for _time, seq, name in occurrence.prims
                          if snapshot in writes[name]}
            total += sum(rows for _index, rows in statements)
        return total

    run = ReferenceRun()
    composites = set(scenario.composite_events())
    for detection in ref.detections:
        if detection.context is None:
            run.primitives.append(
                (detection.event_name, detection.occurrence.seqs()[0]))
        elif detection.event_name in composites:
            run.detections.append((
                detection.event_name, detection.context,
                detection.occurrence.seqs()))
    for firing in ref.firings:
        run.firings.append((
            firing.rule_name, firing.event_name, firing.context,
            firing.coupling, firing.occurrence.seqs()))
        if firing.rule_name in audit_snapshots:
            run.audit[(firing.rule_name, parameter_rows(
                firing.rule_name, firing.occurrence))] += 1
    return run


def run_baselines(scenario: Scenario) -> BaselineRun:
    """Replay the DML stream on a passive shadow server, watched by the
    polling and embedded-situation baseline oracles."""
    shadow, conn = _shadow(scenario)
    run = BaselineRun()
    counts: dict[str, list[int]] = {table: [] for table in scenario.tables}
    client = EmbeddedSituationClient(conn)
    for table in scenario.tables:
        client.add_check(
            table, f"select count(*) from {table}",
            lambda rows, table=table: counts[table].append(rows[0][0]))
    monitor = PollingMonitor(
        shadow, list(scenario.tables), DATABASE, USER)
    monitor.prime()
    for statement in scenario.statements:
        client.execute(statement.sql)
        for change in monitor.poll():
            run.polling_changes.append(
                (change.table, change.kind, tuple(change.row)))
    for table in scenario.tables:
        run.tables[table] = _read_rows(conn, table)
        run.embedded_counts[table] = counts[table][-1] if counts[table] else 0
    return run


# ---------------------------------------------------------------------------
# multi-site runs (the sharded-GED differential surface)


@dataclass
class MultiSiteRun:
    """Observation of one multi-site execution (stack or reference).

    The comparison surfaces are deployment-shape independent: the global
    primitive stream is one totally ordered list, while detections and
    firings are grouped per event / per rule — cross-event interleaving
    legitimately differs between a sharded and a single-coordinator
    layout (and between stack and composer), but the per-class history
    may not.
    """

    #: (shortened qualified name, global seq, vNo), in global order
    primitives: list[tuple[str, int, int]] = field(default_factory=list)
    #: event -> [(context, constituent seqs)] in detection order
    detections: dict[str, list[tuple]] = field(default_factory=dict)
    #: rule -> [(event, context, coupling, constituent seqs)]
    firings: dict[str, list[tuple]] = field(default_factory=dict)
    audit: Counter = field(default_factory=Counter)
    #: informational only — never compared across deployment shapes
    partition: dict[str, tuple[str, ...]] = field(default_factory=dict)


def run_multisite_stack(scenario: MultiSiteScenario, *,
                        sharded: bool = True) -> MultiSiteRun:
    """Execute a multi-site scenario on real agents under a GED.

    One :class:`~repro.agent.EcaAgent` (own server, sync channel) per
    site, joined into a :class:`~repro.ged.ShardedGed`; every site
    primitive is imported and every global rule installed at the GED.
    ``sharded`` selects the deployment shape: the consistent-hash ring
    or the degenerate single-coordinator layout — the sharding layer
    must be semantically invisible between the two.
    """
    ged = ShardedGed(sharded=sharded)
    agents: dict[str, EcaAgent] = {}
    run = MultiSiteRun()
    try:
        conns = {}
        for site in scenario.sites:
            server = SqlServer(default_database=DATABASE)
            agent = EcaAgent(server, channel="sync")
            agents[site] = agent
            ged.add_site(site, agent)
            conn = agent.connect(user=USER, database=DATABASE)
            conns[site] = conn
            for table in scenario.tables:
                conn.execute(TABLE_DDL.format(name=table))
        for spec in scenario.primitives:
            conns[spec.site].execute(spec.to_sql())
            ged.import_event(spec.site, f"{DATABASE}.{USER}.{spec.event}")
        for rule in scenario.rules:
            if rule.expression is not None:
                ged.define_global_event(rule.event, rule.expression)
            ged.add_global_rule(rule.trigger, rule.event,
                                context=rule.context,
                                coupling=rule.coupling,
                                priority=rule.priority)
        ged.start_detection_logs()
        for statement in scenario.statements:
            conns[statement.site].execute(statement.sql)
            ged.flush_deferred()
        logs = ged.stop_detection_logs()

        composites = set(scenario.composite_events())
        for entry in ged.journal:
            run.primitives.append((
                _short(entry.name), entry.gseq,
                entry.occurrence.params.get("vNo")))
        for _site, log in logs:
            for name, context, occurrence in log:
                if context is None or name not in composites:
                    continue
                run.detections.setdefault(name, []).append((
                    context.value,
                    tuple(occ.seq for occ in occurrence.flatten())))
        for firing in ged.firings:
            run.firings.setdefault(firing.rule_name, []).append((
                firing.event_name, firing.context.value,
                firing.coupling.value,
                tuple(occ.seq for occ in firing.occurrence.flatten())))
        run.audit = Counter(f.rule_name for f in ged.firings)
        run.partition = ged.partition_map()
    finally:
        ged.close()
        for agent in agents.values():
            agent.close()
    return run


def run_multisite_reference(scenario: MultiSiteScenario) -> MultiSiteRun:
    """Execute a multi-site scenario on the paper-literal twin.

    Per-site reference Snoops interpret the local streams; the global
    composer re-detects the qualified stream.  The composer's sequence
    numbers align one-for-one with the GED router's ``gseq``, so the
    observation diffs directly against :func:`run_multisite_stack`.
    """
    twin = MultiSiteReference(scenario.sites)
    for spec in scenario.primitives:
        twin.define_site_primitive(spec.site, spec.event)
        twin.import_event(spec.site, spec.event, spec.qualified)
    for rule in scenario.rules:
        if rule.expression is not None:
            twin.define_global_event(rule.event, rule.expression)
        twin.add_global_rule(rule.trigger, rule.event,
                             context=rule.context, coupling=rule.coupling,
                             priority=rule.priority)
    for statement in scenario.statements:
        twin.raise_statement(statement.site, statement.table,
                             scenario.raises_for(statement))
        twin.flush_deferred()

    run = MultiSiteRun()
    composites = set(scenario.composite_events())
    for qualified, seq, v_no in twin.primitives:
        run.primitives.append((_short(qualified), seq, v_no))
    for detection in twin.composer.detections:
        if detection.context is None or detection.event_name not in composites:
            continue
        run.detections.setdefault(detection.event_name, []).append((
            detection.context, detection.occurrence.seqs()))
    for firing in twin.composer.firings:
        run.firings.setdefault(firing.rule_name, []).append((
            firing.event_name, firing.context, firing.coupling,
            firing.occurrence.seqs()))
    run.audit = Counter(f.rule_name for f in twin.composer.firings)
    return run


def run_scenario(scenario: Scenario, *, plan_cache: bool = True,
                 faults=None) -> ScenarioRun:
    """Run all three executions of one scenario."""
    return ScenarioRun(
        stack=run_stack(scenario, plan_cache=plan_cache, faults=faults),
        reference=run_reference(scenario),
        baseline=run_baselines(scenario),
    )
