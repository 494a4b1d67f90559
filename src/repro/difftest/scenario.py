"""Seeded differential-test scenarios: rules + DML, SQL + JSON forms.

A :class:`Scenario` is the unit the harness runs, shrinks, and persists:
monitored tables, primitive-event triggers, composite-event rules (with
full parameter-context coverage), and a DML statement stream.  Every
scenario is generated from a single seed via :func:`generate_scenario`
and serialises losslessly to JSON, which is the format of the regression
corpus under ``tests/difftest/corpus/``.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace

from repro.snoop.ast import EventExpr, EventName
from repro.snoop.parser import parse_event_expression
from repro.workloads.generators import (
    DmlStatement,
    PARAMETER_CONTEXTS,
    random_dml_stream,
    random_rule_set,
)

#: Identity every scenario runs under; all generated object names are
#: lowercase, so LED-internal names (``difftest.dbo.<name>``) sort the
#: same as the short names the reference interpreter uses.
DATABASE = "difftest"
USER = "dbo"

#: Schema of every monitored table.
TABLE_DDL = "create table {name} (k int not null, v int null)"

#: The audit table collects composite-rule action effects; it has no
#: triggers of its own, so actions never feed back into detection.
AUDIT_DDL = "create table audit (rule varchar(40) not null, n int null)"

#: The transition tables a DML operation's snapshot copies (written out
#: here rather than imported, so the oracle shares no code with the
#: agent's generator).
_SNAPSHOT_DIRECTIONS = {
    "insert": ("inserted",),
    "update": ("deleted", "inserted"),
    "delete": ("deleted",),
}


def leaf_names(expression: str) -> set[str]:
    """Event names referenced by a Snoop expression."""
    names: set[str] = set()

    def walk(node: EventExpr) -> None:
        if isinstance(node, EventName):
            names.add(node.name)
            return
        for attr in vars(node).values():
            if isinstance(attr, EventExpr):
                walk(attr)

    walk(parse_event_expression(expression))
    return names


@dataclass(frozen=True)
class PrimitiveSpec:
    """One primitive event: a trigger on ``(table, operation)``.

    ``coupling`` decides the execution path: IMMEDIATE primitive rules
    are *inline* (the generated native trigger executes the action
    procedure directly, bypassing the LED), DEFERRED ones become LED
    rules flushed at statement end — both paths are exercised.
    """

    event: str
    table: str
    operation: str
    coupling: str = "IMMEDIATE"

    @property
    def trigger(self) -> str:
        return f"t_{self.event}"

    def to_sql(self) -> str:
        return (f"create trigger {self.trigger} on {self.table} "
                f"for {self.operation} event {self.event} "
                f"{self.coupling} as print '{self.event}'")


@dataclass(frozen=True)
class RuleSpec:
    """One composite-event rule.

    The first rule naming an event carries its Snoop ``expression``;
    extra rules on an already-defined event leave it ``None``.  Every
    rule's action is one audit insert of ``(trigger name, n)``, where
    ``n`` is the number of parameter rows the action sees, so final
    table state reflects the firing multiset *and* the rows each firing
    was handed.
    """

    trigger: str
    event: str
    expression: str | None
    context: str
    coupling: str
    priority: int

    def to_sql(self, snapshots: list[tuple[str, str]]) -> str:
        """The rule's DDL; ``snapshots`` are the ``(table, direction)``
        pairs its constituent events snapshot
        (:meth:`Scenario.parameter_snapshots`), summed into ``n``."""
        event_clause = f"event {self.event}"
        if self.expression is not None:
            event_clause += f" = {self.expression}"
        rows = " + ".join(
            f"(select count(*) from {table}.{direction})"
            for table, direction in snapshots)
        return (f"create trigger {self.trigger} {event_clause} "
                f"{self.coupling} {self.context} {self.priority} "
                f"as insert audit select '{self.trigger}', {rows}")


@dataclass(frozen=True)
class Scenario:
    """One complete differential-test scenario."""

    seed: int
    tables: tuple[str, ...]
    primitives: tuple[PrimitiveSpec, ...]
    rules: tuple[RuleSpec, ...]
    statements: tuple[DmlStatement, ...]

    def composite_events(self) -> list[str]:
        """Names of the composite events this scenario defines."""
        return [rule.event for rule in self.rules
                if rule.expression is not None]

    def contexts_covered(self) -> set[str]:
        return {rule.context for rule in self.rules}

    def raises_for(self, statement: DmlStatement) -> list[str]:
        """The primitive events one statement notifies, in registration
        (trigger-creation) order — the coalesced datagram's segment
        order."""
        return [p.event for p in self.primitives
                if (p.table, p.operation) ==
                (statement.table, statement.operation)]

    def parameter_snapshots(self, event: str) -> list[tuple[str, str]]:
        """The ``(table, direction)`` pairs a rule on ``event`` can read
        parameter rows from: every snapshot of every primitive under the
        event, through composite leaves, sorted."""
        expressions = {rule.event: rule.expression for rule in self.rules
                       if rule.expression is not None}
        primitives = {spec.event: spec for spec in self.primitives}
        snapshots: set[tuple[str, str]] = set()
        pending, seen = [event], set()
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in primitives:
                spec = primitives[name]
                snapshots.update(
                    (spec.table, direction)
                    for direction in _SNAPSHOT_DIRECTIONS[spec.operation])
            elif name in expressions:
                pending.extend(leaf_names(expressions[name]))
        return sorted(snapshots)

    def describe(self) -> str:
        return (f"scenario seed={self.seed}: {len(self.tables)} tables, "
                f"{len(self.primitives)} primitive events, "
                f"{len(self.rules)} rules, "
                f"{len(self.statements)} statements")

    # -- serialization (the corpus format) ------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "tables": list(self.tables),
            "primitives": [asdict(p) for p in self.primitives],
            "rules": [asdict(r) for r in self.rules],
            "statements": [asdict(s) for s in self.statements],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        payload = json.loads(text)
        return cls(
            seed=payload["seed"],
            tables=tuple(payload["tables"]),
            primitives=tuple(
                PrimitiveSpec(**p) for p in payload["primitives"]),
            rules=tuple(RuleSpec(**r) for r in payload["rules"]),
            statements=tuple(
                DmlStatement(**s) for s in payload["statements"]),
        )

    def with_statements(self, statements) -> "Scenario":
        return replace(self, statements=tuple(statements))

    def with_rules(self, rules) -> "Scenario":
        return replace(self, rules=tuple(rules))

    def with_primitives(self, primitives) -> "Scenario":
        return replace(self, primitives=tuple(primitives))


# ---------------------------------------------------------------------------
# multi-site scenarios (the sharded-GED differential surface)


def qualified_leaf(event: str, site: str) -> str:
    """Internal qualified name of a site primitive in the global scope.

    Matches what :meth:`repro.ged.ShardedGed.import_event` produces for
    a trigger-registered event: ``difftest.dbo.<event>::<site>`` —
    Snoop's ``Eventname::AppId`` form over the agent's internal dotted
    name.
    """
    return f"{DATABASE}.{USER}.{event}::{site}"


@dataclass(frozen=True)
class SitePrimitiveSpec:
    """One primitive event at one site: a trigger on ``(table, operation)``.

    Event names are globally unique across sites (``p0``, ``p1``, ...)
    so shortened qualified names never collide.  Site primitives are
    always IMMEDIATE — the GED forwarding rule must run inline so the
    cross-site occurrence order equals the statement order.
    """

    site: str
    event: str
    table: str
    operation: str

    @property
    def trigger(self) -> str:
        return f"t_{self.event}"

    @property
    def qualified(self) -> str:
        """The event's qualified name in the global scope."""
        return qualified_leaf(self.event, self.site)

    def to_sql(self) -> str:
        return (f"create trigger {self.trigger} on {self.table} "
                f"for {self.operation} event {self.event} "
                f"IMMEDIATE as print '{self.event}'")


@dataclass(frozen=True)
class GlobalRuleSpec:
    """One global (cross-site) composite-event rule.

    Installed through the :class:`~repro.ged.ShardedGed` API rather than
    SQL (global rules live at the GED, not at any one site).  The first
    rule naming a global event carries its Snoop ``expression`` over
    qualified leaf names; extra rules leave it ``None``.
    """

    trigger: str
    event: str
    expression: str | None
    context: str
    coupling: str
    priority: int


@dataclass(frozen=True)
class SiteStatement:
    """One DML statement executed at a specific site."""

    site: str
    table: str
    operation: str
    sql: str


@dataclass(frozen=True)
class MultiSiteScenario:
    """One complete multi-site differential-test scenario.

    Every site runs its own agent over its own server with the same
    table schema; the statement stream is a seeded global interleaving
    of per-site DML.  Global rules compose qualified site events at the
    (sharded or single-coordinator) GED.
    """

    seed: int
    sites: tuple[str, ...]
    tables: tuple[str, ...]
    primitives: tuple[SitePrimitiveSpec, ...]
    rules: tuple[GlobalRuleSpec, ...]
    statements: tuple[SiteStatement, ...]

    def composite_events(self) -> list[str]:
        """Names of the global composite events this scenario defines."""
        return [rule.event for rule in self.rules
                if rule.expression is not None]

    def raises_for(self, statement: SiteStatement) -> list[str]:
        """The primitive events one statement notifies at its site, in
        trigger-creation order."""
        return [p.event for p in self.primitives
                if p.site == statement.site
                and (p.table, p.operation) ==
                (statement.table, statement.operation)]

    def describe(self) -> str:
        return (f"multisite scenario seed={self.seed}: "
                f"{len(self.sites)} sites, "
                f"{len(self.primitives)} site primitives, "
                f"{len(self.rules)} global rules, "
                f"{len(self.statements)} statements")

    # -- serialization (the corpus format) ------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "sites": list(self.sites),
            "tables": list(self.tables),
            "primitives": [asdict(p) for p in self.primitives],
            "rules": [asdict(r) for r in self.rules],
            "statements": [asdict(s) for s in self.statements],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MultiSiteScenario":
        payload = json.loads(text)
        return cls(
            seed=payload["seed"],
            sites=tuple(payload["sites"]),
            tables=tuple(payload["tables"]),
            primitives=tuple(
                SitePrimitiveSpec(**p) for p in payload["primitives"]),
            rules=tuple(GlobalRuleSpec(**r) for r in payload["rules"]),
            statements=tuple(
                SiteStatement(**s) for s in payload["statements"]),
        )

    def with_statements(self, statements) -> "MultiSiteScenario":
        return replace(self, statements=tuple(statements))

    def with_rules(self, rules) -> "MultiSiteScenario":
        return replace(self, rules=tuple(rules))

    def with_primitives(self, primitives) -> "MultiSiteScenario":
        return replace(self, primitives=tuple(primitives))


def generate_multisite_scenario(seed: int, *, n_sites: int | None = None,
                                per_site_primitives: int = 2,
                                n_composites: int = 5,
                                n_extra_rules: int = 1,
                                n_statements: int = 36) -> MultiSiteScenario:
    """Generate the seeded multi-site scenario for one differential run.

    2–4 sites (seed-chosen unless pinned), globally unique primitive
    names, and global composites whose leaves are guaranteed to span at
    least two sites.  The first composite is always a CHRONICLE
    cross-site SEQ — the exact shape the ``seq-chronicle-newest``
    planted mutation corrupts, so the mutation-liveness check stays
    sensitive at every seed.  The remaining composites cycle through all
    four parameter contexts.
    """
    rng = random.Random(seed)
    if n_sites is None:
        n_sites = rng.choice([2, 3, 3, 4])
    sites = tuple(f"s{i}" for i in range(n_sites))
    tables = ("t0", "t1")
    operations = ("insert", "update", "delete")
    primitives: list[SitePrimitiveSpec] = []
    counter = 0
    for site in sites:
        for _ in range(per_site_primitives):
            primitives.append(SitePrimitiveSpec(
                site=site,
                event=f"p{counter}",
                table=rng.choice(tables),
                operation=rng.choice(operations),
            ))
            counter += 1
    by_site = {site: [p for p in primitives if p.site == site]
               for site in sites}

    def cross_site_pair() -> tuple[SitePrimitiveSpec, SitePrimitiveSpec]:
        first, second = rng.sample(sites, 2)
        return rng.choice(by_site[first]), rng.choice(by_site[second])

    rules: list[GlobalRuleSpec] = []
    for index in range(n_composites):
        a, b = cross_site_pair()
        if index == 0:
            expression = f"({a.qualified} SEQ {b.qualified})"
            context = "CHRONICLE"
        else:
            roll = rng.random()
            if roll < 0.4:
                expression = f"({a.qualified} SEQ {b.qualified})"
            elif roll < 0.7:
                expression = f"({a.qualified} AND {b.qualified})"
            elif roll < 0.85:
                closer = rng.choice(primitives)
                expression = (f"A*({a.qualified}, {b.qualified}, "
                              f"{closer.qualified})")
            else:
                other = rng.choice(primitives)
                expression = (f"(({a.qualified} OR {other.qualified}) "
                              f"SEQ {b.qualified})")
            context = PARAMETER_CONTEXTS[(index - 1) % len(PARAMETER_CONTEXTS)]
        rules.append(GlobalRuleSpec(
            trigger=f"gr{index}",
            event=f"g{index}",
            expression=expression,
            context=context,
            coupling=rng.choice(("IMMEDIATE", "DEFERRED")),
            priority=rng.choice([1, 1, 2]),
        ))
    defining = list(rules)
    for index in range(n_extra_rules):
        target = rng.choice(defining)
        rules.append(GlobalRuleSpec(
            trigger=f"gx{index}_{target.event}",
            event=target.event,
            expression=None,
            context=rng.choice(PARAMETER_CONTEXTS),
            coupling=rng.choice(("IMMEDIATE", "DEFERRED")),
            priority=1,
        ))
    streams = {
        site: list(random_dml_stream(
            rng, list(tables), max(1, n_statements // n_sites)))
        for site in sites
    }
    bag = [site for site in sites for _ in streams[site]]
    rng.shuffle(bag)
    statements = []
    for site in bag:
        statement = streams[site].pop(0)
        statements.append(SiteStatement(
            site=site, table=statement.table,
            operation=statement.operation, sql=statement.sql))
    return MultiSiteScenario(
        seed=seed,
        sites=sites,
        tables=tables,
        primitives=tuple(primitives),
        rules=tuple(rules),
        statements=tuple(statements),
    )


def generate_scenario(seed: int, *, n_tables: int = 2,
                      n_primitives: int = 5, n_composites: int = 5,
                      n_extra_rules: int = 2,
                      n_statements: int = 30) -> Scenario:
    """Generate the seeded scenario for one differential run.

    ``n_composites`` must be at least four so the cycled contexts cover
    every Snoop parameter context (:data:`PARAMETER_CONTEXTS`).
    """
    if n_composites < len(PARAMETER_CONTEXTS):
        raise ValueError("need at least four composites for full "
                         "parameter-context coverage")
    rng = random.Random(seed)
    tables = tuple(f"t{i}" for i in range(n_tables))
    operations = ("insert", "update", "delete")
    primitives = tuple(
        PrimitiveSpec(
            event=f"p{i}",
            table=rng.choice(tables),
            operation=rng.choice(operations),
            coupling=rng.choice(("IMMEDIATE", "DEFERRED")),
        )
        for i in range(n_primitives)
    )
    rules: list[RuleSpec] = []
    composites = random_rule_set(
        rng, [p.event for p in primitives], n_composites)
    for spec in composites:
        rules.append(RuleSpec(
            trigger=f"trg_{spec.event}",
            event=spec.event,
            expression=spec.expression,
            context=spec.context,
            coupling=spec.coupling,
            priority=spec.priority,
        ))
    for index in range(n_extra_rules):
        target = rng.choice(composites)
        rules.append(RuleSpec(
            trigger=f"xr{index}_{target.event}",
            event=target.event,
            expression=None,
            context=rng.choice(PARAMETER_CONTEXTS),
            coupling=rng.choice(("IMMEDIATE", "DEFERRED")),
            priority=rng.choice([1, 1, 2]),
        ))
    statements = tuple(random_dml_stream(rng, list(tables), n_statements))
    return Scenario(
        seed=seed,
        tables=tables,
        primitives=primitives,
        rules=tuple(rules),
        statements=statements,
    )
