"""Sharded multi-site Global Event Detector (paper Section 6, scaled out).

The GED is a *sharded deployment layer* (a one-site deployment is the
degenerate case: one shard holding every global composite graph in one
LED): the participating sites form a consistent-hash ring
(:mod:`repro.ged.partitioning`) and each site's agent hosts a **shard**
— an extra LED holding exactly the global composite graphs the ring
assigns to that site.  Constituents that occur at other sites appear in
a shard as :class:`~repro.led.remote.RemoteEventNode` leaves fed by the
router.

Data flow for one cross-site composite detection::

    site A trigger ─▶ agent LED ─▶ __ged_forward rule
        ─▶ transport datagram  "user table op begin Event::A vNo[;tc=..]"
        ─▶ router: stamp global gseq, journal, fan out
        ─▶ owning shard LED: raise_remote -> Snoop graph -> global rule

Three properties carry the paper semantics across the sharding:

* **Global sequencing** — the router stamps every forwarded occurrence
  with a single global sequence number used as both its time and seq,
  so interval comparisons (``SEQ``'s *strictly before*) evaluate
  identically at whichever shard the graph lives on.  Sharded and
  single-site deployments of the same rule set are therefore
  semantically equivalent (asserted by the multi-site difftest sweep).
* **Journaled recovery** — every routed occurrence is journaled at the
  router.  When a site crashes mid-way through a half-detected
  composite, :meth:`ShardedGed.recover_site` first runs the agent's own
  torn-write repair (``agent.recover()``), then rebuilds only that
  site's partition and replays the journal entries its composites
  subscribe to, in gseq order.  Replayed IMMEDIATE firings are
  suppressed and already-fired detections are deduplicated, so a
  composite either completes after recovery (DEFERRED coupling) or is
  cleanly discarded (IMMEDIATE coupling) — it never double-fires.
* **Trace continuity** — the forwarding rule attaches the sending
  command's trace context as the datagram's ``;tc=`` trailer and the
  router re-activates it, so a cross-site composite renders as one
  connected trace tree under :data:`~repro.obs.tracing.SPAN_GED_ROUTE`
  / :data:`~repro.obs.tracing.SPAN_GED_SHARD` spans.
"""

from __future__ import annotations

import itertools
from collections import Counter as TallyCounter
from dataclasses import dataclass, field

from repro.agent.messages import Notification, adopt_payload, stamp
from repro.errors import ConfigurationError
from repro.led import Context, Coupling, LocalEventDetector
from repro.led.occurrences import Occurrence, primitive
from repro.obs.tracing import (
    SPAN_GED_REPLAY,
    SPAN_GED_ROUTE,
    SPAN_GED_SHARD,
    PipelineTrace,
)
from repro.snoop import parse_event_expression
from repro.snoop.ast import EventExpr, referenced_events

from .partitioning import DEFAULT_REPLICAS, HashRing
from .transport import InProcessTransport, TransportError

#: prefix of the forwarding rules installed on home-site LEDs
FORWARD_RULE_PREFIX = "__ged_fwd_"


def qualified_name(site: str, event_internal: str) -> str:
    """Snoop's ``Eventname::AppId`` qualified form for an imported event."""
    return f"{event_internal}::{site}"


@dataclass(frozen=True)
class JournalEntry:
    """One routed occurrence, as durably remembered by the router.

    Attributes:
        gseq: the router's global sequence number (total order).
        name: qualified global event class name.
        site: originating site.
        occurrence: the router-built occurrence fed to subscriber shards
            (its ``(time, seq)`` is ``(float(gseq), gseq)``).
    """

    gseq: int
    name: str
    site: str
    occurrence: Occurrence


@dataclass(frozen=True)
class GedRule:
    """A global ECA rule attached to a global composite event."""

    name: str
    event_name: str
    action: object = field(compare=False)
    context: Context = Context.RECENT
    coupling: Coupling = Coupling.IMMEDIATE
    priority: int = 1


@dataclass(frozen=True)
class GedFiring:
    """Record of one global rule firing (kept on :attr:`ShardedGed.firings`).

    Attributes:
        rule_name / event_name: the rule and its composite event.
        occurrence: the composite occurrence that fired the rule.
        context / coupling: the rule's parameter context and coupling.
        site: the shard (site) where the detection happened.
        replayed: True when the firing ran during journal replay.
    """

    rule_name: str
    event_name: str
    occurrence: Occurrence
    context: Context
    coupling: Coupling
    site: str
    replayed: bool = False


@dataclass(frozen=True)
class SiteRecovery:
    """Outcome of :meth:`ShardedGed.recover_site` for one site.

    Attributes:
        site: the recovered site.
        agent_repair: the agent's own ``recover()`` report (PR 2's
            torn-write repair), ``{}`` when the agent has none.
        replayed: journal entries re-raised into the rebuilt shard.
        rearmed: composites whose partial state survives recovery
            (they have at least one non-IMMEDIATE rule and may still
            complete after recovery).
        discarded: IMMEDIATE-only composites whose half-detected state
            was cleanly reset (they can never fire late).
    """

    site: str
    agent_repair: dict
    replayed: int
    rearmed: tuple[str, ...]
    discarded: tuple[str, ...]


@dataclass(frozen=True)
class _ImportSpec:
    """Registration record of one imported (site-qualified) event class."""

    site: str
    event_internal: str


@dataclass(frozen=True)
class _CompositeSpec:
    """Registration record of one global composite event class."""

    name: str
    expression: str
    ast: EventExpr = field(compare=False)
    leaves: tuple[str, ...] = ()


class GedShard:
    """One site's slice of the global detection graph.

    A thin wrapper pairing the site name with the LED that hosts the
    composite graphs assigned to it and the ordered list of composite
    class names it currently owns.
    """

    def __init__(self, site: str):
        self.site = site
        self.led = LocalEventDetector()
        #: owned global composite names, in definition order
        self.owned: list[str] = []


class ShardedGed:
    """Consistent-hash-sharded Global Event Detector across N sites.

    Construct, :meth:`add_site` each participating agent, then
    :meth:`import_event` the per-site primitives and
    :meth:`define_global_event` / :meth:`add_global_rule` the cross-site
    graphs.  With ``sharded=False`` the same API degenerates to a
    single-coordinator deployment (every class owned by the first site)
    — the difftest sweep runs both shapes and asserts they detect
    identically.

    Args:
        sharded: when False, all classes collapse onto the first
            registered site (the coordinator).
        replicas: virtual nodes per site on the hash ring.
        transport: cross-site datagram transport (defaults to a fresh
            :class:`~repro.ged.transport.InProcessTransport`).
        trace: optional :class:`~repro.obs.tracing.PipelineTrace`; a
            disabled private one is created when omitted.
        metrics: optional :class:`~repro.obs.MetricsRegistry` for
            per-site routed/fired/replayed counters.
    """

    def __init__(self, *, sharded: bool = True,
                 replicas: int = DEFAULT_REPLICAS,
                 transport: InProcessTransport | None = None,
                 trace: PipelineTrace | None = None,
                 metrics=None):
        self.sharded = sharded
        self.ring = HashRing(replicas=replicas)
        self.transport = transport if transport is not None else InProcessTransport()
        self.transport.attach(self._route)
        self.trace = trace if trace is not None else PipelineTrace()
        self.sites: dict[str, object] = {}
        self.status: dict[str, str] = {}
        self.shards: dict[str, GedShard] = {}
        self._coordinator: str | None = None
        self.imports: dict[str, _ImportSpec] = {}
        self.composites: dict[str, _CompositeSpec] = {}
        self._composite_order: list[str] = []
        self._subscribers: dict[str, list[str]] = {}
        self.rules: dict[str, GedRule] = {}
        self._rule_order: list[str] = []
        self._forward_rules: dict[str, tuple[str, str]] = {}
        self.journal: list[JournalEntry] = []
        self._gseq = itertools.count(1)
        self.firings: list[GedFiring] = []
        self._fired: set[tuple] = set()
        self._replaying_site: str | None = None
        #: per-site tallies surfaced by ``show agent sites``
        self.routed_by_site: TallyCounter = TallyCounter()
        self.fired_by_site: TallyCounter = TallyCounter()
        self.replayed_by_site: TallyCounter = TallyCounter()
        self.suppressed = 0
        self.deduped = 0
        self.skipped_down = 0
        self.failures = 0
        self._log_active = False
        self._archived_logs: list[tuple[str, list]] = []
        self._m_routed = self._m_fired = self._m_replayed = None
        if metrics is not None:
            self._m_routed = metrics.counter(
                "ged_routed_total", "occurrences routed by the GED", ("site",))
            self._m_fired = metrics.counter(
                "ged_rules_fired_total", "global rule firings", ("site",))
            self._m_replayed = metrics.counter(
                "ged_replayed_total", "journal entries replayed", ("site",))

    # ------------------------------------------------------------------
    # membership

    def add_site(self, name: str, agent) -> list[tuple[str, str | None, str]]:
        """Register a participating site and rebalance onto it.

        ``agent`` is duck-typed: it needs an ``.led``
        (:class:`~repro.led.LocalEventDetector`) and, for tracing and
        recovery, ``.trace`` / ``.recover()`` — i.e. an
        :class:`~repro.agent.EcaAgent` or any stand-in.  Returns the
        ``(class, old_owner, new_owner)`` moves the join caused.
        """
        if name in self.sites:
            raise ConfigurationError(f"site '{name}' is already registered")
        self.sites[name] = agent
        self.status[name] = "up"
        shard = GedShard(name)
        self.shards[name] = shard
        if self._log_active:
            shard.led.start_detection_log()
        if self.sharded:
            self.ring.add_site(name)
        if self._coordinator is None:
            self._coordinator = name
        try:
            agent.ged_sites = (self, name)
        except AttributeError:
            pass
        if self.composites and self.sharded:
            return self._apply_assignment()
        return []

    def remove_site(self, name: str) -> list[tuple[str, str | None, str]]:
        """Gracefully retire a site, migrating its classes elsewhere.

        A site that still homes imported events cannot leave (its
        triggers are the source of those classes).  Returns the moves
        the departure caused.
        """
        if name not in self.sites:
            raise ConfigurationError(f"site '{name}' is not registered")
        homed = [n for n, spec in self.imports.items() if spec.site == name]
        if homed:
            raise ConfigurationError(
                f"site '{name}' still homes imported events: {homed}")
        if not self.sharded and name == self._coordinator and self.composites:
            raise ConfigurationError(
                "cannot remove the coordinator of a non-sharded GED")
        agent = self.sites.pop(name)
        departing = set(self.shards[name].owned)
        del self.status[name]
        del self.shards[name]
        if self.sharded:
            self.ring.remove_site(name)
        self.transport.mark_up(name)
        if self._coordinator == name:
            self._coordinator = next(iter(self.sites), None)
        try:
            if getattr(agent, "ged_sites", None) == (self, name):
                agent.ged_sites = None
        except AttributeError:
            pass
        if self.composites:
            # The departed shard is gone, so _apply_assignment sees no
            # prior owner for its classes — restore it in the report.
            return [(comp, name if comp in departing else old, new)
                    for comp, old, new in self._apply_assignment()]
        return []

    def owner_of(self, class_name: str) -> str:
        """The site whose shard owns a global event class."""
        if not self.sharded:
            if self._coordinator is None:
                raise ConfigurationError("no sites registered")
            return self._coordinator
        return self.ring.owner(class_name)

    def partition_map(self) -> dict[str, tuple[str, ...]]:
        """All global classes (imports and composites) by owning site."""
        classes = list(self.imports) + self._composite_order
        out: dict[str, list[str]] = {site: [] for site in self.sites}
        for name in classes:
            out[self.owner_of(name)].append(name)
        return {site: tuple(names) for site, names in out.items()}

    # ------------------------------------------------------------------
    # class registration

    def import_event(self, site: str, event_internal: str) -> str:
        """Import a site's primitive event into the global scope.

        Installs a forwarding rule at the home agent's LED that ships
        each occurrence to the router as a ``syb_sendmsg`` datagram
        (with the ``;tc=`` trace trailer while the sending command is
        traced).  Returns the qualified global name.
        """
        agent = self._site_agent(site)
        name = qualified_name(site, event_internal)
        if name in self.imports:
            return name
        if not agent.led.has_event(event_internal):
            raise ConfigurationError(
                f"event '{event_internal}' is not defined at site '{site}'")
        self.imports[name] = _ImportSpec(site=site, event_internal=event_internal)
        transport = self.transport

        def forward(occurrence: Occurrence, _site=site, _name=name,
                    _agent=agent) -> None:
            params = occurrence.params
            v_no = params.get("vNo")
            notification = Notification(
                user=str(params.get("user", "-")),
                table=str(params.get("table", "-")),
                operation=str(params.get("operation", "-")),
                phase="begin",
                event_internal=_name,
                v_no=v_no if isinstance(v_no, int) else None,
            )
            payload = notification.encode()
            trace = getattr(_agent, "trace", None)
            if trace is not None:
                payload = stamp(payload, trace.ambient)
            transport.send(_site, payload)

        rule_name = f"{FORWARD_RULE_PREFIX}{name}"
        agent.led.add_rule(rule_name, event_internal, forward,
                           context=Context.RECENT,
                           coupling=Coupling.IMMEDIATE)
        self._forward_rules[name] = (site, rule_name)
        return name

    def define_global_event(self, name: str, expression: str,
                            *, owner: str | None = None) -> str:
        """Define a global composite over imported (qualified) events.

        Every leaf of ``expression`` must be an imported class; global
        composites cannot reference other global composites (no event
        reuse across the global scope — each composite graph must be
        self-contained so it can live whole on one shard).  ``owner``
        pins the class to a site, overriding the hash ring.
        """
        if name in self.composites or name in self.imports:
            raise ConfigurationError(f"global event '{name}' already exists")
        ast = parse_event_expression(expression)
        leaves = tuple(referenced_events(ast))
        for leaf in leaves:
            if leaf in self.composites:
                raise ConfigurationError(
                    f"global event '{name}' references composite '{leaf}': "
                    "the sharded GED does not support global event reuse "
                    "(each composite graph must be shard-local)")
            if leaf not in self.imports:
                raise ConfigurationError(
                    f"global event '{name}' references '{leaf}' which has "
                    "not been imported")
        spec = _CompositeSpec(name=name, expression=expression,
                              ast=ast, leaves=leaves)
        self.composites[name] = spec
        self._composite_order.append(name)
        for leaf in leaves:
            self._subscribers.setdefault(leaf, []).append(name)
        if owner is not None:
            self._site_agent(owner)  # validate
            if self.sharded:
                self.ring.pin(name, owner)
        site = self.owner_of(name)
        shard = self.shards[site]
        self._install_composite(shard, spec)
        shard.owned.append(name)
        return site

    def add_global_rule(self, rule_name: str, event_name: str,
                        action=None, *,
                        context: Context | str = Context.RECENT,
                        coupling: Coupling | str = Coupling.IMMEDIATE,
                        priority: int = 1) -> GedRule:
        """Attach a rule to a global composite event.

        ``action`` may be ``None``: the firing is still recorded on
        :attr:`firings` (and deduplicated across recovery replay), which
        is all the differential harness needs.
        """
        if rule_name in self.rules:
            raise ConfigurationError(f"global rule '{rule_name}' already exists")
        if event_name not in self.composites:
            raise ConfigurationError(
                f"'{event_name}' is not a global composite event")
        if isinstance(context, str):
            context = Context.parse(context)
        if isinstance(coupling, str):
            coupling = Coupling.parse(coupling)
        rule = GedRule(name=rule_name, event_name=event_name, action=action,
                       context=context, coupling=coupling, priority=priority)
        self.rules[rule_name] = rule
        self._rule_order.append(rule_name)
        shard = self.shards[self.owner_of(event_name)]
        shard.led.add_rule(rule_name, event_name, self._action_for(rule),
                           context=context, coupling=coupling,
                           priority=priority)
        return rule

    # ------------------------------------------------------------------
    # routing

    def _route(self, from_site: str, payload: str) -> None:
        """Transport callback: decode, sequence, journal, fan out."""
        clean, adopted = adopt_payload(payload, self.trace.ambient)
        notifications = Notification.decode_batch(clean)
        with adopted, self.trace.span(SPAN_GED_ROUTE, from_site):
            for notification in notifications:
                self._route_one(from_site, notification)

    def _route_one(self, from_site: str, notification: Notification) -> None:
        name = notification.event_internal
        spec = self.imports.get(name)
        if spec is None:
            raise TransportError(
                f"datagram for unknown global event '{name}'")
        if spec.site != from_site:
            raise TransportError(
                f"site '{from_site}' sent a datagram for '{name}' "
                f"homed at '{spec.site}'")
        gseq = next(self._gseq)
        # With (site, vNo) the home site's snapshot tables let a global
        # rule's action reach back to the rows behind the occurrence.
        home = getattr(self.sites[from_site], "primitive_events", {}).get(
            spec.event_internal.lower())
        occurrence = primitive(name, float(gseq), gseq, {
            "site": from_site,
            "user": notification.user,
            "table": notification.table,
            "operation": notification.operation,
            "vNo": notification.v_no,
            "snapshot_tables": {} if home is None else {
                direction: home.snapshot_table(direction)
                for direction in home.snapshot_directions},
        })
        self.journal.append(JournalEntry(
            gseq=gseq, name=name, site=from_site, occurrence=occurrence))
        self.routed_by_site[from_site] += 1
        if self._m_routed is not None:
            self._m_routed.labels(from_site).inc()
        for owner in self._subscriber_shards(name):
            if self.status.get(owner) != "up":
                self.skipped_down += 1
                continue
            with self.trace.span(SPAN_GED_SHARD, owner):
                self.shards[owner].led.raise_remote(name, occurrence)

    def _subscriber_shards(self, name: str) -> list[str]:
        """Owning shards of the composites subscribed to ``name``,
        deduplicated in composite-definition order."""
        owners: list[str] = []
        for comp in self._subscribers.get(name, ()):
            owner = self.owner_of(comp)
            if owner not in owners:
                owners.append(owner)
        return owners

    def flush_deferred(self) -> list[GedFiring]:
        """Run queued DEFERRED global rules on every live shard.

        Shards flush in sorted site order (deterministic); returns the
        global firings this flush produced.
        """
        before = len(self.firings)
        for site in sorted(self.shards):
            if self.status[site] == "up":
                self.shards[site].led.flush_deferred()
        return self.firings[before:]

    # ------------------------------------------------------------------
    # failure and recovery

    def fail_site(self, site: str) -> None:
        """Simulate a crash: drop the site's in-memory shard state.

        The transport starts refusing the site's datagrams, routing
        skips its shard (occurrences are still journaled), and any
        half-detected composite state on the shard is lost — exactly
        what :meth:`recover_site` must repair.
        """
        self._site_agent(site)
        if self.status[site] == "down":
            return
        self.status[site] = "down"
        self.transport.mark_down(site)
        old = self.shards[site]
        if self._log_active:
            self._archived_logs.append((site, old.led.stop_detection_log()))
        fresh = GedShard(site)
        fresh.owned = list(old.owned)
        self.shards[site] = fresh
        self.failures += 1

    def recover_site(self, site: str) -> SiteRecovery:
        """Bring a failed site back: repair, rebuild, replay its partition.

        Composes with the agent's own crash recovery (``agent.recover()``
        repairs torn notification writes at the site), then rebuilds
        only this site's partition of the global graph and replays the
        journal entries its composites subscribe to, in gseq order.
        Replayed IMMEDIATE firings are suppressed and IMMEDIATE-only
        composites are reset afterwards (cleanly discarded); DEFERRED
        detections re-queue and complete at the next
        :meth:`flush_deferred` — never firing twice (:attr:`deduped`).
        """
        agent = self._site_agent(site)
        if self.status[site] != "down":
            raise ConfigurationError(f"site '{site}' is not down")
        recover = getattr(agent, "recover", None)
        agent_repair = recover() if callable(recover) else {}
        self.transport.mark_up(site)
        self.status[site] = "up"
        owned = [c for c in self._composite_order if self.owner_of(c) == site]
        replayed, discarded = self._rebuild_shard(
            site, owned, replay=True, discard_immediate=True)
        rearmed = tuple(c for c in owned if c not in discarded)
        return SiteRecovery(site=site, agent_repair=agent_repair,
                            replayed=replayed, rearmed=rearmed,
                            discarded=tuple(discarded))

    # ------------------------------------------------------------------
    # rebalancing

    def rebalance(self, max_ratio: float = 1.5) -> list[tuple[str, str | None, str]]:
        """Skew-aware rebalancing of composite classes across sites.

        Classes are weighted by observed routed traffic on their leaves
        (plus one, so idle classes still count).  While the most loaded
        site exceeds ``max_ratio`` times the mean load, its heaviest
        movable class is pinned to the least loaded site.  Changed
        shards are rebuilt through the journal-replay machinery, so
        in-flight partial detections survive the move.  Returns the
        ``(class, old_owner, new_owner)`` moves applied.
        """
        if not self.sharded or not self.composites or not self.sites:
            return []
        tally = TallyCounter(entry.name for entry in self.journal)
        weight = {
            name: 1 + sum(tally[leaf] for leaf in spec.leaves)
            for name, spec in self.composites.items()
        }
        load = {site: 0 for site in self.sites}
        owned: dict[str, list[str]] = {site: [] for site in self.sites}
        for comp in self._composite_order:
            site = self.owner_of(comp)
            load[site] += weight[comp]
            owned[site].append(comp)
        for _ in range(8 * len(self.composites) + 8):
            mean = sum(load.values()) / len(load)
            hi = max(sorted(load), key=lambda s: load[s])
            lo = min(sorted(load), key=lambda s: load[s])
            if load[hi] <= max_ratio * max(mean, 1.0) or len(owned[hi]) <= 1:
                break
            movable = sorted(owned[hi], key=lambda c: (-weight[c], c))
            comp = next((c for c in movable
                         if load[lo] + weight[c] < load[hi]), None)
            if comp is None:
                break
            owned[hi].remove(comp)
            owned[lo].append(comp)
            load[hi] -= weight[comp]
            load[lo] += weight[comp]
            self.ring.pin(comp, lo)
        return self._apply_assignment()

    def _apply_assignment(self, replay: bool = True) -> list[tuple[str, str | None, str]]:
        """Rebuild every shard whose owned set changed; return the moves."""
        old_owner: dict[str, str] = {}
        for site, shard in self.shards.items():
            for comp in shard.owned:
                old_owner[comp] = site
        new_owned: dict[str, list[str]] = {site: [] for site in self.sites}
        for comp in self._composite_order:
            new_owned[self.owner_of(comp)].append(comp)
        moves = [(comp, old_owner.get(comp), site)
                 for site, comps in new_owned.items()
                 for comp in comps if old_owner.get(comp) != site]
        for site in sorted(self.sites):
            if self.shards[site].owned != new_owned[site]:
                self._rebuild_shard(site, new_owned[site], replay=replay)
        return moves

    # ------------------------------------------------------------------
    # shard construction and replay

    def _install_composite(self, shard: GedShard, spec: _CompositeSpec) -> None:
        for leaf in spec.leaves:
            if not shard.led.has_event(leaf):
                shard.led.define_remote(leaf, self.imports[leaf].site)
        shard.led.define_composite(spec.name, spec.ast)
        for rule_name in self._rule_order:
            rule = self.rules[rule_name]
            if rule.event_name == spec.name:
                shard.led.add_rule(rule.name, spec.name,
                                   self._action_for(rule),
                                   context=rule.context,
                                   coupling=rule.coupling,
                                   priority=rule.priority)

    def _rebuild_shard(self, site: str, owned: list[str], replay: bool,
                       discard_immediate: bool = False
                       ) -> tuple[int, list[str]]:
        old = self.shards.get(site)
        if old is not None and self._log_active:
            self._archived_logs.append((site, old.led.stop_detection_log()))
        shard = GedShard(site)
        shard.owned = list(owned)
        self.shards[site] = shard
        if self._log_active:
            shard.led.start_detection_log()
        for comp in owned:
            self._install_composite(shard, self.composites[comp])
        if not replay:
            return 0, []
        return self._replay_into(site, shard, discard_immediate)

    def _replay_into(self, site: str, shard: GedShard,
                     discard_immediate: bool) -> tuple[int, list[str]]:
        subscribed = {leaf for comp in shard.owned
                      for leaf in self.composites[comp].leaves}
        count = 0
        if subscribed:
            self._replaying_site = site
            try:
                with self.trace.span(SPAN_GED_REPLAY, site):
                    for entry in self.journal:
                        if entry.name in subscribed:
                            shard.led.raise_remote(entry.name, entry.occurrence)
                            count += 1
            finally:
                self._replaying_site = None
        self.replayed_by_site[site] += count
        if self._m_replayed is not None:
            self._m_replayed.labels(site).inc(count)
        # After a *crash*, the transactional context of the earlier
        # constituents is gone, so an IMMEDIATE-only composite cannot
        # fire for them without violating its coupling: reset the
        # re-armed partial state (cleanly discarded).  A *planned* move
        # (remove_site / rebalance) lost nothing — partial state
        # survives the migration.
        discarded: list[str] = []
        if not discard_immediate:
            return count, discarded
        for comp in shard.owned:
            comp_rules = [self.rules[n] for n in self._rule_order
                          if self.rules[n].event_name == comp]
            if comp_rules and all(r.coupling is Coupling.IMMEDIATE
                                  for r in comp_rules):
                self._reset_subtree(shard.led.get_event(comp))
                discarded.append(comp)
        return count, discarded

    @staticmethod
    def _reset_subtree(node) -> None:
        """Reset an event node and its whole operator subtree (anonymous
        inner nodes hold state too; shared leaves are stateless)."""
        node.reset()
        for child in node.children():
            ShardedGed._reset_subtree(child)

    # ------------------------------------------------------------------
    # rule execution

    def _action_for(self, rule: GedRule):
        """The LED action wrapper for a global rule: dedup across replay,
        suppress replayed IMMEDIATE firings, record the firing."""
        def run(occurrence: Occurrence, _rule=rule) -> None:
            key = (_rule.name, tuple((o.event_name, o.seq)
                                     for o in occurrence.flatten()))
            if key in self._fired:
                self.deduped += 1
                return
            if self._replaying_site is not None \
                    and _rule.coupling is Coupling.IMMEDIATE:
                self.suppressed += 1
                return
            self._fired.add(key)
            site = self.owner_of(_rule.event_name)
            self.fired_by_site[site] += 1
            if self._m_fired is not None:
                self._m_fired.labels(site).inc()
            self.firings.append(GedFiring(
                rule_name=_rule.name, event_name=_rule.event_name,
                occurrence=occurrence, context=_rule.context,
                coupling=_rule.coupling, site=site,
                replayed=self._replaying_site is not None))
            if _rule.action is not None:
                _rule.action(occurrence)
        return run

    # ------------------------------------------------------------------
    # observation surfaces

    def start_detection_logs(self) -> None:
        """Begin recording per-shard detection logs (difftest harness)."""
        self._log_active = True
        self._archived_logs = []
        for shard in self.shards.values():
            shard.led.start_detection_log()

    def stop_detection_logs(self) -> list[tuple[str, list]]:
        """Stop recording; return ``(site, log)`` pairs, archived logs
        from rebuilt/failed shards first, then live shards in site order."""
        self._log_active = False
        logs = list(self._archived_logs)
        self._archived_logs = []
        for site in sorted(self.shards):
            logs.append((site, self.shards[site].led.stop_detection_log()))
        return logs

    def site_rows(self) -> list[tuple]:
        """Per-site status rows backing ``show agent sites``."""
        rows = []
        pmap = self.partition_map() if self.sites else {}
        for site in sorted(self.sites):
            homed = sum(1 for spec in self.imports.values()
                        if spec.site == site)
            rows.append((
                site,
                self.status[site],
                len(self.shards[site].owned),
                homed,
                len(pmap.get(site, ())),
                self.routed_by_site.get(site, 0),
                self.replayed_by_site.get(site, 0),
            ))
        return rows

    def close(self) -> None:
        """Drop the forwarding rules installed on the home-site LEDs."""
        for name, (site, rule_name) in list(self._forward_rules.items()):
            agent = self.sites.get(site)
            if agent is None:
                continue
            try:
                agent.led.drop_rule(rule_name)
            except Exception:
                pass
        self._forward_rules.clear()

    # ------------------------------------------------------------------

    def _site_agent(self, site: str):
        agent = self.sites.get(site)
        if agent is None:
            raise ConfigurationError(f"site '{site}' is not registered")
        return agent
