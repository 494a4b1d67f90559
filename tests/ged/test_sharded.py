"""The sharded GED: routing, detection, equivalence, observability.

Most tests run on duck-typed stand-in sites (a bare LED plus a
``recover()``) because :class:`~repro.ged.ShardedGed` only contracts for
``.led``; the trace and admin tests use real agents to prove the full
path — trigger, forwarding rule, ``;tc=`` trailer, router, shard — is
one connected pipeline.
"""

from types import SimpleNamespace

import pytest

from repro.agent import EcaAgent
from repro.errors import ConfigurationError
from repro.ged import (
    GedFiring,
    ShardedGed,
    TransportError,
    qualified_name,
)
from repro.ged.sharded import FORWARD_RULE_PREFIX
from repro.led import Context, Coupling, LocalEventDetector
from repro.obs import MetricsRegistry
from repro.obs.tracing import (
    SPAN_GED_ROUTE,
    SPAN_GED_SHARD,
    PipelineTrace,
)
from repro.sqlengine import SqlServer


def make_site(*events):
    """A duck-typed site: bare LED with the given primitives defined."""
    led = LocalEventDetector()
    for event in events:
        led.define_primitive(event)
    return SimpleNamespace(led=led, trace=None,
                           recover=lambda: {"stand_in": True})


@pytest.fixture
def pair():
    """A 2-site sharded GED with one primitive imported per site."""
    ged = ShardedGed()
    a, b = make_site("e1"), make_site("e2")
    ged.add_site("alpha", a)
    ged.add_site("beta", b)
    qa = ged.import_event("alpha", "e1")
    qb = ged.import_event("beta", "e2")
    return ged, a, b, qa, qb


class TestRouting:
    def test_qualified_names(self, pair):
        _ged, _a, _b, qa, qb = pair
        assert qa == qualified_name("alpha", "e1") == "e1::alpha"
        assert qb == "e2::beta"

    def test_journal_gseq_is_a_total_order(self, pair):
        ged, a, b, _qa, _qb = pair
        a.led.raise_event("e1", {"vNo": 1})
        b.led.raise_event("e2", {"vNo": 1})
        a.led.raise_event("e1", {"vNo": 2})
        assert [e.gseq for e in ged.journal] == [1, 2, 3]
        assert [e.site for e in ged.journal] == ["alpha", "beta", "alpha"]
        # The occurrence's interval IS the gseq, at every shard.
        assert all(e.occurrence.seq == e.gseq for e in ged.journal)

    def test_forward_rule_installed_and_dropped(self, pair):
        ged, a, _b, qa, _qb = pair
        rule_name = f"{FORWARD_RULE_PREFIX}{qa}"
        assert any(r.name == rule_name for r in a.led.rules_for("e1"))
        ged.close()
        assert not any(r.name == rule_name for r in a.led.rules_for("e1"))

    def test_spoofed_origin_rejected(self, pair):
        ged, _a, _b, qa, _qb = pair
        with pytest.raises(TransportError):
            ged.transport.send(
                "beta", f"- - - begin {qa} 1")

    def test_unknown_event_rejected(self, pair):
        ged, _a, _b, _qa, _qb = pair
        with pytest.raises(TransportError):
            ged.transport.send("alpha", "- - - begin ghost::alpha 1")

    def test_import_requires_defined_event(self, pair):
        ged, _a, _b, _qa, _qb = pair
        with pytest.raises(ConfigurationError):
            ged.import_event("alpha", "missing")

    def test_per_site_metrics(self):
        metrics = MetricsRegistry()
        metrics.enabled = True
        ged = ShardedGed(metrics=metrics)
        site = make_site("e1", "e2")
        ged.add_site("solo", site)
        ged.import_event("solo", "e1")
        ged.import_event("solo", "e2")
        ged.define_global_event("G", "(e1::solo OR e2::solo)")
        ged.add_global_rule("r", "G", context=Context.RECENT,
                            coupling=Coupling.IMMEDIATE)
        site.led.raise_event("e1", {"vNo": 1})
        routed = {labels["site"]: m.value() for labels, m
                  in metrics.get("ged_routed_total").children()}
        fired = {labels["site"]: m.value() for labels, m
                 in metrics.get("ged_rules_fired_total").children()}
        assert routed["solo"] == 1
        assert fired["solo"] == 1


class TestDetection:
    def test_cross_site_seq(self, pair):
        ged, a, b, qa, qb = pair
        fired = []
        ged.define_global_event("G", f"({qa} SEQ {qb})")
        ged.add_global_rule("r_seq", "G", fired.append,
                            context=Context.RECENT,
                            coupling=Coupling.IMMEDIATE)
        a.led.raise_event("e1", {"vNo": 1})
        assert fired == []
        b.led.raise_event("e2", {"vNo": 1})
        assert len(fired) == 1
        leaves = [(o.event_name, o.seq) for o in fired[0].flatten()]
        assert leaves == [(qa, 1), (qb, 2)]
        record = ged.firings[0]
        assert isinstance(record, GedFiring)
        assert record.event_name == "G"
        assert record.site == ged.owner_of("G")
        assert not record.replayed

    def test_rule_without_action_still_recorded(self, pair):
        ged, a, _b, qa, qb = pair
        ged.define_global_event("Solo", f"({qa} OR {qb})")
        ged.add_global_rule("r_solo", "Solo")
        a.led.raise_event("e1", {"vNo": 1})
        assert [f.rule_name for f in ged.firings] == ["r_solo"]

    def test_deferred_coupling_waits_for_flush(self, pair):
        ged, a, b, qa, qb = pair
        ged.define_global_event("G", f"({qa} SEQ {qb})")
        ged.add_global_rule("r_def", "G", context=Context.RECENT,
                            coupling=Coupling.DEFERRED)
        a.led.raise_event("e1", {"vNo": 1})
        b.led.raise_event("e2", {"vNo": 1})
        assert ged.firings == []
        flushed = ged.flush_deferred()
        assert [f.rule_name for f in flushed] == ["r_def"]
        assert ged.flush_deferred() == []

    def test_no_global_event_reuse(self, pair):
        ged, _a, _b, qa, qb = pair
        ged.define_global_event("G", f"({qa} SEQ {qb})")
        with pytest.raises(ConfigurationError):
            ged.define_global_event("H", f"(G AND {qa})")

    def test_leaves_must_be_imported(self, pair):
        ged, _a, _b, qa, _qb = pair
        with pytest.raises(ConfigurationError):
            ged.define_global_event("G", f"({qa} SEQ e9::beta)")

    def test_sharded_equals_single_coordinator(self):
        """The sharding-invisibility contract on a small workload."""
        def build(sharded):
            ged = ShardedGed(sharded=sharded)
            sites = {name: make_site("e1", "e2")
                     for name in ("s0", "s1", "s2")}
            for name, agent in sites.items():
                ged.add_site(name, agent)
            names = []
            for name in sites:
                for event in ("e1", "e2"):
                    names.append(ged.import_event(name, event))
            ged.define_global_event(
                "G0", f"({names[0]} SEQ {names[3]})")
            ged.define_global_event(
                "G1", f"({names[1]} AND {names[4]})", owner=None)
            ged.add_global_rule("r0", "G0", context=Context.CHRONICLE,
                                coupling=Coupling.IMMEDIATE)
            ged.add_global_rule("r1", "G1", context=Context.CUMULATIVE,
                                coupling=Coupling.DEFERRED)
            stream = [("s0", "e1"), ("s1", "e2"), ("s1", "e1"),
                      ("s2", "e2"), ("s0", "e2"), ("s1", "e2")]
            for site, event in stream:
                sites[site].led.raise_event(event, {"vNo": 1})
                ged.flush_deferred()
            return [(f.rule_name, f.event_name,
                     tuple((o.event_name, o.seq)
                           for o in f.occurrence.flatten()))
                    for f in ged.firings]

        assert build(sharded=True) == build(sharded=False)
        # ... while the two shapes partition differently: the sharded
        # ring spreads classes, the coordinator owns everything.


class TestMembership:
    def test_remove_site_refused_while_homing_imports(self, pair):
        ged, _a, _b, _qa, _qb = pair
        with pytest.raises(ConfigurationError) as excinfo:
            ged.remove_site("alpha")
        assert "homes imported events" in str(excinfo.value)

    def test_remove_unused_site_migrates_classes(self, pair):
        ged, a, b, qa, qb = pair
        ged.add_site("gamma", make_site())
        ged.define_global_event("G", f"({qa} SEQ {qb})", owner="gamma")
        ged.add_global_rule("r", "G", context=Context.RECENT,
                            coupling=Coupling.IMMEDIATE)
        assert ged.owner_of("G") == "gamma"
        a.led.raise_event("e1", {"vNo": 1})  # half-detected on gamma
        moves = ged.remove_site("gamma")
        assert ("G", "gamma", ged.owner_of("G")) in moves
        assert ged.owner_of("G") != "gamma"
        # The journal replay carried the partial state across the move.
        b.led.raise_event("e2", {"vNo": 1})
        assert [f.rule_name for f in ged.firings] == ["r"]

    def test_owner_pin_overrides_ring(self, pair):
        ged, _a, _b, qa, qb = pair
        ged.define_global_event("G", f"({qa} AND {qb})", owner="beta")
        assert ged.owner_of("G") == "beta"
        assert "G" in ged.partition_map()["beta"]

    def test_duplicate_site_rejected(self, pair):
        ged, a, _b, _qa, _qb = pair
        with pytest.raises(ConfigurationError):
            ged.add_site("alpha", a)

    def test_agent_backref_set_and_cleared(self, pair):
        ged, a, b, _qa, _qb = pair
        extra = make_site()
        ged.add_site("gamma", extra)
        assert extra.ged_sites == (ged, "gamma")
        ged.remove_site("gamma")
        assert extra.ged_sites is None
        assert a.ged_sites == (ged, "alpha")


class TestRebalance:
    def test_skew_moves_heavy_classes(self):
        ged = ShardedGed()
        sites = {name: make_site("e1", "e2") for name in ("s0", "s1", "s2")}
        for name, agent in sites.items():
            ged.add_site(name, agent)
            ged.import_event(name, "e1")
            ged.import_event(name, "e2")
        # Pin every composite onto one site to manufacture skew.
        for index, site in enumerate(sorted(sites)):
            ged.define_global_event(
                f"G{index}", f"(e1::{site} OR e2::{site})", owner="s0")
            ged.add_global_rule(f"r{index}", f"G{index}",
                                context=Context.RECENT,
                                coupling=Coupling.IMMEDIATE)
        for _ in range(5):
            sites["s0"].led.raise_event("e1", {"vNo": 1})
            sites["s1"].led.raise_event("e1", {"vNo": 1})
        before = {s: len(v) for s, v in ged.partition_map().items()
                  if s.startswith("s")}
        moves = ged.rebalance(max_ratio=1.2)
        assert moves, f"expected moves off the overloaded site: {before}"
        owners = {ged.owner_of(f"G{i}") for i in range(3)}
        assert len(owners) > 1
        # Firing behaviour is unchanged after the moves.
        sites["s1"].led.raise_event("e1", {"vNo": 9})
        assert any(occ.params.get("vNo") == 9
                   for f in ged.firings
                   for occ in f.occurrence.flatten())

    def test_balanced_ged_is_a_noop(self, pair):
        ged, a, _b, qa, qb = pair
        ged.define_global_event("G", f"({qa} OR {qb})")
        ged.add_global_rule("r", "G", context=Context.RECENT,
                            coupling=Coupling.IMMEDIATE)
        a.led.raise_event("e1", {"vNo": 1})
        assert ged.rebalance() == []


class TestObservability:
    def _real_pair(self):
        """Two real agents with an insert trigger each, joined to a GED
        that shares the first agent's trace (one span store)."""
        agents = {}
        conns = {}
        for site in ("nyc", "tokyo"):
            server = SqlServer(default_database="ops")
            agent = EcaAgent(server, channel="sync")
            conn = agent.connect(user="sre", database="ops")
            conn.execute("create table audit_log (entry varchar(20))")
            conn.execute(
                "create trigger t_audit on audit_log for insert "
                "event auditRow as print 'row'")
            agents[site], conns[site] = agent, conn
        nyc, tokyo = agents["nyc"], agents["tokyo"]
        trace = nyc.trace
        trace.enabled = True
        # tokyo records into nyc's event log: the log, its views and the
        # ambient nesting state it owns are borrowed together
        tokyo.events = tokyo.notifier.events = nyc.events
        tokyo.trace, tokyo.journal = trace, nyc.journal
        tokyo.ambient = nyc.ambient
        tokyo.led.attach_observability(tokyo.metrics, trace, nyc.journal)
        ged = ShardedGed(trace=trace)
        for site, agent in agents.items():
            ged.add_site(site, agent)
            ged.import_event(site, "ops.sre.auditRow")
        return ged, agents, conns, trace

    def test_trace_context_survives_the_datagram(self):
        """A cross-site detection is ONE connected trace tree: the
        sender's command root, the ``ged:route`` span re-activated from
        the ``;tc=`` trailer, and the ``ged:shard`` delivery under it."""
        ged, agents, conns, trace = self._real_pair()
        try:
            ged.define_global_event(
                "G", "(ops.sre.auditRow::nyc SEQ ops.sre.auditRow::tokyo)")
            ged.add_global_rule("r", "G", context=Context.RECENT,
                                coupling=Coupling.IMMEDIATE)
            conns["nyc"].execute("insert audit_log values ('a')")
            conns["tokyo"].execute("insert audit_log values ('b')")
            assert [f.rule_name for f in ged.firings] == ["r"]
            route_spans = [s for trace_id in trace.trace_ids()
                           for s in trace.spans_for(trace_id)
                           if s.step == SPAN_GED_ROUTE]
            assert {s.detail for s in route_spans} == {"nyc", "tokyo"}
            for span in route_spans:
                siblings = trace.spans_for(span.trace_id)
                # Connected: the route span has a parent inside the
                # same trace (the sending command's span), and the
                # shard delivery hangs beneath it.
                assert span.parent is not None
                assert any(s.seq == span.parent for s in siblings)
                assert any(s.step == SPAN_GED_SHARD
                           and s.parent == span.seq for s in siblings)
        finally:
            ged.close()
            for agent in agents.values():
                agent.close()

    def test_show_agent_sites_through_the_language_filter(self):
        ged, agents, conns, _trace = self._real_pair()
        try:
            conns["nyc"].execute("insert audit_log values ('a')")
            result = conns["tokyo"].execute("show agent sites")
            rows, totals = result.result_sets
            by_site = {row[0]: row for row in rows.rows}
            assert set(by_site) == {"nyc", "tokyo"}
            assert by_site["nyc"][rows.columns.index("status")] == "up"
            assert by_site["nyc"][rows.columns.index("routed")] == 1
            stats = dict(totals.rows)
            assert stats["this_site"] == "tokyo"
            assert stats["journal_entries"] == 1
        finally:
            ged.close()
            for agent in agents.values():
                agent.close()

    def test_show_agent_sites_without_membership_errors(self):
        server = SqlServer(default_database="ops")
        agent = EcaAgent(server, channel="sync")
        conn = agent.connect(user="sre", database="ops")
        try:
            result = conn.execute("show agent sites")
            assert "not part of a sharded GED" in str(
                result.result_sets[0].rows[0])
        finally:
            agent.close()

    def test_site_rows_shape(self, pair):
        ged, a, _b, _qa, _qb = pair
        a.led.raise_event("e1", {"vNo": 1})
        rows = ged.site_rows()
        assert [row[0] for row in rows] == ["alpha", "beta"]
        alpha = rows[0]
        assert alpha[1] == "up"
        assert alpha[5] == 1  # routed

    def test_detection_logs_cover_archived_shards(self, pair):
        ged, a, b, qa, qb = pair
        ged.define_global_event("G", f"({qa} SEQ {qb})")
        ged.add_global_rule("r", "G", context=Context.RECENT,
                            coupling=Coupling.IMMEDIATE)
        ged.start_detection_logs()
        owner = ged.owner_of("G")
        a.led.raise_event("e1", {"vNo": 1})
        ged.fail_site(owner)
        ged.recover_site(owner)
        b.led.raise_event("e2", {"vNo": 1})
        logs = ged.stop_detection_logs()
        sites = [site for site, _log in logs]
        # Archived (pre-failure) log first, then the live shards.
        assert sites.count(owner) >= 2


def test_disabled_trace_by_default(pair):
    ged, a, _b, _qa, _qb = pair
    assert isinstance(ged.trace, PipelineTrace)
    assert not ged.trace.enabled
    a.led.raise_event("e1", {"vNo": 1})  # must not record or raise
    assert ged.trace.trace_count() == 0
