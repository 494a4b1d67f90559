"""E-EXT2: the Global Event Detector across two site agents (the
single-coordinator shape of :class:`~repro.ged.ShardedGed`)."""

import pytest

from repro.agent import EcaAgent
from repro.errors import ConfigurationError
from repro.ged import ShardedGed
from repro.sqlengine import SqlServer


@pytest.fixture
def sites():
    """Two independent servers+agents (e.g. two branch databases)."""
    stack = []
    for name in ("east", "west"):
        server = SqlServer(default_database=f"{name}db")
        agent = EcaAgent(server)
        conn = agent.connect(user="ops", database=f"{name}db")
        conn.execute("create table trades (symbol varchar(10), qty int)")
        conn.execute(
            "create trigger t_trade on trades for insert event newTrade "
            "as print 'trade'")
        stack.append((server, agent, conn))
    yield stack
    for _server, agent, _conn in stack:
        agent.close()


@pytest.fixture
def ged(sites):
    detector = ShardedGed(sharded=False)
    detector.add_site("east", sites[0][1])
    detector.add_site("west", sites[1][1])
    return detector


class TestImports:
    def test_import_defines_global_primitive(self, ged):
        name = ged.import_event("east", "eastdb.ops.newTrade")
        assert name == "eastdb.ops.newTrade::east"
        assert name in ged.imports
        ged.define_global_event("again", f"{name} OR {name}")
        assert ged.shards["east"].led.has_event(name)

    def test_import_is_idempotent(self, ged):
        first = ged.import_event("east", "eastdb.ops.newTrade")
        second = ged.import_event("east", "eastdb.ops.newTrade")
        assert first == second

    def test_unknown_site_rejected(self, ged):
        with pytest.raises(ConfigurationError):
            ged.import_event("north", "x.y.z")

    def test_duplicate_site_rejected(self, ged, sites):
        with pytest.raises(ConfigurationError):
            ged.add_site("east", sites[0][1])


class TestGlobalDetection:
    def test_cross_site_and(self, ged, sites):
        east = ged.import_event("east", "eastdb.ops.newTrade")
        west = ged.import_event("west", "westdb.ops.newTrade")
        ged.define_global_event("bothCoasts", f"{east} AND {west}")
        hits = []
        ged.add_global_rule("gr", "bothCoasts",
                            action=lambda occ: hits.append(occ))
        sites[0][2].execute("insert trades values ('IBM', 10)")
        assert hits == []
        sites[1][2].execute("insert trades values ('IBM', 20)")
        assert len(hits) == 1
        assert set(hits[0].constituent_names()) == {east, west}

    def test_cross_site_sequence_order_matters(self, ged, sites):
        east = ged.import_event("east", "eastdb.ops.newTrade")
        west = ged.import_event("west", "westdb.ops.newTrade")
        ged.define_global_event("westThenEast", f"{west} SEQ {east}")
        hits = []
        ged.add_global_rule("gr", "westThenEast",
                            action=lambda occ: hits.append(occ))
        sites[0][2].execute("insert trades values ('A', 1)")  # east first
        sites[1][2].execute("insert trades values ('B', 2)")  # then west
        assert hits == []
        sites[0][2].execute("insert trades values ('C', 3)")  # east again
        assert len(hits) == 1

    def test_site_params_forwarded(self, ged, sites):
        east = ged.import_event("east", "eastdb.ops.newTrade")
        ged.define_global_event("justEast", f"{east} OR {east}")
        seen = []
        ged.add_global_rule(
            "gr", "justEast",
            action=lambda occ: seen.append(occ.flatten()[0].params))
        sites[0][2].execute("insert trades values ('IBM', 10)")
        assert seen
        assert seen[0]["site"] == "east"
        assert seen[0]["vNo"] == 1

    def test_global_sql_action_runs_at_target_site(self, ged, sites):
        east = ged.import_event("east", "eastdb.ops.newTrade")
        west = ged.import_event("west", "westdb.ops.newTrade")
        ged.define_global_event("both", f"{east} AND {west}")
        sites[1][2].execute("create table dbo.alerts (msg varchar(30))")
        west_agent = sites[1][1]
        ged.add_global_rule(
            "gr", "both",
            action=lambda occ: west_agent.persistent_manager.execute(
                west_agent.server.default_database,
                "insert westdb.dbo.alerts values ('cross-site event')"))
        sites[0][2].execute("insert trades values ('A', 1)")
        sites[1][2].execute("insert trades values ('B', 2)")
        rows = sites[1][2].execute("select * from dbo.alerts").last.rows
        assert rows == [("cross-site event",)]
        assert len(ged.firings) == 1

    def test_rule_requires_a_global_composite(self, ged, sites):
        # An action is optional (the firing is recorded either way);
        # the event must be a defined global composite.
        east = ged.import_event("east", "eastdb.ops.newTrade")
        ged.define_global_event("ge", f"{east} OR {east}")
        ged.add_global_rule("recorded", "ge")
        sites[0][2].execute("insert trades values ('A', 1)")
        assert [f.rule_name for f in ged.firings] == ["recorded"]
        with pytest.raises(ConfigurationError):
            ged.add_global_rule("bad", east)
        with pytest.raises(ConfigurationError):
            ged.add_global_rule("bad", "noSuchEvent")
