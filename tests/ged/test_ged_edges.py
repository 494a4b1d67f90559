"""GED edge cases: contexts, temporal operators, and mixed rule kinds."""

import pytest

from repro.agent import EcaAgent
from repro.ged import ShardedGed
from repro.led import Context, ManualClock
from repro.sqlengine import SqlServer


@pytest.fixture
def site():
    server = SqlServer(default_database="sitedb")
    agent = EcaAgent(server)
    conn = agent.connect(user="ops", database="sitedb")
    conn.execute("create table events_t (n int)")
    conn.execute(
        "create trigger tr on events_t for insert event localEv "
        "as print 'local'")
    yield agent, conn
    agent.close()


class TestGedContexts:
    def test_chronicle_pairs_in_order(self, site):
        agent, conn = site
        ged = ShardedGed()
        ged.add_site("s", agent)
        imported = ged.import_event("s", "sitedb.ops.localEv")
        ged.define_global_event("pair", f"{imported} AND {imported}")
        hits = []
        ged.add_global_rule("gr", "pair", action=hits.append,
                            context=Context.CHRONICLE)
        conn.execute("insert events_t values (1)")
        # Same event feeds both AND roles: each occurrence completes one.
        assert len(hits) >= 1

    def test_global_temporal_operator(self, site):
        agent, conn = site
        ged = ShardedGed()
        ged.add_site("s", agent)
        led = ged.shards["s"].led
        assert isinstance(led.clock, ManualClock)
        imported = ged.import_event("s", "sitedb.ops.localEv")
        ged.define_global_event("late", f"{imported} PLUS [60 sec]")
        hits = []
        ged.add_global_rule("gr", "late", action=hits.append)
        conn.execute("insert events_t values (1)")
        led.advance_time(59)
        assert hits == []
        led.advance_time(2)
        assert len(hits) == 1

    def test_local_rules_keep_firing_alongside_export(self, site):
        agent, conn = site
        ged = ShardedGed()
        ged.add_site("s", agent)
        ged.import_event("s", "sitedb.ops.localEv")
        result = conn.execute("insert events_t values (1)")
        assert "local" in result.messages  # the site's own rule still runs

    def test_constituents_params_preserved_through_forwarding(self, site):
        agent, conn = site
        ged = ShardedGed()
        ged.add_site("s", agent)
        imported = ged.import_event("s", "sitedb.ops.localEv")
        ged.define_global_event("g", f"{imported} OR {imported}")
        seen = []
        ged.add_global_rule(
            "gr", "g", action=lambda occ: seen.append(occ.flatten()[0].params))
        conn.execute("insert events_t values (1)")
        params = seen[0]
        assert params["table"] == "events_t"
        assert params["operation"] == "insert"
        assert params["vNo"] == 1
        assert params["snapshot_tables"] == {
            "inserted": "sitedb.ops.events_t_inserted"}
