"""Multi-database operation: the reason internal names exist (Section 5.1).

One agent mediates a server with several databases and several users;
identically named events in different databases (or owned by different
users) must never collide, and recovery must restore all of them.
"""

import pytest

from repro.agent import EcaAgent
from repro.agent.errors import NameError_


@pytest.fixture
def multi(server, agent):
    server.catalog.create_database("tradingdb")
    east = agent.connect(user="sharma", database="sentineldb")
    west = agent.connect(user="sharma", database="tradingdb")
    for conn in (east, west):
        conn.execute(
            "create table stock (symbol varchar(10), price float)")
    return east, west


class TestCrossDatabaseIsolation:
    def test_same_short_event_name_in_two_databases(self, multi, agent):
        east, west = multi
        east.execute(
            "create trigger t1 on stock for insert event addStk "
            "as print 'east add'")
        west.execute(
            "create trigger t1 on stock for insert event addStk "
            "as print 'west add'")
        assert agent.led.has_event("sentineldb.sharma.addStk")
        assert agent.led.has_event("tradingdb.sharma.addStk")
        east_result = east.execute("insert stock values ('A', 1.0)")
        assert east_result.messages == ["east add"]
        west_result = west.execute("insert stock values ('B', 2.0)")
        assert west_result.messages == ["west add"]

    def test_same_event_name_different_users(self, server, agent):
        alice = agent.connect(user="alice", database="sentineldb")
        bob = agent.connect(user="bob", database="sentineldb")
        alice.execute("create table mine (a int)")
        bob.execute("create table mine (a int)")
        alice.execute(
            "create trigger t on mine for insert event ev as print 'alice'")
        bob.execute(
            "create trigger t on mine for insert event ev as print 'bob'")
        assert alice.execute("insert mine values (1)").messages == ["alice"]
        assert bob.execute("insert mine values (1)").messages == ["bob"]

    def test_qualified_reference_across_users(self, server, agent):
        alice = agent.connect(user="alice", database="sentineldb")
        bob = agent.connect(user="bob", database="sentineldb")
        alice.execute("create table t1 (a int)")
        alice.execute(
            "create trigger t on t1 for insert event sharedEv as print 'a'")
        # Bob attaches a rule to *alice's* event by qualifying the name.
        bob.execute(
            "create trigger t_bob event alice.sharedEv as print 'bob too'")
        result = alice.execute("insert t1 values (1)")
        assert "a" in result.messages and "bob too" in result.messages

    def test_composite_spanning_databases(self, multi, agent):
        east, west = multi
        east.execute(
            "create trigger te on stock for insert event eastIns as print 'e'")
        west.execute(
            "create trigger tw on stock for insert event westIns as print 'w'")
        # Fully qualified constituents let one composite span databases.
        east.execute(
            "create trigger tboth event bothSides = "
            "sentineldb.sharma.eastIns AND tradingdb.sharma.westIns "
            "as print 'both coasts'")
        east.execute("insert stock values ('A', 1.0)")
        result = west.execute("insert stock values ('B', 2.0)")
        assert "both coasts" in result.messages

    def test_use_switches_eca_scope(self, multi, agent):
        east, _west = multi
        east.execute(
            "create trigger t1 on stock for insert event ev1 as print 'sent'")
        east.execute("use tradingdb")
        east.execute(
            "create trigger t2 on stock for insert event ev2 as print 'trad'")
        assert agent.led.has_event("tradingdb.sharma.ev2")
        result = east.execute("insert stock values ('X', 1.0)")
        assert result.messages == ["trad"]

    def test_drop_respects_database_scope(self, multi, agent):
        east, west = multi
        east.execute(
            "create trigger t1 on stock for insert event ev as print 'e'")
        west.execute(
            "create trigger t1 on stock for insert event ev as print 'w'")
        east.execute("drop trigger t1")
        east.execute("drop event ev")
        # West's identically named objects are untouched.
        assert "tradingdb.sharma.t1" in agent.eca_triggers
        assert west.execute("insert stock values ('B', 2.0)").messages == ["w"]

    def test_cross_database_drop_requires_qualification(self, multi, agent):
        east, west = multi
        west.execute(
            "create trigger only_west on stock for insert event ev "
            "as print 'w'")
        # Unqualified, the drop falls through to the engine in the
        # session's database and fails there.
        from repro.sqlengine import CatalogError

        with pytest.raises(CatalogError):
            east.execute("drop trigger only_west")
        east.execute("drop trigger tradingdb.sharma.only_west")
        assert agent.eca_triggers == {}


class TestMultiDatabaseRecovery:
    def test_recovery_restores_every_database(self, server, agent, multi):
        east, west = multi
        east.execute(
            "create trigger t1 on stock for insert event ev as print 'e'")
        west.execute(
            "create trigger t1 on stock for insert event ev as print 'w'")
        agent.close()
        restarted = EcaAgent(server)
        assert len(restarted.primitive_events) == 2
        assert len(restarted.eca_triggers) == 2
        east2 = restarted.connect(user="sharma", database="sentineldb")
        west2 = restarted.connect(user="sharma", database="tradingdb")
        assert east2.execute("insert stock values ('A', 1.0)").messages == ["e"]
        assert west2.execute("insert stock values ('B', 2.0)").messages == ["w"]
        restarted.close()

    def test_system_tables_are_per_database(self, server, agent, multi):
        east, west = multi
        east.execute(
            "create trigger t1 on stock for insert event ev as print 'e'")
        west.execute(
            "create trigger t1 on stock for insert event ev as print 'w'")
        pm = agent.persistent_manager
        east_rows = pm.execute(
            "sentineldb", "select dbName from SysPrimitiveEvent").last.rows
        west_rows = pm.execute(
            "tradingdb", "select dbName from SysPrimitiveEvent").last.rows
        assert east_rows == [("sentineldb",)]
        assert west_rows == [("tradingdb",)]
