"""The Embedded Situation Check baseline and its structural weaknesses."""

import pytest

from repro.baselines import EmbeddedSituationClient
from repro.sqlengine import connect


@pytest.fixture
def client(server, stock):
    return EmbeddedSituationClient(
        connect(server, user="sharma", database="sentineldb"))


class TestChecks:
    def test_check_fires_when_condition_holds(self, client):
        alerts = []
        client.add_check(
            "cheap", "select symbol from stock where price < 10",
            handler=alerts.append)
        client.execute("insert stock values ('PENNY', 1.0, 1)")
        assert alerts == [[("PENNY",)]]

    def test_check_silent_when_condition_fails(self, client):
        alerts = []
        client.add_check(
            "cheap", "select symbol from stock where price < 10",
            handler=alerts.append)
        client.execute("insert stock values ('RICH', 500.0, 1)")
        assert alerts == []

    def test_every_statement_pays_for_every_check(self, client):
        client.add_check("c1", "select * from stock where 1 = 2",
                         handler=lambda rows: None)
        client.add_check("c2", "select * from stock where 1 = 2",
                         handler=lambda rows: None)
        for _ in range(5):
            client.execute("select 1")
        assert client.statements_executed == 5
        assert client.check_queries_issued == 10

    def test_fired_and_evaluation_counters(self, client):
        check = client.add_check(
            "always", "select 1", handler=lambda rows: None)
        client.execute("select 2")
        client.execute("select 3")
        assert check.evaluations == 2
        assert check.fired == 2


class TestStructuralWeakness:
    def test_other_clients_changes_are_missed(self, server, client, stock):
        """The paper's core criticism: situations caused by other
        applications go unnoticed until *this* client acts."""
        alerts = []
        client.add_check(
            "cheap", "select symbol from stock where price < 10",
            handler=alerts.append)
        stock.execute("insert stock values ('PENNY', 1.0, 1)")
        # The other client's insert satisfied the condition, but nothing
        # fired because the checking client issued no statement.
        assert alerts == []
        # Only when this client does something does the alert appear.
        client.execute("select 1")
        assert len(alerts) == 1
