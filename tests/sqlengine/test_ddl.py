"""Integration tests for DDL: tables, databases, USE, name resolution."""

import pytest

from repro.sqlengine import SqlServer, connect
from repro.sqlengine.errors import CatalogError, SchemaError


class TestCreateDropTable:
    def test_create_and_query(self, conn):
        conn.execute("create table t (a int, b varchar(5))")
        assert conn.execute("select * from t").last.columns == ["a", "b"]

    def test_duplicate_create_raises(self, conn):
        conn.execute("create table t (a int)")
        with pytest.raises(CatalogError):
            conn.execute("create table t (a int)")

    def test_duplicate_column_raises(self, conn):
        with pytest.raises(SchemaError):
            conn.execute("create table t (a int, A varchar(5))")

    def test_drop_table(self, conn):
        conn.execute("create table t (a int)")
        conn.execute("drop table t")
        with pytest.raises(CatalogError):
            conn.execute("select * from t")

    def test_drop_missing_table_raises(self, conn):
        with pytest.raises(CatalogError):
            conn.execute("drop table ghost")

    def test_drop_multiple(self, server, conn):
        conn.execute("create table a (x int)")
        conn.execute("create table b (x int)")
        conn.execute("drop table a, b")
        assert server.table_names("sentineldb") == []

    def test_drop_table_drops_its_triggers(self, server, conn):
        conn.execute("create table t (a int)")
        conn.execute("create trigger tr on t for insert as print 'x'")
        assert server.trigger_names("sentineldb") == ["sharma.tr"]
        conn.execute("drop table t")
        assert server.trigger_names("sentineldb") == []


class TestAlterTable:
    def test_add_column_null_fills(self, conn):
        conn.execute("create table t (a int)")
        conn.execute("insert t values (1)")
        conn.execute("alter table t add b varchar(5) null")
        assert conn.execute("select * from t").last.rows == [(1, None)]

    def test_added_column_must_be_nullable(self, conn):
        conn.execute("create table t (a int)")
        with pytest.raises(SchemaError):
            conn.execute("alter table t add b int not null")

    def test_add_existing_column_raises(self, conn):
        conn.execute("create table t (a int)")
        with pytest.raises(SchemaError):
            conn.execute("alter table t add a int null")


class TestOwnership:
    def test_tables_are_owned_by_creating_user(self, server, conn):
        conn.execute("create table mine (a int)")
        assert server.table_names("sentineldb") == ["sharma.mine"]

    def test_dbo_fallback(self, server):
        dbo = connect(server, user="dbo", database="sentineldb")
        dbo.execute("create table shared (a int)")
        dbo.execute("insert shared values (5)")
        other = connect(server, user="guest", database="sentineldb")
        assert other.execute("select a from shared").last.scalar() == 5

    def test_own_table_shadows_dbo(self, server):
        dbo = connect(server, user="dbo", database="sentineldb")
        dbo.execute("create table t (a int)")
        dbo.execute("insert t values (1)")
        user = connect(server, user="guest", database="sentineldb")
        user.execute("create table t (a int)")
        user.execute("insert t values (2)")
        assert user.execute("select a from t").last.scalar() == 2
        assert user.execute("select a from dbo.t").last.scalar() == 1

    def test_explicit_owner_creation(self, server, conn):
        conn.execute("create table dbo.official (a int)")
        assert "dbo.official" in server.table_names("sentineldb")

    def test_three_part_name_across_databases(self, server, conn):
        server.catalog.create_database("otherdb")
        conn.execute("create table otherdb.sharma.remote (a int)")
        conn.execute("insert otherdb.sharma.remote values (3)")
        assert conn.execute(
            "select a from otherdb.sharma.remote").last.scalar() == 3


class TestDatabases:
    def test_create_use_drop(self, server):
        conn = connect(server, user="dbo", database="master")
        conn.execute("create database appdb")
        conn.execute("use appdb")
        conn.execute("create table t (a int)")
        assert server.table_names("appdb") == ["dbo.t"]
        conn.execute("use master")
        conn.execute("drop database appdb")
        assert not server.catalog.has_database("appdb")

    def test_use_unknown_database(self, conn):
        with pytest.raises(CatalogError):
            conn.execute("use nowhere")

    def test_duplicate_database(self, conn):
        with pytest.raises(CatalogError):
            conn.execute("create database sentineldb")

    def test_server_creates_master_and_default(self):
        server = SqlServer(default_database="mydb")
        assert server.catalog.has_database("master")
        assert server.catalog.has_database("mydb")
