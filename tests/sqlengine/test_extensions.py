"""CASE, UNION, views, indexes, and system procedures."""

import pytest

from repro.sqlengine.errors import (
    CatalogError,
    ExecutionError,
    IntegrityError,
    SqlParseError,
)


@pytest.fixture
def t(conn):
    conn.execute("create table t (a int, b varchar(10))")
    conn.execute("insert t values (1, 'x'), (2, 'y'), (3, 'x')")
    return conn


class TestCase:
    def test_searched_case(self, t):
        rows = t.execute(
            "select a, case when a > 2 then 'big' else 'small' end k "
            "from t order by a").last
        assert rows.rows == [(1, "small"), (2, "small"), (3, "big")]

    def test_simple_case(self, t):
        rows = t.execute(
            "select case b when 'x' then 1 when 'y' then 2 end "
            "from t order by a").last
        assert [r[0] for r in rows] == [1, 2, 1]

    def test_no_match_no_else_is_null(self, t):
        assert t.execute(
            "select case 9 when 1 then 'one' end").last.scalar() is None

    def test_first_matching_when_wins(self, conn):
        assert conn.execute(
            "select case when 1 = 1 then 'first' when 1 = 1 then 'second' end"
        ).last.scalar() == "first"

    def test_case_in_where(self, t):
        rows = t.execute(
            "select a from t where case when b = 'x' then 1 else 0 end = 1 "
            "order by a").last
        assert [r[0] for r in rows] == [1, 3]

    def test_case_with_aggregate(self, t):
        assert t.execute(
            "select case when count(*) > 2 then 'many' else 'few' end from t"
        ).last.scalar() == "many"

    def test_nested_case(self, t):
        value = t.execute(
            "select case when 1 = 1 then case when 2 = 2 then 'inner' end end"
        ).last.scalar()
        assert value == "inner"

    def test_case_requires_when(self, conn):
        with pytest.raises(SqlParseError):
            conn.execute("select case else 1 end")


class TestUnion:
    def test_union_dedupes(self, t):
        rows = t.execute("select b from t union select b from t").last
        assert sorted(r[0] for r in rows) == ["x", "y"]

    def test_union_all_keeps_duplicates(self, t):
        rows = t.execute("select b from t union all select b from t").last
        assert len(rows.rows) == 6

    def test_union_different_tables(self, t, conn):
        conn.execute("create table u (a int)")
        conn.execute("insert u values (99)")
        rows = conn.execute(
            "select a from t union select a from u order by a").last
        assert [r[0] for r in rows] == [1, 2, 3, 99]

    def test_order_by_applies_to_whole_union(self, t):
        rows = t.execute(
            "select a from t where a = 1 union "
            "select a from t where a = 3 union "
            "select a from t where a = 2 order by a desc").last
        assert [r[0] for r in rows] == [3, 2, 1]

    def test_order_by_position(self, t):
        rows = t.execute(
            "select a, b from t where a < 3 union "
            "select a, b from t where a = 3 order by 1 desc").last
        assert rows.rows[0][0] == 3

    def test_arity_mismatch(self, t):
        with pytest.raises(ExecutionError):
            t.execute("select a from t union select a, b from t")

    def test_union_into(self, t, conn):
        conn.execute(
            "select a into un from t where a = 1 union "
            "select a from t where a = 3")
        assert conn.execute("select count(*) from un").last.scalar() == 2
        # Regression: UNION ... INTO reported its rowcount on the batch
        # result but left @@rowcount at the previous statement's value.
        result = conn.execute(
            "select a into un3 from t where a < 3 union all "
            "select a from t where a = 3")
        assert result.rowcount == 3
        assert conn.execute("select @@rowcount").last.scalar() == 3

    def test_union_in_subquery(self, t):
        rows = t.execute(
            "select a from t where a in "
            "(select a from t where a = 1 union select a from t where a = 3) "
            "order by a").last
        assert [r[0] for r in rows] == [1, 3]

    def test_columns_named_from_first_select(self, t):
        result = t.execute(
            "select a as one from t where a = 1 union select a from t "
            "where a = 2").last
        assert result.columns == ["one"]

    def test_three_way_mixed_all(self, t):
        # UNION (not ALL) anywhere dedupes the whole result, like T-SQL
        # evaluated left to right with our single-pass semantics.
        rows = t.execute(
            "select b from t union all select b from t union select b from t"
        ).last
        assert sorted(r[0] for r in rows) == ["x", "y"]


class TestViews:
    def test_view_reflects_base_table(self, t, conn):
        conn.execute("create view vx as select a from t where b = 'x'")
        assert len(conn.execute("select * from vx").last.rows) == 2
        conn.execute("insert t values (7, 'x')")
        assert len(conn.execute("select * from vx").last.rows) == 3

    def test_view_over_join_and_aggregate(self, t, conn):
        conn.execute(
            "create view counts as "
            "select b, count(*) n from t group by b")
        rows = conn.execute("select * from counts order by b").last
        assert rows.rows == [("x", 2), ("y", 1)]

    def test_view_of_view(self, t, conn):
        conn.execute("create view v1 as select a, b from t where a > 1")
        conn.execute("create view v2 as select a from v1 where b = 'x'")
        assert conn.execute("select * from v2").last.rows == [(3,)]

    def test_view_joins_with_table(self, t, conn):
        conn.execute("create view vx as select a from t where b = 'x'")
        rows = conn.execute(
            "select t.b from t, vx where t.a = vx.a order by t.a").last
        assert [r[0] for r in rows] == ["x", "x"]

    def test_views_are_read_only(self, t, conn):
        conn.execute("create view vx as select a from t")
        for sql in ("insert vx values (9)",
                    "update vx set a = 0",
                    "delete vx"):
            with pytest.raises(ExecutionError):
                conn.execute(sql)

    def test_drop_view(self, t, conn):
        conn.execute("create view vx as select a from t")
        conn.execute("drop view vx")
        with pytest.raises(CatalogError):
            conn.execute("select * from vx")

    def test_duplicate_name_with_table_rejected(self, t, conn):
        with pytest.raises(CatalogError):
            conn.execute("create view t as select 1 one")

    def test_view_source_preserved(self, t, conn, server):
        conn.execute("create view vx as select a from t")
        db = server.catalog.get_database("sentineldb")
        view = db.find_view("vx", "sharma")
        assert view.source.startswith("create view vx as")

    def test_view_of_union(self, t, conn):
        conn.execute(
            "create view vu as select a from t where a = 1 "
            "union select a from t where a = 3")
        assert len(conn.execute("select * from vu").last.rows) == 2

    def test_rollback_undoes_create_view(self, t, conn, server):
        conn.execute("begin tran")
        conn.execute("create view vx as select a from t")
        conn.execute("rollback")
        assert server.view_names("sentineldb") == []


class TestIndexes:
    def test_index_returns_same_results(self, t, conn):
        before = conn.execute("select * from t where a = 2").last.rows
        conn.execute("create index ia on t (a)")
        after = conn.execute("select * from t where a = 2").last.rows
        assert before == after

    def test_index_used_after_mutations(self, t, conn):
        conn.execute("create index ia on t (a)")
        conn.execute("insert t values (42, 'z')")
        assert conn.execute("select b from t where a = 42").last.rows == [("z",)]
        conn.execute("update t set a = 43 where a = 42")
        assert conn.execute("select b from t where a = 43").last.rows == [("z",)]
        assert conn.execute("select b from t where a = 42").last.rows == []
        conn.execute("delete t where a = 43")
        assert conn.execute("select b from t where a = 43").last.rows == []

    def test_index_with_join_predicate(self, t, conn):
        conn.execute("create index ia on t (a)")
        rows = conn.execute(
            "select x.b from t x, t y where x.a = 2 and y.a = x.a").last
        assert rows.rows == [("y",)]

    def test_string_index_agrees_with_scan(self, t, conn):
        # '=' on strings is case-sensitive; the index must agree.
        unindexed = conn.execute("select * from t where b = 'x'").last.rows
        miss = conn.execute("select * from t where b = 'X'").last.rows
        conn.execute("create index ib on t (b)")
        assert conn.execute("select * from t where b = 'x'").last.rows == unindexed
        assert conn.execute("select * from t where b = 'X'").last.rows == miss == []

    def test_unique_index_rejects_existing_duplicates(self, t, conn):
        with pytest.raises(IntegrityError):
            conn.execute("create unique index ub on t (b)")

    def test_unique_index_blocks_inserts(self, t, conn):
        conn.execute("create unique index ua on t (a)")
        with pytest.raises(IntegrityError):
            conn.execute("insert t values (2, 'dup')")

    def test_unique_index_blocks_updates(self, t, conn):
        conn.execute("create unique index ua on t (a)")
        with pytest.raises(IntegrityError):
            conn.execute("update t set a = 1 where a = 2")

    def test_drop_index(self, t, conn):
        conn.execute("create index ia on t (a)")
        conn.execute("drop index t.ia")
        assert conn.execute("select b from t where a = 2").last.rows == [("y",)]

    def test_duplicate_index_name(self, t, conn):
        conn.execute("create index ia on t (a)")
        with pytest.raises(IntegrityError):
            conn.execute("create index ia on t (b)")

    def test_index_on_missing_column(self, t, conn):
        from repro.sqlengine.errors import SchemaError

        with pytest.raises(SchemaError):
            conn.execute("create index iz on t (zz)")

    def test_null_values_not_indexed_but_matchable(self, t, conn):
        conn.execute("insert t values (null, 'n')")
        conn.execute("create index ia on t (a)")
        # Equality with NULL yields no rows regardless of the index.
        assert conn.execute("select * from t where a = null").last.rows == []
        assert len(conn.execute("select * from t where a is null").last.rows) == 1


class TestSystemProcedures:
    def test_sp_help_lists_objects(self, t, conn):
        conn.execute("create view vx as select a from t")
        conn.execute("create proc p1 as select 1")
        result = conn.execute("exec sp_help").last
        kinds = {(row[0], row[2]) for row in result.rows}
        assert ("t", "user table") in kinds
        assert ("vx", "view") in kinds
        assert ("p1", "stored procedure") in kinds

    def test_sp_help_table_layout(self, t, conn):
        result = conn.execute("exec sp_help 't'")
        layout = result.result_sets[1]
        assert layout.columns == ["Column_name", "Type", "Length", "Nulls"]
        assert layout.rows[0][0] == "a"

    def test_sp_helptext_procedure(self, conn):
        conn.execute("create proc p_src as select 42")
        result = conn.execute("exec sp_helptext 'p_src'").last
        assert "select 42" in "\n".join(row[0] for row in result.rows)

    def test_sp_helptext_view(self, t, conn):
        conn.execute("create view vx as select a from t")
        result = conn.execute("exec sp_helptext 'vx'").last
        assert result.rows[0][0].startswith("create view")

    def test_sp_tables(self, t, conn):
        conn.execute("create view vx as select a from t")
        result = conn.execute("exec sp_tables").last
        types = {row[2]: row[3] for row in result.rows}
        assert types["t"] == "TABLE"
        assert types["vx"] == "VIEW"

    def test_sp_helpindex(self, t, conn):
        conn.execute("create unique index ua on t (a)")
        result = conn.execute("exec sp_helpindex 't'").last
        assert result.rows == [["ua", "a", "unique"]]

    def test_sp_helpdb(self, conn):
        result = conn.execute("exec sp_helpdb").last
        names = [row[0] for row in result.rows]
        assert "master" in names and "sentineldb" in names

    def test_unknown_object(self, conn):
        with pytest.raises(CatalogError):
            conn.execute("exec sp_help 'ghost'")
