"""Property-based invariants for UNION, CASE, views, and indexes."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.sqlengine import SqlServer, connect
from repro.sqlengine.types import sql_repr

_slow = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

values = st.integers(min_value=-100, max_value=100)
rows = st.lists(values, min_size=0, max_size=20)


def _fresh():
    server = SqlServer(default_database="p")
    conn = connect(server, user="u", database="p")
    conn.execute("create table t (a int)")
    return conn


def _load(conn, data):
    for value in data:
        conn.execute(f"insert t values ({value})")


class TestUnionAlgebra:
    @_slow
    @given(data=rows)
    def test_union_all_with_self_doubles(self, data):
        conn = _fresh()
        _load(conn, data)
        combined = conn.execute(
            "select a from t union all select a from t").last
        assert len(combined.rows) == 2 * len(data)

    @_slow
    @given(data=rows)
    def test_union_with_self_is_distinct(self, data):
        conn = _fresh()
        _load(conn, data)
        combined = conn.execute("select a from t union select a from t").last
        assert sorted(r[0] for r in combined.rows) == sorted(set(data))

    @_slow
    @given(data=rows, pivot=values)
    def test_union_of_partition_is_whole(self, data, pivot):
        conn = _fresh()
        _load(conn, data)
        combined = conn.execute(
            f"select a from t where a < {pivot} union all "
            f"select a from t where not (a < {pivot})").last
        assert sorted(r[0] for r in combined.rows) == sorted(data)

    @_slow
    @given(data=rows)
    def test_union_order_by_sorts_combined(self, data):
        conn = _fresh()
        _load(conn, data)
        combined = conn.execute(
            "select a from t union all select a from t order by a").last
        got = [r[0] for r in combined.rows]
        assert got == sorted(got)


class TestCaseTotality:
    @_slow
    @given(data=rows, pivot=values)
    def test_case_partition_counts(self, data, pivot):
        conn = _fresh()
        _load(conn, data)
        result = conn.execute(
            "select "
            f"sum(case when a < {pivot} then 1 else 0 end), "
            f"sum(case when a < {pivot} then 0 else 1 end) "
            "from t").last.rows[0]
        low = sum(1 for v in data if v < pivot)
        expected = (low, len(data) - low) if data else (None, None)
        assert result == expected

    @_slow
    @given(value=values)
    def test_simple_case_equivalent_to_searched(self, value):
        conn = _fresh()
        simple = conn.execute(
            f"select case {value} when 0 then 'z' when 1 then 'o' "
            "else 'other' end").last.scalar()
        searched = conn.execute(
            f"select case when {value} = 0 then 'z' "
            f"when {value} = 1 then 'o' else 'other' end").last.scalar()
        assert simple == searched


class TestViewTransparency:
    @_slow
    @given(data=rows, pivot=values)
    def test_view_equals_inline_query(self, data, pivot):
        conn = _fresh()
        _load(conn, data)
        conn.execute(f"create view v as select a from t where a > {pivot}")
        via_view = conn.execute("select a from v order by a").last.rows
        inline = conn.execute(
            f"select a from t where a > {pivot} order by a").last.rows
        assert via_view == inline


class TestIndexEquivalence:
    @_slow
    @given(data=rows, probe=values)
    def test_indexed_equals_scanned(self, data, probe):
        conn = _fresh()
        _load(conn, data)
        scanned = conn.execute(
            f"select a from t where a = {probe}").last.rows
        conn.execute("create index ix on t (a)")
        indexed = conn.execute(
            f"select a from t where a = {probe}").last.rows
        assert indexed == scanned

    @_slow
    @given(data=rows, probe=values, extra=values)
    def test_index_survives_mutation_sequence(self, data, probe, extra):
        conn = _fresh()
        conn.execute("create index ix on t (a)")
        _load(conn, data)
        conn.execute(f"insert t values ({extra})")
        conn.execute(f"delete t where a = {probe}")
        conn.execute(f"update t set a = a + 1 where a = {extra}")
        remaining = [v for v in data + [extra] if v != probe]
        remaining = [
            v + 1 if v == extra and extra != probe else v for v in remaining]
        # Compare against a scan of the same table (ground truth).
        for candidate in set(remaining) | {probe, extra}:
            indexed = conn.execute(
                f"select a from t where a = {candidate}").last.rows
            assert all(row[0] == candidate for row in indexed)
            assert len(indexed) == remaining.count(candidate)
