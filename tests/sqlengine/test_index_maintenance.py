"""Incremental index maintenance and index-aware scans.

The regression this file pins: a workload of N inserts followed by a
lookup pays ONE full index build, not N rebuilds (the old ``_ensure``
rebuilt on every version bump).
"""

import pytest


@pytest.fixture
def indexed(stock, server):
    """The stock table with an equality index on ``symbol``."""
    stock.execute("create index idx_symbol on stock (symbol)")
    table = server.catalog.get_database("sentineldb").get_table(
        "sharma", "stock")
    index = table.index_on("symbol")
    assert index is not None
    return stock, table, index


class TestIncrementalMaintenance:
    def test_n_inserts_one_lookup_one_build(self, indexed):
        conn, table, index = indexed
        for i in range(50):
            conn.execute(f"insert stock values ('S{i}', {i}, {i})")
        conn.execute("select * from stock where symbol = 'S7'")
        assert index.rebuild_count == 1

    def test_interleaved_inserts_and_lookups_one_build(self, indexed):
        conn, table, index = indexed
        for i in range(20):
            conn.execute(f"insert stock values ('S{i}', {i}, {i})")
            result = conn.execute(
                f"select qty from stock where symbol = 'S{i}'")
            assert result.result_sets[0].rows == [(i,)]
        # the first lookup builds once; every later insert folds in
        assert index.rebuild_count == 1

    def test_delete_maintained_without_rebuild(self, indexed):
        conn, table, index = indexed
        for i in range(10):
            conn.execute(f"insert stock values ('S{i}', {i}, {i})")
        conn.execute("select * from stock where symbol = 'S1'")
        builds = index.rebuild_count
        conn.execute("delete stock where symbol = 'S1'")
        result = conn.execute("select * from stock where symbol = 'S1'")
        assert result.result_sets[0].rows == []
        assert index.rebuild_count == builds

    def test_update_marks_dirty_and_rebuilds_once(self, indexed):
        conn, table, index = indexed
        for i in range(10):
            conn.execute(f"insert stock values ('S{i}', {i}, {i})")
        conn.execute("select * from stock where symbol = 'S1'")
        builds = index.rebuild_count
        # in-place UPDATE of the indexed column cannot be tracked cheaply
        conn.execute("update stock set symbol = 'Z1' where symbol = 'S1'")
        result = conn.execute("select qty from stock where symbol = 'Z1'")
        assert result.result_sets[0].rows == [(1,)]
        assert index.rebuild_count == builds + 1

    def test_update_of_other_column_keeps_index_clean(self, indexed):
        conn, table, index = indexed
        for i in range(10):
            conn.execute(f"insert stock values ('S{i}', {i}, {i})")
        conn.execute("select * from stock where symbol = 'S1'")
        builds = index.rebuild_count
        # The paper's hottest statement shape: bump a counter column by
        # an indexed key (the generated trigger's vNo update).
        for _ in range(5):
            conn.execute("update stock set qty = qty + 1 where symbol = 'S1'")
        result = conn.execute("select qty from stock where symbol = 'S1'")
        assert result.result_sets[0].rows == [(6,)]
        assert index.rebuild_count == builds

    def test_lookup_returns_copy_not_live_bucket(self, indexed):
        conn, table, index = indexed
        conn.execute("insert stock values ('A', 1, 1)")
        bucket = index.lookup(table, "A")
        bucket.append(["bogus", 0, 0])
        assert len(index.lookup(table, "A")) == 1


class TestIndexAwareScans:
    def test_equality_select_counts_index_scan(self, indexed, server):
        conn, table, index = indexed
        conn.execute("insert stock values ('A', 1, 1)")
        before = server.index_scans
        conn.execute("select * from stock where symbol = 'A'")
        assert server.index_scans == before + 1

    def test_in_list_counts_index_scan(self, indexed, server):
        conn, table, index = indexed
        conn.execute("insert stock values ('A', 1, 1)")
        conn.execute("insert stock values ('B', 2, 2)")
        before = server.index_scans
        result = conn.execute(
            "select symbol from stock where symbol in ('A', 'B')")
        assert server.index_scans == before + 1
        assert sorted(row[0] for row in result.result_sets[0].rows) == [
            "A", "B"]

    def test_unindexed_predicate_scans(self, indexed, server):
        conn, table, index = indexed
        conn.execute("insert stock values ('A', 1, 1)")
        before = server.index_scans
        conn.execute("select * from stock where qty = 1")
        assert server.index_scans == before

    def test_indexed_results_match_full_scan(self, stock, server):
        for i in range(25):
            stock.execute(f"insert stock values ('S{i % 5}', {i}, {i})")
        plain = stock.execute(
            "select qty from stock where symbol = 'S3'").result_sets[0].rows
        stock.execute("create index idx_symbol on stock (symbol)")
        indexed_rows = stock.execute(
            "select qty from stock where symbol = 'S3'").result_sets[0].rows
        assert sorted(indexed_rows) == sorted(plain)

    def test_indexed_update_and_delete_match_semantics(self, indexed, server):
        conn, table, index = indexed
        for i in range(10):
            conn.execute(f"insert stock values ('S{i % 2}', {i}, {i})")
        before = server.index_scans
        conn.execute("update stock set price = 99 where symbol = 'S1'")
        conn.execute("delete stock where symbol = 'S0'")
        assert server.index_scans == before + 2
        rows = conn.execute("select symbol, price from stock").result_sets[0]
        assert all(row[0] == "S1" and row[1] == 99.0 for row in rows.rows)
        assert len(rows) == 5

    def test_join_probe_uses_index(self, stock, server):
        stock.execute(
            "create table quotes (symbol varchar(10) null, bid float null)")
        stock.execute("create index idx_q on quotes (symbol)")
        for i in range(5):
            stock.execute(f"insert stock values ('S{i}', {i}, {i})")
            stock.execute(f"insert quotes values ('S{i}', {i * 10})")
        before = server.index_scans
        result = stock.execute(
            "select quotes.bid from stock, quotes "
            "where stock.symbol = quotes.symbol and stock.qty >= 3")
        assert server.index_scans > before
        assert sorted(row[0] for row in result.result_sets[0].rows) == [
            30.0, 40.0]
