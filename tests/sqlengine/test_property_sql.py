"""Property-based tests of engine invariants (hypothesis)."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.sqlengine import SqlServer, connect
from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.evaluator import _like_match
from repro.sqlengine.tokenizer import EOF, IDENT, OP, VARIABLE, tokenize
from repro.sqlengine.types import SqlType, sql_repr

_slow = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

symbols = st.text(
    alphabet=st.characters(whitelist_categories=("Lu",), max_codepoint=127),
    min_size=1, max_size=8,
)
prices = st.floats(min_value=0.01, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
quantities = st.integers(min_value=0, max_value=10**6)
rows = st.lists(st.tuples(symbols, prices, quantities), min_size=0, max_size=25)


def _fresh():
    server = SqlServer(default_database="propdb")
    conn = connect(server, user="p", database="propdb")
    conn.execute(
        "create table t (symbol varchar(10), price float, qty int)")
    return conn


def _load(conn, data):
    for symbol, price, qty in data:
        conn.execute(
            f"insert t values ({sql_repr(symbol)}, {price!r}, {qty})")


class TestRelationalInvariants:
    @_slow
    @given(data=rows)
    def test_count_matches_inserted_rows(self, data):
        conn = _fresh()
        _load(conn, data)
        assert conn.execute("select count(*) from t").last.scalar() == len(data)

    @_slow
    @given(data=rows)
    def test_projection_preserves_cardinality(self, data):
        conn = _fresh()
        _load(conn, data)
        assert len(conn.execute("select symbol from t").last.rows) == len(data)

    @_slow
    @given(data=rows, threshold=prices)
    def test_where_partitions_rows(self, data, threshold):
        conn = _fresh()
        _load(conn, data)
        above = conn.execute(
            f"select count(*) from t where price > {threshold!r}").last.scalar()
        not_above = conn.execute(
            f"select count(*) from t where not (price > {threshold!r})"
        ).last.scalar()
        assert above + not_above == len(data)

    @_slow
    @given(data=rows)
    def test_order_by_sorts(self, data):
        conn = _fresh()
        _load(conn, data)
        values = conn.execute(
            "select price from t order by price").last.column_values("price")
        assert values == sorted(values)

    @_slow
    @given(data=rows)
    def test_sum_matches_python(self, data):
        conn = _fresh()
        _load(conn, data)
        got = conn.execute("select sum(qty) from t").last.scalar()
        expected = sum(q for _s, _p, q in data) if data else None
        assert got == expected

    @_slow
    @given(data=rows)
    def test_delete_then_count_zero(self, data):
        conn = _fresh()
        _load(conn, data)
        conn.execute("delete t")
        assert conn.execute("select count(*) from t").last.scalar() == 0

    @_slow
    @given(data=rows)
    def test_transaction_rollback_is_identity(self, data):
        conn = _fresh()
        _load(conn, data)
        before = conn.execute("select * from t").last.rows
        conn.execute("begin tran")
        conn.execute("update t set qty = qty + 1")
        conn.execute("delete t where price > 10")
        conn.execute("insert t values ('ZZ', 1.0, 1)")
        conn.execute("rollback")
        after = conn.execute("select * from t").last.rows
        assert before == after

    @_slow
    @given(data=rows)
    def test_select_into_copies_exactly(self, data):
        conn = _fresh()
        _load(conn, data)
        conn.execute("select * into c from t")
        assert sorted(map(tuple, conn.execute("select * from c").last.rows)) \
            == sorted(map(tuple, conn.execute("select * from t").last.rows))


class TestScalarInvariants:
    @given(value=st.text(max_size=50))
    def test_sql_repr_string_round_trips(self, value):
        conn = _fresh()
        assert conn.execute(f"select {sql_repr(value)}").last.scalar() == value

    @given(value=st.integers(min_value=-10**9, max_value=10**9))
    def test_int_round_trips(self, value):
        assert SqlType.parse("int").coerce(str(value)) == value

    @given(text=st.text(alphabet="abcXYZ", max_size=12))
    def test_like_percent_matches_everything(self, text):
        assert _like_match(text, "%")

    @given(text=st.text(alphabet="abcXYZ", min_size=1, max_size=12))
    def test_like_exact_self_match(self, text):
        assert _like_match(text, text)

    @given(text=st.text(alphabet="abc", min_size=1, max_size=12))
    def test_like_underscore_arity(self, text):
        assert _like_match(text, "_" * len(text))
        assert not _like_match(text, "_" * (len(text) + 1))


#: Pieces of SQL text, so generated inputs reach every lexeme and error
#: path: keywords, quotes, comment openers, brackets, numbers, operators,
#: Unicode letters, and digits that are and are not decimal.
_FRAGMENTS = [
    "select", "x", "_t", "#tmp", "$", "@", "@@", " ", "\t", "\r", "\n",
    "'", "''", '"', "[", "]", "--", "/*", "*/", "1", "2.5", ".", "e", "E",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "(", ")", ",", ";", "\\",
    "?", "²", "³", "½", "٣", "é", "ſ", "\x0b", "\u00a0",
]
sql_texts = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=20).map("".join),
)


class TestTokenizerProperties:
    @settings(max_examples=300, deadline=None)
    @given(text=sql_texts)
    def test_tokens_or_parse_error_only(self, text):
        try:
            tokens = tokenize(text)
        except SqlParseError:
            return
        assert tokens[-1].kind == EOF
        assert all(token.kind != EOF for token in tokens[:-1])

    @settings(max_examples=300, deadline=None)
    @given(text=sql_texts)
    def test_tokens_point_into_the_text(self, text):
        try:
            tokens = tokenize(text)
        except SqlParseError:
            return
        for token in tokens:
            offset = token.offset
            line_start = text.rfind("\n", 0, offset) + 1
            assert token.line == text.count("\n", 0, offset) + 1
            assert token.column == offset - line_start + 1
            if token.kind in (IDENT, VARIABLE, OP) and text[offset] != "[":
                assert text.startswith(token.value, offset)
