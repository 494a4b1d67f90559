"""Edge cases of expression evaluation (NULL logic, coercions, LIKE)."""

import pytest

from repro.sqlengine.errors import ExecutionError


class TestThreeValuedLogic:
    """SQL's Kleene logic, observed through WHERE."""

    @pytest.fixture
    def t(self, conn):
        conn.execute("create table t (a int, b int)")
        conn.execute("insert t values (1, null)")
        return conn

    def count(self, conn, predicate):
        # Twice: interpreted, then through the hot plan's compiled closures.
        sql = f"select count(*) from t where {predicate}"
        first, second = (conn.execute(sql).last.scalar() for _ in range(2))
        assert first == second
        return second

    def test_null_and_false_is_false(self, t):
        # b = 0 is unknown, 1 = 2 is false: unknown AND false -> false,
        # NOT(false) -> true.
        assert self.count(t, "not (b = 0 and 1 = 2)") == 1

    def test_null_and_true_is_unknown(self, t):
        assert self.count(t, "b = 0 and 1 = 1") == 0
        assert self.count(t, "not (b = 0 and 1 = 1)") == 0

    def test_null_or_true_is_true(self, t):
        assert self.count(t, "b = 0 or 1 = 1") == 1

    def test_null_or_false_is_unknown(self, t):
        assert self.count(t, "b = 0 or 1 = 2") == 0

    def test_null_arithmetic_propagates(self, t):
        assert t.execute("select b + 1 from t").last.scalar() is None
        assert t.execute("select b * 0 from t").last.scalar() is None

    def test_null_equals_null_is_unknown(self, t):
        assert self.count(t, "b = b") == 0
        assert self.count(t, "b <> b") == 0

    def test_not_in_with_null_in_list(self, t):
        assert self.count(t, "a not in (2, null)") == 0


class TestCoercionInComparisons:
    def test_int_vs_string_number(self, conn):
        assert conn.execute("select 1 where 5 = '5'").last.rows == [(True,)]

    def test_string_vs_float(self, conn):
        assert conn.execute("select 1 where '2.5' < 3.0").last.rows == [(True,)]

    def test_non_numeric_string_falls_back_to_text(self, conn):
        assert conn.execute("select 1 where 'abc' = 'abc'").last.rows == [(True,)]

    def test_datetime_vs_string(self, conn):
        rows = conn.execute(
            "select 1 where getdate() > '1999-01-01'").last.rows
        assert rows == [(True,)]

    def test_incomparable_types_raise(self, conn):
        with pytest.raises(ExecutionError):
            conn.execute("select 1 where getdate() > 5")


class TestLikePatterns:
    @pytest.mark.parametrize("value, pattern, expected", [
        ("hello", "h%", True),
        ("hello", "%o", True),
        ("hello", "h_llo", True),
        ("hello", "H%", True),        # case-insensitive, like Sybase default
        ("hello", "x%", False),
        ("hello", "h", False),
        ("50%", "50[%]", True),       # bracket escapes the wildcard
        ("5a", "5[ab]", True),
        ("5c", "5[ab]", False),
        ("5c", "5[^ab]", True),
    ])
    def test_match(self, conn, value, pattern, expected):
        rows = conn.execute(
            f"select 1 where '{value}' like '{pattern}'").last.rows
        assert bool(rows) is expected


class TestStringConcat:
    def test_plus_concatenates(self, conn):
        assert conn.execute("select 'a' + 'b'").last.scalar() == "ab"

    def test_number_coerced_in_concat(self, conn):
        assert conn.execute("select 'n=' + convert(varchar, 5)").last.scalar() == "n=5"

    def test_null_concat_is_null(self, conn):
        assert conn.execute("select 'a' + null").last.scalar() is None

    def test_infinite_float_concatenates(self, conn):
        # Twice: the first run interprets, the second runs the hot
        # plan's compiled closures.
        for _ in range(2):
            assert conn.execute(
                "select 'x' + (1e308 * 10.0)").last.scalar() == "xinf"


class TestDivisionSemantics:
    def test_int_division(self, conn):
        assert conn.execute("select 9 / 2").last.scalar() == 4

    def test_float_division(self, conn):
        assert conn.execute("select 9.0 / 2").last.scalar() == 4.5

    def test_mixed_division(self, conn):
        assert conn.execute("select 9 / 2.0").last.scalar() == 4.5

    def test_negative_int_division_truncates_toward_zero(self, conn):
        assert conn.execute("select -9 / 2").last.scalar() == -4

    def test_modulo_sign(self, conn):
        assert conn.execute("select -7 % 3").last.scalar() == -1
