"""Unit tests for the SQL tokenizer."""

import pytest

from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.tokenizer import (
    EOF,
    IDENT,
    NUMBER,
    OP,
    STRING,
    VARIABLE,
    tokenize,
)


def kinds(text):
    return [token.kind for token in tokenize(text)]


def values(text):
    return [token.value for token in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_keywords_and_identifiers_are_idents(self):
        assert kinds("select foo") == [IDENT, IDENT, EOF]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind == NUMBER
        assert tokens[0].value == 42
        assert isinstance(tokens[0].value, int)

    def test_float_literal(self):
        tokens = tokenize("4.25")
        assert tokens[0].value == 4.25
        assert isinstance(tokens[0].value, float)

    def test_leading_dot_float(self):
        assert tokenize(".5")[0].value == 0.5

    def test_scientific_notation(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == 0.025

    def test_number_followed_by_keyword_e(self):
        # '1 else' should not eat the e
        tokens = tokenize("1 else")
        assert tokens[0].value == 1
        assert tokens[1].value == "else"

    def test_single_quoted_string(self):
        assert tokenize("'hello'")[0].value == "hello"

    def test_double_quoted_string(self):
        # Sybase treats double quotes as string delimiters by default.
        token = tokenize('"RECENT"')[0]
        assert token.kind == STRING
        assert token.value == "RECENT"

    def test_doubled_quote_escape(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_variable(self):
        token = tokenize("@price")[0]
        assert token.kind == VARIABLE
        assert token.value == "@price"

    def test_global_variable(self):
        assert tokenize("@@rowcount")[0].value == "@@rowcount"

    def test_temp_table_name(self):
        assert tokenize("#tmp")[0].value == "#tmp"

    def test_bracket_quoted_identifier(self):
        token = tokenize("[weird name]")[0]
        assert token.kind == IDENT
        assert token.value == "weird name"


class TestOperators:
    @pytest.mark.parametrize("op", ["<>", "!=", "<=", ">=", "=", "<", ">"])
    def test_comparison_operators(self, op):
        assert tokenize(op)[0].value == op

    def test_arithmetic_and_punctuation(self):
        assert values("a + b * (c) , .") == ["a", "+", "b", "*", "(", "c", ")", ",", "."]

    def test_qualified_name_tokens(self):
        assert values("sentineldb.sharma.stock") == [
            "sentineldb", ".", "sharma", ".", "stock"]


class TestCommentsAndWhitespace:
    def test_line_comment(self):
        assert kinds("select 1 -- trailing comment") == [IDENT, NUMBER, EOF]

    def test_block_comment(self):
        assert kinds("select /* inline */ 1") == [IDENT, NUMBER, EOF]

    def test_multiline_block_comment_tracks_lines(self):
        tokens = tokenize("/* a\nb\nc */ select")
        assert tokens[0].line == 3

    def test_unterminated_comment_raises(self):
        with pytest.raises(SqlParseError):
            tokenize("/* never closed")

    def test_unterminated_string_raises(self):
        with pytest.raises(SqlParseError):
            tokenize("'oops")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("select\n  price")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_offsets_allow_source_slicing(self):
        text = "create proc p as select 1"
        tokens = tokenize(text)
        assert text[tokens[0].offset:].startswith("create")
        assert text[tokens[3].offset:].startswith("as")

    def test_unexpected_character(self):
        with pytest.raises(SqlParseError) as excinfo:
            tokenize("select !")
        assert "unexpected character" in str(excinfo.value)


class TestNonDecimalDigits:
    """``str.isdigit`` accepts superscripts and other digits that ``int``
    and ``float`` reject; only decimal digits start a number."""

    @pytest.mark.parametrize("text, char, column", [
        ("select ²", "²", 8),
        ("select 1²", "²", 9),
        ("select 1 where 1 = ³", "³", 20),
        ("select ¹.5", "¹", 8),
    ])
    def test_is_an_unexpected_character(self, text, char, column):
        with pytest.raises(SqlParseError) as excinfo:
            tokenize(text)
        assert str(excinfo.value) == (
            f"unexpected character {char!r} (line 1, column {column})")

    def test_reaches_a_client_as_a_parse_error(self):
        from repro.sqlengine import SqlServer, connect

        conn = connect(SqlServer(default_database="db"), user="u",
                       database="db")
        with pytest.raises(SqlParseError):
            conn.execute("select ²")

    def test_unicode_decimal_digits_are_numbers(self):
        assert values("٣ ١.٥") == [3, 1.5]

    def test_inside_an_identifier_is_kept(self):
        assert values("x²") == ["x²"]


class TestPositionsAfterNewlines:
    def test_bracket_identifier_spanning_lines(self):
        tokens = tokenize("[a\nb] x")
        assert tokens[0].value == "a\nb"
        assert (tokens[1].line, tokens[1].column) == (2, 4)

    def test_string_spanning_lines(self):
        tokens = tokenize("'a\nbc' x")
        assert (tokens[1].line, tokens[1].column) == (2, 5)

    def test_doubled_quote_never_ends_a_string(self):
        with pytest.raises(SqlParseError) as excinfo:
            tokenize("x 'a'' b")
        assert "unterminated string literal (line 1, column 3)" in str(
            excinfo.value)
