"""Tokenizer for the engine's T-SQL-like dialect.

One compiled pattern, :data:`_TOKEN`, does all the lexing.  Each match
absorbs the blanks (space, tab, CR, LF) before one lexeme, and
``m.lastindex``, the number of the alternative that matched, says what
the lexeme is: a ``--`` or non-nesting ``/* */`` comment (skipped), an
identifier, a number, a string (Sybase treats ``'...'`` and ``"..."``
alike; a doubled quote stands for itself), an operator, an
``@variable``, a ``[bracket quoted]`` identifier, the end of the text,
or a character that starts no lexeme (an error).  Digits are Unicode
decimal digits, the ones ``int`` and ``float`` accept.

A :class:`Token` carries its ``kind``, its ``value`` (the text, the
number, or the unquoted string), the 1-based ``line`` and ``column`` and
the character ``offset`` of its first character, and ``word``, the text
the parser compares: for an IDENT its keyword form (``value.upper()``
lower-cased when that is ASCII), for an OP the operator, else ``None``.
"""

from __future__ import annotations

import re

from .errors import SqlParseError

# Token kinds
IDENT = "IDENT"       # identifiers and keywords (parser decides which)
VARIABLE = "VARIABLE"  # @name local variables / procedure parameters
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"             # operators and punctuation
EOF = "EOF"

_TOKEN = re.compile(r"""[ \t\r\n]*(?:
    (--[^\n]*|/\*(?:.*?\*/)?)          # comment; a bare /* is unterminated
  | ([A-Za-z_\#][\w\#$]*)               # identifier (#temp names, embedded $)
  | (\d+)(?![.\d]|[eE][+-]?\d)          # integer
  | (\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)  # 1.5, .5, 1e3
  | ('[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))  # string
  | (<>|!=|<=|>=|==|\*=|[-+*/%(),.=<>;])  # operator or punctuation
  | (@[\w@\#$]+)                        # @local or @@global variable
  | (\[[^\]]*\])                        # [bracket quoted] identifier
  | ([^\W\d][\w\#$]*)                   # non-ASCII start: must be a letter
  | (\Z)                                # end of the text
  | (.))                                # starts no lexeme""", re.VERBOSE | re.DOTALL)
(_COMMENT, _IDENT, _INT, _FLOAT, _STRING, _OP, _VARIABLE, _BRACKET,
 _UNICODE_IDENT, _END, _BAD) = range(1, 12)

_ERRORS = {"'": "unterminated string literal", '"': "unterminated string literal",
           "[": "unterminated [identifier]", "@": "lone '@' is not a valid token"}


class Token:
    """One lexical token with its source position (1-based)."""

    __slots__ = ("kind", "value", "line", "column", "offset", "word")

    def __init__(self, kind: str, value: object, line: int, column: int,
                 offset: int = 0, word: str | None = None):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column
        self.offset = offset  # character offset of the token start
        self.word = word

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.value!r}@{self.line}:{self.column})"


def _keyword(name: str) -> str:
    upper = name.upper()
    return upper.lower() if upper.isascii() else upper


def tokenize(text: str) -> list[Token]:
    """Tokenize a SQL batch; raises :class:`SqlParseError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    end = len(text)
    line, line_start = 1, 0
    newline = text.find("\n") % (end + 1)  # past the end when there is none
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        start = m.start(group)
        while start > newline:
            line, line_start = line + 1, newline + 1
            newline = text.find("\n", line_start) % (end + 1)
        value = m[group]
        column = start - line_start + 1
        if group == _IDENT:
            word = value.lower() if value.isascii() else _keyword(value)
            append(Token(IDENT, value, line, column, start, word))
        elif group == _OP:
            append(Token(OP, value, line, column, start, value))
        elif group == _INT:
            append(Token(NUMBER, int(value), line, column, start))
        elif group == _STRING:
            q = value[0]  # the quote, doubled inside to stand for itself
            append(Token(STRING, value[1:-1].replace(q + q, q), line, column, start))
        elif group == _VARIABLE:
            append(Token(VARIABLE, value, line, column, start))
        elif group == _FLOAT:
            append(Token(NUMBER, float(value), line, column, start))
        elif group == _COMMENT:
            if value == "/*":
                raise SqlParseError("unterminated comment", line, column)
        elif group == _BRACKET:
            name = value[1:-1]
            append(Token(IDENT, name, line, column, start, _keyword(name)))
        elif group == _UNICODE_IDENT and value[0].isalpha():
            append(Token(IDENT, value, line, column, start, _keyword(value)))
        elif group == _END:
            append(Token(EOF, None, line, column, start))
            return tokens
        else:
            char = value[0]
            raise SqlParseError(
                _ERRORS.get(char, f"unexpected character {char!r}"), line, column)
    raise AssertionError("unreachable: _TOKEN always matches the end")
