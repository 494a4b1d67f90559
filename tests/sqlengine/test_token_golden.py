"""Golden test: the SQL tokenizer's output is byte-stable.

``golden/tokens.txt`` holds a corpus of inputs, each followed by the
token stream :func:`tokenize` produced for it — one line per token
(kind, value, line, column, offset) — or by the one
:class:`SqlParseError` it raised (message, line, column).  The test
re-tokenizes every input in the file and compares the rendering with
the file byte for byte, so any change to a token, a position or an
error message shows up as a diff.

The corpus is every string literal in ``test_tokenizer.py`` and
``test_parser.py``; every SQL text the agent hands the server while it
creates the paper's Example 2 rules and fires them once (native
triggers, action procedures, context processing, ``sysContext``
refresh); and the tokenizer's error inputs.

Regenerate (only for an intended change to the tokens)::

    PYTHONPATH=src python -m tests.sqlengine.test_token_golden --regenerate
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.tokenizer import tokenize

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "tokens.txt"

ERROR_INPUTS = [
    "select 'never closed", "select \"never closed", "/* never closed",
    "select 1 /* a\nb", "select [never closed", "select @", "@ x",
    "select ²", "select 1²", "select 1 where 1 = ³", "select ¹.5",
    "select \\", "select ?", "select `x`",
]

EXAMPLE_2 = [
    "create table stock (symbol varchar(10) not null, price float null, "
    "qty int null)",
    "create trigger t_addStk on stock for insert\nevent addStk\n"
    "as print ' trigger t_addStk on primitive event addStk occurs'",
    "create trigger t_delStk on stock for delete\nevent delStk\n"
    "as print 'delStk'",
    "create trigger t_and\nevent addDel = delStk ^ addStk\nRECENT\nas\n"
    "print 'trigger t_and on composite event addDel'\n"
    "select symbol, price from stock.inserted",
    "insert stock values ('IBM', 101.5, 10)",
    "delete stock where symbol = 'IBM'",
    "insert stock values ('SUN', 20.25, 3)",
]


def render(text: str) -> str:
    """The golden block for one input."""
    lines = [f"== {text!r}"]
    try:
        tokens = tokenize(text)
    except SqlParseError as error:
        lines.append(f"ERROR {str(error)!r} {error.line} {error.column}")
    else:
        lines += [f"{t.kind} {t.value!r} {t.line} {t.column} {t.offset}"
                  for t in tokens]
    return "\n".join(lines) + "\n"


def golden_inputs() -> list[str]:
    return [ast.literal_eval(line[3:])
            for line in GOLDEN.read_text(encoding="utf-8").splitlines()
            if line.startswith("== ")]


def test_tokens_match_golden():
    expected = GOLDEN.read_text(encoding="utf-8")
    assert "".join(render(text) for text in golden_inputs()) == expected


def _string_literals(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _example_2_texts() -> list[str]:
    """Every text the SQL parser sees while the agent runs Example 2."""
    from repro.agent import EcaAgent
    from repro.led import ManualClock
    from repro.sqlengine import SqlServer
    from repro.sqlengine import parser

    seen: list[str] = []
    original = parser._Parser.__init__

    def spy(self, text):
        seen.append(text)
        original(self, text)

    parser._Parser.__init__ = spy
    try:
        agent = EcaAgent(SqlServer(default_database="sentineldb"),
                         clock=ManualClock())
        conn = agent.connect(user="sharma", database="sentineldb")
        for sql in EXAMPLE_2:
            conn.execute(sql)
        agent.close()
    finally:
        parser._Parser.__init__ = original
    return seen


def corpus() -> list[str]:
    texts = (_string_literals(HERE / "test_tokenizer.py")
             + _string_literals(HERE / "test_parser.py")
             + _example_2_texts() + ERROR_INPUTS)
    return list(dict.fromkeys(texts))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(render(text) for text in corpus()),
                      encoding="utf-8")
