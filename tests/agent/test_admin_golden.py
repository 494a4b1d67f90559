"""Golden test: the admin surface is byte-stable.

Every operator command is run against a *fresh* default-constructed
agent and rendered — column headers of every result set, every message,
and the rows of one-row ``error`` results and of ``show agent status`` —
then compared byte-for-byte with ``golden/admin_surface.txt``.  The
unknown-command usage text and the non-numeric ``[N]`` error of every
``[N]`` command are part of the record.  The file was generated before
the admin plane became a table-driven registry, so it pins that the
refactor changed no output.

The registry tests below keep the table self-consistent with the
surfaces that cannot be derived from it: the Language Filter's
precompiled admin prefix (on every command's path, so a literal) and the
operator's guide.

Regenerate (only for an intended surface change)::

    PYTHONPATH=src python -m tests.agent.test_admin_golden \\
        > tests/agent/golden/admin_surface.txt
"""

import re
from pathlib import Path

import pytest

from repro.agent import AgentError, EcaAgent, LanguageFilter
from repro.agent.admin import COMMANDS as REGISTRY
from repro.sqlengine import SqlServer

GOLDEN = Path(__file__).parent / "golden" / "admin_surface.txt"

COMMANDS = [
    "show agent stats", "show agent stats top", "show agent stats top 3",
    "show agent trace", "show agent trace 5", "show agent trace t000001",
    "trace next 2", "trace next", "trace next x", "trace next 0",
    "show agent events", "show agent events 3", "show agent graph",
    "show agent status", "  SHOW   AGENT   STATUS ;  ",
    "show agent faults", "show agent cache", "show agent cache 2",
    "show agent top", "show agent top rules", "show agent top sessions 5",
    "show agent slow", "show agent slow 2", "show agent health",
    "show agent sessions", "show agent sessions 1", "show agent workers",
    "show agent sites", "explain trigger nosuch",
    "reset agent stats", "reset agent trace", "reset agent provenance",
    "reset agent cache", "reset agent accounting", "reset agent slow",
    "set agent stats on", "set agent stats off",
    "set agent trace on", "set agent trace off",
    "set agent provenance on", "set agent provenance off",
    "set agent faults on", "set agent faults off",
    "set agent accounting on", "set agent accounting off",
    "set agent slowlog 5", "set agent slowlog 0.5", "set agent slowlog off",
    "set agent slowlog abc", "set agent slowlog -1",
    "set agent workers 2", "set agent workers 0", "set agent workers x",
    "set agent workers -1", "export agent telemetry",
    # a non-numeric [N] on every [N] command: one-row error, not a raise
    "show agent stats top x", "show agent trace 1x;", "show agent events x",
    "show agent cache x", "show agent top x", "show agent top rules x",
    "show agent top sessions x", "show agent slow x",
    "show agent sessions x",
    # not a command: the usage error names the whole surface
    "show agent nonsense", "set agent stats maybe", "reset agent",
]


def render(sql: str) -> str:
    """One command's observable output on a fresh agent, as text."""
    agent = EcaAgent(SqlServer(default_database="sentineldb"))
    conn = agent.connect(user="sharma", database="sentineldb")
    try:
        result = conn.execute(sql)
    except AgentError as exc:
        return f"raises AgentError: {exc}\n"
    finally:
        agent.close()
    lines = []
    for result_set in result.result_sets:
        lines.append("columns: " + ", ".join(result_set.columns))
        if (result_set.columns == ["error"]
                or "status" in sql.lower()):
            lines.extend(f"row: {row!r}" for row in result_set.rows)
    lines.extend(f"message: {message}" for message in result.messages)
    return "".join(line + "\n" for line in lines)


def render_surface() -> str:
    return "".join(f">>> {sql}\n{render(sql)}" for sql in COMMANDS)


def _golden_blocks() -> dict[str, str]:
    blocks: dict[str, str] = {}
    for chunk in GOLDEN.read_text().split(">>> ")[1:]:
        sql, _newline, body = chunk.partition("\n")
        blocks[sql] = body
    return blocks


def test_golden_file_covers_exactly_the_command_list():
    assert list(_golden_blocks()) == COMMANDS


@pytest.mark.parametrize("sql", COMMANDS)
def test_admin_output_matches_golden(sql):
    assert render(sql) == _golden_blocks()[sql]


def _spelled_out(usage: str) -> str:
    """A concrete command for one registry row: optional parts dropped,
    placeholders filled in."""
    text = re.sub(r"\[[^\[\]]*(\[[^\]]*\])?[^\[\]]*\]", "", usage)
    for placeholder, value in (("<ms>|off", "off"), ("on|off", "on"),
                               ("<N>", "1"), ("<name>", "nosuch")):
        text = text.replace(placeholder, value)
    return " ".join(text.split())


@pytest.mark.parametrize("row", REGISTRY, ids=lambda row: row.usage)
def test_registry_row_is_routed_answered_and_documented(row, agent, aconn):
    command = _spelled_out(row.usage)
    # routed: the Language Filter's literal prefix covers the row
    assert LanguageFilter().classify(command) == LanguageFilter.AGENT_ADMIN
    # answered: the matcher derived from the row accepts its own usage
    aconn.execute(command)
    # listed: in the usage error ...
    with pytest.raises(AgentError) as error:
        aconn.execute("show agent nonsense")
    assert row.usage in str(error.value).split(": ", 1)[1].split(" | ")
    # ... and in the operator's guide, section 1
    guide = (Path(__file__).parents[2] / "docs" / "OPERATORS.md").read_text()
    section = guide.split("## 1.")[1].split("\n## ")[0].replace("\\|", "|")
    words = command.split()[:3] if command.startswith(
        ("show", "set", "reset", "export")) else command.split()[:2]
    assert re.search(r"`%s\b" % " ".join(words), section), command


if __name__ == "__main__":
    print(render_surface(), end="")
