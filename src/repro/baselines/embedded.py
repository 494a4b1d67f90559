"""The Embedded Situation Check baseline (paper Section 1).

The application embeds its own condition checks after every statement it
issues.  The paper's criticisms are structural and this implementation
makes them observable:

- extra code in every application (the checks run on every execute);
- situations caused by *other* connections are missed entirely (checks
  only run when *this* client does something);
- business rules are tangled into application code (the checks live in
  the client object, not the database).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.sqlengine import BatchResult, ClientConnection


@dataclass
class SituationCheck:
    """One embedded check: run ``condition_sql``; if it returns any rows,
    invoke the handler with them."""

    name: str
    condition_sql: str
    handler: Callable[[list[tuple]], None]
    fired: int = 0
    evaluations: int = 0


@dataclass
class EmbeddedSituationClient:
    """A client wrapper that re-evaluates its checks after every command.

    Wraps any :class:`~repro.sqlengine.ClientConnection` (direct or
    mediated); checks are evaluated in registration order after each
    successful ``execute``.
    """

    connection: ClientConnection
    checks: list[SituationCheck] = field(default_factory=list)
    statements_executed: int = 0
    check_queries_issued: int = 0

    def add_check(self, name: str, condition_sql: str,
                  handler: Callable[[list[tuple]], None]) -> SituationCheck:
        check = SituationCheck(name, condition_sql, handler)
        self.checks.append(check)
        return check

    def execute(self, sql: str) -> BatchResult:
        """Run a statement, then every embedded check."""
        result = self.connection.execute(sql)
        self.statements_executed += 1
        for check in self.checks:
            check.evaluations += 1
            self.check_queries_issued += 1
            check_result = self.connection.execute(check.condition_sql)
            rows = check_result.last.rows if check_result.last else []
            if rows:
                check.fired += 1
                check.handler(rows)
        return result

    def close(self) -> None:
        self.connection.close()
