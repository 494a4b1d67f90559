"""Run every sqlengine test four ways: plan cache on/off x oracle
cross-check off/on.

The statement/plan cache must be semantically transparent — a cached
batch (and its memoized plan) has to behave exactly like a freshly
parsed, freshly planned one — and so must the planner and DAG executor:
a planned statement has to see exactly the rows a plain nested loop
would.  Parametrizing the whole directory over both proves it: any test
that passes only in one mode is a transparency bug.

The second axis keeps the ids ``planner-on`` / ``planner-off`` it had
when "off" selected the row walker that used to live in the executor
(the recorded test floor names them).  ``planner-off`` now means: the
server still runs the one planned path — so plan, index and counter
assertions hold unchanged — but every binding stream and every DML
candidate set it produces is checked, statement by statement, against
:class:`repro.difftest.sqlref.NaiveExecutor`.
"""

from collections import Counter

import pytest

from repro.difftest.sqlref import NaiveExecutor
from repro.sqlengine import plancache
from repro.sqlengine import server as server_module
from repro.sqlengine.errors import SqlError
from repro.sqlengine.evaluator import evaluate, is_true
from repro.sqlengine.executor import Executor


class CrossCheckedExecutor(Executor):
    """The planned executor, asserting on every statement that it agrees
    with the naive oracle (as multisets of row identities)."""

    def __init__(self, server):
        super().__init__(server)
        self._oracle = NaiveExecutor(server)

    def _select_bindings(self, statement, sources, tables, table_keys,
                         env, ctx):
        def bound_rows(stream):
            return Counter(
                tuple(id(source.row) for source in sources) for _ in stream)

        try:
            expected = bound_rows(self._oracle._select_bindings(
                statement, sources, tables, table_keys, env, ctx)[1])
        except SqlError:
            # The oracle evaluates the WHERE on every combination, so it
            # can raise where pushdown never looks; let the planned run
            # decide what the client sees.
            expected = None
        lowered, planned = super()._select_bindings(
            statement, sources, tables, table_keys, env, ctx)

        def checked():
            seen = Counter()
            for _ in planned:
                seen[tuple(id(source.row) for source in sources)] += 1
                yield
            if expected is not None:
                assert seen == expected, f"planned != oracle for {statement}"

        return lowered, checked()

    def _dml_candidates(self, statement, source, table, env, ctx, state):
        candidates = super()._dml_candidates(
            statement, source, table, env, ctx, state)

        def qualifying(rows):
            matched = Counter()
            for row in list(rows):
                source.row = row
                if statement.where is None or is_true(
                        evaluate(statement.where, env, ctx)):
                    matched[id(row)] += 1
            source.row = None
            return matched

        try:
            expected = qualifying(table.rows)
        except SqlError:
            return candidates
        assert qualifying(candidates) == expected, (
            f"planned candidates != oracle for {statement}")
        return candidates


@pytest.fixture(autouse=True, params=["plan-cache-on", "plan-cache-off"])
def plan_cache_mode(request, monkeypatch):
    """Force the default plan-cache mode for servers built in this test."""
    monkeypatch.setattr(
        plancache, "DEFAULT_ENABLED", request.param == "plan-cache-on")
    return request.param


@pytest.fixture(autouse=True, params=[
    pytest.param(False, id="planner-on"),
    pytest.param(True, id="planner-off"),
])
def planner_oracle_check(request, monkeypatch):
    """Build this test's servers on :class:`CrossCheckedExecutor`."""
    if request.param:
        monkeypatch.setattr(server_module, "Executor", CrossCheckedExecutor)
    return request.param
