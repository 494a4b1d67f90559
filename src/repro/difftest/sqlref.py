"""The SQL semantics oracle: a deliberately naive executor.

:class:`NaiveExecutor` answers the two questions the planner and the
DAG executor optimise — which row combinations does a FROM/WHERE
produce, and which rows may an UPDATE/DELETE touch — in the most
literal way: a nested loop over every table's heap with the whole WHERE
checked per combination.  No indexes, no plan memo, no predicate
pushdown, no batching, no join reordering.  Everything else (projection,
grouping, ORDER BY, the DML row-apply, triggers) is inherited from
:class:`~repro.sqlengine.executor.Executor`, so a divergence between a
server running this and one running the planned path is a planner or
DAG-executor bug by construction.

Unsorted output is in heap cross-product order; the planned path may
legitimately differ (an ``IN (2, 1)`` index scan is item-major), so
compare unordered SELECTs as row multisets and ORDER BY output exactly.
With no plan there is nothing to compile: every expression here — WHERE,
projection, group keys, aggregate arguments — is interpreted, while the
planned path runs compiled closures once a plan is hot.
"""

from __future__ import annotations

from repro.sqlengine.evaluator import evaluate, interpreted, is_true
from repro.sqlengine.executor import Executor

__all__ = ["NaiveExecutor"]


class NaiveExecutor(Executor):
    """Nested-loop binding enumeration and full-heap DML candidates.

    Install on a server with ``server.executor = NaiveExecutor(server)``.
    """

    def _select_bindings(self, statement, sources, tables, table_keys,
                         env, ctx):
        where = statement.where

        def recurse(depth: int):
            if depth == len(sources):
                if where is None or is_true(evaluate(where, env, ctx)):
                    yield
                return
            source = sources[depth]
            for row in list(tables[depth].rows):
                source.row = row
                yield from recurse(depth + 1)
            source.row = None

        return self._lower(None, statement, env, interpreted), recurse(0)

    def _dml_candidates(self, statement, source, table, env, ctx, state):
        return table.rows
