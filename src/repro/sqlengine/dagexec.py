"""Batch-at-a-time execution of planner DAGs.

The relational part of a :class:`~repro.sqlengine.planner.SelectPlan`
(scans, joins, residual filter) executes here as a pull-based pipeline:
each stage consumes and produces *batches* of bindings (chunks of
:data:`BATCH_SIZE` row combinations).  A binding is ``(ordinals,
rows)`` — one row per FROM source in join order, tagged with each
row's enumeration ordinal within its scan so the final output can be
put in FROM-order cross-product order no matter how the joins were
reordered.

Join strategies (resolved at runtime against the live table):

- ``probe`` — per-outer-row index bucket lookup, used whenever the
  planned index still exists (one ``index_scans`` count per execution,
  candidates in bucket order);
- ``hash`` — build a hash table over the scan's candidates keyed by the
  normalized join value, probe once per outer binding; only used when
  both columns share a comparison type family, which makes the hash
  key agree exactly with SQL ``=``;
- ``nested`` — plain cross product (no usable edge), with the equi
  conjunct still checked by the residual filter.

Every per-row expression — pushed and residual conjuncts, join keys,
index-hint values — is a callable ``fn(env, ctx)`` from a
:class:`~repro.sqlengine.planner.Lowered`: compiled once the plan is
hot, interpreted otherwise.

Everything downstream of the binding stream — projection, grouping,
ORDER BY, DISTINCT, TOP, INTO — is :class:`~repro.sqlengine.executor.
Executor` code consuming :func:`select_bindings` one binding at a time.
"""

from __future__ import annotations

from itertools import islice

from .evaluator import interpreted, is_true
from .table import _index_key

__all__ = ["BATCH_SIZE", "dml_candidates", "select_bindings"]

#: Rows per exchanged chunk between pipeline stages.
BATCH_SIZE = 256


def _hash_join_key(value):
    """Normalized hash key for an equi-join value, or ``None`` for SQL
    NULL (NULL never equals anything, so NULL rows drop out of the
    build and probe sides alike — exactly ``=`` semantics)."""
    if value is None:
        return None
    return _index_key(value)


def _hint_rows(hint, values, table, env, ctx):
    """Resolve a planned index hint against the *live* table; ``values``
    are the hint's value callables, called only when the index exists.

    Returns the candidate rows when the hinted index still exists —
    IN-list hints yield item-major candidate order (all rows of the
    first item, then the second, ...), which is observable in unsorted
    output — or ``None`` when the hint is absent or stale (the caller
    falls back to a full heap scan, so a dropped index only costs
    speed).
    """
    if hint is None:
        return None
    table_index = table.index_on(hint.column)
    if table_index is None:
        return None
    if hint.kind == "eq":
        return table_index.lookup(table, values[0](env, ctx))
    rows = []
    seen: set[int] = set()
    for value in values:
        for row in table_index.lookup(table, value(env, ctx)):
            if id(row) not in seen:
                seen.add(id(row))
                rows.append(row)
    return rows


def _scan_rows(server, hint, values, table, env, ctx) -> list:
    """One scan's candidate rows — the live hint's narrowing, else the
    whole heap — counted once through :meth:`SqlServer.note_scan`."""
    rows = _hint_rows(hint, values, table, env, ctx)
    indexed = rows is not None
    if not indexed:
        rows = list(table.rows)
    server.note_scan(len(rows), indexed)
    return rows


def _passes(checks, env, ctx) -> bool:
    for check in checks:
        if not is_true(check(env, ctx)):
            return False
    return True


def select_bindings(server, plan, lowered, sources, tables, env, ctx):
    """Bind each surviving row combination into ``sources`` in place
    (in FROM-order), yielding once per binding; ``lowered`` is the
    plan's :class:`~repro.sqlengine.planner.Lowered` callables."""
    if not sources:
        if not plan.empty and _passes(lowered.residual, env, ctx):
            yield
        return
    if len(plan.steps) == 1 and not plan.residual and not plan.empty:
        # Single-scan fast path: no join, no residual — stream the
        # scan's candidates without the batching pipeline (and without
        # the per-row ordinal tags only join reordering needs).
        step = plan.steps[0]
        pushed, values, _join = lowered.steps[0]
        source = sources[step.position]
        rows = _scan_rows(server, step.hint, values, tables[step.position],
                          env, ctx)
        try:
            for row in rows:
                source.row = row
                if _passes(pushed, env, ctx):
                    yield
        finally:
            source.row = None
        return
    survivors = _relational(server, plan, lowered, sources, tables, env,
                            ctx)
    step_sources = [sources[position] for position in plan.order]
    try:
        for _ordinals, rows in survivors:
            for source, row in zip(step_sources, rows):
                source.row = row
            yield
    finally:
        for source in sources:
            source.row = None


def _relational(server, plan, lowered, sources, tables, env, ctx) -> list:
    """Run the scan/join/filter pipeline; returns surviving bindings
    sorted into FROM-order."""
    if plan.empty:
        return []
    stream = iter([[((), ())]])
    bound: list[int] = []
    for step, lowered_step in zip(plan.steps, lowered.steps):
        stream = _apply_step(server, step, lowered_step, stream, sources,
                             tables, env, ctx, list(bound))
        bound.append(step.position)
    if plan.residual:
        stream = _batched(_residual_stage(
            plan, lowered.residual, stream, sources, env, ctx))

    bindings = [binding for batch in stream for binding in batch]
    if plan.reordered:
        inverse = {position: index
                   for index, position in enumerate(plan.order)}
        width = len(plan.order)
        bindings.sort(key=lambda binding: tuple(
            binding[0][inverse[i]] for i in range(width)))
    return bindings


def _apply_step(server, step, lowered_step, upstream, sources, tables, env,
                ctx, bound):
    """One pipeline stage: join the incoming bindings with one scan."""
    pushed, values, keys = lowered_step
    table = tables[step.position]
    spec = step.join
    strategy = "nested"
    index = None
    if spec is not None:
        if spec.strategy == "probe":
            index = table.index_on(spec.probe_column)
            if index is not None:
                strategy = "probe"
            elif spec.same_family:
                # Index dropped since planning: the hash join gives the
                # same matches because the columns share a type family.
                strategy = "hash"
        else:
            strategy = "hash"
    if strategy == "probe":
        return _batched(_probe_stage(server, step, pushed, keys[1], index,
                                     upstream, sources, table, env, ctx,
                                     bound))
    candidates = _scan_candidates(server, step, pushed, values, sources,
                                  table, env, ctx)
    if strategy == "hash":
        return _batched(_hash_stage(step, keys, candidates, upstream,
                                    sources, env, ctx, bound))
    return _batched(_cross_stage(candidates, upstream))


def _batched(bindings):
    """Chunk a stage's binding stream into :data:`BATCH_SIZE` lists."""
    while True:
        batch = list(islice(bindings, BATCH_SIZE))
        if not batch:
            return
        yield batch


def _scan_candidates(server, step, pushed, values, sources, table, env,
                     ctx) -> list:
    """The ``(ordinal, row)`` candidates of one scan: index-narrowed
    when the planned hint's index still exists, full heap order
    otherwise, then filtered by the pushed predicates."""
    source = sources[step.position]
    rows = _scan_rows(server, step.hint, values, table, env, ctx)
    if not pushed:
        return list(enumerate(rows))
    out = []
    for ordinal, row in enumerate(rows):
        source.row = row
        if _passes(pushed, env, ctx):
            out.append((ordinal, row))
    source.row = None
    return out


def _cross_stage(candidates, upstream):
    """Nested (cross) join: extend every binding with every candidate."""
    for batch in upstream:
        for ordinals, rows in batch:
            for ordinal, row in candidates:
                yield ordinals + (ordinal,), rows + (row,)


def _hash_stage(step, keys, candidates, upstream, sources, env, ctx,
                bound):
    """Hash join: build once over this scan, probe per outer binding."""
    spec = step.join
    inner_key, outer_key = keys
    source = sources[step.position]
    build: dict = {}
    for ordinal, row in candidates:
        source.row = row
        key = _hash_join_key(inner_key(env, ctx))
        if key is not None:
            build.setdefault(key, []).append((ordinal, row))
    source.row = None
    outer_source = sources[spec.outer_position]
    outer_index = bound.index(spec.outer_position)
    for batch in upstream:
        for ordinals, rows in batch:
            outer_source.row = rows[outer_index]
            key = _hash_join_key(outer_key(env, ctx))
            matches = build.get(key, ()) if key is not None else ()
            for ordinal, row in matches:
                yield ordinals + (ordinal,), rows + (row,)


def _probe_stage(server, step, pushed, outer_key, index, upstream,
                 sources, table, env, ctx, bound):
    """Index probe: per outer binding, look up the inner bucket (each
    bucket's rows charged to the open accounting frames, if any)."""
    spec = step.join
    source = sources[step.position]
    outer_source = sources[spec.outer_position]
    outer_index = bound.index(spec.outer_position)
    server.note_scan(0, True)
    accounting = server.accounting
    track = accounting is not None and accounting.active()
    for batch in upstream:
        for ordinals, rows in batch:
            outer_source.row = rows[outer_index]
            bucket = index.lookup(table, outer_key(env, ctx))
            if track:
                accounting.note_rows(len(bucket))
            for ordinal, row in enumerate(bucket):
                if pushed:
                    source.row = row
                    if not _passes(pushed, env, ctx):
                        continue
                yield ordinals + (ordinal,), rows + (row,)


def _residual_stage(plan, residual, upstream, sources, env, ctx):
    """Keep the bindings that satisfy every residual conjunct."""
    step_sources = [sources[position] for position in plan.order]
    for batch in upstream:
        for binding in batch:
            for source, row in zip(step_sources, binding[1]):
                source.row = row
            if _passes(residual, env, ctx):
                yield binding


def dml_candidates(server, plan, table, env, ctx):
    """Candidate rows for a planned single-table UPDATE/DELETE.

    Returns the index-narrowed list when the plan's hint still resolves,
    else the table's *live* row list (identity preserved — the DELETE
    fast path keys on ``candidates is table.rows``).  The caller
    re-checks the full WHERE per candidate, so a stale hint can only
    cost speed.
    """
    hint = plan.hint
    values = [interpreted(expr) for expr in hint.exprs] if hint else ()
    rows = _hint_rows(hint, values, table, env, ctx)
    if rows is None:
        rows = table.rows
    server.note_scan(len(rows), rows is not table.rows)
    return rows
