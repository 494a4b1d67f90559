"""The seven workloads: seeded command lists, the model that predicts
every reply, and the final-state checks.

A workload never touches the program: ``generate(seed, n)`` returns a
:class:`Plan` — schema and data SQL, rule SQL, one fixed command list per
client, and what each command must return — so table sizes, snapshot
growth and every count repeat exactly for one ``(seed, n)``.  The program
only ever sees the generated SQL.  This module imports nothing from
``repro``; :mod:`benchmarks.ledger.stack` runs the plans.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

DATABASE = "ledger"
USER = "dbo"

#: ``Command.sql`` of a rule_lifecycle restart: close the agent and build
#: a fresh ``EcaAgent`` on the same server (= ``recover()``).
RECOVER = "<recover>"

STOCK_DDL = ("create table stock (symbol varchar(10) not null, "
             "price float null, qty int null)")
AUDIT_DDL = "create table audit (rule varchar(40) not null, n int null)"


@dataclass
class Command:
    """One client command and what it must return.

    ``expect`` is ``None`` (only "did not fail" is checked), a substring
    some message must contain, or the exact ``observe()`` of the reply.
    ``events`` are the primitive events the command raises, in order (the
    stream the reference detector and the bare LED are fed).
    """

    sql: str
    op: str
    expect: object = None
    events: tuple = ()


@dataclass
class Plan:
    workload: str
    setup_sql: list[str]
    rule_sql: list[str]
    clients: list[list[Command]]
    workers: int = 0
    #: (event, snoop expression, rule, context, coupling) per LED rule;
    #: expression None = a rule on an existing primitive event
    led_rules: list[tuple] = field(default_factory=list)
    #: final-state checks: ``check(stack, model) -> failures``
    final: object = None
    model: dict = field(default_factory=dict)
    #: no rule watches the commands' tables, so every reply must equal a
    #: bare ``SqlServer``'s (the paper's Figure 1 transparency)
    transparent: bool = False

    def commands(self) -> list[Command]:
        return [cmd for client in self.clients for cmd in client]


def observe(result) -> tuple:
    """A reply reduced to what the model predicts: messages in order and
    each result set's rows as a sorted multiset."""
    return (tuple(result.messages),
            tuple(tuple(sorted(tuple(row) for row in rs.rows))
                  for rs in result.result_sets))


def expected(messages=(), *row_sets) -> tuple:
    return (tuple(messages),
            tuple(tuple(sorted(tuple(row) for row in rows))
                  for rows in row_sets))


def _mix(rng, n: int, shares: dict[str, int]) -> list[str]:
    """``n`` operation labels in exactly the given shares (each a multiple
    of 5%): shuffled blocks of 20, so every seed runs the same mix and
    only the order and the keys differ."""
    block = [op for op, percent in shares.items() for _ in range(percent // 5)]
    assert len(block) == 20, shares
    out: list[str] = []
    while len(out) < n:
        rng.shuffle(block)
        out += block
    return out[:n]


def _batches(statements: list[str], size: int = 250) -> list[str]:
    return ["\n".join(statements[i:i + size])
            for i in range(0, len(statements), size)]


def _rows_of(stack, table: str) -> list[tuple]:
    result = stack.admin.execute(f"select * from {table}")
    return sorted(tuple(row) for row in result.last.rows)


# ---------------------------------------------------------------------------
# sql_point / sql_adhoc


class PointWorkload:
    """Plain point commands over a 500-row ``stock``, one unrelated rule
    installed.  ``unique=False`` draws from 64 fixed statement texts (they
    fit the 512-entry plan cache); ``unique=True`` puts a fresh literal in
    every text so each lookup misses and evicts."""

    rows = 500

    def __init__(self, name: str, rate: float, unique: bool):
        self.name = name
        self.rate = rate
        self.unique = unique

    def generate(self, seed: int, n: int, smoke: bool = False) -> Plan:
        rng = random.Random(f"{seed}:{self.name}")
        keys = [f"S{i}" for i in range(self.rows)]
        model = {key: [round(10 + rng.random() * 90, 2), rng.randrange(1, 100)]
                 for key in keys}
        setup = [STOCK_DDL, "create index idx_symbol on stock (symbol)"]
        setup += _batches([
            f"insert stock values ('{key}', {price}, {qty})"
            for key, (price, qty) in model.items()])
        setup.append("create table other (k int not null, v int null)")
        rules = ["create trigger t_other on other for insert event e_other "
                 "as print 'other'"]
        # 35 + 16 + 6 + 7 = 64 distinct texts when not unique.
        hot_select = rng.sample(keys, 35)
        hot_update = rng.sample(keys, 16)
        hot_txn = rng.sample(keys, 7)
        commands = []
        mix = _mix(rng, n, {"select": 55, "update": 25, "insert_delete": 10,
                            "txn": 10})
        for i, op in enumerate(mix):
            if op == "select":
                key = rng.choice(keys if self.unique else hot_select)
                tag = f", {i}" if self.unique else ""
                row = (key, *model[key]) + ((i,) if self.unique else ())
                commands.append(Command(
                    f"select symbol, price, qty{tag} from stock "
                    f"where symbol = '{key}'", "select", expected((), [row])))
            elif op == "update":
                key = rng.choice(keys if self.unique else hot_update)
                if self.unique:
                    model[key][1] = i
                    assign = f"qty = {i}"
                else:
                    model[key][1] += 1
                    assign = "qty = qty + 1"
                commands.append(Command(
                    f"update stock set {assign} where symbol = '{key}'",
                    "update", expected()))
            elif op == "insert_delete":
                j = i if self.unique else rng.randrange(6)
                commands.append(Command(
                    f"insert stock values ('T{j}', 1.5, {j})\n"
                    f"delete stock where symbol = 'T{j}'",
                    "insert_delete", expected()))
            else:
                key = rng.choice(keys if self.unique else hot_txn)
                if self.unique:
                    model[key][1] = i
                    assign, column, value = f"qty = {i}", "qty", i
                else:
                    model[key][0] += 0.25
                    assign, column = "price = price + 0.25", "price"
                    value = model[key][0]
                commands.append(Command(
                    f"begin tran\nupdate stock set {assign} "
                    f"where symbol = '{key}'\nselect {column} from stock "
                    f"where symbol = '{key}'\ncommit",
                    "txn", expected((), [(value,)])))
        return Plan(self.name, setup, rules, [commands], final=_point_final,
                    model={key: tuple(value) for key, value in model.items()},
                    transparent=True)


def _point_final(stack, model) -> list[str]:
    want = sorted((key, price, qty) for key, (price, qty) in model.items())
    if _rows_of(stack, "stock") != want:
        return ["final stock rows differ from the generator's model"]
    return []


# ---------------------------------------------------------------------------
# sql_scan


class ScanWorkload:
    """Cached-text read commands over static tables: three-table join,
    filtered scan, ``count(*)`` and ``group by`` over the big table."""

    name = "sql_scan"
    big_rows = 10_000

    def __init__(self, rate: float):
        self.rate = rate

    def generate(self, seed: int, n: int, smoke: bool = False) -> Plan:
        rng = random.Random(f"{seed}:{self.name}")
        big_rows = self.big_rows // 50 if smoke else self.big_rows
        stock = [(f"S{i % 32}", float(i), i % 7) for i in range(96)]
        quotes = [(f"S{i % 32}", i + 0.25) for i in range(96)]
        orders = [(f"S{i % 32}", i) for i in range(24)]
        big = [(i, f"G{rng.randrange(20)}", rng.randrange(1000),
                rng.randrange(50)) for i in range(big_rows)]
        setup = [
            STOCK_DDL,
            "create table quotes (symbol varchar(10) not null, bid float null)",
            "create table orders (symbol varchar(10) not null, n int null)",
            "create table big (k int not null, grp varchar(10) not null, "
            "v int null, w int null)",
        ]
        setup += _batches([f"insert stock values ('{s}', {p}, {q})"
                           for s, p, q in stock])
        setup += _batches([f"insert quotes values ('{s}', {b})"
                           for s, b in quotes])
        setup += _batches([f"insert orders values ('{s}', {m})"
                           for s, m in orders])
        setup += _batches([f"insert big values ({k}, '{g}', {v}, {w})"
                           for k, g, v, w in big], 500)

        texts: dict[str, list[tuple[str, tuple]]] = {
            "join": [], "filter": [], "count": [], "agg": []}
        for floor in range(4):
            rows = [(s, b, m) for s, _p, q in stock if q > floor
                    for s2, b in quotes if s2 == s
                    for s3, m in orders if s3 == s]
            texts["join"].append((
                "select s.symbol, q.bid, o.n from stock s, quotes q, orders o "
                "where s.symbol = q.symbol and q.symbol = o.symbol "
                f"and s.qty > {floor}", expected((), rows)))
        for low in (100, 300, 500, 700):
            rows = [(k, v) for k, _g, v, _w in big if low <= v < low + 50]
            texts["filter"].append((
                f"select k, v from big where v >= {low} and v < {low + 50}",
                expected((), rows)))
        texts["count"].append(("select count(*) from big",
                               expected((), [(len(big),)])))
        texts["count"].append((
            "select count(*) from big where w < 25",
            expected((), [(sum(1 for row in big if row[3] < 25),)])))
        for floor in (0, 10):
            groups: dict[str, list[int]] = {}
            for _k, g, v, w in big:
                if w >= floor:
                    entry = groups.setdefault(g, [0, 0])
                    entry[0] += 1
                    entry[1] += v
            texts["agg"].append((
                f"select grp, count(*), sum(v) from big where w >= {floor} "
                "group by grp",
                expected((), [(g, c, s) for g, (c, s) in groups.items()])))

        # Each kind cycles through its texts, so every seed runs every
        # text equally often (cmd_p95_us sits among the 22 aggregates and
        # would otherwise move with how many of each a seed drew).
        commands, used = [], Counter()
        for op in _mix(rng, n, {"join": 60, "filter": 20, "count": 10,
                                "agg": 10}):
            sql, expect = texts[op][used[op] % len(texts[op])]
            used[op] += 1
            commands.append(Command(sql, op, expect))
        return Plan(self.name, setup, [], [commands], transparent=True)


# ---------------------------------------------------------------------------
# active_primitive / active_composite


#: (event, table operation, rule, action)
_PRIMITIVE_RULES = (
    ("addStk", "insert", "t_add", "print 'addStk'"),
    ("addStk2", "insert", "t_add2",
     "select symbol, price from stock.inserted"),
    ("updStk", "update", "t_upd", "print 'updStk'"),
    ("delStk", "delete", "t_del", "print 'delStk'"),
)

#: (event, expression, rule, context, coupling, action)
_COMPOSITE_RULES = (
    ("e_and", "delStk ^ addStk", "t_and", "RECENT", "IMMEDIATE",
     "insert audit select 't_and', count(*) from stock.deleted"),
    ("e_seq", "addStk ; delStk", "t_seq", "CHRONICLE", "IMMEDIATE",
     "insert audit values ('t_seq', 0)"),
    ("e_or", "updStk | delStk", "t_or", "CONTINUOUS", "IMMEDIATE",
     "insert audit values ('t_or', 0)"),
    ("e_cum", "addStk ^ updStk", "t_cum", "CUMULATIVE", "IMMEDIATE",
     "insert audit values ('t_cum', 0)"),
    ("updStk", None, "t_def", "RECENT", "DEFERRED",
     "insert audit values ('t_def', 0)"),
)

_RAISES = {"insert": ("addStk", "addStk2"), "update": ("updStk",),
           "delete": ("delStk",)}


class ActiveWorkload:
    """Insert/update/delete on a ``stock`` held near 100 rows, IMMEDIATE
    primitive rules on all three operations (two events coalesced on
    insert, one action reading ``stock.inserted``).  ``composite=True``
    adds five composite/DEFERRED rules and puts a tenth of the commands
    inside explicit transactions."""

    def __init__(self, name: str, rate: float, composite: bool):
        self.name = name
        self.rate = rate
        self.composite = composite

    def generate(self, seed: int, n: int, smoke: bool = False) -> Plan:
        rng = random.Random(f"{seed}:{self.name}")
        model = {f"S{i}": [round(10 + rng.random() * 90, 2), 1]
                 for i in range(100)}
        setup = [STOCK_DDL, "create index idx_symbol on stock (symbol)"]
        setup += _batches([
            f"insert stock values ('{key}', {price}, {qty})"
            for key, (price, qty) in model.items()])
        rules = [f"create trigger {rule} on stock for {operation} "
                 f"event {event} as {action}"
                 for event, operation, rule, action in _PRIMITIVE_RULES]
        led_rules = []
        if self.composite:
            setup.append(AUDIT_DDL)
            for event, expr, rule, context, coupling, action in _COMPOSITE_RULES:
                clause = f"event {event}" + (f" = {expr}" if expr else "")
                rules.append(f"create trigger {rule} {clause} {coupling} "
                             f"{context} as {action}")
                led_rules.append((event, expr, rule, context, coupling))
        live = list(model)
        next_key = len(live)

        def dml():
            """One DML statement: (sql, operation, messages, result rows)."""
            nonlocal next_key
            x = rng.random()
            # Nominal mix 40/30/30; the table is held between 80 and 120
            # rows, so an insert at the cap becomes a delete.
            if len(live) <= 80 or (x < 0.40 and len(live) < 120):
                key = f"S{next_key}"
                next_key += 1
                price = round(10 + rng.random() * 90, 2)
                model[key] = [price, 1]
                live.append(key)
                return (f"insert stock values ('{key}', {price}, 1)",
                        "insert", ("addStk",), [[(key, price)]])
            if 0.40 <= x < 0.70:
                key = rng.choice(live)
                model[key][1] += 1
                return (f"update stock set qty = qty + 1 "
                        f"where symbol = '{key}'", "update", ("updStk",), [])
            key = live.pop(rng.randrange(len(live)))
            del model[key]
            return (f"delete stock where symbol = '{key}'", "delete",
                    ("delStk",), [])

        commands = []
        for _ in range(n):
            parts = [dml() for _ in range(
                2 if self.composite and rng.random() < 0.10 else 1)]
            messages = [m for part in parts for m in part[2]]
            row_sets = [rows for part in parts for rows in part[3]]
            events = tuple(e for part in parts for e in _RAISES[part[1]])
            if len(parts) == 1:
                sql, op = parts[0][0], parts[0][1]
            else:
                body = "\n".join(part[0] for part in parts)
                sql, op = f"begin tran\n{body}\ncommit", "txn"
            commands.append(Command(sql, op, expected(messages, *row_sets),
                                    events))
        return Plan(self.name, setup, rules, [commands], led_rules=led_rules,
                    final=_active_final,
                    model={k: tuple(v) for k, v in model.items()})


def reference_counts(plan: Plan):
    """(primitive raises per event, firings per rule) the paper-literal
    reference detector produces for the plan's primitive sequence."""
    from repro.difftest import ReferenceDetector

    ref = ReferenceDetector()
    for event in {e for events in _RAISES.values() for e in events}:
        ref.define_primitive(event)
    for event, expr, rule, context, coupling in plan.led_rules:
        if expr is not None:
            ref.define_composite(event, expr)
        ref.add_rule(rule, event, context=context, coupling=coupling)
    for cmd in plan.commands():
        for event in cmd.events:
            ref.raise_event(event)
        ref.flush_deferred()
    raises = Counter(d.event_name for d in ref.detections if d.context is None)
    firings = Counter(f.rule_name for f in ref.firings)
    return raises, firings


def _active_final(stack, model) -> list[str]:
    failures = []
    failures.extend(_point_final(stack, model))
    raises, firings = reference_counts(stack.plan)
    agent = stack.agent
    if agent.notifier.received != sum(raises.values()):
        failures.append(f"notifier raised {agent.notifier.received} "
                        f"primitive events, reference {sum(raises.values())}")
    # IMMEDIATE primitive rules run inline in the native trigger, so one
    # firing is one reply carrying the rule's output (counted per command
    # against the model); LED-managed rules are in the firing history.
    fired = Counter(f.rule_name.rsplit(".", 1)[-1]
                    for f in agent.firing_history())
    if fired != firings:
        failures.append(f"LED firings {dict(fired)} != reference "
                        f"{dict(firings)}")
    if stack.plan.led_rules:
        audit = Counter()
        for rule, _rows in _rows_of(stack, "audit"):
            audit[rule] += 1
        if audit != firings:
            failures.append(f"audit rows {dict(audit)} != reference "
                            f"{dict(firings)}")
    return failures


# ---------------------------------------------------------------------------
# sessions


class SessionsWorkload:
    """Two client threads through a 2-worker pool, each on its own
    tables: point selects, point updates and active inserts."""

    name = "sessions"
    clients = 2

    def __init__(self, rate: float):
        self.rate = rate

    def generate(self, seed: int, n: int, smoke: bool = False) -> Plan:
        setup, rules, lists = [], [], []
        model = {}
        for c in range(self.clients):
            rng = random.Random(f"{seed}:{self.name}:{c}")
            acct = {k: rng.randrange(1000) for k in range(200)}
            setup += [
                f"create table acct{c} (k int not null, v int null)",
                f"create index idx_acct{c} on acct{c} (k)",
                f"create table log{c} (k int not null, v int null)",
            ]
            setup += _batches([f"insert acct{c} values ({k}, {v})"
                               for k, v in acct.items()])
            rules.append(f"create trigger t_log{c} on log{c} for insert "
                         f"event e_log{c} as print 'log{c}'")
            hot = rng.sample(sorted(acct), 40)
            commands, logged = [], 0
            mix = _mix(rng, n, {"select": 60, "update": 30, "insert": 10})
            for i, op in enumerate(mix):
                key = rng.choice(hot)
                if op == "select":
                    commands.append(Command(
                        f"select k, v from acct{c} where k = {key}",
                        "select", expected((), [(key, acct[key])])))
                elif op == "update":
                    delta = rng.randrange(1, 4)
                    acct[key] += delta
                    commands.append(Command(
                        f"update acct{c} set v = v + {delta} where k = {key}",
                        "update", expected()))
                else:
                    logged += 1
                    commands.append(Command(
                        f"insert log{c} values ({i}, {key})", "insert",
                        expected([f"log{c}"]), (f"e_log{c}",)))
            lists.append(commands)
            model[c] = (sum(acct.values()), logged)
        return Plan(self.name, setup, rules, lists, workers=2,
                    final=_sessions_final, model=model)


def _sessions_final(stack, model) -> list[str]:
    failures = []
    for c, (total, logged) in model.items():
        got = stack.admin.execute(f"select sum(v) from acct{c}").last.scalar()
        if got != total:
            failures.append(f"acct{c} sum(v) {got} != model {total}")
        got = stack.admin.execute(f"select count(*) from log{c}").last.scalar()
        if got != logged:
            failures.append(f"log{c} rows {got} != model {logged}")
        executed = stack.conns[c].session.executed_total
        if executed != len(stack.plan.clients[c]):
            failures.append(
                f"client {c}: session executed {executed} commands, "
                f"client sent {len(stack.plan.clients[c])}")
    return failures


# ---------------------------------------------------------------------------
# rule_lifecycle


class LifecycleWorkload:
    """Rule DDL and recovery: per table three primitive and two composite
    ``create trigger``, then five agent restarts on the same server, then
    every ``drop trigger`` and ``drop event``.  ``n`` counts tables."""

    name = "rule_lifecycle"
    restarts = 5

    def __init__(self, rate: float):
        self.rate = rate

    def generate(self, seed: int, n: int, smoke: bool = False) -> Plan:
        rng = random.Random(f"{seed}:{self.name}")
        tables = max(self.restarts, n)
        order = list(range(tables))
        rng.shuffle(order)
        setup = [AUDIT_DDL] + [
            f"create table t{i} (k int not null, v int null)"
            for i in range(tables)]
        creates, triggers, composites, primitives = [], [], [], []
        led_rules = []
        for i in order:
            for operation in ("insert", "update", "delete"):
                tag = f"{operation[:3]}{i}"
                creates.append(Command(
                    f"create trigger tp_{tag} on t{i} for {operation} "
                    f"event e_{tag} as insert audit values ('tp_{tag}', 0)",
                    "create_primitive", "created"))
                triggers.append(f"tp_{tag}")
                primitives.append(f"e_{tag}")
            for tag, expr, context in (
                    (f"a{i}", f"e_ins{i} ^ e_del{i}", "RECENT"),
                    (f"s{i}", f"e_ins{i} ; e_upd{i}", "CHRONICLE")):
                creates.append(Command(
                    f"create trigger tc_{tag} event ec_{tag} = {expr} "
                    f"{context} as insert audit values ('tc_{tag}', 0)",
                    "create_composite", "created"))
                triggers.append(f"tc_{tag}")
                composites.append(f"ec_{tag}")
                led_rules.append((f"ec_{tag}", expr, f"tc_{tag}", context,
                                  "IMMEDIATE"))
        restarts = [Command(RECOVER, "recover", ("probe", order[r]))
                    for r in range(self.restarts)]
        rng.shuffle(triggers)
        drops = [Command(f"drop trigger {name}", "drop", "dropped")
                 for name in triggers]
        drops += [Command(f"drop event {name}", "drop_event", "dropped")
                  for name in composites + primitives]
        return Plan(self.name, setup, [], [creates + restarts + drops],
                    led_rules=led_rules, final=_lifecycle_final)


def probe_recovered(stack, table: int) -> list[str]:
    """After a restart: one insert and one delete on ``t<table>`` must
    fire exactly the recovered rules watching them."""
    stack.admin.execute(f"insert t{table} values (1, 1)")
    stack.admin.execute(f"delete t{table} where k = 1")
    fired = Counter(row[0] for row in _rows_of(stack, "audit"))
    want = {f"tp_ins{table}": 1, f"tp_upd{table}": 0, f"tp_del{table}": 1,
            f"tc_a{table}": 1, f"tc_s{table}": 0}
    got = {rule: fired.get(rule, 0) for rule in want}
    if got != want:
        return [f"after recovery the probe on t{table} fired {got}, "
                f"expected {want}"]
    return []


def _lifecycle_final(stack, _model) -> list[str]:
    failures = []
    for table in ("SysPrimitiveEvent", "SysCompositeEvent", "SysEcaTrigger",
                  "SysEcaAction"):
        rows = _rows_of(stack, table)
        if rows:
            failures.append(f"{table} holds {len(rows)} rows after the drops")
    names = stack.server.trigger_names(DATABASE)
    if names:
        failures.append(f"{len(names)} native triggers left after the drops")
    return failures


# ---------------------------------------------------------------------------
# the registry

#: ``rate`` sizes the list: commands (tables, for rule_lifecycle) per
#: second of ``--seconds``, from probes on the 2-core reference box, so
#: the timed phases of a run's passes add up to about ``--seconds`` there
#: (sql_scan to about twice that: its p95 needs 200+ timed commands).
WORKLOADS = {w.name: w for w in (
    PointWorkload("sql_point", 7500, unique=False),
    PointWorkload("sql_adhoc", 2500, unique=True),
    ScanWorkload(80),
    ActiveWorkload("active_primitive", 1500, composite=False),
    ActiveWorkload("active_composite", 500, composite=True),
    SessionsWorkload(1500),
    LifecycleWorkload(100 / 3),
)}
