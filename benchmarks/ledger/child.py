"""One workload, one phase, one process: ``python -m benchmarks.ledger.child``.

The parent (``__main__``) starts this with a fixed ``PYTHONHASHSEED`` and
reads one JSON object from the last line of stdout.  Phases:

- ``pass``: build the stack and run the untraced command list once;
  reports ``setup_s``, every timed command's latency, peak RSS and the
  check failures.  The parent runs several passes
  per run and folds them into the end-to-end and ``client.*`` rows;
- ``traced``: the same list once untraced and once with the tracer's
  wrappers installed, plus the twins and standalone loops the per-layer
  rows need.  End-to-end metrics never come from here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from .stats import median_us, percentile, ratio
from .workloads import WORKLOADS

#: Passes per run; a list is sized for ``--seconds / PASSES``.
PASSES = 3
#: Smallest command list (tables, for rule_lifecycle) a pass runs.
MIN_COMMANDS = {"rule_lifecycle": 5, "sql_scan": 40}

def list_size(workload, seconds: float) -> int:
    floor = MIN_COMMANDS.get(workload.name, 60)
    return max(floor, int(workload.rate * seconds / PASSES))


def peak_rss_mb() -> float:
    """This process's own peak resident set, in MiB.  ``VmHWM`` restarts
    at exec; ``ru_maxrss`` does not (it keeps the parent's pre-exec peak),
    so it is only the fallback."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build(plan, **twin):
    """A stack ready for its first command, with everything set-up
    allocated frozen out of the garbage collector's sight (gc.freeze), so
    a collection during the timed phase walks only what the phase made."""
    from .stack import Stack  # imports the program

    gc.unfreeze()
    stack = Stack(plan, **twin)
    gc.collect()
    gc.freeze()
    return stack


# ---------------------------------------------------------------------------
# phases


def run_pass(args, workload) -> dict:
    generate_start = time.perf_counter()
    plan = workload.generate(args.seed, list_size(workload, args.seconds),
                             args.smoke)
    generating = time.perf_counter() - generate_start
    from .stack import drive, final_failures  # imports the program

    stack = build(plan)
    # Process start (stamped by the parent just before the spawn) to a
    # stack ready for its first command: interpreter, imports, schema,
    # data load, rule creation - minus generating the command list.
    setup_s = time.time() - args.t0 - generating
    run = drive(stack)
    peak = peak_rss_mb()
    failures = run.failures + final_failures(stack)
    state = stack.state_rows()
    stack.close()
    return {
        "setup_s": setup_s, "latency": run.latency,
        "ops": [[cmd.op for cmd in commands[len(commands) - len(series):]]
                for commands, series in zip(plan.clients, run.latency)],
        "peak_rss_mb": peak, "state": state,
        "attempted": run.attempted, "failed": len(failures),
        "failures": failures[:5],
    }


def run_traced(args, workload) -> dict:
    from .stack import drive, final_failures
    from .tracer import BOUNDARIES, Breakdown, Tracer, wrapped_boundaries

    plan = workload.generate(args.seed, list_size(workload, args.seconds),
                             args.smoke)
    failures: list[str] = []

    # The same list untraced: the base of trace.overhead_ratio.
    stack = build(plan)
    plain = drive(stack)
    stack.close()
    plain_p50 = statistics.median(v for s in plain.latency for v in s)

    stack = build(plan)
    tracer = Tracer()
    before: dict = {}
    seen = {"pre": wrapped_boundaries(stack.agent)}

    def install() -> None:
        tracer.install(stack.agent)
        before.update(stack.counters())

    run = drive(stack, tracer, on_warm=install, record=plan.transparent)
    delta = {name: value - before[name]
             for name, value in stack.counters().items()}
    seen["during"] = wrapped_boundaries(stack.agent)
    tracer.uninstall()
    seen["post"] = wrapped_boundaries(stack.agent)
    failures += run.failures + final_failures(stack)
    attempted = run.attempted
    stack.close()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(out_dir / f"trace_{workload.name}.jsonl")

    breakdown = Breakdown(tracer.spans)
    commands = len(breakdown.latency)
    traced_p50 = statistics.median(breakdown.latency.values())

    # Tracer self-test: wrappers only while tracing, and the spans add up.
    if seen["pre"] or seen["post"] or len(seen["during"]) != len(BOUNDARIES):
        failures.append(f"tracer wrappers before/during/after the traced "
                        f"pass: {seen}")
    coverage = breakdown.coverage()
    if coverage < 0.98:
        failures.append(f"trace.coverage {coverage:.4f} < 0.98")
    gap = percentile(breakdown.gaps(), 0.95)
    if gap > 0.02:
        failures.append("per-command layer self times differ from the "
                        f"client latency by {gap:.4f} at p95 (> 0.02)")

    def self_us(*keys: str) -> float:
        return median_us(breakdown.entered(*keys))

    def share(*keys: str) -> float:
        return ratio(breakdown.total(*keys), breakdown.wall)

    sql = ("sqlengine:client", "sqlengine:action", "sqlengine:other")
    m = {
        "gateway.self_us": self_us("gateway"),
        "gateway.share": share("gateway"),
        "gateway.passthrough_share": ratio(delta["passed_through"],
                                           delta["commands"]),
        "eca_parser.classify_us": median_us(
            breakdown.durations.get("classify", [])),
        "eca_parser.share": share("eca_parser"),
        "agent.handle_eca_self_us": self_us("agent"),
        "agent.share": share("agent"),
        "persistence.self_us": self_us("persistence"),
        "persistence.share": share("persistence"),
        "persistence.calls_per_cmd": breakdown.call_count("persistence")
        / commands,
        "plancache.hit_rate": ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "plancache.plan_hit_rate": ratio(
            delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]),
        "plancache.evictions": delta["evictions"],
        "sqlengine.client_self_us": self_us("sqlengine:client"),
        "sqlengine.action_self_us": self_us("sqlengine:action"),
        "sqlengine.share": share(*sql),
        "sqlengine.calls_per_cmd": breakdown.call_count(*sql) / commands,
        "sqlengine.statements_per_cmd": delta["sql_statements"] / commands,
        "sqlengine.rows_scanned_per_cmd": delta["rows_scanned"] / commands,
        "sqlengine.index_scan_share": ratio(
            delta["index_scans"], delta["index_scans"] + delta["full_scans"]),
        "locks.exclusive_share": ratio(
            delta["exclusive"], delta["exclusive"] + delta["shared"]),
        "locks.retries": delta["lock_retries"],
        "notifier.self_us": self_us("notifier"),
        "notifier.share": share("notifier"),
        "notifier.payloads_per_cmd": delta["payloads"] / commands,
        "notifier.events_per_payload": ratio(delta["events"],
                                             delta["payloads"]),
        "led.self_us": self_us("led"),
        "led.share": share("led"),
        "led.raises_per_cmd": delta["events"] / commands,
        "led.firings_per_raise": ratio(delta["firings"], delta["events"]),
        "action_handler.self_us": self_us("action_handler"),
        "action_handler.share": share("action_handler"),
        "action_handler.actions_per_cmd": delta["actions"] / commands,
        "action_handler.errors": delta["action_errors"],
        "session.backpressure_waits": delta["backpressure_waits"],
        "trace.overhead_ratio": ratio(traced_p50, plain_p50),
        "trace.coverage": coverage,
    }

    if plan.transparent:
        # Figure 1: every reply equals a bare SqlServer fed the same stream.
        bare = build(plan, agent=False)
        direct = drive(bare, record=True)
        differing = sum(a != b for a, b in
                        zip(run.replies[0], direct.replies[0]))
        if differing:
            failures.append(f"{differing} replies differ from a bare "
                            "SqlServer fed the same stream")
    if plan.workers:
        m["workers.queue_wait_us"] = median_us(tracer.queue_waits)
        inline = build(plan, workers=0)
        inline_run = drive(inline)
        inline.close()
        m["workers.pool_overhead_ratio"] = ratio(
            plain_p50,
            statistics.median(v for s in inline_run.latency for v in s))
    if any(cmd.events for cmd in plan.commands()) and plan.rule_sql:
        twin = build(plan, rules=False)
        twin_tracer = Tracer()
        drive(twin, twin_tracer,
              on_warm=lambda: twin_tracer.install(twin.agent))
        twin_tracer.uninstall()
        twin.close()
        twin_breakdown = Breakdown(twin_tracer.spans)
        m["sqlengine.trigger_overhead_us"] = (
            m["sqlengine.client_self_us"] - median_us(
                twin_breakdown.entered("sqlengine:client")))
    m.update(standalone(plan))
    return {"metrics": m, "attempted": attempted, "failed": len(failures),
            "failures": failures[:5], "samples": commands}


def standalone(plan) -> dict[str, float]:
    """One layer at a time, fed the workload's own texts and events with
    nothing around it."""
    from repro.agent.eca_parser import LanguageFilter, parse_eca_command
    from repro.led import LocalEventDetector
    from repro.snoop import parse_event_expression
    from repro.sqlengine.parser import parse_batch, split_batches

    from .workloads import RECOVER

    clock = time.perf_counter

    def timed(fn, items) -> float:
        samples = []
        for item in items:
            start = clock()
            fn(item)
            samples.append(clock() - start)
        return median_us(samples)

    out: dict[str, float] = {}
    classify = LanguageFilter().classify
    texts = list(dict.fromkeys(
        cmd.sql for cmd in plan.commands() if cmd.sql is not RECOVER))[:2000]
    # ``drop`` texts are one regex match; the parser's work is in creates.
    eca = [text for text in plan.rule_sql + texts
           if classify(text) == LanguageFilter.ECA
           and text.startswith("create")]
    sql = [text for text in texts if classify(text) == LanguageFilter.SQL]
    if sql:
        out["sqlengine.parse_us"] = timed(
            lambda text: [parse_batch(b) for b in split_batches(text)], sql)
        single = [text for text in sql if "\n" not in text]
        bare = build(plan, agent=False)
        out["sqlengine.explain_us"] = timed(
            lambda text: bare.admin.execute("explain " + text), single)
    if eca:
        out["eca_parser.parse_us"] = timed(parse_eca_command, eca)
    expressions = [expr for _e, expr, *_rest in plan.led_rules if expr]
    if expressions:
        out["snoop.parse_us"] = timed(parse_event_expression, expressions)
    stream = [cmd.events for cmd in plan.commands() if cmd.events]
    if stream:
        led = LocalEventDetector()
        for event in dict.fromkeys(e for events in stream for e in events):
            led.define_primitive(event)
        for event, expr, rule, context, coupling in plan.led_rules:
            if expr is not None:
                led.define_composite(event, expr)
            led.add_rule(rule, event, action=lambda occurrence: None,
                         context=context, coupling=coupling)
        samples = []
        for events in stream:
            for event in events:
                start = clock()
                led.raise_event(event)
                samples.append(clock() - start)
            led.flush_deferred()
        out["led.standalone_raise_us"] = median_us(samples)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--phase", required=True,
                        choices=("pass", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    args.smoke = bool(args.smoke)
    # One CPU for the whole child: under the GIL that is all the program
    # can use, and left to the scheduler the four threads of ``sessions``
    # land in one of two regimes 2x apart (client and worker sharing a
    # core or not) for a whole pass.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    run = run_traced if args.phase == "traced" else run_pass
    print(json.dumps(run(args, workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
