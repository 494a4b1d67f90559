"""E-PERF1: total mediator overhead decomposition (Section 6 concern).

Breaks the active-statement cost into its layers: engine execution,
gateway routing, generated-trigger bookkeeping, notification transport,
LED detection, and action execution — the quantified version of the
paper's "communication ... based on the socket ... efficiency will be
affected".  A fifth series re-runs the composite stack with the full
observability plane on (stats + trace + provenance journal) and exports
its telemetry snapshot to ``BENCH_telemetry.jsonl`` so CI archives one
real artifact per run; ``tools/check_overhead.py`` guards the ratio
between series 4 and 5.

A sixth series measures the *health plane* alone (stats + per-session/
per-rule accounting + the slow-op flight recorder armed at 0ms — its
worst case, capturing every command) with trace and provenance off;
``tools/check_overhead.py`` gates it against series 4 under the same
``OBS_OVERHEAD_RATIO`` ceiling.  The series also cross-checks the
histogram estimator: the gateway's ``agent_command_seconds`` p50 for
pass-through commands must agree with the bench's wall-clock p50 within
one histogram bucket width.

A seventh series measures *tracing alone* (spans + per-command trace
contexts + the pinned trace store; stats, provenance, and the health
extras off) — the marginal cost of a ``trace next <N>`` sampling window
on a production stack; ``tools/check_overhead.py`` gates it against
series 4 under the same ``OBS_OVERHEAD_RATIO`` ceiling.
"""

import math
import os
import statistics

from _helpers import (
    LATENCY_HEADERS,
    agent_stack,
    direct_stack,
    example_1_stack,
    example_2_stack,
    latency_row,
    measure_ms,
    print_series,
    print_stage_breakdown,
    write_bench_json,
)
from repro.obs import TelemetryExporter, bucket_bounds

INSERT = "insert stock values ('X', 1.0, 1)"

TELEMETRY_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_telemetry.jsonl")


def _samples(conn, sql=INSERT, n=200) -> list[float]:
    return measure_ms(conn.execute, n, sql)


def _observed_stack():
    """The Example 2 stack with every observability sink enabled and a
    telemetry exporter attached."""
    server, agent, conn = example_2_stack(
        exporter=TelemetryExporter(TELEMETRY_PATH, max_bytes=0),
    )
    agent.metrics.enabled = True
    agent.trace.enabled = True
    agent.journal.enabled = True
    return server, agent, conn


def _health_stack():
    """The Example 2 stack with only the health plane hot: stats on,
    accounting on (the default), slow-op capture armed at 0ms so every
    command records — trace and provenance stay off."""
    server, agent, conn = example_2_stack()
    agent.metrics.enabled = True
    conn.execute("set agent slowlog 0")
    return server, agent, conn


def _traced_stack():
    """The Example 2 stack with *only* tracing on: every command mints a
    trace context, records its span tree, and pins it into the trace
    store — exactly what a sampled command pays under ``trace next``."""
    server, agent, conn = example_2_stack()
    agent.trace.enabled = True
    return server, agent, conn


def _command_p50_ms(agent, kind: str) -> float:
    """The gateway latency histogram's p50 for one command kind, in ms."""
    for family in agent.metrics.families():
        if family.name == "agent_command_seconds":
            return family.labels(kind).quantile(50) * 1e3
    raise AssertionError("agent_command_seconds histogram not registered")


def test_layer_decomposition_series(benchmark, stage_breakdown):
    s0, direct = direct_stack()
    s1, _a1, gateway_only = agent_stack()
    s2, a2, with_event = example_1_stack()
    s3, _a3, with_composite = example_2_stack()
    s4, a4, with_obs = _observed_stack()
    s5, a5, with_health = _health_stack()
    s6, _a6, with_tracing = _traced_stack()
    with_composite.execute("delete stock")  # keep an AND window open
    with_obs.execute("delete stock")
    with_health.execute("delete stock")
    with_tracing.execute("delete stock")

    if stage_breakdown:
        a2.metrics.enabled = True

    series = {
        "1 engine insert (direct)": _samples(direct),
        "2 + gateway routing": _samples(gateway_only),
        "3 + event machinery (Example 1)": _samples(with_event),
        "4 + composite detection (Example 2)": _samples(with_composite),
        "5 + observability on (stats+trace+provenance)": _samples(with_obs),
        "6 + health plane (accounting+slowlog+stats)": _samples(with_health),
        "7 + trace context (sampled commands)": _samples(with_tracing),
    }
    servers = {
        "1 engine insert (direct)": s0,
        "2 + gateway routing": s1,
        "3 + event machinery (Example 1)": s2,
        "4 + composite detection (Example 2)": s3,
        "5 + observability on (stats+trace+provenance)": s4,
        "6 + health plane (accounting+slowlog+stats)": s5,
        "7 + trace context (sampled commands)": s6,
    }
    hit_rates = {
        label: server.plan_cache.stats()["hit_rate"]
        for label, server in servers.items()
    }
    base = statistics.mean(series["1 engine insert (direct)"])
    routed = statistics.mean(series["2 + gateway routing"])
    evented = statistics.mean(series["3 + event machinery (Example 1)"])

    rows = [latency_row(label, samples) + (
        f"{statistics.mean(samples) / base:.2f}x",
        f"{hit_rates[label]:.3f}")
        for label, samples in series.items()]
    print_series("E-PERF1 mediator overhead decomposition",
                 rows, LATENCY_HEADERS + ("vs direct", "cache_hit"))
    # Estimator cross-check: the gateway histogram's pass-through p50
    # must agree with the wall-clock p50 within one bucket width.
    health_samples = series["6 + health plane (accounting+slowlog+stats)"]
    wall_p50_ms = statistics.median(health_samples)
    hist_p50_ms = _command_p50_ms(a5, "passthrough")
    lo, hi = bucket_bounds(wall_p50_ms / 1e3)
    width_ms = (hi - lo) * 1e3 if math.isfinite(hi) else lo * 1e3
    print(f"\n[p50 agreement] wall={wall_p50_ms:.4f}ms "
          f"hist={hist_p50_ms:.4f}ms bucket_width={width_ms:.4f}ms")

    write_bench_json("overhead", series,
                     extra={"plan_cache_hit_rate": hit_rates,
                            "p50_agreement": {
                                "wall_p50_ms": wall_p50_ms,
                                "hist_p50_ms": hist_p50_ms,
                                "bucket_width_ms": width_ms}})
    telemetry_lines = a4.export_telemetry(label="bench_overhead")
    print(f"\n[telemetry] {telemetry_lines} lines -> {TELEMETRY_PATH}")
    if stage_breakdown:
        print_stage_breakdown("E-PERF1 (Example 1 stack)", a2.metrics)
    # Shape: each layer adds cost.  Routing now includes the always-on
    # accounting plane (one OpContext frame + four note hooks + a locked
    # fold per command, ~5-10us) — significant against a bare ~15us
    # engine insert, noise against the real Example 2 baseline, which is
    # what tools/check_overhead.py gates under OBS_OVERHEAD_RATIO.
    assert routed / base < 3.0
    assert evented > routed
    assert telemetry_lines > 0
    assert abs(hist_p50_ms - wall_p50_ms) <= width_ms
    benchmark(lambda: None)


def test_direct_insert(benchmark):
    _server, conn = direct_stack()
    benchmark(conn.execute, INSERT)


def test_gateway_insert_no_rules(benchmark):
    _server, _agent, conn = agent_stack()
    benchmark(conn.execute, INSERT)


def test_full_active_insert(benchmark):
    _server, _agent, conn = example_1_stack()
    benchmark(conn.execute, INSERT)
