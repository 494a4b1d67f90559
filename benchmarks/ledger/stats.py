"""The few statistics the ledger reports, in one place."""

from __future__ import annotations

import math
import statistics

SEGMENTS = 5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def fastest(passes: list[list[list[float]]]) -> list[list[float]]:
    """Per client and command, the fastest of the passes.

    Every pass runs the same list against the same state in a fresh
    process, so the passes differ only by what the host did to them; this
    host flips between speed modes ~1.5x apart for stretches of 0.05-5 s
    (CPU time tracks wall time: the core slows, nobody preempts), and a
    median over one pass lands in either mode.  The minimum reads each
    command in the fast mode as long as one pass met it there."""
    return [[min(values) for values in zip(*client)]
            for client in zip(*passes)]


def pass_spread(passes: list[list[list[float]]]) -> float:
    """Median over commands of slowest pass / fastest pass, minus 1: how
    much the host disagreed with itself during the run."""
    ratios = [max(values) / min(values)
              for client in zip(*passes) for values in zip(*client)]
    return statistics.median(ratios) - 1


def throughput(latency: list[list[float]]) -> float:
    """Commands per second: every client's timed list is cut into
    SEGMENTS equal-count segments, a segment's rate is the sum over
    clients of commands / seconds blocked in ``execute``, and the median
    segment is reported."""
    rates = []
    for k in range(SEGMENTS):
        rate = 0.0
        for series in latency:
            size = len(series) // SEGMENTS
            segment = series[k * size:(k + 1) * size]
            rate += len(segment) / sum(segment)
        rates.append(rate)
    return statistics.median(rates)


def client_rows(ops: list[list[str]],
                latency: list[list[float]]) -> dict[str, float]:
    """The ``client.*`` rows: what the client saw, per operation."""
    merged = [value for series in latency for value in series]
    rows = {"client.cmd_p99_us": percentile(merged, 0.99) * 1e6}
    first, last = [], []
    by_op: dict[str, list[float]] = {}
    for labels, series in zip(ops, latency):
        tenth = max(1, len(series) // 10)
        first += series[:tenth]
        last += series[-tenth:]
        for op, value in zip(labels, series):
            by_op.setdefault(op, []).append(value)
    rows["client.p50_drift"] = ratio(statistics.median(last),
                                     statistics.median(first))
    for op, values in by_op.items():
        if op == "recover":
            rows["client.op.recover_p50_ms"] = statistics.median(values) * 1e3
        else:
            rows[f"client.op.{op}_p50_us"] = median_us(values)
    return rows
