"""Cross-check the three executions of a scenario.

Every check yields typed :class:`Divergence` records naming the first
mismatch, so a failing seed prints an actionable report before the
shrinker takes over.  The comparison surfaces, in checking order:

- ``primitive-stream``: the LED's primitive raises vs the raises the
  scenario's trigger registrations predict;
- ``detections``: named composite detections (event, context,
  constituent sequence numbers), in propagation order;
- ``firings``: rule firings (rule, event, context, coupling,
  constituents), in execution order — deferred ones at flush time;
- ``audit``: the ``(rule, parameter rows)`` multiset materialised by
  rule actions — firing counts *and* the rows each firing was handed;
- ``tables``: monitored tables after the stream vs the passive shadow
  replay (the transparency property);
- ``polling`` / ``embedded``: the baseline oracles' views of the same
  final state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .runner import (
    BaselineRun,
    MultiSiteRun,
    ReferenceRun,
    ScenarioRun,
    StackRun,
)
from .scenario import Scenario


@dataclass(frozen=True)
class Divergence:
    """One cross-check failure."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


def _diff_sequences(kind: str, label_a: str, seq_a, label_b: str,
                    seq_b) -> Divergence | None:
    """First-mismatch diff of two ordered comparison surfaces."""
    if seq_a == seq_b:
        return None
    for index, (item_a, item_b) in enumerate(zip(seq_a, seq_b)):
        if item_a != item_b:
            return Divergence(kind, (
                f"first mismatch at index {index}: "
                f"{label_a} {item_a!r} vs {label_b} {item_b!r} "
                f"(lengths {len(seq_a)}/{len(seq_b)})"))
    shorter, longer = ((label_a, seq_a), (label_b, seq_b))
    if len(seq_a) > len(seq_b):
        shorter, longer = longer, shorter
    index = len(shorter[1])
    return Divergence(kind, (
        f"{shorter[0]} ends at {index} items; {longer[0]} continues "
        f"with {longer[1][index]!r} (lengths {len(seq_a)}/{len(seq_b)})"))


def compare_runs(scenario: Scenario, stack: StackRun,
                 reference: ReferenceRun,
                 baseline: BaselineRun | None = None) -> list[Divergence]:
    """All divergences between one stack run and the oracles."""
    divergences: list[Divergence] = []
    for kind, a, b in (
        ("primitive-stream", stack.primitives, reference.primitives),
        ("detections", stack.detections, reference.detections),
        ("firings", stack.firings, reference.firings),
    ):
        diff = _diff_sequences(kind, "stack", a, "reference", b)
        if diff is not None:
            divergences.append(diff)
    if stack.audit != reference.audit:
        divergences.append(Divergence("audit", (
            f"stack-only (rule, n) {dict(stack.audit - reference.audit)} "
            f"vs predicted-only {dict(reference.audit - stack.audit)}")))
    if baseline is not None:
        divergences.extend(_compare_baseline(scenario, stack, baseline))
    return divergences


def _compare_baseline(scenario: Scenario, stack: StackRun,
                      baseline: BaselineRun) -> list[Divergence]:
    divergences: list[Divergence] = []
    for table in scenario.tables:
        mine = stack.tables.get(table, [])
        shadow = baseline.tables.get(table, [])
        if mine != shadow:
            divergences.append(Divergence("tables", (
                f"table {table}: stack {mine} vs shadow replay {shadow} "
                "(active mediation is not transparent)")))
    # Polling oracle: accumulating its inferred change stream from an
    # empty start must land exactly on the shadow's final state.
    for table in scenario.tables:
        net: Counter = Counter()
        for changed_table, kind, row in baseline.polling_changes:
            if changed_table != table:
                continue
            if kind == "insert":
                net[row] += 1
            else:
                net[row] -= 1
        final = Counter(tuple(row) for row in baseline.tables.get(table, []))
        net = +net
        if net != final:
            divergences.append(Divergence("polling", (
                f"table {table}: polling-accumulated state {dict(net)} vs "
                f"final {dict(final)}")))
    for table, count in baseline.embedded_counts.items():
        expected = len(baseline.tables.get(table, []))
        if count != expected:
            divergences.append(Divergence("embedded", (
                f"table {table}: embedded check saw {count} rows, "
                f"final state has {expected}")))
    return divergences


def compare_stack_runs(a: StackRun, b: StackRun,
                       label_a: str = "cache-on",
                       label_b: str = "cache-off") -> list[Divergence]:
    """Two stack runs of the same scenario must be indistinguishable on
    every semantic surface (the plan cache / fault-free chaos contract)."""
    divergences: list[Divergence] = []
    for kind, seq_a, seq_b in (
        ("primitive-stream", a.primitives, b.primitives),
        ("detections", a.detections, b.detections),
        ("firings", a.firings, b.firings),
        ("degraded", a.degraded, b.degraded),
    ):
        diff = _diff_sequences(f"{kind}:{label_a}/{label_b}",
                               label_a, seq_a, label_b, seq_b)
        if diff is not None:
            divergences.append(diff)
    if a.audit != b.audit:
        divergences.append(Divergence(f"audit:{label_a}/{label_b}", (
            f"{label_a} {dict(a.audit)} vs {label_b} {dict(b.audit)}")))
    if a.tables != b.tables:
        divergences.append(Divergence(f"tables:{label_a}/{label_b}", (
            f"{label_a} {a.tables} vs {label_b} {b.tables}")))
    return divergences


def _compare_multisite(a: MultiSiteRun, b: MultiSiteRun, label_a: str,
                       label_b: str) -> list[Divergence]:
    """Shared multi-site surface diff: one global primitive stream,
    per-event detections, per-rule firings, and the firing multiset."""
    divergences: list[Divergence] = []
    diff = _diff_sequences(f"ms-primitive-stream:{label_a}/{label_b}",
                           label_a, a.primitives, label_b, b.primitives)
    if diff is not None:
        divergences.append(diff)
    for event in sorted(set(a.detections) | set(b.detections)):
        diff = _diff_sequences(
            f"ms-detections[{event}]:{label_a}/{label_b}", label_a,
            a.detections.get(event, []), label_b,
            b.detections.get(event, []))
        if diff is not None:
            divergences.append(diff)
    for rule in sorted(set(a.firings) | set(b.firings)):
        diff = _diff_sequences(
            f"ms-firings[{rule}]:{label_a}/{label_b}", label_a,
            a.firings.get(rule, []), label_b, b.firings.get(rule, []))
        if diff is not None:
            divergences.append(diff)
    if a.audit != b.audit:
        divergences.append(Divergence(
            f"ms-audit:{label_a}/{label_b}",
            f"{label_a} {dict(a.audit)} vs {label_b} {dict(b.audit)}"))
    return divergences


def compare_multisite_runs(stack: MultiSiteRun, reference: MultiSiteRun,
                           label: str = "stack") -> list[Divergence]:
    """All divergences between one multi-site stack run and the twin.

    The surfaces are deployment-shape independent (see
    :class:`~repro.difftest.runner.MultiSiteRun`), so the same check
    applies to the sharded and the single-coordinator shape.
    """
    return _compare_multisite(stack, reference, label, "reference")


def compare_multisite_stack_runs(a: MultiSiteRun, b: MultiSiteRun,
                                 label_a: str = "sharded",
                                 label_b: str = "single-site",
                                 ) -> list[Divergence]:
    """Two deployment shapes of the same multi-site scenario must be
    semantically indistinguishable (the sharding-invisibility contract).
    The partition map is deliberately not compared — it is the one
    surface that legitimately differs."""
    return _compare_multisite(a, b, label_a, label_b)


def render_report(scenario: Scenario,
                  divergences: list[Divergence]) -> str:
    """Human-readable divergence report for CLI/CI output."""
    lines = [scenario.describe()]
    lines += [f"  {divergence}" for divergence in divergences]
    return "\n".join(lines)
