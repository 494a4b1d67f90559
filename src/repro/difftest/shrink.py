"""Minimise a diverging scenario to a small reproduction.

Delta-debugging over the failing ``(rule set, statement stream)`` pair:
ddmin on the DML stream, then greedy pruning of rules and primitive
events (respecting expression references), repeated to a fixpoint.  The
``still_fails`` predicate re-runs the harness on each candidate, so the
result is the smallest scenario the search finds that *still diverges*.
Minimised scenarios are written to ``tests/difftest/corpus/`` as JSON
regression files that ``tests/difftest/test_corpus.py`` replays forever.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable

from .scenario import Scenario, leaf_names

#: Cap on harness re-runs during one shrink (each is three executions).
DEFAULT_BUDGET = 400


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def take(self) -> bool:
        if self.spent >= self.limit:
            return False
        self.spent += 1
        return True


def _ddmin_statements(scenario: Scenario,
                      still_fails: Callable[[Scenario], bool],
                      budget: _Budget) -> Scenario:
    """Classic ddmin over the statement stream."""
    statements = list(scenario.statements)
    granularity = 2
    while len(statements) >= 2 and granularity <= len(statements):
        chunk = max(1, len(statements) // granularity)
        reduced = False
        start = 0
        while start < len(statements):
            candidate_statements = (
                statements[:start] + statements[start + chunk:])
            if not budget.take():
                return scenario.with_statements(statements)
            candidate = scenario.with_statements(candidate_statements)
            if still_fails(candidate):
                statements = candidate_statements
                reduced = True
                # Re-test from the same offset at the same granularity.
            else:
                start += chunk
        if not reduced:
            if granularity >= len(statements):
                break
            granularity = min(len(statements), granularity * 2)
    return scenario.with_statements(statements)


def _prune_rules(scenario: Scenario,
                 still_fails: Callable[[Scenario], bool],
                 budget: _Budget) -> Scenario:
    """Greedily drop rules, last-defined first (extra rules fall before
    defining rules; a defining rule goes only when nothing references
    its event)."""
    rules = list(scenario.rules)
    for index in range(len(rules) - 1, -1, -1):
        rule = rules[index]
        if rule.expression is not None:
            others = [r for r in rules if r is not rule]
            referenced = any(r.event == rule.event for r in others)
            referenced = referenced or any(
                rule.event in leaf_names(r.expression)
                for r in others if r.expression is not None)
            if referenced:
                continue
        if not budget.take():
            break
        candidate = scenario.with_rules(
            rules[:index] + rules[index + 1:])
        if still_fails(candidate):
            rules = list(candidate.rules)
    return scenario.with_rules(rules)


def _prune_primitives(scenario: Scenario,
                      still_fails: Callable[[Scenario], bool],
                      budget: _Budget) -> Scenario:
    """Drop primitive events no remaining composite expression needs."""
    primitives = list(scenario.primitives)
    needed: set[str] = set()
    for rule in scenario.rules:
        if rule.expression is not None:
            needed |= leaf_names(rule.expression)
    for index in range(len(primitives) - 1, -1, -1):
        if primitives[index].event in needed:
            continue
        if not budget.take():
            break
        candidate = scenario.with_primitives(
            primitives[:index] + primitives[index + 1:])
        if still_fails(candidate):
            primitives = list(candidate.primitives)
    return scenario.with_primitives(primitives)


def shrink_scenario(scenario: Scenario,
                    still_fails: Callable[[Scenario], bool],
                    budget: int = DEFAULT_BUDGET) -> Scenario:
    """Minimise a diverging scenario.

    ``still_fails`` must return True while the candidate still exhibits
    the divergence.  The original scenario is returned unchanged if the
    predicate rejects it (not reproducible — never "shrink" into a
    different bug).
    """
    tracker = _Budget(budget)
    if not still_fails(scenario):
        return scenario
    current = scenario
    while True:
        before = (len(current.statements), len(current.rules),
                  len(current.primitives))
        current = _ddmin_statements(current, still_fails, tracker)
        current = _prune_rules(current, still_fails, tracker)
        current = _prune_primitives(current, still_fails, tracker)
        after = (len(current.statements), len(current.rules),
                 len(current.primitives))
        if after == before or tracker.spent >= tracker.limit:
            return current


def _prune_multisite_primitives(scenario, still_fails, budget: _Budget):
    """Drop site primitives no remaining global expression needs.

    The multi-site analogue of :func:`_prune_primitives`: global
    expressions reference *qualified* leaf names, so the needed-set is
    matched against each spec's ``qualified`` property."""
    primitives = list(scenario.primitives)
    needed: set[str] = set()
    for rule in scenario.rules:
        if rule.expression is not None:
            needed |= leaf_names(rule.expression)
    for index in range(len(primitives) - 1, -1, -1):
        if primitives[index].qualified in needed:
            continue
        if not budget.take():
            break
        candidate = scenario.with_primitives(
            primitives[:index] + primitives[index + 1:])
        if still_fails(candidate):
            primitives = list(candidate.primitives)
    return scenario.with_primitives(primitives)


def shrink_multisite_scenario(scenario, still_fails,
                              budget: int = DEFAULT_BUDGET):
    """Minimise a diverging multi-site scenario.

    Same fixpoint loop as :func:`shrink_scenario` — ddmin on the global
    statement interleaving, then rule and site-primitive pruning — over
    a :class:`~repro.difftest.scenario.MultiSiteScenario`.  (Sites
    themselves are not pruned: an unused site is just an idle agent, and
    keeping the site list stable keeps the reproduction's partition
    deterministic.)
    """
    tracker = _Budget(budget)
    if not still_fails(scenario):
        return scenario
    current = scenario
    while True:
        before = (len(current.statements), len(current.rules),
                  len(current.primitives))
        current = _ddmin_statements(current, still_fails, tracker)
        current = _prune_rules(current, still_fails, tracker)
        current = _prune_multisite_primitives(current, still_fails, tracker)
        after = (len(current.statements), len(current.rules),
                 len(current.primitives))
        if after == before or tracker.spent >= tracker.limit:
            return current


def load_multisite_corpus(directory: str | Path):
    """All multi-site corpus scenarios in a directory, sorted by name.

    The multi-site corpus lives in its own subdirectory
    (``tests/difftest/corpus/multisite/``) so the single-site replay
    never tries to parse a multi-site file."""
    from .scenario import MultiSiteScenario

    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [(path, MultiSiteScenario.from_json(path.read_text()))
            for path in sorted(directory.glob("*.json"))]


def corpus_filename(scenario: Scenario) -> str:
    """Deterministic corpus file name: seed + content digest."""
    digest = hashlib.sha256(
        scenario.to_json().encode()).hexdigest()[:8]
    return f"seed{scenario.seed}_{digest}.json"


def write_corpus(scenario: Scenario, directory: str | Path) -> Path:
    """Persist a minimised scenario as a corpus regression file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / corpus_filename(scenario)
    path.write_text(scenario.to_json() + "\n")
    return path


def load_corpus(directory: str | Path) -> list[tuple[Path, Scenario]]:
    """All corpus scenarios in a directory, sorted by file name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [(path, Scenario.from_json(path.read_text()))
            for path in sorted(directory.glob("*.json"))]
