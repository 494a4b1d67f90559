#!/usr/bin/env python
"""CI gate: the differential harness must find zero real divergences —
and must provably still be able to find one.

Three sub-commands over :mod:`repro.difftest` (all run by the CI
``difftest`` job; see docs/TESTING.md):

``sweep`` (default)
    Generate ``--seeds`` scenarios, execute each on the full stack with
    the plan cache on and off and once more on the naive SQL oracle
    (``repro.difftest.sqlref``), the reference Snoop interpreter, and
    the baseline oracles, and cross-check every surface.  Also replays the
    committed regression corpus and runs a seeded chaos sweep.  On any
    divergence the failing seed is echoed, the scenario is shrunk, and
    the minimised reproduction is written to ``--artifacts`` for upload.

``mutate``
    Harness self-check: arm a named intentional semantics bug — in the
    LED or, for ``vno-per-event``, the agent's occurrence numbering
    (``repro.difftest.mutations``) — prove the sweep catches it within
    the seed budget, and shrink the catch to a small reproduction
    (``--max-statements`` cap, default 10).  Exits nonzero if the bug
    is NOT caught — a harness that cannot see a planted bug gates
    nothing.  ``--write-corpus`` persists the shrunk reproduction into
    the committed corpus (it replays clean on the unmutated stack).

``corpus``
    Replay only the committed regression corpus.

``sites``
    Multi-site sweep over the sharded GED: each seeded 2–4 site
    scenario runs on the consistent-hash sharded deployment AND the
    degenerate single-coordinator one, both against the multi-site
    reference twin, plus shape-vs-shape (sharding must be semantically
    invisible).  Replays the multi-site corpus
    (``tests/difftest/corpus/multisite/``) and proves
    planted-mutation liveness through the sharded path; divergences
    ddmin-shrink into the corpus format.

``interleave``
    Concurrency cross-check: replay each scenario serially and through
    ``--clients`` concurrent gateway sessions over a ``--workers``
    thread pool (serial global schedule, multi-session execution path),
    and require the two stack observations to be identical on every
    semantic surface.  Exits nonzero on any divergence.

Usage::

    python tools/check_difftest.py --seeds 25
    python tools/check_difftest.py mutate seq-chronicle-newest
    python tools/check_difftest.py mutate vno-per-event
    python tools/check_difftest.py corpus
    python tools/check_difftest.py interleave --seeds 10 --clients 8
    DIFFTEST_SEEDS=50 python tools/check_difftest.py
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.difftest import (  # noqa: E402  (path bootstrap above)
    MUTATIONS,
    apply_mutation,
    compare_multisite_runs,
    compare_multisite_stack_runs,
    compare_runs,
    compare_stack_runs,
    generate_multisite_scenario,
    generate_scenario,
    load_corpus,
    load_multisite_corpus,
    render_report,
    run_baselines,
    run_chaos,
    run_interleaved,
    run_multisite_reference,
    run_multisite_stack,
    run_reference,
    run_stack,
    shrink_multisite_scenario,
    shrink_scenario,
    write_corpus,
)

DEFAULT_SEEDS = int(os.environ.get("DIFFTEST_SEEDS", "25"))
DEFAULT_CHAOS_SEEDS = int(os.environ.get("DIFFTEST_CHAOS_SEEDS", "10"))
CORPUS_DIR = REPO_ROOT / "tests" / "difftest" / "corpus"
ARTIFACTS_DIR = REPO_ROOT / "difftest-artifacts"


def _check_scenario(scenario) -> list:
    """Full cross-check of one scenario; returns divergences.

    The stack leg runs three ways: plan cache on, plan cache off, and
    on the naive SQL oracle (the nested-loop executor the planner and
    DAG executor must be indistinguishable from).
    """
    on = run_stack(scenario, plan_cache=True)
    off = run_stack(scenario, plan_cache=False)
    naive = run_stack(scenario, plan_cache=True, sql_reference=True)
    reference = run_reference(scenario)
    baseline = run_baselines(scenario)
    divergences = compare_runs(scenario, on, reference, baseline)
    divergences += compare_stack_runs(on, off)
    divergences += compare_stack_runs(
        on, naive, label_a="planned", label_b="sql-reference")
    return divergences


def _oracle_diverges(scenario) -> bool:
    """Shrink predicate: does the stack still diverge from the oracle?

    A crash during re-execution counts as a divergence too — shrinking
    toward a crash is exactly as useful as shrinking toward a mismatch.
    """
    try:
        stack = run_stack(scenario, plan_cache=True)
        reference = run_reference(scenario)
    except Exception:
        return True
    return bool(compare_runs(scenario, stack, reference))


def _report_and_shrink(scenario, divergences, artifacts: Path) -> None:
    """Echo a divergence, shrink it, and persist the reproduction."""
    print(render_report(scenario, divergences))
    print(f"shrinking seed {scenario.seed} "
          f"(re-run with: generate_scenario({scenario.seed}))...")
    small = shrink_scenario(scenario, _oracle_diverges)
    path = write_corpus(small, artifacts)
    print(f"minimised: {small.describe()}")
    print(f"reproduction written to {path}")


def cmd_sweep(args) -> int:
    problems = 0
    for seed in range(args.start, args.start + args.seeds):
        scenario = generate_scenario(seed)
        divergences = _check_scenario(scenario)
        if divergences:
            problems += 1
            print(f"FAIL seed={seed}")
            _report_and_shrink(scenario, divergences, args.artifacts)
        else:
            print(f"ok seed={seed} ({scenario.describe()})")
    problems += _replay_corpus(args)
    for offset in range(args.chaos):
        seed = args.start + offset
        chaos_seed = args.chaos_base + offset
        scenario = generate_scenario(seed)
        report = run_chaos(scenario, chaos_seed)
        if report.clean:
            print(f"ok chaos seed={seed} schedule={chaos_seed} "
                  f"{report.schedule.names} "
                  f"injected={report.faults_injected}")
        else:
            problems += 1
            print(f"FAIL chaos seed={seed} schedule={chaos_seed} "
                  f"{report.schedule.names}")
            print(render_report(scenario, report.divergences))
    if problems:
        print(f"difftest: {problems} failing sweep item(s)")
        return 1
    print(f"difftest: clean ({args.seeds} seeds, cache on+off, "
          f"planned vs SQL reference, {args.chaos} chaos schedules, "
          f"corpus replayed)")
    return 0


def _replay_corpus(args) -> int:
    problems = 0
    entries = load_corpus(args.corpus)
    for path, scenario in entries:
        divergences = _check_scenario(scenario)
        if divergences:
            problems += 1
            print(f"FAIL corpus {path.name}")
            print(render_report(scenario, divergences))
        else:
            print(f"ok corpus {path.name}")
    if not entries:
        print(f"corpus: no entries under {args.corpus}")
    return problems


def cmd_corpus(args) -> int:
    problems = _replay_corpus(args)
    if problems:
        return 1
    print("corpus replay: clean")
    return 0


def cmd_interleave(args) -> int:
    problems = 0
    for seed in range(args.start, args.start + args.seeds):
        scenario = generate_scenario(seed)
        serial = run_stack(scenario, plan_cache=True)
        pooled = run_interleaved(
            scenario, clients=args.clients, workers=args.workers,
            seed=seed)
        divergences = compare_stack_runs(
            serial, pooled, label_a="serial", label_b="interleaved")
        if divergences:
            problems += 1
            print(f"FAIL interleave seed={seed} clients={args.clients} "
                  f"workers={args.workers}")
            print(render_report(scenario, divergences))
        else:
            print(f"ok interleave seed={seed} ({scenario.describe()})")
    if problems:
        print(f"interleave: {problems} divergent seed(s)")
        return 1
    print(f"interleave: clean ({args.seeds} seeds, {args.clients} "
          f"clients over {args.workers} workers)")
    return 0


def _check_multisite(scenario) -> list:
    """Full cross-check of one multi-site scenario.

    Both deployment shapes run — the consistent-hash sharded GED and
    the degenerate single-coordinator layout — each against the
    multi-site reference twin, plus shape-vs-shape (the
    sharding-invisibility contract)."""
    sharded = run_multisite_stack(scenario, sharded=True)
    single = run_multisite_stack(scenario, sharded=False)
    reference = run_multisite_reference(scenario)
    divergences = compare_multisite_runs(sharded, reference, label="sharded")
    divergences += compare_multisite_runs(single, reference,
                                          label="single-site")
    divergences += compare_multisite_stack_runs(sharded, single)
    return divergences


def _multisite_diverges(scenario) -> bool:
    """Shrink predicate for multi-site scenarios (crash = divergence)."""
    try:
        stack = run_multisite_stack(scenario, sharded=True)
        reference = run_multisite_reference(scenario)
    except Exception:
        return True
    return bool(compare_multisite_runs(stack, reference))


def cmd_sites(args) -> int:
    problems = 0
    for seed in range(args.start, args.start + args.seeds):
        scenario = generate_multisite_scenario(seed)
        divergences = _check_multisite(scenario)
        if divergences:
            problems += 1
            print(f"FAIL sites seed={seed}")
            print(render_report(scenario, divergences))
            print(f"shrinking seed {seed} (re-run with: "
                  f"generate_multisite_scenario({seed}))...")
            small = shrink_multisite_scenario(scenario, _multisite_diverges)
            path = write_corpus(small, args.artifacts / "multisite")
            print(f"minimised: {small.describe()}")
            print(f"reproduction written to {path}")
        else:
            print(f"ok sites seed={seed} ({scenario.describe()})")
    entries = load_multisite_corpus(args.corpus / "multisite")
    for path, scenario in entries:
        divergences = _check_multisite(scenario)
        if divergences:
            problems += 1
            print(f"FAIL sites corpus {path.name}")
            print(render_report(scenario, divergences))
        else:
            print(f"ok sites corpus {path.name}")
    if not entries:
        print(f"sites corpus: no entries under {args.corpus / 'multisite'}")
    if not args.skip_mutation:
        problems += _sites_mutation_liveness(args)
    if problems:
        print(f"sites: {problems} failing item(s)")
        return 1
    print(f"sites: clean ({args.seeds} seeds, sharded + single-site, "
          f"corpus replayed, mutation liveness "
          f"{'skipped' if args.skip_mutation else 'proven'})")
    return 0


def _sites_mutation_liveness(args) -> int:
    """Prove the multi-site sweep still catches a planted LED bug.

    Shard LEDs run the same operator code the mutations corrupt, so a
    sweep that cannot see ``seq-chronicle-newest`` through the sharded
    deployment is gating nothing."""
    restore = apply_mutation(args.mutation)
    try:
        caught = None
        for seed in range(args.start, args.start + args.seeds):
            scenario = generate_multisite_scenario(seed)
            if _multisite_diverges(scenario):
                caught = scenario
                break
        if caught is None:
            print(f"sites mutation {args.mutation!r} NOT caught in "
                  f"{args.seeds} seeds — the multi-site harness is blind")
            return 1
        print(f"sites mutation {args.mutation!r} caught at seed "
              f"{caught.seed}")
        small = shrink_multisite_scenario(caught, _multisite_diverges)
        print(f"shrunk to: {small.describe()}")
    finally:
        restore()
    clean = _check_multisite(small)
    if clean:
        print("shrunk multi-site reproduction does NOT replay clean "
              "unmutated:")
        print(render_report(small, clean))
        return 1
    if args.write_corpus:
        path = write_corpus(small, args.corpus / "multisite")
        print(f"multisite corpus entry written: {path}")
    return 0


def cmd_mutate(args) -> int:
    restore = apply_mutation(args.name)
    try:
        caught = None
        for seed in range(args.start, args.start + args.seeds):
            scenario = generate_scenario(seed)
            if _oracle_diverges(scenario):
                caught = scenario
                break
        if caught is None:
            print(f"mutation {args.name!r} NOT caught in "
                  f"{args.seeds} seeds — the harness is blind")
            return 1
        print(f"mutation {args.name!r} caught at seed {caught.seed}")
        small = shrink_scenario(caught, _oracle_diverges)
        print(f"shrunk to: {small.describe()}")
        if len(small.statements) > args.max_statements:
            print(f"reproduction has {len(small.statements)} statements, "
                  f"over the {args.max_statements}-statement cap")
            return 1
    finally:
        restore()
    # The reproduction must replay clean on the unmutated stack — that
    # is what makes it safe to commit as a regression corpus entry.
    clean = _check_scenario(small)
    if clean:
        print("shrunk reproduction does NOT replay clean unmutated:")
        print(render_report(small, clean))
        return 1
    if args.write_corpus:
        path = write_corpus(small, args.corpus)
        print(f"corpus entry written: {path}")
    print(f"mutation check: caught and shrunk to "
          f"{len(small.statements)} statements")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                        help="scenario seeds to sweep (env DIFFTEST_SEEDS)")
    parser.add_argument("--start", type=int, default=0,
                        help="first scenario seed")
    parser.add_argument("--chaos", type=int, default=DEFAULT_CHAOS_SEEDS,
                        help="chaos schedules to run "
                             "(env DIFFTEST_CHAOS_SEEDS)")
    parser.add_argument("--chaos-base", type=int, default=100,
                        help="first chaos-schedule seed")
    parser.add_argument("--corpus", type=Path, default=CORPUS_DIR,
                        help="regression corpus directory")
    parser.add_argument("--artifacts", type=Path, default=ARTIFACTS_DIR,
                        help="where divergence reproductions are written")
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("sweep", add_help=False)
    subparsers.add_parser("corpus", add_help=False)
    interleave = subparsers.add_parser("interleave")
    interleave.add_argument(
        "--clients", type=int,
        default=int(os.environ.get("DIFFTEST_CLIENTS", "8")),
        help="concurrent gateway sessions (env DIFFTEST_CLIENTS)")
    interleave.add_argument(
        "--workers", type=int,
        default=int(os.environ.get("DIFFTEST_WORKERS", "4")),
        help="worker-pool threads (env DIFFTEST_WORKERS)")
    sites = subparsers.add_parser("sites")
    sites.add_argument(
        "--mutation", default="seq-chronicle-newest",
        choices=sorted(MUTATIONS),
        help="planted bug for the multi-site liveness check")
    sites.add_argument(
        "--skip-mutation", action="store_true",
        help="skip the mutation-liveness leg (seeds + corpus only)")
    sites.add_argument(
        "--write-corpus", action="store_true",
        help="persist the shrunk mutation catch to --corpus/multisite")
    mutate = subparsers.add_parser("mutate")
    mutate.add_argument("name", choices=sorted(MUTATIONS))
    mutate.add_argument("--max-statements", type=int, default=10,
                        help="cap on the shrunk reproduction's stream")
    mutate.add_argument("--write-corpus", action="store_true",
                        help="persist the shrunk reproduction to --corpus")
    args = parser.parse_args(argv)
    if args.command == "mutate":
        return cmd_mutate(args)
    if args.command == "corpus":
        return cmd_corpus(args)
    if args.command == "interleave":
        return cmd_interleave(args)
    if args.command == "sites":
        return cmd_sites(args)
    return cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
