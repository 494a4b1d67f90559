"""Differential testing harness for the ECA agent's Snoop semantics.

Cross-checks three independent executions of the same seeded scenario —
the full gateway/agent/LED stack, the reference Snoop interpreter
(:mod:`repro.difftest.reference`), and the :mod:`repro.baselines`
polling/embedded oracles — then shrinks any divergence to a minimal
reproduction and replays it forever from ``tests/difftest/corpus/``.
A chaos mode layers seeded fault schedules and plan-cache on/off over
the same scenarios, asserting match-or-fail-loudly.  The SQL layer has
its own oracle: :class:`NaiveExecutor` (:mod:`repro.difftest.sqlref`),
a nested-loop executor the planned path is diffed against.

The multi-site twin extends the same discipline to the sharded GED:
seeded 2–4 site scenarios (:func:`generate_multisite_scenario`) run on
real per-site agents under a :class:`~repro.ged.ShardedGed` in both
deployment shapes (sharded and single-coordinator) and are diffed
against :class:`MultiSiteReference` — per-site reference Snoops plus a
global composer sharing no code with the GED.
"""

from .chaos import ChaosReport, ChaosSchedule, run_chaos
from .compare import (
    Divergence,
    compare_multisite_runs,
    compare_multisite_stack_runs,
    compare_runs,
    compare_stack_runs,
    render_report,
)
from .mutations import MUTATIONS, apply_mutation
from .reference import (
    MultiSiteReference,
    ReferenceDetector,
    ReferenceError,
)
from .runner import (
    MultiSiteRun,
    run_baselines,
    run_interleaved,
    run_multisite_reference,
    run_multisite_stack,
    run_reference,
    run_scenario,
    run_stack,
)
from .scenario import (
    GlobalRuleSpec,
    MultiSiteScenario,
    Scenario,
    SitePrimitiveSpec,
    SiteStatement,
    generate_multisite_scenario,
    generate_scenario,
)
from .shrink import (
    load_corpus,
    load_multisite_corpus,
    shrink_multisite_scenario,
    shrink_scenario,
    write_corpus,
)
from .sqlref import NaiveExecutor

__all__ = [
    "ChaosReport",
    "ChaosSchedule",
    "Divergence",
    "GlobalRuleSpec",
    "MUTATIONS",
    "MultiSiteReference",
    "MultiSiteRun",
    "MultiSiteScenario",
    "NaiveExecutor",
    "ReferenceDetector",
    "ReferenceError",
    "Scenario",
    "SitePrimitiveSpec",
    "SiteStatement",
    "apply_mutation",
    "compare_multisite_runs",
    "compare_multisite_stack_runs",
    "compare_runs",
    "compare_stack_runs",
    "generate_multisite_scenario",
    "generate_scenario",
    "load_corpus",
    "load_multisite_corpus",
    "render_report",
    "run_baselines",
    "run_chaos",
    "run_interleaved",
    "run_multisite_reference",
    "run_multisite_stack",
    "run_reference",
    "run_scenario",
    "run_stack",
    "shrink_multisite_scenario",
    "shrink_scenario",
    "write_corpus",
]
