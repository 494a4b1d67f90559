"""Guard: the observability spine says each thing once.

``repro.obs`` used to keep three private per-thread stacks (spans,
provenance parents, accounting frames), each with its own
capture / inherit / ``reset_thread`` protocol, and a hand-off had to be
taught to all three.  There is now one per-thread ambient context
(:mod:`repro.obs.ambient`) with one ``capture()`` / ``adopt()`` /
``reset()`` and one bounded record log (:mod:`repro.obs.boundedlog`)
with one subclass holding one record type (:mod:`repro.obs.events`);
the trace, the journal and the flight recorder are views of it.
This test scans the source so a second copy cannot sneak back in.
"""

import re
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"


def _hits(root: Path, pattern: str) -> list[str]:
    regex = re.compile(pattern)
    return [f"{path.relative_to(SRC).as_posix()}:{number}: {line.strip()}"
            for path in sorted(root.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if regex.search(line)]


def test_one_thread_local_in_obs():
    hits = _hits(SRC / "obs", r"threading\.local\(")
    assert len(hits) == 1 and hits[0].startswith("obs/ambient.py:"), hits


def test_no_per_plane_handoff_protocol():
    assert _hits(SRC, r"def (reset_thread|inherit_scope|inherit|bind_trace)"
                      r"\b|_clear_thread_state") == []


def test_one_bounded_log():
    for method in ("since", "last_seq"):
        hits = _hits(SRC / "obs", rf"def {method}\b")
        assert len(hits) == 1 and hits[0].startswith(
            "obs/boundedlog.py:"), hits


def test_one_event_log_one_record_type():
    subclasses = _hits(SRC, r"\(BoundedLog\)")
    assert len(subclasses) == 1 and subclasses[0].startswith(
        "obs/events.py:"), subclasses
    assert _hits(SRC, r"class (SpanRecord|ProvenanceRecord|SlowOp)\b") == []
    # one record-seq counter (plus the command-id counter)
    counters = _hits(SRC / "obs", r"itertools\.count\(")
    assert [hit.split(":")[0] for hit in counters] == [
        "obs/boundedlog.py", "obs/events.py"], counters
    # one export high-water mark, no positional slow-op slicing
    assert _hits(SRC, r"_last_(span|prov|slow)_seq|def marks\b") == []


def test_agent_trace_shim_is_gone():
    assert not (SRC / "agent" / "trace.py").exists()


def test_one_path_per_agent_side_span_site():
    """A hook site reads one flag — its event log's ``planes`` — and the
    log decides what each plane keeps, so nothing outside ``obs`` (and
    the admin plane's on/off commands and reporting) reads a view's
    ``enabled`` to pick between two copies of a body.  (The parent had 5
    ``trace.enabled`` and 8 ``journal.enabled`` reads under ``led/`` and
    ``agent/``.)"""
    outside = [hit for hit in _hits(SRC, r"(trace|journal)\.enabled")
               if not hit.startswith(("obs/", "agent/admin.py:"))]
    assert outside == []


def test_engine_has_one_observability_seam():
    """The SQL engine charges the accounting frame and nothing else: no
    registry of its own, no per-family handles, no per-operator metric
    plumbing.  The agent folds closed frames into its registry.  (The
    engine used to have ``SqlServer.attach_metrics`` with seven ``_m_*``
    families and ``note_plan_ops`` calls in three modules.)"""
    assert _hits(SRC / "sqlengine", r"def attach_metrics\b|MetricsRegistry"
                                    r"|\b_m_\w+|note_plan_ops") == []
