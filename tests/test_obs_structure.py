"""Guard: the observability spine says each thing once.

``repro.obs`` used to keep three private per-thread stacks (spans,
provenance parents, accounting frames), each with its own
capture / inherit / ``reset_thread`` protocol, and a hand-off had to be
taught to all three.  There is now one per-thread ambient context
(:mod:`repro.obs.ambient`) with one ``capture()`` / ``adopt()`` /
``reset()`` and one bounded record log (:mod:`repro.obs.boundedlog`).
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


def test_agent_trace_shim_is_gone():
    assert not (SRC / "agent" / "trace.py").exists()


def test_one_path_per_agent_side_span_site():
    """``PipelineTrace.span()`` is already a shared no-op when disabled,
    so nothing outside the trace itself (and the admin plane's on/off
    reporting) reads ``trace.enabled`` to pick between two copies of a
    body — except the LED, whose trace may be ``None`` and whose splits
    sit inside its lock."""
    outside = [hit for hit in _hits(SRC, r"trace\.enabled")
               if not hit.startswith(("obs/", "agent/admin.py:"))]
    assert len(outside) <= 5 and all(
        hit.startswith("led/") for hit in outside), outside
