"""Unit tests for the provenance journal: linking, bounds, aggregates."""

import pytest

from repro.led import LocalEventDetector
from repro.led.rules import Context
from repro.obs import ProvenanceJournal
from repro.obs.provenance import (
    KIND_CONDITION,
    KIND_DETECTION,
    KIND_FIRING,
    KIND_RAISE,
)


def _detector(journal):
    led = LocalEventDetector()
    led.attach_observability(journal=journal)
    led.define_primitive("a")
    led.define_primitive("b")
    led.define_composite("ab", "a ^ b")
    led.add_rule("r_ab", "ab", action=lambda occ: None,
                 context=Context.CHRONICLE)
    return led


class TestDisabled:
    def test_disabled_journal_records_nothing(self):
        journal = ProvenanceJournal(enabled=False)
        led = _detector(journal)
        led.raise_event("a")
        led.raise_event("b")
        assert len(journal) == 0
        assert journal.node_stats() == []

    def test_detector_without_journal_still_works(self):
        led = LocalEventDetector()
        led.define_primitive("a")
        fired = []
        led.add_rule("r", "a", action=fired.append)
        led.raise_event("a")
        assert len(fired) == 1


class TestLineage:
    def test_detection_links_to_raises(self):
        journal = ProvenanceJournal(enabled=True)
        led = _detector(journal)
        led.raise_event("a")
        led.raise_event("b")
        records = journal.snapshot()
        kinds = [record.kind for record in records]
        assert kinds == [KIND_RAISE, KIND_RAISE, KIND_DETECTION, KIND_FIRING]
        raise_a, raise_b, detection, firing = records
        assert set(detection.parents) == {raise_a.seq, raise_b.seq}
        assert firing.parents == (detection.seq,)
        assert detection.context == "CHRONICLE"
        assert firing.detail == "immediate"

    def test_nested_composite_links_through_intermediate(self):
        journal = ProvenanceJournal(enabled=True)
        led = LocalEventDetector()
        led.attach_observability(journal=journal)
        led.define_primitive("a")
        led.define_primitive("b")
        led.define_primitive("c")
        led.define_composite("ab", "a ^ b")
        led.define_composite("abc", "ab ; c")
        led.add_rule("r", "abc", action=lambda occ: None,
                     context=Context.CHRONICLE)
        led.raise_event("a")
        led.raise_event("b")
        led.raise_event("c")
        detections = {
            record.name: record for record in journal.snapshot()
            if record.kind == KIND_DETECTION
        }
        assert set(detections) == {"ab", "abc"}
        # The outer SEQ links to the inner AND's detection record, not to
        # the flattened primitives.
        assert detections["ab"].seq in detections["abc"].parents

    def test_condition_records_only_for_real_conditions(self):
        journal = ProvenanceJournal(enabled=True)
        led = LocalEventDetector()
        led.attach_observability(journal=journal)
        led.define_primitive("a")
        led.add_rule("r_cond", "a", action=lambda occ: None,
                     condition=lambda occ: occ.params.get("go", False))
        led.add_rule("r_plain", "a", action=lambda occ: None)
        led.raise_event("a", {"go": False})
        conditions = [record for record in journal.snapshot()
                      if record.kind == KIND_CONDITION]
        assert [record.name for record in conditions] == ["r_cond"]
        assert conditions[0].detail == "failed"
        journal.clear()
        led.raise_event("a", {"go": True})
        conditions = [record for record in journal.snapshot()
                      if record.kind == KIND_CONDITION]
        assert [record.detail for record in conditions] == ["passed"]

    def test_lineage_walk_reaches_the_raise(self):
        journal = ProvenanceJournal(enabled=True)
        led = _detector(journal)
        led.raise_event("a")
        led.raise_event("b")
        firing = journal.snapshot()[-1]
        chain = journal.lineage(firing.seq)
        assert [record.kind for record in chain][0] == KIND_FIRING
        assert chain[-1].kind == KIND_RAISE


class TestBounds:
    def test_capacity_evicts_oldest_tenth(self):
        journal = ProvenanceJournal(enabled=True, capacity=50)
        for index in range(60):
            journal.hop(KIND_RAISE, f"e{index}")
        assert len(journal) <= 50
        seqs = [record.seq for record in journal.snapshot()]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 60

    def test_parent_ids_always_point_backwards(self):
        journal = ProvenanceJournal(enabled=True, capacity=30)
        led = _detector(journal)
        for _ in range(40):
            led.raise_event("a")
            led.raise_event("b")
        for record in journal.snapshot():
            for parent in record.parents:
                assert parent < record.seq

    def test_rule_fire_count_maintained_when_journaled(self):
        journal = ProvenanceJournal(enabled=True)
        led = _detector(journal)
        led.raise_event("a")
        led.raise_event("b")
        assert led.rules["r_ab"].fire_count == 1
        assert led.rules["r_ab"].last_fired_at is not None

    def test_rule_fire_count_untouched_when_disabled(self):
        led = _detector(ProvenanceJournal(enabled=False))
        led.raise_event("a")
        led.raise_event("b")
        assert led.rules["r_ab"].fire_count == 0


class TestNodeStats:
    def test_fires_and_consumption_per_context(self):
        journal = ProvenanceJournal(enabled=True)
        led = LocalEventDetector()
        led.attach_observability(journal=journal)
        led.define_primitive("a")
        led.define_primitive("b")
        led.define_composite("ab", "a ^ b")
        led.add_rule("r", "ab", action=lambda occ: None,
                     context=Context.CHRONICLE)
        led.raise_event("a")
        led.raise_event("b")
        led.raise_event("a")
        led.raise_event("b")
        assert journal.node_summary("a", "-")["fires"] == 2
        assert journal.node_summary("b", "-")["fires"] == 2
        summary = journal.node_summary("ab", "CHRONICLE")
        assert summary["fires"] == 2
        # CHRONICLE consumes both constituents of each detection.
        assert summary["consumed"] == 4
        assert summary["latency_count"] >= 2

    def test_recent_context_consumes_nothing(self):
        journal = ProvenanceJournal(enabled=True)
        led = LocalEventDetector()
        led.attach_observability(journal=journal)
        led.define_primitive("a")
        led.define_primitive("b")
        led.define_composite("ab", "a ^ b")
        led.add_rule("r", "ab", action=lambda occ: None,
                     context=Context.RECENT)
        led.raise_event("a")
        led.raise_event("b")
        led.raise_event("b")
        summary = journal.node_summary("ab", "RECENT")
        assert summary["fires"] == 2
        assert summary["consumed"] == 0

    def test_unknown_node_summary_is_none(self):
        journal = ProvenanceJournal(enabled=True)
        assert journal.node_summary("ghost", "-") is None

    def test_clear_resets_everything(self):
        journal = ProvenanceJournal(enabled=True)
        led = _detector(journal)
        led.raise_event("a")
        led.raise_event("b")
        journal.clear()
        assert len(journal) == 0
        assert journal.node_stats() == []
        assert journal.enabled

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ProvenanceJournal(capacity=0)
