"""Unit tests for the per-operation accounting plane (``OpContext``)."""

import threading

from repro.obs import OpAccounting
from repro.obs.opcontext import OVERFLOW_KEY


class _Session:
    def __init__(self, session_id=1, user="sharma", database="sentineldb"):
        self.session_id = session_id
        self.user = user
        self.database = database


def test_command_frame_folds_into_session_totals():
    accounting = OpAccounting()
    frame = accounting.begin(_Session())
    accounting.note_statement()
    accounting.note_scan(10, 1, 2)
    accounting.note_rows(5)
    accounting.note_plan_cache(True)
    accounting.note_plan_cache(False)
    accounting.note_event()
    accounting.note_detection()
    accounting.finish(frame, 0.25)

    [totals] = accounting.top_sessions(10)
    assert totals.session_id == 1
    assert totals.user == "sharma"
    assert totals.commands == 1
    assert totals.sql_statements == 1
    assert totals.rows_scanned == 15
    assert totals.index_scans == 1
    assert totals.full_scans == 2
    assert totals.plan_cache_hits == 1
    assert totals.plan_cache_misses == 1
    assert totals.events_raised == 1
    assert totals.detections == 1
    assert totals.seconds == 0.25
    assert totals.max_seconds == 0.25


def test_rule_scope_charges_rule_and_enclosing_session():
    accounting = OpAccounting()
    frame = accounting.begin(_Session())
    with accounting.rule_scope("db.u.t_and"):
        accounting.note_statement()
        accounting.note_rows(7)
    accounting.finish(frame, 0.1)

    [rule] = accounting.top_rules(10)
    assert rule.rule == "db.u.t_and"
    assert rule.actions == 1
    assert rule.sql_statements == 1
    assert rule.rows_scanned == 7
    assert rule.action_errors == 0

    [session] = accounting.top_sessions(10)
    # The session pays for the rule it triggered: the rule's statements
    # and the action itself are charged to the enclosing command frame.
    assert session.sql_statements == 1
    assert session.rows_scanned == 7
    assert session.actions == 1
    assert session.action_seconds > 0


def test_rule_scope_records_errors_raised_and_marked():
    accounting = OpAccounting()
    try:
        with accounting.rule_scope("db.u.boom"):
            raise RuntimeError("action failed")
    except RuntimeError:
        pass
    scope = accounting.rule_scope("db.u.soft")
    with scope:
        scope.mark_error()  # swallowed failure, recorded explicitly

    by_name = {t.rule: t for t in accounting.top_rules(10)}
    assert by_name["db.u.boom"].action_errors == 1
    assert by_name["db.u.soft"].action_errors == 1
    assert accounting.action_errors_total == 2


def test_origin_classification():
    accounting = OpAccounting()
    assert accounting.origin() == "system"
    frame = accounting.begin(_Session())
    assert accounting.origin() == "client"
    with accounting.rule_scope("db.u.r"):
        assert accounting.origin() == "rule"
    assert accounting.origin() == "client"
    accounting.finish(frame, 0.0)
    assert accounting.origin() == "system"


def test_disabled_accounting_is_inert():
    accounting = OpAccounting(enabled=False)
    frame = accounting.begin(_Session())
    assert frame is None
    scope = accounting.rule_scope("db.u.r")
    with scope:
        scope.mark_error()
    accounting.finish(frame, 1.0)
    assert accounting.top_sessions(10) == []
    assert accounting.top_rules(10) == []
    assert accounting.actions_total == 0


def test_session_overflow_aggregates_under_other():
    accounting = OpAccounting(max_sessions=2)
    for session_id in range(4):
        frame = accounting.begin(_Session(session_id=session_id))
        accounting.finish(frame, 0.01)
    totals = accounting.top_sessions(10)
    assert len(totals) == 3  # two real rows + the overflow row
    overflow = {t.session_id: t for t in totals}[OVERFLOW_KEY]
    assert overflow.commands == 2


def test_rule_overflow_aggregates_under_other():
    accounting = OpAccounting(max_rules=1)
    for name in ("a", "b", "c"):
        with accounting.rule_scope(f"db.u.{name}"):
            pass
    totals = accounting.top_rules(10)
    assert len(totals) == 2
    overflow = {t.rule: t for t in totals}[OVERFLOW_KEY]
    assert overflow.actions == 2


def test_top_ordering_and_count():
    accounting = OpAccounting()
    for session_id, seconds in ((1, 0.1), (2, 0.5), (3, 0.3)):
        frame = accounting.begin(_Session(session_id=session_id))
        accounting.finish(frame, seconds)
    top = accounting.top_sessions(2)
    assert [t.session_id for t in top] == [2, 3]


def test_reset_clears_aggregates():
    accounting = OpAccounting()
    frame = accounting.begin(_Session())
    accounting.finish(frame, 0.1)
    with accounting.rule_scope("db.u.r"):
        pass
    accounting.reset()
    assert accounting.session_count() == 0
    assert accounting.rule_count() == 0


def test_concurrent_attribution_is_exact():
    """Frames are per-thread: concurrent sessions never cross-charge."""
    accounting = OpAccounting()
    rounds, workers = 50, 8

    def work(session_id):
        session = _Session(session_id=session_id, user=f"u{session_id}")
        for _ in range(rounds):
            frame = accounting.begin(session)
            accounting.note_statement()
            accounting.note_rows(session_id)
            with accounting.rule_scope(f"db.u.r{session_id}"):
                accounting.note_statement()
            accounting.finish(frame, 0.001)

    threads = [threading.Thread(target=work, args=(n,))
               for n in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    sessions = {t.session_id: t for t in accounting.top_sessions(workers)}
    rules = {t.rule: t for t in accounting.top_rules(workers)}
    assert len(sessions) == workers
    for session_id in range(workers):
        totals = sessions[session_id]
        assert totals.commands == rounds
        assert totals.sql_statements == 2 * rounds  # own + rule-charged
        assert totals.rows_scanned == session_id * rounds
        assert totals.actions == rounds
        rule = rules[f"db.u.r{session_id}"]
        assert rule.actions == rounds
        assert rule.sql_statements == rounds
    assert accounting.actions_total == workers * rounds
