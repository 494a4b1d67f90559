"""Span tracing: nesting, trim policy, disabled mode, rendering."""

from repro.obs import PipelineTrace


class FakeClock:
    """Deterministic clock: each read advances by one tick."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestSpans:
    def test_emit_records_point_span(self):
        trace = PipelineTrace(enabled=True, clock=FakeClock())
        trace.emit("step", "detail")
        (record,) = trace.records
        assert record.step == "step"
        assert record.detail == "detail"
        assert record.start == record.end
        assert record.duration == 0.0
        assert record.parent is None
        assert record.depth == 0

    def test_span_times_the_with_body(self):
        clock = FakeClock()
        trace = PipelineTrace(enabled=True, clock=clock)
        with trace.span("outer"):
            pass
        (record,) = trace.records
        assert record.duration == 1.0  # one clock tick inside the body

    def test_nesting_links_parent_and_depth(self):
        trace = PipelineTrace(enabled=True, clock=FakeClock())
        with trace.span("outer"):
            trace.emit("point")
            with trace.span("inner"):
                trace.emit("leaf")
        outer, point, inner, leaf = trace.records
        assert point.parent == outer.seq and point.depth == 1
        assert inner.parent == outer.seq and inner.depth == 1
        assert leaf.parent == inner.seq and leaf.depth == 2
        assert outer.parent is None

    def test_span_opens_on_enter_not_at_call_time(self):
        trace = PipelineTrace(enabled=True, clock=FakeClock())
        pending = trace.span("later")
        trace.emit("first")
        with pending:
            pass
        assert trace.steps() == ["first", "later"]

    def test_current_tracks_innermost_open_span(self):
        trace = PipelineTrace(enabled=True, clock=FakeClock())
        assert trace.current() is None
        with trace.span("outer") as outer:
            assert trace.current() is outer
            with trace.span("inner") as inner:
                assert trace.current() is inner
            assert trace.current() is outer
        assert trace.current() is None

    def test_tree_reconstructs_nesting(self):
        trace = PipelineTrace(enabled=True, clock=FakeClock())
        with trace.span("root"):
            trace.emit("child")
        ((root, children),) = trace.tree()
        assert root.step == "root"
        assert [child.step for child, _ in children] == ["child"]

    def test_disabled_trace_records_nothing(self):
        trace = PipelineTrace(enabled=False)
        trace.emit("step")
        with trace.span("span"):
            pass
        assert trace.records == []

    def test_disabled_span_is_shared_singleton(self):
        trace = PipelineTrace(enabled=False)
        assert trace.span("a") is trace.span("b")

    def test_matching_and_tail(self):
        trace = PipelineTrace(enabled=True, clock=FakeClock())
        trace.emit("fig4.2:notified", "p1")
        trace.emit("fig3.4:passed")
        trace.emit("fig4.5:action")
        assert [r.step for r in trace.matching("fig4")] == [
            "fig4.2:notified", "fig4.5:action"]
        assert [r.step for r in trace.tail(2)] == [
            "fig3.4:passed", "fig4.5:action"]

    def test_format_is_indented_and_timed(self):
        trace = PipelineTrace(enabled=True, clock=FakeClock())
        with trace.span("outer", "d"):
            trace.emit("inner")
        text = trace.format()
        assert "outer" in text
        assert "  inner" in text
        assert "ms" in text


class TestTrimPolicy:
    def test_large_buffer_drops_oldest_tenth(self):
        trace = PipelineTrace(enabled=True, capacity=100,
                              clock=FakeClock())
        for index in range(101):
            trace.emit(str(index))
        # At the 101st emit the oldest ten records are dropped.
        assert len(trace.records) == 91
        assert trace.records[0].step == "10"
        assert trace.records[-1].step == "100"

    def test_tiny_buffer_stays_bounded(self):
        """Regression: ``max_records // 10 == 0`` for buffers of fewer
        than ten records used to trim nothing, growing without bound."""
        trace = PipelineTrace(enabled=True, capacity=5, clock=FakeClock())
        for index in range(1000):
            trace.emit(str(index))
        assert len(trace.records) <= 5
        assert trace.records[-1].step == "999"

    def test_max_records_one(self):
        trace = PipelineTrace(enabled=True, capacity=1, clock=FakeClock())
        for index in range(50):
            trace.emit(str(index))
        assert len(trace.records) == 1
        assert trace.records[0].step == "49"
