"""TraceContext propagation: encoding, activation, cross-thread
parenting, the bounded per-trace store, sampling windows, and histogram
exemplars."""

import threading

from repro.obs import MetricsRegistry
from repro.obs.tracing import PipelineTrace, TraceContext


class FakeClock:
    """Deterministic clock: each read advances by one tick."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def fresh_trace(**kwargs) -> PipelineTrace:
    return PipelineTrace(enabled=True, clock=FakeClock(), **kwargs)


class TestEncodeDecode:
    def test_roundtrip_with_baggage(self):
        ctx = TraceContext(trace_id="t000007", parent_span=3, depth=2,
                           baggage={"session_id": "9", "origin": "client"})
        token = ctx.encode()
        assert " " not in token and ";" not in token
        decoded = TraceContext.decode(token)
        assert decoded.trace_id == "t000007"
        assert decoded.parent_span == 3
        assert decoded.depth == 2
        assert decoded.baggage == {"session_id": "9", "origin": "client"}

    def test_roundtrip_root_context(self):
        ctx = TraceContext(trace_id="t000001")
        decoded = TraceContext.decode(ctx.encode())
        assert decoded.parent_span is None
        assert decoded.depth == 0
        assert decoded.baggage == {}

    def test_unsafe_baggage_dropped_from_wire(self):
        ctx = TraceContext(trace_id="t1", baggage={
            "ok": "fine", "bad": "has space", "worse": "semi;colon"})
        decoded = TraceContext.decode(ctx.encode())
        assert decoded.baggage == {"ok": "fine"}

    def test_malformed_tokens_decode_to_none(self):
        for token in ("", "garbage", "only:two", ":3:0", "t1:notint:0",
                      "t1:1:notint"):
            assert TraceContext.decode(token) is None

    def test_hostile_tokens_decode_to_none(self):
        """The token arrives from outside the process (UDP channel, GED
        transport) and ``depth`` is rendered as indentation, so decode
        bounds every field instead of trusting the sender."""
        for token in ("t1:1:1000000000", "t1:1:1025", "t1:1:-1",
                      "t1:-5:0", "t" * 65 + ":1:0", "t/../1:1:0",
                      "t 1:1:0", "t\x00:1:0"):
            assert TraceContext.decode(token) is None, token
        # the bounds themselves are inclusive
        assert TraceContext.decode("t1:0:1024").depth == 1024
        assert TraceContext.decode("t" * 64 + ":1:0") is not None
        assert TraceContext.decode("t_1.a-b:1:0").trace_id == "t_1.a-b"


class TestActivation:
    def test_activated_context_parents_new_records(self):
        trace = fresh_trace()
        ctx = TraceContext(trace_id="t000042", parent_span=17, depth=3)
        with trace.activate(ctx):
            trace.emit("child")
        (record,) = trace.records
        assert record.trace_id == "t000042"
        assert record.parent == 17
        assert record.depth == 3

    def test_open_span_wins_over_activated_context(self):
        trace = fresh_trace()
        ctx = TraceContext(trace_id="t000042", parent_span=17, depth=3)
        with trace.activate(ctx):
            with trace.span("outer") as outer:
                trace.emit("leaf")
        outer_rec, leaf = trace.records
        assert outer_rec is outer
        assert leaf.parent == outer.seq
        assert leaf.trace_id == "t000042"  # inherited through the span

    def test_activate_none_is_noop(self):
        trace = fresh_trace()
        with trace.activate(None):
            trace.emit("free")
        assert trace.records[0].trace_id is None

    def test_activation_restores_previous_context(self):
        trace = fresh_trace()
        outer = TraceContext(trace_id="ta", parent_span=1, depth=1)
        inner = TraceContext(trace_id="tb", parent_span=2, depth=1)
        with trace.activate(outer):
            with trace.activate(inner):
                assert trace.ambient.active_trace_id() == "tb"
            assert trace.ambient.active_trace_id() == "ta"
        assert trace.ambient.active_trace_id() is None

    def test_cross_thread_handoff_links_one_tree(self):
        trace = fresh_trace()
        with trace.span("root") as root:
            root.trace_id = "t000001"
            handoff = trace.ambient.capture()

        def worker():
            with trace.ambient.adopt(handoff):
                trace.emit("remote")

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        remote = trace.records[-1]
        assert remote.step == "remote"
        assert remote.parent == root.seq
        assert remote.trace_id == "t000001"
        assert remote.depth == root.depth + 1

    def test_reset_thread_drops_stack_and_context(self):
        trace = fresh_trace()
        ctx = TraceContext(trace_id="t1", parent_span=5, depth=2)
        trace.activate(ctx).__enter__()      # adopted, never exited
        trace.span("leaked").__enter__()     # opened, never closed
        trace.ambient.reset()
        trace.emit("after")
        after = trace.records[-1]
        assert after.parent is None
        assert after.trace_id is None


class TestCommandContext:
    def test_mints_sequential_ids_with_session_baggage(self):
        trace = fresh_trace()

        class Session:
            session_id = 12
            user = "sharma"

        first = trace.command_context(Session())
        second = trace.command_context(None)
        assert first.trace_id == "t000001"
        assert second.trace_id == "t000002"
        assert first.baggage["session_id"] == 12
        assert first.baggage["user"] == "sharma"
        assert first.parent_span is None

    def test_disabled_trace_mints_nothing(self):
        trace = PipelineTrace(enabled=False)
        assert trace.command_context(None) is None


class TestSamplingWindow:
    def test_sample_next_arms_then_restores(self):
        trace = PipelineTrace(enabled=False, clock=FakeClock())
        trace.sample_next(2)
        assert trace.enabled
        assert trace.sampling_remaining() == 2
        assert trace.command_context(None) is not None
        assert trace.command_context(None) is not None
        assert trace.sampling_remaining() == 0
        # The window is spent but the *next* command performs the
        # restore, so the last sampled command finishes fully traced.
        assert trace.enabled
        assert trace.command_context(None) is None
        assert not trace.enabled

    def test_sample_next_preserves_already_enabled(self):
        trace = fresh_trace()
        trace.sample_next(1)
        trace.command_context(None)
        trace.command_context(None)
        assert trace.enabled  # restore puts back True, not False


class TestTraceStore:
    def test_spans_pinned_per_trace(self):
        trace = fresh_trace()
        ctx = trace.command_context(None)
        with trace.activate(ctx):
            with trace.span("root"):
                trace.emit("leaf")
        spans = trace.spans_for(ctx.trace_id)
        assert [s.step for s in spans] == ["root", "leaf"]
        assert trace.trace_ids() == [ctx.trace_id]
        assert trace.trace_count() == 1

    def test_unknown_trace_is_empty(self):
        trace = fresh_trace()
        assert trace.spans_for("t999999") == []

    def test_store_survives_ring_buffer_eviction(self):
        trace = fresh_trace(capacity=10)
        ctx = trace.command_context(None)
        with trace.activate(ctx):
            trace.emit("pinned")
        for index in range(100):  # churn the ring buffer
            trace.emit(str(index))
        assert [s.step for s in trace.spans_for(ctx.trace_id)] == ["pinned"]

    def test_oldest_trace_evicted_at_capacity(self):
        trace = fresh_trace()
        ids = []
        for _ in range(trace.MAX_TRACES + 5):
            ctx = trace.command_context(None)
            ids.append(ctx.trace_id)
            with trace.activate(ctx):
                trace.emit("x")
        assert trace.trace_count() == trace.MAX_TRACES
        assert trace.spans_for(ids[0]) == []
        assert trace.spans_for(ids[-1])

    def test_per_trace_span_cap(self):
        trace = fresh_trace()
        ctx = trace.command_context(None)
        with trace.activate(ctx):
            for index in range(trace.MAX_TRACE_EVENTS + 50):
                trace.emit(str(index))
        assert len(trace.spans_for(ctx.trace_id)) == trace.MAX_TRACE_EVENTS

    def test_clear_empties_store(self):
        trace = fresh_trace()
        ctx = trace.command_context(None)
        with trace.activate(ctx):
            trace.emit("x")
        trace.clear()
        assert trace.trace_count() == 0


class TestRecordSpan:
    def test_explicit_timestamps_and_parenting(self):
        trace = fresh_trace()
        ctx = TraceContext(trace_id="t1", parent_span=9, depth=1)
        with trace.activate(ctx):
            record = trace.record_span("queue-wait", start=2.0, end=5.0)
        assert record.start == 2.0 and record.end == 5.0
        assert record.duration == 3.0
        assert record.parent == 9
        assert record.trace_id == "t1"

    def test_disabled_returns_none(self):
        trace = PipelineTrace(enabled=False)
        assert trace.record_span("x", start=0.0, end=1.0) is None


class TestExemplars:
    def test_observe_with_trace_pins_exemplars(self):
        metrics = MetricsRegistry(enabled=True)
        hist = metrics.histogram("latency_seconds", "help")
        hist.observe_with_trace(0.004, "t000001")
        hist.observe_with_trace(0.004, "t000002")
        exemplars = hist.labels().exemplars()
        (items,) = exemplars.values()
        assert [trace_id for trace_id, _value in items] == [
            "t000001", "t000002"]

    def test_exemplars_bounded_last_n_per_bucket(self):
        metrics = MetricsRegistry(enabled=True)
        hist = metrics.histogram("latency_seconds", "help")
        metric = hist.labels()
        for index in range(10):
            metric.observe_with_trace(0.004, f"t{index:06d}")
        (items,) = metric.exemplars().values()
        assert len(items) == metric.EXEMPLARS_PER_BUCKET
        assert items[-1][0] == "t000009"

    def test_observe_with_trace_none_records_no_exemplar(self):
        metrics = MetricsRegistry(enabled=True)
        hist = metrics.histogram("latency_seconds", "help")
        hist.observe_with_trace(0.004, None)
        assert hist.labels().exemplars() == {}
        assert hist.summary().count == 1

    def test_render_text_emits_exemplar_syntax(self):
        metrics = MetricsRegistry(enabled=True)
        hist = metrics.histogram("latency_seconds", "help")
        hist.observe_with_trace(0.004, "t000123")
        text = metrics.render_text()
        assert '# {trace_id="t000123"}' in text
