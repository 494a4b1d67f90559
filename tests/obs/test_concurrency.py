"""Thread-safety: concurrent metric mutation and span emission.

The agent fires rules from notification-listener and detached-action
threads concurrently with client commands, so the registry must never
lose increments and the trace must never corrupt its buffer.
"""

import threading

from repro.obs import MetricsRegistry, PipelineTrace

THREADS = 8
ITERATIONS = 2_000


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on several threads, started near-simultaneously."""
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait()
        worker(index)

    pool = [threading.Thread(target=run, args=(index,))
            for index in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=30)
        assert not thread.is_alive(), "worker thread deadlocked"


class TestMetricsConcurrency:
    def test_no_lost_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "hits", ("kind",))

        def worker(index):
            child = counter.labels(str(index % 2))
            for _ in range(ITERATIONS):
                child.inc()

        _hammer(worker)
        total = sum(metric.value() for _, metric in counter.children())
        assert total == THREADS * ITERATIONS

    def test_no_lost_histogram_observations(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")

        def worker(index):
            child = histogram.labels()
            for _ in range(ITERATIONS):
                child.observe(1.0)

        _hammer(worker)
        summary = histogram.summary()
        assert summary.count == THREADS * ITERATIONS
        assert summary.mean == 1.0
        assert summary.max == 1.0

    def test_concurrent_label_creation_yields_one_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "hits", ("kind",))

        def worker(index):
            for _ in range(ITERATIONS):
                counter.labels("same").inc()

        _hammer(worker)
        assert len(counter.children()) == 1
        assert counter.labels("same").value() == THREADS * ITERATIONS

    def test_reads_while_writing_do_not_deadlock(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.histogram("latency").observe(1.0)
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                registry.as_dict()
                registry.render_text()

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            def worker(index):
                for _ in range(ITERATIONS):
                    registry.counter("hits").inc()
                    registry.histogram("latency").observe(0.5)
            _hammer(worker, threads=4)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert registry.counter("hits").value() == 1 + 4 * ITERATIONS


class TestTraceConcurrency:
    def test_no_lost_records_and_unique_monotone_seqs(self):
        trace = PipelineTrace(enabled=True, capacity=1_000_000)

        def worker(index):
            for step in range(ITERATIONS):
                with trace.span(f"outer-{index}"):
                    trace.emit(f"inner-{index}", str(step))

        _hammer(worker)
        assert len(trace.records) == THREADS * ITERATIONS * 2
        seqs = [record.seq for record in trace.records]
        assert len(set(seqs)) == len(seqs)

    def test_nesting_stays_per_thread(self):
        trace = PipelineTrace(enabled=True, capacity=1_000_000)

        def worker(index):
            for _ in range(200):
                with trace.span(f"outer-{index}") as outer:
                    with trace.span(f"inner-{index}") as inner:
                        assert inner.parent == outer.seq
                    assert trace.current() is outer
                assert trace.current() is None

        _hammer(worker)
        # Every inner span's parent is an outer span of the *same* thread.
        by_seq = {record.seq: record for record in trace.records}
        for record in trace.records:
            if record.step.startswith("inner-"):
                parent = by_seq[record.parent]
                assert parent.step == "outer-" + record.step.split("-")[1]

    def test_trimming_under_contention_stays_bounded(self):
        trace = PipelineTrace(enabled=True, capacity=50)

        def worker(index):
            for step in range(ITERATIONS):
                trace.emit(f"{index}:{step}")

        _hammer(worker)
        assert len(trace.records) <= 50
