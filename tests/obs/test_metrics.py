"""The metrics registry: percentile math, families, exporters, no-op mode."""

import pytest

from repro.obs import (
    HistogramSummary,
    MetricsRegistry,
    percentile,
    summarize,
)


class TestPercentile:
    def test_known_distribution_1_to_100(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0

    def test_single_sample(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_small_sample_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 25) == 10.0
        assert percentile(values, 50) == 20.0
        assert percentile(values, 75) == 30.0
        assert percentile(values, 76) == 40.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSummarize:
    def test_known_distribution(self):
        summary = summarize([float(v) for v in range(1, 101)])
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == 50.0
        assert summary.median == 50.0
        assert summary.p95 == 95.0
        assert summary.p99 == 99.0
        assert summary.max == 100.0

    def test_empty_is_zeroed(self):
        summary = summarize([])
        assert summary == HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_as_dict_round_trip(self):
        d = summarize([1.0, 2.0, 3.0]).as_dict()
        assert set(d) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert d["count"] == 3


class TestCounterAndGauge:
    def test_counter_counts(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", "hits", ("kind",))
        family.labels("a").inc()
        family.labels("a").inc(2)
        family.labels("b").inc()
        assert family.labels("a").value() == 3
        assert family.labels("b").value() == 1

    def test_unlabeled_family_proxies_to_single_child(self):
        registry = MetricsRegistry()
        family = registry.counter("total")
        family.inc()
        family.inc()
        assert family.value() == 2

    def test_label_arity_checked(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", "hits", ("kind",))
        with pytest.raises(ValueError):
            family.labels()
        with pytest.raises(ValueError):
            family.labels("a", "b")


class TestHistogram:
    def test_percentiles_on_known_distribution(self):
        # Unit-width buckets make the interpolated estimates exact.
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency", buckets=tuple(float(v) for v in range(1, 101)))
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == 50.0
        assert summary.p95 == 95.0
        assert summary.p99 == 99.0
        assert summary.max == 100.0

    def test_default_buckets_estimate_within_one_bucket(self):
        from repro.obs.metrics import bucket_bounds

        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        samples = [v / 1000.0 for v in range(1, 101)]  # 1ms .. 100ms
        for value in samples:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary.count == 100
        assert summary.max == 0.1
        for q, exact in ((50, 0.050), (95, 0.095), (99, 0.099)):
            lower, upper = bucket_bounds(exact)
            estimate = histogram.quantile(q)
            assert abs(estimate - exact) <= upper - lower
            assert estimate <= summary.max

    def test_empty_histogram_summary_is_zeroed(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        assert histogram.summary().count == 0


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", "hits", ("kind",))
        again = registry.counter("hits", "hits", ("kind",))
        assert first is again

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        with pytest.raises(ValueError):
            registry.histogram("hits")

    def test_label_schema_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits", "hits", ("kind",))
        with pytest.raises(ValueError):
            registry.counter("hits", "hits", ("other",))

    def test_disabled_registry_mutators_are_no_ops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("hits")
        labeled = registry.counter("depth", "", ("kind",))
        histogram = registry.histogram("latency")
        counter.inc()
        labeled.labels("a").inc(5)
        histogram.observe(1.0)
        assert counter.value() == 0
        assert labeled.labels("a").value() == 0
        assert histogram.summary().count == 0

    def test_enable_toggle_takes_effect_immediately(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("hits")
        counter.inc()
        registry.enabled = True
        counter.inc()
        assert counter.value() == 1

    def test_reset_zeroes_but_keeps_families(self):
        registry = MetricsRegistry()
        family = registry.counter("hits", "hits", ("kind",))
        family.labels("a").inc(5)
        registry.reset()
        assert registry.get("hits") is family
        assert family.labels("a").value() == 0

    def test_as_dict_export(self):
        registry = MetricsRegistry()
        registry.counter("hits", "total hits", ("kind",)).labels("a").inc(3)
        registry.histogram("latency").observe(2.0)
        exported = registry.as_dict()
        assert exported["hits"]["type"] == "counter"
        assert exported["hits"]["help"] == "total hits"
        assert exported["hits"]["values"] == [
            {"labels": {"kind": "a"}, "value": 3}]
        latency = exported["latency"]["values"][0]["value"]
        assert latency["count"] == 1
        assert latency["max"] == 2.0

    def test_render_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("hits", "total hits", ("kind",)).labels("a").inc(3)
        registry.histogram("latency").observe(2.0)
        text = registry.render_text()
        assert "# HELP hits total hits" in text
        assert "# TYPE hits counter" in text
        assert 'hits{kind="a"} 3' in text
        assert "latency_count 1" in text
        assert "latency_p99 2" in text

    def test_render_text_escapes_label_values(self):
        registry = MetricsRegistry()
        family = registry.counter("ops", "operations", ("detail",))
        family.labels('back\\slash "quoted"\nnewline').inc(2)
        text = registry.render_text()
        assert (r'ops{detail="back\\slash \"quoted\"\nnewline"} 2'
                in text.splitlines())
        # The escaped line must stay on one physical line.
        for line in text.splitlines():
            if line.startswith("ops{"):
                assert "\n" not in line

    def test_render_text_escapes_help_text(self):
        registry = MetricsRegistry()
        registry.counter("ops", 'multi\nline \\ help').inc()
        text = registry.render_text()
        assert r"# HELP ops multi\nline \\ help" in text.splitlines()

    def test_render_text_deterministic_sorted_order(self):
        def build(order):
            registry = MetricsRegistry()
            for name in order:
                family = registry.counter(name, f"{name} help", ("k",))
                for value in ("b", "a", "c"):
                    family.labels(value).inc()
            return registry.render_text()

        first = build(["zeta", "alpha", "mid"])
        second = build(["mid", "zeta", "alpha"])
        assert first == second
        names = [line.split()[2] for line in first.splitlines()
                 if line.startswith("# TYPE")]
        assert names == sorted(names)
        # Children render sorted by label value within each family.
        values = [line.split('"')[1] for line in first.splitlines()
                  if line.startswith('alpha{')]
        assert values == ["a", "b", "c"]
