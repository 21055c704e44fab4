"""The repro.obs observability layer: metrics, spans, events, engine wiring."""

import json
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import obs
from repro.core import TS, AdaptationMode
from repro.exps import ExperimentRunner, RunnerConfig, RunSpec
from repro.microarch import spec2000_like_suite
from repro.obs import (
    EventSink,
    MetricsRegistry,
    set_event_sink,
    span,
)
from repro.obs.metrics import RESERVOIR_SIZE


def read_events(path):
    """Parse a JSONL event file back into dicts (blank lines skipped)."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


OBS_CONFIG = RunnerConfig(
    n_chips=2,
    cores_per_chip=1,
    n_instructions=3000,
    fuzzy_examples=300,
    fuzzy_epochs=1,
)


@pytest.fixture(autouse=True)
def _obs_reset():
    """Leave the process-global obs state exactly as we found it."""
    yield
    obs.enable()
    set_event_sink(None)
    obs.metrics_registry().clear()


class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(4)
        for v in (1.0, 2.0, 3.0):
            reg.histogram("h").observe(v)
        doc = reg.to_dict()
        assert doc["counters"]["c"] == 3.5
        assert doc["gauges"]["g"] == 4.0
        h = doc["histograms"]["h"]
        assert h["count"] == 3 and h["total"] == 6.0
        assert h["min"] == 1.0 and h["max"] == 3.0
        assert h["mean"] == pytest.approx(2.0)

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50.0) == pytest.approx(50.5)
        assert h.percentile(99.0) == pytest.approx(99.01)
        doc = h.summary()
        assert doc["p50"] == pytest.approx(50.5)
        assert doc["p90"] == pytest.approx(90.1)

    def test_histogram_reservoir_is_bounded(self):
        from repro.obs.metrics import RESERVOIR_SIZE

        h = MetricsRegistry().histogram("h")
        for v in range(RESERVOIR_SIZE + 100):
            h.observe(float(v))
        assert h.count == RESERVOIR_SIZE + 100  # moments stay exact
        assert len(h.values) == RESERVOIR_SIZE
        assert h.vmax == float(RESERVOIR_SIZE + 99)  # max tracked past cap

    def test_merge_sums_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.counter("only_b").inc()
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.merge(b)
        doc = a.to_dict()
        assert doc["counters"]["c"] == 5.0
        assert doc["counters"]["only_b"] == 1.0
        assert doc["gauges"]["g"] == 9.0  # last write wins
        h = doc["histograms"]["h"]
        assert h["count"] == 2 and h["min"] == 1.0 and h["max"] == 5.0

    def test_merge_is_json_safe(self):
        """The wire document survives an actual JSON round trip."""
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc()
        b.histogram("h").observe(2.0)
        a.merge_dict(json.loads(json.dumps(b.to_dict())))
        assert a.to_dict()["counters"]["c"] == 1.0

    def test_drain_snapshots_and_resets(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        delta = reg.drain()
        assert delta["counters"]["c"] == 1.0
        assert not reg  # emptied
        assert reg.drain()["counters"] == {}

    def test_scoped_redirects_helpers(self):
        campaign = MetricsRegistry()
        with obs.scoped(campaign):
            obs.inc("scoped.c")
            assert obs.metrics_registry() is campaign
        assert campaign.counters["scoped.c"].value == 1.0
        assert "scoped.c" not in obs.metrics_registry().counters


def _worker_chunk(amount):
    """Module-level so the pool can pickle it: do work, return the delta."""
    obs.metrics_registry().clear()
    obs.enable()
    obs.inc("work.items", amount)
    obs.observe("work.seconds", 0.01 * amount)
    return obs.metrics_registry().drain()


class TestCrossProcessMerge:
    def test_parent_merges_worker_deltas(self):
        parent = MetricsRegistry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            for delta in pool.map(_worker_chunk, [1, 2, 3, 4]):
                parent.merge_dict(delta)
        doc = parent.to_dict()
        assert doc["counters"]["work.items"] == 10.0
        assert doc["histograms"]["work.seconds"]["count"] == 4
        assert doc["histograms"]["work.seconds"]["max"] == pytest.approx(0.04)


class TestSpans:
    def test_span_records_histogram(self):
        reg = MetricsRegistry()
        with obs.scoped(reg):
            with span("unit.test"):
                pass
        assert reg.histograms["span.unit.test_seconds"].count == 1

    def test_disabled_span_is_shared_noop(self):
        from repro.obs.spans import _NULL_SPAN

        obs.disable()
        assert span("anything") is _NULL_SPAN
        assert span("else", field=1) is _NULL_SPAN

    def test_disabled_helpers_record_nothing(self):
        reg = MetricsRegistry()
        obs.disable()
        with obs.scoped(reg):
            obs.inc("c")
            obs.observe("h", 1.0)
            obs.set_gauge("g", 1.0)
            with span("s"):
                pass
        assert not reg

    def test_disabled_overhead_smoke(self):
        """A disabled helper call is a branch, not bookkeeping."""
        obs.disable()
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            obs.inc("c")
            with span("s"):
                pass
        elapsed = time.perf_counter() - start
        # Generous bound (~10 us per iteration) — catches accidental
        # dict/clock work on the disabled path, not scheduler noise.
        assert elapsed < 10e-6 * n

    def test_span_nesting_tracked_in_events_not_names(self, tmp_path):
        path = tmp_path / "events.jsonl"
        reg = MetricsRegistry()
        with EventSink(path) as sink:
            set_event_sink(sink)
            with obs.scoped(reg):
                with span("outer"):
                    with span("inner", env="TS"):
                        pass
            set_event_sink(None)
        events = read_events(path)
        inner, outer = events[0], events[1]  # inner closes first
        assert inner["name"] == "inner"
        assert inner["depth"] == 1 and inner["parent"] == "outer"
        assert inner["env"] == "TS"
        assert outer["depth"] == 0 and outer["parent"] is None
        # Nesting never leaks into metric names (serial/parallel parity).
        assert set(reg.histograms) == {
            "span.outer_seconds", "span.inner_seconds",
        }


class TestThreads:
    def test_span_stack_is_per_thread(self, tmp_path):
        # Both threads hold an open outer span while the other opens and
        # closes its inner one; each event names its own thread's parent.
        path = tmp_path / "events.jsonl"
        barrier = threading.Barrier(2)

        def nest(tag):
            with span(f"outer.{tag}"):
                barrier.wait(timeout=30)
                with span(f"inner.{tag}"):
                    barrier.wait(timeout=30)
                barrier.wait(timeout=30)

        with EventSink(path) as sink:
            set_event_sink(sink)
            threads = [threading.Thread(target=nest, args=(tag,))
                       for tag in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            set_event_sink(None)
        events = {event["name"]: event for event in read_events(path)}
        assert len(events) == 4
        for tag in "ab":
            assert events[f"inner.{tag}"]["parent"] == f"outer.{tag}"
            assert events[f"inner.{tag}"]["depth"] == 1
            assert events[f"outer.{tag}"]["parent"] is None
            assert events[f"outer.{tag}"]["depth"] == 0
        assert obs.current_span() is None

    def test_concurrent_updates_are_exact(self):
        # Counts, sums and the reservoir bound stay exact, and threads
        # that create one metric at once all get the same object.
        reg = MetricsRegistry()
        threads, per_thread = 8, 10_000
        start = threading.Barrier(threads)

        def hammer():
            start.wait(timeout=30)
            for i in range(per_thread):
                obs.inc("c")
                obs.inc(f"fresh.{i % 1000}")
                obs.observe("h", 1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.scoped(reg):
                workers = [threading.Thread(target=hammer)
                           for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=120)
                    assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert reg.counters["c"].value == threads * per_thread
        assert all(
            reg.counters[f"fresh.{i}"].value == threads * per_thread / 1000
            for i in range(1000)
        )
        assert reg.histograms["h"].count == threads * per_thread
        assert reg.histograms["h"].total == threads * per_thread
        assert len(reg.histograms["h"].values) == RESERVOIR_SIZE


class TestEventSink:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path) as sink:
            sink.emit("cell", env="TS", source="cache")
            sink.emit("done", items=3)
        events = read_events(path)
        assert [e["event"] for e in events] == ["cell", "done"]
        assert events[0]["env"] == "TS"
        assert events[1]["items"] == 3
        assert all("ts" in e for e in events)

    def test_emit_event_without_sink_is_noop(self):
        set_event_sink(None)
        obs.emit_event("ignored", detail=1)  # must not raise


class TestEngineMetrics:
    @pytest.fixture(scope="class")
    def two_workloads(self):
        return tuple(spec2000_like_suite()[:2])

    def test_serial_and_parallel_metrics_same_structure(self, two_workloads):
        """--jobs N reports totals merged across the workers under the
        same metric names."""
        spec_args = dict(
            environments=(TS,),
            modes=(AdaptationMode.EXH_DYN,),
            workloads=two_workloads,
            use_cache=False,
        )
        serial = ExperimentRunner(OBS_CONFIG).run(
            RunSpec(**spec_args)
        ).summary(TS)
        parallel = ExperimentRunner(OBS_CONFIG).run(
            RunSpec(parallelism=2, **spec_args)
        ).summary(TS)
        assert serial.metrics is not None and parallel.metrics is not None
        for kind in ("counters", "gauges", "histograms"):
            assert set(serial.metrics[kind]) == set(parallel.metrics[kind])
        # Merged work totals agree exactly; only timings (and the
        # kernel *call* counts, which depend on how units were blocked
        # across workers) may differ.  Per-lane totals are the
        # blocking-independent measure of work.
        counters_s = serial.metrics["counters"]
        counters_p = parallel.metrics["counters"]
        for name in ("thermal.solves", "optimizer.freq_lanes",
                     "optimizer.candidates", "engine.cells_requested",
                     "engine.batched_units"):
            assert counters_s[name] == counters_p[name], name
        n_units = OBS_CONFIG.n_chips * OBS_CONFIG.cores_per_chip
        assert counters_s["engine.batched_units"] == n_units
        assert "span.engine.units_batched_seconds" in (
            serial.metrics["histograms"]
        )

    def test_metrics_absent_when_disabled(self, two_workloads):
        obs.disable()
        try:
            summary = ExperimentRunner(OBS_CONFIG).run(RunSpec(
                environments=(TS,),
                modes=(AdaptationMode.STATIC,),
                workloads=two_workloads,
                use_cache=False,
            )).summary(TS, AdaptationMode.STATIC)
        finally:
            obs.enable()
        assert summary.metrics is None

    def test_summary_json_carries_metrics(self, two_workloads):
        runner = ExperimentRunner(OBS_CONFIG)
        summary = runner.run(RunSpec(
            environments=(TS,),
            modes=(AdaptationMode.STATIC,),
            workloads=two_workloads,
            use_cache=False,
        )).summary(TS, AdaptationMode.STATIC)
        assert summary.metrics is not None
        restored = type(summary).from_json(summary.to_json())
        assert restored.metrics == summary.metrics
        assert restored.results == summary.results


class TestReportingFooter:
    def test_metrics_footer_renders(self):
        from repro.exps.reporting import metrics_footer

        reg = MetricsRegistry()
        reg.counter("cache.bank.hits").inc(3)
        reg.gauge("engine.jobs").set(2)
        reg.histogram("span.engine.unit_seconds").observe(0.5)
        text = metrics_footer(reg.to_dict())
        assert "cache.bank.hits=3" in text
        assert "engine.jobs=2" in text
        assert "span.engine.unit_seconds" in text and "p50=0.5" in text
        assert metrics_footer(None) == ""
        assert metrics_footer({}) == ""


class TestToDictPrefix:
    def test_prefix_filters_every_section(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("serve.job.job-1.cells_total").inc(2)
        reg.counter("serve.job.job-2.cells_total").inc(5)
        reg.gauge("serve.job.job-1.cells_pending").set(1)
        reg.gauge("other.gauge").set(9)
        reg.histogram("serve.job.job-1.seconds").observe(0.5)
        doc = reg.to_dict(prefix="serve.job.job-1.")
        assert set(doc["counters"]) == {"serve.job.job-1.cells_total"}
        assert set(doc["gauges"]) == {"serve.job.job-1.cells_pending"}
        assert set(doc["histograms"]) == {"serve.job.job-1.seconds"}

    def test_no_prefix_keeps_everything(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("a").inc(1)
        reg.gauge("b").set(2)
        assert set(reg.to_dict()["counters"]) == {"a"}
        assert set(reg.to_dict()["gauges"]) == {"b"}
