"""Unit tests for the instrumentation core (repro.obs.core)."""

import pytest

from repro.obs import RECORDER, Counter, Histogram, Recorder, is_volatile, recording
from repro.obs.sinks import MemorySink


@pytest.fixture(autouse=True)
def clean_recorder():
    """Every test starts and ends with the global recorder disabled+empty."""
    RECORDER.enabled = False
    RECORDER.reset()
    yield
    RECORDER.enabled = False
    RECORDER.reset()


class TestVolatility:
    def test_rt_prefix_is_volatile(self):
        assert is_volatile("rt.sim.decision_s")
        assert not is_volatile("sim.decisions")
        assert not is_volatile("eval.apply")


class TestCounter:
    def test_inc(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5


class TestHistogram:
    def test_observe_tracks_moments_and_buckets(self):
        hist = Histogram("w")
        for value in (1, 3, 8, 8):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 20.0
        assert hist.min == 1 and hist.max == 8
        assert hist.mean == 5.0
        # power-of-two bucket bounds: 1 -> 1, 3 -> 4, 8 -> 8
        assert hist.buckets == {1.0: 1, 4.0: 1, 8.0: 2}

    def test_zero_and_subunit_values(self):
        hist = Histogram("t")
        hist.observe(0.0)
        hist.observe(0.001)
        assert 0.0 in hist.buckets
        assert any(0 < bound < 0.01 for bound in hist.buckets)

    def test_state_merge_is_exact(self):
        a, b = Histogram("w"), Histogram("w")
        for value in (1, 5, 9):
            a.observe(value)
        for value in (2, 5):
            b.observe(value)
        merged = Histogram("w")
        merged.merge_state(a.state())
        merged.merge_state(b.state())
        reference = Histogram("w")
        for value in (1, 5, 9, 2, 5):
            reference.observe(value)
        assert merged.state() == reference.state()


class TestRecorderDisabled:
    def test_methods_are_noops_when_disabled(self):
        rec = Recorder()
        rec.count("a")
        rec.observe("b", 1.0)
        rec.gauge("c", 2.0)
        with rec.span("d"):
            pass
        snapshot = rec.counters_snapshot(include_volatile=True)
        assert snapshot == {"counters": {}, "histograms": {}}
        assert rec.gauges == {}

    def test_span_is_shared_null_object(self):
        rec = Recorder()
        assert rec.span("x") is rec.span("y")


class TestRecorderEnabled:
    def test_counts_and_labels(self):
        rec = Recorder()
        rec.enabled = True
        rec.count("sim.decisions", 3, label="greedy")
        rec.count("sim.decisions", label="greedy")
        rec.count("sim.decisions", label="slack")
        counters = rec.counters_snapshot()["counters"]
        assert counters["sim.decisions[greedy]"] == 4
        assert counters["sim.decisions[slack]"] == 1

    def test_snapshot_excludes_volatile_by_default(self):
        rec = Recorder()
        rec.enabled = True
        rec.count("eval.apply")
        rec.count("rt.example.ticks")
        rec.observe("example.size", 4)
        rec.observe("rt.sim.decision_s", 0.1)
        snapshot = rec.counters_snapshot()
        assert list(snapshot["counters"]) == ["eval.apply"]
        assert list(snapshot["histograms"]) == ["example.size"]
        everything = rec.counters_snapshot(include_volatile=True)
        assert "rt.example.ticks" in everything["counters"]
        assert "rt.sim.decision_s" in everything["histograms"]

    def test_snapshot_is_sorted_and_json_safe(self):
        import json

        rec = Recorder()
        rec.enabled = True
        for name in ("b", "a", "c"):
            rec.count(name)
        snapshot = rec.counters_snapshot()
        assert list(snapshot["counters"]) == ["a", "b", "c"]
        json.dumps(snapshot)  # must not raise

    def test_span_records_event_and_timer(self):
        rec = Recorder()
        rec.enabled = True
        sink = MemorySink()
        rec.add_sink(sink)
        with rec.span("engine.job", label="g3/iterative"):
            pass
        spans = sink.by_type("span")
        assert len(spans) == 1
        assert spans[0]["name"] == "engine.job"
        assert spans[0]["label"] == "g3/iterative"
        assert spans[0]["dur"] >= 0.0
        assert rec.histograms["rt.span.engine.job"].count == 1

    def test_gauge_emits_event(self):
        rec = Recorder()
        rec.enabled = True
        sink = MemorySink()
        rec.add_sink(sink)
        rec.gauge("rt.engine.pool.utilization", 0.5)
        assert rec.gauges["rt.engine.pool.utilization"] == 0.5
        assert sink.by_type("gauge")[0]["value"] == 0.5


class TestDeltaAndMerge:
    def test_metrics_delta_only_reports_changes(self):
        rec = Recorder()
        rec.enabled = True
        rec.count("a", 5)
        rec.observe("h", 2)
        before = rec.counters_snapshot(include_volatile=True)
        rec.count("a", 2)
        rec.count("b")
        rec.observe("h", 7)
        delta = rec.metrics_delta(before)
        assert delta["counters"] == {"a": 2, "b": 1}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["total"] == 7.0

    def test_merge_reproduces_serial_totals(self):
        # Two "worker" recorders ship deltas into a parent: totals must
        # equal one recorder observing everything (the parallel-vs-serial
        # counter determinism contract).
        parent = Recorder()
        parent.enabled = True
        for values in ((1, 4), (2, 8)):
            worker = Recorder()
            worker.enabled = True
            before = worker.counters_snapshot(include_volatile=True)
            for value in values:
                worker.count("eval.apply")
                worker.observe("example.size", value)
            parent.merge_metrics(worker.metrics_delta(before))
        reference = Recorder()
        reference.enabled = True
        for value in (1, 4, 2, 8):
            reference.count("eval.apply")
            reference.observe("example.size", value)
        assert parent.counters_snapshot() == reference.counters_snapshot()

    def test_merge_is_noop_when_disabled(self):
        rec = Recorder()
        rec.merge_metrics({"counters": {"a": 1}, "histograms": {}})
        rec.enabled = True
        assert rec.counters_snapshot()["counters"] == {}


class TestRecordingContext:
    def test_enables_resets_and_disables(self):
        RECORDER.enabled = True
        RECORDER.count("stale")
        RECORDER.enabled = False
        with recording() as rec:
            assert rec is RECORDER
            assert rec.enabled
            assert rec.counters_snapshot()["counters"] == {}
            rec.count("fresh")
        assert not RECORDER.enabled
        # state survives exit for inspection (until the next session resets)
        assert RECORDER.counters_snapshot()["counters"] == {"fresh": 1}

    def test_trace_file_written_and_closed(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        with recording(trace=str(path)) as rec:
            rec.count("eval.apply")
            with rec.span("engine.job"):
                pass
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        kinds = {line["type"] for line in lines}
        assert {"meta", "span", "counters", "histogram"} <= kinds
        counters = [line for line in lines if line["type"] == "counters"]
        assert counters[0]["counts"]["eval.apply"] == 1
