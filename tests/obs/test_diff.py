"""Trace-vs-trace diffing (repro.obs.diff): drift, histograms, spans."""

import pytest

from repro.obs.diff import diff_summary_lines, diff_traces
from repro.obs.report import TraceData


def make_trace(counters=None, histograms=None, spans=None):
    return TraceData(
        counters=dict(counters or {}),
        histograms=list(histograms or []),
        spans=list(spans or []),
    )


def hist(name, buckets, count=None, total=0.0):
    buckets = dict(buckets)
    return {
        "name": name,
        "buckets": buckets,
        "count": sum(buckets.values()) if count is None else count,
        "total": total,
        "min": 0.0,
        "max": 1.0,
    }


def span(name, dur=0.5, **extra):
    return {"name": name, "ts": 0.0, "dur": dur, **extra}


class TestDiffTraces:
    def test_identical_traces_match(self):
        a = make_trace(
            counters={"engine.jobs.executed": 4, "rt.example.ticks": 9},
            spans=[span("engine.job")],
        )
        b = make_trace(
            counters={"engine.jobs.executed": 4, "rt.example.ticks": 2},
            spans=[span("engine.job", dur=0.9)],
        )
        diff = diff_traces(a, b)
        assert diff.deterministic_match
        assert diff.drift == []
        # volatile counters are reported but never count as drift
        assert diff.counters["rt.example.ticks"] == (9, 2)

    def test_deterministic_counter_drift_detected(self):
        a = make_trace(counters={"engine.jobs.executed": 4})
        b = make_trace(counters={"engine.jobs.executed": 5})
        diff = diff_traces(a, b)
        assert not diff.deterministic_match
        assert diff.drift == ["engine.jobs.executed"]

    def test_counter_missing_from_one_side_is_drift(self):
        diff = diff_traces(
            make_trace(counters={"eval.apply": 3}), make_trace()
        )
        assert diff.drift == ["eval.apply"]
        assert diff.counters["eval.apply"] == (3, 0)

    def test_histogram_bucket_deltas(self):
        a = make_trace(histograms=[hist("rt.span.x", {"0.25": 3, "0.5": 1})])
        b = make_trace(histograms=[hist("rt.span.x", {"0.25": 1, "1": 3})])
        diff = diff_traces(a, b)
        deltas = diff.histograms["rt.span.x"]["bucket_deltas"]
        assert deltas == {"0.25": -2, "0.5": -1, "1": 3}

    def test_histogram_only_in_one_trace(self):
        diff = diff_traces(
            make_trace(), make_trace(histograms=[hist("rt.span.y", {"1": 2})])
        )
        entry = diff.histograms["rt.span.y"]
        assert entry["a"] is None and entry["b"] is not None
        assert entry["bucket_deltas"] == {"1": 2}

    def test_span_aggregates(self):
        a = make_trace(spans=[span("engine.job", 0.5), span("engine.job", 0.5)])
        b = make_trace(spans=[span("engine.job", 2.0)])
        diff = diff_traces(a, b)
        row = diff.spans["engine.job"]
        assert row["count_a"] == 2 and row["count_b"] == 1
        assert row["total_a"] == pytest.approx(1.0)
        assert row["total_b"] == pytest.approx(2.0)


class TestSummaryLines:
    def test_match_rendering_collapses_to_no_differences(self):
        a = make_trace(counters={"eval.apply": 3})
        lines = diff_summary_lines(diff_traces(a, a, "s.jsonl", "p.jsonl"))
        text = "\n".join(lines)
        assert "diff: s.jsonl -> p.jsonl" in text
        assert "MATCH" in text
        assert "no differences beyond volatile timings" in text

    def test_drift_rendering_names_the_counter(self):
        a = make_trace(counters={"engine.jobs.executed": 4})
        b = make_trace(counters={"engine.jobs.executed": 6})
        text = "\n".join(diff_summary_lines(diff_traces(a, b)))
        assert "DRIFT" in text
        assert "engine.jobs.executed" in text
        assert "Counter deltas" in text

    def test_bucket_shift_lines(self):
        a = make_trace(histograms=[hist("rt.span.x", {"0.5": 4})])
        b = make_trace(histograms=[hist("rt.span.x", {"2": 4})])
        text = "\n".join(diff_summary_lines(diff_traces(a, b)))
        assert "Histogram comparison" in text
        assert "<=0.5: -4" in text
        assert "<=2: +4" in text

    def test_changed_only_false_shows_identical_counters(self):
        a = make_trace(counters={"eval.apply": 3})
        lines = diff_summary_lines(diff_traces(a, a), changed_only=False)
        assert any("eval.apply" in line for line in lines)
