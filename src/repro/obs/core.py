"""Instrumentation core: counters, histograms, spans, and the global recorder.

The module exposes a single :data:`RECORDER` instance that is **never
rebound** -- instrumented modules import the object once (``from ..obs import
RECORDER``) and guard hot paths with a single attribute check
(``RECORDER.enabled``).  When disabled (the default) every recording method is
a no-op, so the instrumented code paths pay one boolean test and nothing else.

Volatility convention
---------------------
Counter, histogram, and gauge *names* encode whether the metric is a
deterministic function of (scenario, params, seed) or depends on wall-clock /
process placement: names starting with ``rt.`` (runtime) are **volatile** and
are excluded from deterministic snapshots.  Everything else must be identical
between serial and parallel execution of the same jobs -- the test-suite
enforces this.

>>> from repro.obs import RECORDER, recording
>>> RECORDER.count("eval.apply")  # disabled: silently dropped
>>> with recording() as rec:
...     rec.count("eval.apply")
...     rec.count("eval.apply", 2)
...     rec.observe("example.size", 5)
>>> rec.counters_snapshot()["counters"]["eval.apply"]
3
"""

from __future__ import annotations

import math
import os
import time
import uuid
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "Recorder",
    "Span",
    "RECORDER",
    "recording",
    "is_volatile",
]

#: Prefix marking runtime-dependent (wall-clock / process-placement) metrics.
VOLATILE_PREFIX = "rt."


def is_volatile(name: str) -> bool:
    """True when ``name`` denotes a runtime-dependent (non-deterministic) metric."""
    return name.startswith(VOLATILE_PREFIX)


def _metric_key(name: str, label: Optional[str]) -> str:
    return name if label is None else f"{name}[{label}]"


def _bucket_bound(value: float) -> float:
    """Smallest power of two >= ``value`` (0.0 for non-positive values)."""
    if value <= 0.0:
        return 0.0
    return 2.0 ** math.ceil(math.log2(value))


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """A value distribution with power-of-two buckets.

    ``count``/``total``/``buckets`` merge exactly across processes (the
    parallel executor ships per-job deltas back through the pool); ``min`` and
    ``max`` are process-local conveniences and are excluded from snapshots.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[float, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bound = _bucket_bound(value)
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def state(self) -> Dict[str, Any]:
        """Mergeable snapshot (JSON-safe; excludes process-local min/max)."""
        return {
            "count": self.count,
            "total": self.total,
            "buckets": {str(bound): n for bound, n in sorted(self.buckets.items())},
        }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        self.count += int(state.get("count", 0))
        self.total += float(state.get("total", 0.0))
        for key, n in state.get("buckets", {}).items():
            bound = float(key)
            self.buckets[bound] = self.buckets.get(bound, 0) + int(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.4g})"


def _delta_histogram_state(after: Mapping[str, Any], before: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    if before is None:
        return dict(after, buckets=dict(after["buckets"]))
    before_buckets = before.get("buckets", {})
    buckets = {
        key: n - before_buckets.get(key, 0)
        for key, n in after["buckets"].items()
        if n - before_buckets.get(key, 0)
    }
    return {
        "count": after["count"] - before.get("count", 0),
        "total": after["total"] - before.get("total", 0.0),
        "buckets": buckets,
    }


class Span:
    """A timed region; on exit it feeds a volatile timer and emits an event.

    Every span carries a recorder-allocated ``span_id`` and the id of the
    span that was active when it opened (``parent_id``), so the event stream
    encodes the genuine call tree — including across process boundaries,
    where a worker's root span parents onto the id shipped in via
    :class:`~repro.obs.context.TraceContext`.  Timestamp containment still
    holds (children open and close inside their parent), but the viewer no
    longer has to infer the hierarchy from it.
    """

    __slots__ = ("_recorder", "name", "label", "_start", "span_id", "parent_id")

    def __init__(self, recorder: "Recorder", name: str, label: Optional[str]) -> None:
        self._recorder = recorder
        self.name = name
        self.label = label
        self._start = 0.0
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None

    def __enter__(self) -> "Span":
        rec = self._recorder
        if rec.enabled:
            self.parent_id = rec.current_span_id()
            self.span_id = rec.new_span_id()
            rec._span_stack.append(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        rec = self._recorder
        if rec.enabled:
            if self.span_id is not None and rec._span_stack and rec._span_stack[-1] == self.span_id:
                rec._span_stack.pop()
            rec.record_span(
                self.name,
                self.label,
                self._start,
                time.perf_counter() - self._start,
                span_id=self.span_id,
                parent_id=self.parent_id,
            )


class _NullSpan:
    """Shared no-op span returned while the recorder is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """Process-aware metric registry with pluggable event sinks.

    All recording methods are no-ops while :attr:`enabled` is False, so an
    always-present recorder costs instrumented code one attribute check.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, float] = {}
        self._sinks: List[Any] = []
        self._t0 = time.perf_counter()
        self.pid = os.getpid()
        self.trace_id = uuid.uuid4().hex[:16]
        self._span_stack: List[str] = []
        self._span_seq = 0
        self._ctx_prefix: Optional[str] = None
        self._ctx_t0 = 0.0
        self._span_buffer: Optional[List[Dict[str, Any]]] = None

    # -- lifecycle -----------------------------------------------------

    def reset(self) -> None:
        """Drop all metrics and sinks; re-anchor the span clock."""
        self._counters.clear()
        self._histograms.clear()
        self._gauges.clear()
        self._sinks = []
        self._t0 = time.perf_counter()
        self.pid = os.getpid()
        self.trace_id = uuid.uuid4().hex[:16]
        self._span_stack = []
        self._span_seq = 0
        self._ctx_prefix = None
        self._ctx_t0 = 0.0
        self._span_buffer = None

    def add_sink(self, sink: Any) -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink: Any) -> None:
        self._sinks = [s for s in self._sinks if s is not sink]

    @property
    def sinks(self) -> List[Any]:
        return list(self._sinks)

    # -- recording -----------------------------------------------------

    def counter(self, name: str, label: Optional[str] = None) -> Counter:
        key = _metric_key(name, label)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(key)
        return counter

    def count(self, name: str, n: int = 1, label: Optional[str] = None) -> None:
        if self.enabled:
            self.counter(name, label).inc(n)

    def histogram(self, name: str, label: Optional[str] = None) -> Histogram:
        key = _metric_key(name, label)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram(key)
        return hist

    def observe(self, name: str, value: float, label: Optional[str] = None) -> None:
        if self.enabled:
            self.histogram(name, label).observe(value)

    def gauge(self, name: str, value: float, label: Optional[str] = None) -> None:
        if self.enabled:
            key = _metric_key(name, label)
            self._gauges[key] = value
            self._emit({"type": "gauge", "name": key, "value": value, "pid": self.pid})

    def span(self, name: str, label: Optional[str] = None):
        """Context manager timing a region; no-op while disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, label)

    # -- span identity and cross-process context -----------------------

    def new_span_id(self) -> str:
        """Allocate a span id, unique across the whole trace.

        Inside an activated :class:`~repro.obs.context.TraceContext` the ids
        live in the parent-allocated ``ctx_id`` namespace; otherwise they are
        namespaced by pid, which is unique among concurrently live processes.
        """
        self._span_seq += 1
        prefix = self._ctx_prefix if self._ctx_prefix is not None else f"{self.pid:x}"
        return f"{prefix}/{self._span_seq:x}"

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost active span (the parent of a span opened now)."""
        return self._span_stack[-1] if self._span_stack else None

    def activate_context(self, ctx) -> None:
        """Enter a shipped :class:`~repro.obs.context.TraceContext` (worker side).

        Adopts the parent's ``trace_id``, seeds the active-span stack with the
        parent-side enclosing span (so the first span opened here — the job's
        root — parents onto it), switches span-id allocation into the
        context's namespace, and starts *buffering* span events instead of
        emitting them: workers have no sinks, so buffered spans travel back on
        the job result and the parent re-emits them (see
        :meth:`emit_remote_spans`).  Buffered timestamps are relative to this
        activation, which the parent maps onto its own clock.
        """
        if not self.enabled:
            return
        self.trace_id = ctx.trace_id
        self._span_stack = [ctx.parent_id] if ctx.parent_id else []
        self._ctx_prefix = ctx.ctx_id or None
        self._span_seq = 0
        self._span_buffer = []
        self._ctx_t0 = time.perf_counter()

    def deactivate_context(self) -> Tuple[List[Dict[str, Any]], float]:
        """Leave the active context; returns ``(buffered spans, wall seconds)``.

        The wall time covers activation to deactivation and therefore bounds
        every buffered span's ``ts + dur`` — the parent uses it to anchor the
        remap of worker timestamps onto its own clock.
        """
        spans = self._span_buffer or []
        elapsed = time.perf_counter() - self._ctx_t0 if self._span_buffer is not None else 0.0
        self._span_buffer = None
        self._span_stack = []
        self._ctx_prefix = None
        return spans, elapsed

    def emit_remote_spans(self, spans: List[Dict[str, Any]], anchor: float) -> None:
        """Re-emit spans buffered in another process onto this trace.

        ``anchor`` is the absolute ``time.perf_counter()`` moment (on *this*
        process's clock) at which the remote context's t=0 is taken to fall;
        each buffered event's relative ``ts`` is shifted onto the span clock
        accordingly.  Counters were already merged through
        :meth:`merge_metrics` (including the ``rt.span.*`` timers the worker
        observed), so this only forwards the events to the sinks — no double
        counting.
        """
        if not self.enabled:
            return
        offset = anchor - self._t0
        for event in spans:
            shifted = dict(event)
            shifted["ts"] = event["ts"] + offset
            self._emit(shifted)

    def record_span(
        self,
        name: str,
        label: Optional[str],
        start: float,
        duration: float,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        """Record a completed span (used by Span.__exit__ and pool synthesis).

        ``start`` is an absolute ``time.perf_counter()`` value; the emitted
        event carries it relative to the span clock (recorder start, or
        context activation while a context is active).  Callers that already
        hold ids (``Span``) pass them; synthesized spans — e.g. the queue
        waits the parallel executor records — get a fresh id and parent onto
        the currently active span.
        """
        if not self.enabled:
            return
        self.histogram(f"{VOLATILE_PREFIX}span.{name}").observe(duration)
        if span_id is None:
            span_id = self.new_span_id()
        if parent_id is None:
            parent_id = self.current_span_id()
        event = {
            "type": "span",
            "name": name,
            "label": label,
            "dur": duration,
            "pid": self.pid,
            "span_id": span_id,
            "parent_id": parent_id,
            "trace_id": self.trace_id,
        }
        if self._span_buffer is not None:
            event["ts"] = start - self._ctx_t0
            self._span_buffer.append(event)
        else:
            event["ts"] = start - self._t0
            self._emit(event)

    def event(self, payload: Mapping[str, Any]) -> None:
        """Forward an arbitrary event dict to the sinks."""
        if self.enabled:
            self._emit(dict(payload))

    def _emit(self, event: Dict[str, Any]) -> None:
        for sink in self._sinks:
            sink.write(event)

    # -- snapshots, deltas, merging ------------------------------------

    def counters_snapshot(self, include_volatile: bool = False) -> Dict[str, Any]:
        """Sorted, JSON-safe snapshot of counters and histogram states.

        With ``include_volatile=False`` (the default) only deterministic
        metrics are returned -- the object compared bitwise by the
        determinism tests.
        """
        counters = {
            key: counter.value
            for key, counter in sorted(self._counters.items())
            if include_volatile or not is_volatile(key)
        }
        histograms = {
            key: hist.state()
            for key, hist in sorted(self._histograms.items())
            if include_volatile or not is_volatile(key)
        }
        return {"counters": counters, "histograms": histograms}

    def metrics_delta(self, before: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        """Difference between the current state and a prior full snapshot.

        Used by job runners to ship per-job metrics across the process pool;
        includes volatile metrics (the snapshot layer filters later).
        """
        after = self.counters_snapshot(include_volatile=True)
        before_counters = before.get("counters", {}) if before else {}
        before_histograms = before.get("histograms", {}) if before else {}
        counters = {
            key: value - before_counters.get(key, 0)
            for key, value in after["counters"].items()
            if value - before_counters.get(key, 0)
        }
        histograms = {
            key: state
            for key, state in (
                (key, _delta_histogram_state(state, before_histograms.get(key)))
                for key, state in after["histograms"].items()
            )
            if state["count"]
        }
        return {"counters": counters, "histograms": histograms}

    def merge_metrics(self, metrics: Optional[Mapping[str, Any]]) -> None:
        """Fold a :meth:`metrics_delta` payload from another process back in."""
        if not self.enabled or not metrics:
            return
        for key, value in metrics.get("counters", {}).items():
            self._counters.setdefault(key, Counter(key)).inc(value)
        for key, state in metrics.get("histograms", {}).items():
            self._histograms.setdefault(key, Histogram(key)).merge_state(state)

    # -- reporting -----------------------------------------------------

    @property
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    @property
    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    def summary_lines(self) -> List[str]:
        """Human-readable metric summary (used by ``--metrics``)."""
        from .report import recorder_summary_lines

        return recorder_summary_lines(self)


#: The process-wide recorder.  Never rebound -- toggle ``RECORDER.enabled``.
RECORDER = Recorder()


class recording:
    """Context manager enabling :data:`RECORDER` for a block.

    Resets the recorder on entry (fresh counters, fresh span clock, fresh
    ``trace_id``), attaches an optional JSONL trace sink, and on exit flushes
    counter/histogram footers to the sink and disables recording again.
    ``fsync=True`` makes the sink flush every event to disk as it is written
    (crash-safe traces; see :class:`repro.obs.sinks.JsonlSink`).
    """

    def __init__(self, trace: Optional[str] = None, fsync: bool = False) -> None:
        self._trace = trace
        self._fsync = fsync
        self._sink = None

    def __enter__(self) -> Recorder:
        RECORDER.reset()
        if self._trace is not None:
            from .sinks import JsonlSink

            self._sink = JsonlSink(self._trace, fsync=self._fsync, trace_id=RECORDER.trace_id)
            RECORDER.add_sink(self._sink)
        RECORDER.enabled = True
        return RECORDER

    def __exit__(self, *exc_info: object) -> None:
        try:
            if self._sink is not None:
                self._sink.write_footer(RECORDER)
                RECORDER.remove_sink(self._sink)
                self._sink.close()
                self._sink = None
        finally:
            RECORDER.enabled = False
