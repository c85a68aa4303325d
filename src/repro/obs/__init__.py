"""repro.obs: tracing, metrics and profiling across engine, evaluator and simulator.

The package is a strict no-op when disabled: a single module-level
:data:`RECORDER` (never rebound) carries an ``enabled`` flag, and every
instrumented hot path pays exactly one attribute check while recording is
off.  Enable it for a block with :func:`recording`::

    from repro import obs

    with obs.recording(trace="run.jsonl") as rec:
        ...  # run experiments; spans and counters stream to run.jsonl
    snapshot = rec.counters_snapshot()  # deterministic metrics only

Metric names starting with ``rt.`` are runtime-dependent (wall times, pool
utilization) and are excluded from deterministic
snapshots; everything else is a pure function of (scenario, params, seed)
and identical between serial and parallel execution.

Submodules
----------
``core``
    ``Counter`` / ``Histogram`` / ``Span`` / ``Recorder`` and the global
    :data:`RECORDER`.
``context``
    :class:`TraceContext` — the capsule the engine ships to pool workers so
    worker-side spans carry true cross-process parent linkage.
``sinks``
    ``MemorySink`` (tests) and ``JsonlSink`` (append-only trace file, with an
    opt-in per-event fsync knob for crash-safe traces).
``report``
    Trace loading/validation (including salvage of crashed-run traces),
    Chrome-trace export, per-span self-time and critical-path summaries
    (the ``repro stats`` subcommand).
``diff``
    Trace-vs-trace comparison: counter deltas, bucket-wise histogram
    comparison, span aggregates (the ``repro obs diff`` subcommand).
``bench``
    The benchmark observatory: a registry over ``benchmarks/bench_*.py``
    with history, baseline deltas and regression verdicts (the
    ``repro bench`` subcommand).
"""

from .context import TraceContext
from .core import (
    RECORDER,
    Counter,
    Histogram,
    Recorder,
    Span,
    is_volatile,
    recording,
)
from .sinks import SUPPORTED_TRACE_VERSIONS, JsonlSink, MemorySink, TRACE_VERSION

__all__ = [
    "RECORDER",
    "Counter",
    "Histogram",
    "Recorder",
    "Span",
    "TraceContext",
    "is_volatile",
    "recording",
    "JsonlSink",
    "MemorySink",
    "TRACE_VERSION",
    "SUPPORTED_TRACE_VERSIONS",
]
