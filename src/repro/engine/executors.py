"""Pluggable job executors: serial and process-parallel.

Both executors implement the same tiny contract — ``run(items,
progress=None)`` returns one result record per work item, *in submission
order* — so callers never care which one they hold.  A work item
(:class:`~repro.engine.Job` or :class:`~repro.engine.SimulationBatch`)
is pure data that runs itself:
``item.run()`` returns its record, and ``item.failure_result(message)``
builds the record for an item the process pool lost.  Deterministic
ordering is part of the contract: a parallel run must produce the same
result rows as a serial run, byte for byte, regardless of completion order.

Error isolation is also part of the contract: a job that raises is captured
into its record's ``error`` and the rest of the batch keeps running.  A
sweep with one pathological instance therefore degrades to one ``inf`` cell
instead of a crashed process.

A ``Job`` names its ``problem`` as shared: the process pool ships each distinct
problem to each worker once and submits the jobs with an index in its place;
a problem that cannot be pickled fails only its own jobs.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import time
import traceback as traceback_module
from concurrent import futures
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from ..obs import RECORDER as _OBS, TraceContext
from .jobs import Job, JobResult, get_algorithm

__all__ = [
    "ProgressCallback",
    "execute_job",
    "SerialExecutor",
    "ParallelExecutor",
    "default_executor",
]

#: ``progress(done, total, result)`` is invoked after every work item completes.
ProgressCallback = Callable[[int, int, Any], None]


def execute_job(job: Job) -> JobResult:
    """Run one job to completion, capturing any failure into the result.

    The execution path behind :meth:`Job.run <repro.engine.Job.run>`, in
    the calling process and in pool workers alike.
    """
    obs_before = _OBS.counters_snapshot(include_volatile=True) if _OBS.enabled else None
    model = job.problem.model()
    runner = get_algorithm(job.algorithm)
    started = time.perf_counter()
    try:
        with _OBS.span("engine.job", label=job.label):
            with _OBS.span("engine.algorithm", label=job.algorithm):
                outcome = runner(job.problem, model, dict(job.params))
    except Exception as exc:  # noqa: BLE001 - per-job isolation is the point
        return dataclasses.replace(
            job.failure_result(f"{type(exc).__name__}: {exc}"),
            traceback=traceback_module.format_exc(),
            elapsed_s=time.perf_counter() - started,
            metrics=_job_metrics(obs_before, job, failed=True),
        )
    elapsed = time.perf_counter() - started
    makespan = float(outcome.makespan)
    return JobResult(
        key=job.key(),
        algorithm=job.algorithm,
        problem_name=job.problem.name or job.problem.graph.name or "",
        cost=float(outcome.cost),
        makespan=makespan,
        feasible=makespan <= job.problem.deadline + 1e-9,
        sequence=tuple(outcome.sequence),
        assignment={name: int(col) for name, col in outcome.assignment.items()},
        elapsed_s=elapsed,
        metrics=_job_metrics(obs_before, job),
    )


def _job_metrics(obs_before, job, failed: bool = False):
    """Close out one job's observability accounting; None while disabled.

    Counts the job itself under its type's counter prefix, then returns the recorder delta since
    ``obs_before`` so the parallel executor can ship it across the process
    boundary (see ``ParallelExecutor.run``).
    """
    if obs_before is None or not _OBS.enabled:
        return None
    _OBS.count(f"{job.counters}.failed" if failed else f"{job.counters}.executed")
    return _OBS.metrics_delta(obs_before)


#: Worker-side: the pool's shared objects (:func:`_by_reference`), set by :func:`_init_worker`.
_SHARED: Tuple[Any, ...] = ()


def _init_worker(obs_enabled: bool = False, shared: Any = ()) -> None:
    """Process-pool initializer: fresh recorder state and the shared objects.

    The recorder reset matters under ``fork``: the child would otherwise
    inherit the parent's counter values *and* its open sink handles, and
    worker writes would interleave garbage into the parent's trace file.
    Workers record into memory only; per-job deltas travel back on the
    result (``JobResult.metrics``) and are merged by the parent.  ``shared``
    is inherited under ``fork``; under ``spawn`` or ``forkserver`` it
    arrives as the bytes :func:`_pickled` made of it.
    """
    global _SHARED
    _OBS.reset()
    _OBS.enabled = obs_enabled
    _SHARED = pickle.loads(shared) if isinstance(shared, bytes) else shared


def _by_reference(items: List) -> Tuple[Tuple[Any, ...], List]:
    """``(shared, submitted)``: what the pool ships once, and per item what it submits.

    ``shared`` holds every distinct object (by identity) that an item names
    through its ``shared_field``; the submitted item is a shallow copy with
    that field set to the object's index in ``shared``, all else kept.
    """
    refs: Dict[int, Tuple[int, Any]] = {}
    submitted = []
    for item in items:
        name = getattr(item, "shared_field", None)
        if name is not None:
            value = getattr(item, name)
            item = copy.copy(item)
            object.__setattr__(item, name, refs.setdefault(id(value), (len(refs), value))[0])
        submitted.append(item)
    return tuple(value for _, value in refs.values()), submitted


def _pickled(shared: Tuple[Any, ...]) -> bytes:
    """``shared`` pickled once, in the parent, for workers that do not fork.

    An object that cannot be pickled is replaced by its pickling error,
    which its items then raise in the worker (:func:`_run_with_context`).
    """
    try:
        return pickle.dumps(shared)
    except Exception:  # noqa: BLE001 - fail only the items of the object at fault
        pass
    kept = []
    for value in shared:
        try:
            pickle.dumps(value)
        except Exception as exc:  # noqa: BLE001
            value = exc
        kept.append(value)
    return pickle.dumps(tuple(kept))


def _run_with_context(item, ctx: Optional[TraceContext]):
    """Worker-side shim: run a work item inside a shipped :class:`TraceContext`.

    Module-level so the pool pickles it by reference.  While the context is
    active the worker's recorder buffers span events (with true parent ids)
    instead of emitting them; the buffer travels back to the parent on the
    result's ``metrics`` payload under the ``"spans"`` key, alongside
    ``"ctx_elapsed"`` — the worker wall-clock the parent uses to anchor the
    timestamps onto its own clock.  ``merge_metrics`` ignores both keys.
    A shared field arrives as an index into the worker's copies (:func:`_init_worker`).
    """
    name = getattr(item, "shared_field", None)
    if name is not None:
        value = _SHARED[getattr(item, name)]
        if isinstance(value, Exception):
            raise value  # the parent could not pickle the object (_pickled)
        object.__setattr__(item, name, value)
    if ctx is None or not _OBS.enabled:
        return item.run()
    _OBS.activate_context(ctx)
    try:
        result = item.run()
    finally:
        spans, ctx_elapsed = _OBS.deactivate_context()
    metrics = getattr(result, "metrics", None)
    if isinstance(metrics, dict):
        metrics["spans"] = spans
        metrics["ctx_elapsed"] = ctx_elapsed
    return result


class SerialExecutor:
    """Run jobs one after another in the calling process."""

    @property
    def max_workers(self) -> int:
        return 1

    def run(self, jobs: Iterable, progress: Optional[ProgressCallback] = None) -> List:
        """Execute every work item; always returns results in submission order."""
        job_list = list(jobs)
        results: List = []
        for index, job in enumerate(job_list):
            result = job.run()
            results.append(result)
            if progress is not None:
                progress(index + 1, len(job_list), result)
        return results

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan jobs out over a :class:`concurrent.futures.ProcessPoolExecutor`.

    Work items are pure data that run themselves inside the worker, one
    future each, submitted without what they share (:func:`_by_reference`).
    Results are re-ordered to submission order before returning, keeping
    parallel output identical to serial output.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers!r}")
        self.max_workers = max_workers or os.cpu_count() or 1

    def run(self, jobs: Iterable, progress: Optional[ProgressCallback] = None) -> List:
        """Execute every work item across the pool; results in submission order."""
        job_list = list(jobs)
        if not job_list:
            return []
        if self.max_workers == 1 or len(job_list) == 1:
            # A one-worker pool would pay process start-up for nothing.
            return SerialExecutor().run(job_list, progress=progress)

        results: List = [None] * len(job_list)
        workers = min(self.max_workers, len(job_list))
        pool_started = time.perf_counter()
        shared, items = _by_reference(job_list)
        import multiprocessing  # as lazily as concurrent.futures loads its pool

        context = multiprocessing.get_context()
        if context.get_start_method() != "fork":
            shared = _pickled(shared)
        with futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(_OBS.enabled, shared),
        ) as pool:
            submitted = time.perf_counter()
            pending = {
                pool.submit(_run_with_context, item, self._job_context()): index
                for index, item in enumerate(items)
            }
            done = 0
            for future in futures.as_completed(pending):
                index = pending[future]
                try:
                    result = future.result()
                except Exception as exc:  # pool/pickling failure, not the job
                    result = job_list[index].failure_result(f"{type(exc).__name__}: {exc}")
                if _OBS.enabled:
                    self._record_remote_job(result, job_list[index], submitted)
                results[index] = result
                done += 1
                if progress is not None:
                    progress(done, len(job_list), result)
        if _OBS.enabled:
            wall = time.perf_counter() - pool_started
            busy = sum(getattr(r, "elapsed_s", 0.0) or 0.0 for r in results if r)
            if wall > 0.0:
                _OBS.gauge("rt.engine.pool.utilization", busy / (workers * wall))
        return [result for result in results if result is not None]

    @staticmethod
    def _job_context() -> Optional[TraceContext]:
        """Allocate the :class:`TraceContext` shipped with one submitted job.

        ``ctx_id`` comes from the parent's span-id allocator, so every job's
        worker-side span ids live in a namespace no other job (or recycled
        pid) can collide with; ``parent_id`` is whatever span is active at
        submission time (the ``engine.run`` root), which is what the worker's
        ``engine.job`` span will parent onto.
        """
        if not _OBS.enabled:
            return None
        return TraceContext(
            trace_id=_OBS.trace_id,
            parent_id=_OBS.current_span_id(),
            ctx_id=_OBS.new_span_id(),
        )

    @staticmethod
    def _record_remote_job(result, job, submitted: float) -> None:
        """Mirror a worker-side job into the parent recorder.

        Metric deltas merge exactly.  Spans recorded inside the worker come
        back buffered on ``result.metrics["spans"]`` with true parent linkage
        (see :func:`_run_with_context`); the parent re-emits them anchored at
        ``completion - ctx_elapsed`` on its own clock and only synthesizes
        the queue span (submit-to-start wait), which exists nowhere else.
        When no worker spans arrived — obs raced off, or a transport failure
        produced a bare result — it falls back to synthesizing the execute
        span from the job's elapsed time, as before span propagation.
        """
        metrics = getattr(result, "metrics", None)
        _OBS.merge_metrics(metrics)
        completed = time.perf_counter()
        elapsed = getattr(result, "elapsed_s", 0.0) or 0.0
        label = getattr(job, "label", None)
        # Batched items (SimulationBatch) carry their own span name, so
        # serial and parallel runs emit the same span vocabulary.
        span_name = getattr(job, "SPAN_NAME", "engine.job")
        spans = metrics.get("spans") if isinstance(metrics, dict) else None
        if spans:
            ctx_elapsed = float(metrics.get("ctx_elapsed", 0.0))
            _OBS.emit_remote_spans(spans, completed - ctx_elapsed)
        else:
            _OBS.record_span(span_name, label, completed - elapsed, elapsed)
        queue_wait = max(0.0, (completed - submitted) - elapsed)
        _OBS.record_span(span_name + ".queue", label, submitted, queue_wait)

    def __repr__(self) -> str:
        return f"ParallelExecutor(max_workers={self.max_workers})"


def default_executor(jobs: Optional[int] = None):
    """The executor implied by a ``--jobs N`` style setting.

    ``None`` or ``1`` selects the serial executor; anything larger a process
    pool of that many workers.
    """
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(max_workers=jobs)
