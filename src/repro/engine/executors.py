"""Pluggable job executors: serial and process-parallel.

Both executors implement the same tiny contract — ``run(jobs, progress=...)``
returns one :class:`~repro.engine.jobs.JobResult` per job, *in submission
order* — so callers never care which one they hold.  Deterministic ordering
is part of the contract: a parallel run must produce the same result rows as
a serial run, byte for byte, regardless of completion order.

Error isolation is also part of the contract: a job that raises is captured
into ``JobResult.error`` and the rest of the batch keeps running.  A sweep
with one pathological instance therefore degrades to one ``inf`` cell
instead of a crashed process.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_module
from concurrent import futures
from typing import Callable, Iterable, List, Optional, Sequence

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

#: ``progress(done, total, result)`` is invoked after every job completes.
ProgressCallback = Callable[[int, int, JobResult], None]

#: Executors run any job type through a module-level ``runner(job)``
#: returning a result record — :func:`execute_job` for experiment jobs,
#: :func:`repro.engine.simjobs.execute_simulation_job` for simulation jobs.
#: Module-level matters: the parallel executor ships the runner to worker
#: processes by reference.
JobRunner = Callable[..., object]


def execute_job(job: Job) -> JobResult:
    """Run one job to completion, capturing any failure into the result.

    This is the single execution path used by both executors (and by worker
    processes, which is why it is a module-level function: it must be
    importable by name on the far side of a process boundary).
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
        elapsed = time.perf_counter() - started
        return JobResult(
            key=job.key(),
            algorithm=job.algorithm,
            problem_name=job.problem.name or job.problem.graph.name or "",
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_module.format_exc(),
            elapsed_s=elapsed,
            metrics=_job_metrics(obs_before, failed=True),
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
        metrics=_job_metrics(obs_before),
    )


def _job_metrics(obs_before, kind: str = "jobs", failed: bool = False):
    """Close out one job's observability accounting; None while disabled.

    Counts the job itself, then returns the recorder delta since
    ``obs_before`` so the parallel executor can ship it across the process
    boundary (see ``ParallelExecutor.run``).
    """
    if obs_before is None or not _OBS.enabled:
        return None
    _OBS.count(f"engine.{kind}.failed" if failed else f"engine.{kind}.executed")
    return _OBS.metrics_delta(obs_before)


def _init_worker(obs_enabled: bool = False) -> None:
    """Process-pool initializer: fresh recorder state.

    The recorder reset matters under ``fork``: the child would otherwise
    inherit the parent's counter values *and* its open sink handles, and
    worker writes would interleave garbage into the parent's trace file.
    Workers record into memory only; per-job deltas travel back on the
    result (``JobResult.metrics``) and are merged by the parent.
    """
    _OBS.reset()
    _OBS.enabled = obs_enabled


def _run_with_context(runner: JobRunner, job, ctx: Optional[TraceContext]):
    """Worker-side shim: run a job inside a shipped :class:`TraceContext`.

    Module-level so the pool pickles it by reference.  While the context is
    active the worker's recorder buffers span events (with true parent ids)
    instead of emitting them; the buffer travels back to the parent on the
    result's ``metrics`` payload under the ``"spans"`` key, alongside
    ``"ctx_elapsed"`` — the worker wall-clock the parent uses to anchor the
    timestamps onto its own clock.  ``merge_metrics`` ignores both keys.
    """
    if ctx is None or not _OBS.enabled:
        return runner(job)
    _OBS.activate_context(ctx)
    try:
        result = runner(job)
    finally:
        spans, ctx_elapsed = _OBS.deactivate_context()
    metrics = getattr(result, "metrics", None)
    if isinstance(metrics, dict):
        metrics["spans"] = spans
        metrics["ctx_elapsed"] = ctx_elapsed
    return result


def _pool_failure_result(job, exc: Exception):
    """A failure record for a job the *pool* (not the runner) lost.

    Runner-level failures are captured inside the worker; this covers
    pickling/transport errors.  Job types other than :class:`Job` supply
    their own record shape through ``failure_result``.
    """
    message = f"{type(exc).__name__}: {exc}"
    maker = getattr(job, "failure_result", None)
    if maker is not None:
        return maker(message)
    return JobResult(
        key=job.key(),
        algorithm=job.algorithm,
        problem_name=job.problem.name or job.problem.graph.name or "",
        error=message,
    )


class SerialExecutor:
    """Run jobs one after another in the calling process."""

    @property
    def max_workers(self) -> int:
        return 1

    def run(
        self,
        jobs: Iterable[Job],
        progress: Optional[ProgressCallback] = None,
        runner: JobRunner = execute_job,
    ) -> List[JobResult]:
        """Execute every job; always returns results in submission order."""
        job_list = list(jobs)
        results: List[JobResult] = []
        for index, job in enumerate(job_list):
            result = runner(job)
            results.append(result)
            if progress is not None:
                progress(index + 1, len(job_list), result)
        return results

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan jobs out over a :class:`concurrent.futures.ProcessPoolExecutor`.

    Jobs are pure data and the runner is resolved by name inside the worker,
    so the only pickled payload is the job spec itself.  Results are re-ordered
    to submission order before returning, keeping parallel output identical
    to serial output.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers!r}")
        self.max_workers = max_workers or os.cpu_count() or 1

    def run(
        self,
        jobs: Iterable[Job],
        progress: Optional[ProgressCallback] = None,
        runner: JobRunner = execute_job,
    ) -> List[JobResult]:
        """Execute every job across the pool; results in submission order."""
        job_list = list(jobs)
        if not job_list:
            return []
        if self.max_workers == 1 or len(job_list) == 1:
            # A one-worker pool would pay process start-up for nothing.
            return SerialExecutor().run(job_list, progress=progress, runner=runner)

        results: List[Optional[JobResult]] = [None] * len(job_list)
        workers = min(self.max_workers, len(job_list))
        pool_started = time.perf_counter()
        with futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(_OBS.enabled,),
        ) as pool:
            submitted = time.perf_counter()
            pending = {
                pool.submit(_run_with_context, runner, job, self._job_context()): index
                for index, job in enumerate(job_list)
            }
            done = 0
            for future in futures.as_completed(pending):
                index = pending[future]
                try:
                    result = future.result()
                except Exception as exc:  # pool/pickling failure, not the job
                    job = job_list[index]
                    result = _pool_failure_result(job, exc)
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
