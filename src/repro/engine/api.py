"""The experiment engine's entry points and its one job pipeline.

The experiment layer (Table 4, the sweeps, the ablation, the benchmarks and
the CLI) describes its work as *problems x algorithms*, hands the resulting
job list to an executor, and optionally threads a result store through so
interrupted runs resume where they stopped::

    from repro.engine import ParallelExecutor, ResultStore, run_experiments
    from repro.workloads import suite_problems

    run = run_experiments(
        suite_problems(),
        ["iterative", "dp-energy+greedy"],
        executor=ParallelExecutor(max_workers=4),
        store=ResultStore("results/suite.jsonl"),
        resume=True,
    )
    print(run.to_table().to_text())

Results always come back in job order (problems outer, algorithms inner),
independent of executor and of how many jobs were answered from the store,
so downstream tables are reproducible byte for byte.  Offline jobs
(:func:`run_jobs`) and simulation jobs
(:func:`~repro.engine.simjobs.run_simulation_jobs`) share one pipeline for
resume, duplicate collapse, store append and ordering (:func:`_run_pipeline`).

A minimal in-process run (the doctests below share it):

>>> from repro.engine import run_experiments
>>> from repro.taskgraph import build_g3
>>> from repro.scheduling import SchedulingProblem
>>> problem = SchedulingProblem(graph=build_g3(), deadline=230.0, name="g3")
>>> run = run_experiments([problem], ["all-fastest", "all-slowest"])
>>> run.ok
True
>>> [result.algorithm for result in run.results]
['all-fastest', 'all-slowest']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..analysis import TextTable
from ..errors import ConfigurationError
from ..obs import RECORDER as _OBS
from ..scheduling import SchedulingProblem
from .executors import ProgressCallback, SerialExecutor
from .jobs import Job, JobResult
from .store import ResultStore

__all__ = ["ExperimentRun", "build_jobs", "run_jobs", "run_experiments"]

#: ``algorithms`` accepts plain names or name -> params mappings.
AlgorithmSpec = Union[Sequence[str], Mapping[str, Mapping[str, Any]]]


def build_jobs(
    problems: Iterable[SchedulingProblem],
    algorithms: AlgorithmSpec,
    params: Optional[Mapping[str, Any]] = None,
) -> List[Job]:
    """The cross product of problems and algorithms as a job list.

    ``algorithms`` is either a sequence of registered names or a mapping
    ``name -> per-algorithm params``; ``params`` (if given) is merged into
    every job's parameters (per-algorithm entries win on conflict).

    >>> from repro.engine import build_jobs
    >>> from repro.taskgraph import build_g3
    >>> from repro.scheduling import SchedulingProblem
    >>> problem = SchedulingProblem(graph=build_g3(), deadline=230.0)
    >>> jobs = build_jobs([problem], {"annealing": {"seed": 7}})
    >>> jobs[0].algorithm, jobs[0].params["seed"]
    ('annealing', 7)
    """
    if isinstance(algorithms, Mapping):
        pairs = [(name, dict(algorithms[name] or {})) for name in algorithms]
    else:
        pairs = [(name, {}) for name in algorithms]
    if not pairs:
        raise ConfigurationError("at least one algorithm is required")
    shared = dict(params or {})
    jobs: List[Job] = []
    for problem in problems:
        for name, algo_params in pairs:
            merged = {**shared, **algo_params}
            jobs.append(Job(problem=problem, algorithm=name, params=merged))
    if not jobs:
        raise ConfigurationError("at least one problem is required")
    return jobs


@dataclass(frozen=True)
class ExperimentRun:
    """Everything produced by one :func:`run_experiments` call.

    >>> from repro.engine import run_experiments
    >>> from repro.taskgraph import build_g3
    >>> from repro.scheduling import SchedulingProblem
    >>> problem = SchedulingProblem(graph=build_g3(), deadline=230.0, name="g3")
    >>> run = run_experiments([problem], ["all-fastest"])
    >>> run.result_for("g3", "all-fastest").feasible
    True
    >>> sorted(run.by_problem()["g3"])
    ['all-fastest']
    """

    jobs: Tuple[Job, ...]
    results: Tuple[JobResult, ...]
    executed: int
    """Jobs actually run in this call."""
    skipped: int
    """Jobs answered from the result store (resume hits)."""

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when every job produced a schedule."""
        return all(result.ok for result in self.results)

    def failures(self) -> Tuple[JobResult, ...]:
        """The results that captured an error."""
        return tuple(result for result in self.results if not result.ok)

    @property
    def cache_hits(self) -> int:
        return 0  # kept because perfbench/layers.py reads it after every run

    @property
    def cache_misses(self) -> int:
        return 0  # kept because perfbench/layers.py reads it after every run

    @property
    def elapsed_s(self) -> float:
        """Summed per-job execution time (CPU-side, excludes pool overhead)."""
        return sum(result.elapsed_s for result in self.results)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def result_for(self, problem_name: str, algorithm: str) -> JobResult:
        """The result of one (problem, algorithm) cell."""
        for job, result in zip(self.jobs, self.results):
            if result.problem_name == problem_name and result.algorithm == algorithm:
                return result
        raise KeyError(f"no result for {problem_name!r} / {algorithm!r}")

    def by_problem(self) -> Dict[str, Dict[str, JobResult]]:
        """Results regrouped as ``problem name -> algorithm -> result``."""
        grouped: Dict[str, Dict[str, JobResult]] = {}
        for result in self.results:
            grouped.setdefault(result.problem_name, {})[result.algorithm] = result
        return grouped

    def to_table(self) -> TextTable:
        """One row per job: problem, algorithm, sigma, makespan, status."""
        table = TextTable(
            title="Experiment run",
            headers=("problem", "algorithm", "sigma", "makespan", "status"),
        )
        for result in self.results:
            table.add_row(
                result.problem_name,
                result.algorithm,
                result.cost,
                result.makespan,
                "ok" if result.ok else result.error,
            )
        return table

    def summary(self) -> str:
        """One-line accounting summary."""
        return (
            f"{len(self.results)} jobs ({self.executed} executed, "
            f"{self.skipped} resumed), {len(self.failures())} failed"
        )


def run_experiments(
    problems: Iterable[SchedulingProblem],
    algorithms: AlgorithmSpec,
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> ExperimentRun:
    """Run every algorithm on every problem through an executor.

    >>> from repro.engine import run_experiments
    >>> from repro.taskgraph import build_g3
    >>> from repro.scheduling import SchedulingProblem
    >>> problem = SchedulingProblem(graph=build_g3(), deadline=230.0, name="g3")
    >>> run = run_experiments([problem], ["all-fastest", "all-slowest"])
    >>> run.summary()
    '2 jobs (2 executed, 0 resumed), 0 failed'

    Parameters
    ----------
    problems:
        Problem instances (e.g. :func:`repro.workloads.suite_problems`).
    algorithms:
        Registered algorithm names, or a mapping of name -> params.
    executor:
        Any object with the executor contract ``run(items, progress=None)``
        (see :mod:`repro.engine.executors`); defaults to a fresh
        :class:`~repro.engine.executors.SerialExecutor`.
    store:
        Optional :class:`~repro.engine.store.ResultStore`; every newly
        executed result is appended to it.
    resume:
        When true (requires ``store``), jobs whose key already has a
        successful stored result are not executed again.
    progress:
        Optional ``(done, total, result)`` callback for newly executed jobs.
    params:
        Extra parameters merged into every job (see :func:`build_jobs`).
    """
    jobs = build_jobs(problems, algorithms, params=params)
    return run_jobs(
        jobs,
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
    )


def _dispatch(pending: List, executor, progress) -> List:
    return executor.run(pending, progress=progress)


def _run_pipeline(
    job_type: type,
    jobs: Iterable,
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    dispatch: Callable[[List, Any, Any], List] = _dispatch,
) -> Tuple[tuple, tuple, int, int]:
    """The job pipeline behind :func:`run_jobs` and
    :func:`~repro.engine.simjobs.run_simulation_jobs`.

    Checks the store, answers resume hits from it, collapses duplicate-key
    jobs, hands the rest to ``dispatch(pending, executor, progress)`` (by
    default ``executor.run``), appends the fresh records to the store and
    fans them back out in job order.  Returns ``(jobs, records, executed,
    skipped)``, the leading fields of both run types.

    What differs between job types is read off ``job_type``:
    ``record_type`` (the store must hold exactly that record class),
    ``counters`` (the obs counter prefix) and ``last_duplicate_runs``.
    Jobs with equal keys within one call (e.g. problems that differ only in
    display name: offline keys exclude it, not the graph's own name) are
    executed and stored once, and that one record is fanned back to every
    duplicate's position.  Offline jobs run the *last* duplicate, in the
    first one's dispatch slot, so every position reports the last
    duplicate's problem name, as executing each and merging would;
    simulation jobs run the *first*.  Known and left open: because the
    record carries the executed job's name, the default ``simulate`` run
    files the three ``tour-*-exact`` scenarios (key twins of
    ``g3-jitter10``, ``g3-jitter25`` and ``g3-kibam-jitter10``) under
    their twins' names, so ``by_cell()`` has no rows for them and twice
    the replications for the twins.
    """
    if resume and store is None:
        raise ConfigurationError("resume=True requires a result store")
    if store is not None and store.record_type is not job_type.record_type:
        raise ConfigurationError(
            f"{job_type.__name__} runs need a ResultStore(record_type="
            f"{job_type.record_type.__name__}); this store holds "
            f"{store.record_type.__name__}"
        )
    jobs = tuple(jobs)
    executor = executor if executor is not None else SerialExecutor()
    counters = job_type.counters

    # The run-level root span: everything below — dispatch, store append,
    # and (via the TraceContext the parallel executor ships) the worker-side
    # job spans — parents onto it, giving traces one tree per engine entry
    # instead of a forest of loose jobs.
    with _OBS.span("engine.run", label=f"{len(jobs)} {counters.rpartition('.')[2]}"):
        pending, done = store.split_pending(jobs) if resume else (list(jobs), {})
        unique: Dict[str, Any] = {}
        for job in pending:
            key = job.key()
            if job_type.last_duplicate_runs or key not in unique:
                unique[key] = job
        duplicates = len(pending) - len(unique)
        pending = list(unique.values())

        if _OBS.enabled and done:
            _OBS.count(f"{counters}.resumed", len(done))
        if _OBS.enabled and duplicates:
            _OBS.count(f"{counters}.duplicates", duplicates)
        fresh = dispatch(pending, executor, progress) if pending else []
        if store is not None:
            with _OBS.span("engine.store.append", label=str(store.path.name)):
                store.append_many(fresh)

    by_key: Dict[str, Any] = dict(done)
    for record in fresh:
        by_key[record.key] = record
    return jobs, tuple(by_key[job.key()] for job in jobs), len(fresh), len(done)


def run_jobs(
    jobs: Sequence[Job],
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> ExperimentRun:
    """Run an explicit job list (the layer below :func:`run_experiments`).

    Drivers whose jobs are not a plain problems-x-algorithms cross product
    (e.g. the ablation, which varies per-job parameters) build their job
    lists by hand and come in here.  Ordering, store and resume semantics
    are identical to :func:`run_experiments`; duplicate-key jobs run once
    (see :func:`_run_pipeline`), and ``run.executed`` counts those unique
    runs.

    >>> from repro.engine import Job, run_jobs
    >>> from repro.taskgraph import build_g3
    >>> from repro.scheduling import SchedulingProblem
    >>> problem = SchedulingProblem(graph=build_g3(), deadline=230.0)
    >>> run = run_jobs([Job(problem=problem, algorithm="all-fastest")])
    >>> run.executed, run.skipped
    (1, 0)
    """
    return ExperimentRun(*_run_pipeline(Job, jobs, executor, store, resume, progress))
