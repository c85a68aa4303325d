"""Single entry point of the experiment engine: :func:`run_experiments`.

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
so downstream tables are reproducible byte for byte.

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
    deduped: int = 0
    """Jobs answered by translating a structurally-isomorphic job's result."""

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
        deduped = f", {self.deduped} deduped" if self.deduped else ""
        return (
            f"{len(self.results)} jobs ({self.executed} executed, "
            f"{self.skipped} resumed{deduped}), {len(self.failures())} failed"
        )


def run_experiments(
    problems: Iterable[SchedulingProblem],
    algorithms: AlgorithmSpec,
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    params: Optional[Mapping[str, Any]] = None,
    dedupe: bool = False,
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
        Any object with the executor contract
        (``run(jobs, progress=..., runner=...)`` — ``runner`` is the
        module-level job-execution function, defaulted per job type);
        defaults to a fresh :class:`~repro.engine.executors.SerialExecutor`.
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
    dedupe:
        When true, run one representative per group of
        structurally-isomorphic jobs and translate its result to the rest
        (see :func:`run_jobs`).
    """
    jobs = build_jobs(problems, algorithms, params=params)
    return run_jobs(
        jobs,
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
        dedupe=dedupe,
    )


def _translate_dedup_result(
    rep_job: Job, rep_result: JobResult, job: Job
) -> Optional[JobResult]:
    """Re-express a representative's result on an isomorphic job's graph.

    Both graphs canonicalise to the same form (equal structural keys), so
    composing ``representative name -> canonical name -> member name``
    carries the schedule across; costs and makespans transfer verbatim
    because sigma only sees the (identical) design-point values.  Returns
    ``None`` when the translation cannot be trusted — a failed
    representative, or a translated sequence the member graph rejects
    (possible only for graphs whose refinement signatures leave
    non-automorphic tasks tied) — in which case the caller executes the
    member job for real.
    """
    from ..taskgraph.optimize import canonical_form

    if not rep_result.ok or rep_result.sequence is None:
        return None
    rep_to_canon = canonical_form(rep_job.problem.graph).mapping
    canon_to_member = canonical_form(job.problem.graph).inverse
    try:
        sequence = tuple(
            canon_to_member[rep_to_canon[name]] for name in rep_result.sequence
        )
        assignment = (
            {
                canon_to_member[rep_to_canon[name]]: int(column)
                for name, column in rep_result.assignment.items()
            }
            if rep_result.assignment is not None
            else None
        )
    except KeyError:
        return None
    if not job.problem.graph.is_valid_sequence(sequence):
        return None
    return JobResult(
        key=job.key(),
        algorithm=job.algorithm,
        problem_name=job.problem.name or job.problem.graph.name or "",
        cost=rep_result.cost,
        makespan=rep_result.makespan,
        feasible=rep_result.feasible,
        sequence=sequence,
        assignment=assignment,
    )


def run_jobs(
    jobs: Sequence[Job],
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    dedupe: bool = False,
) -> ExperimentRun:
    """Run an explicit job list (the layer below :func:`run_experiments`).

    Drivers whose jobs are not a plain problems-x-algorithms cross product
    (e.g. the ablation, which varies per-job parameters) build their job
    lists by hand and come in here.  Ordering, store and resume semantics
    are identical to :func:`run_experiments`.  Jobs with equal keys within
    one call (e.g. differently named problems describing the same work,
    since names are excluded from keys) are executed and stored once, and
    ``run.executed`` counts those unique runs.

    With ``dedupe=True`` the pending jobs are grouped by
    :meth:`Job.structural_key` before dispatch: one representative per
    group of structurally-isomorphic jobs is executed, and the remaining
    members receive the representative's result translated through the
    graphs' canonical forms (see :func:`_translate_dedup_result`).
    Translated results carry the member's own key and are appended to the
    store like executed ones; ``run.deduped`` counts them.  The default is
    off, leaving dispatch byte-identical to previous releases.

    >>> from repro.engine import Job, run_jobs
    >>> from repro.taskgraph import build_g3
    >>> from repro.scheduling import SchedulingProblem
    >>> problem = SchedulingProblem(graph=build_g3(), deadline=230.0)
    >>> run = run_jobs([Job(problem=problem, algorithm="all-fastest")])
    >>> run.executed, run.skipped
    (1, 0)
    """
    if resume and store is None:
        raise ConfigurationError("resume=True requires a result store")
    jobs = list(jobs)
    executor = executor if executor is not None else SerialExecutor()

    # The run-level root span: everything below — dedupe, dispatch, store
    # append, and (via the TraceContext the parallel executor ships) the
    # worker-side job spans — parents onto it, giving traces one tree per
    # engine entry instead of a forest of loose jobs.
    with _OBS.span("engine.run", label=f"{len(jobs)} jobs"):
        if resume and store is not None:
            pending, done = store.split_pending(jobs)
        else:
            pending, done = list(jobs), {}

        # In-call dedupe: duplicate-key pending jobs run (and hit the store)
        # once, and the by_key merge below fans the one result back to every
        # duplicate's position.  The last duplicate runs, in the first one's
        # dispatch slot: every position reports the last duplicate's
        # problem name, as executing each duplicate and merging would.
        unique: Dict[str, Job] = {}
        for job in pending:
            unique[job.key()] = job
        pending = list(unique.values())

        if _OBS.enabled and done:
            _OBS.count("engine.jobs.resumed", len(done))
        deduped = 0
        if dedupe and pending:
            groups: Dict[str, List[Job]] = {}
            for job in pending:
                groups.setdefault(job.structural_key(), []).append(job)
            representatives = [group[0] for group in groups.values()]
            with _OBS.span("engine.dedupe", label=f"{len(pending)}->{len(representatives)}"):
                fresh = list(executor.run(representatives, progress=progress))
            retry: List[Job] = []
            for group, rep_result in zip(groups.values(), list(fresh)):
                for member in group[1:]:
                    translated = _translate_dedup_result(group[0], rep_result, member)
                    if translated is None:
                        retry.append(member)
                    else:
                        fresh.append(translated)
                        deduped += 1
            if retry:
                fresh.extend(executor.run(retry, progress=progress))
            if _OBS.enabled and deduped:
                _OBS.count("engine.jobs.deduped", deduped)
        else:
            fresh = executor.run(pending, progress=progress) if pending else []
        if store is not None:
            with _OBS.span("engine.store.append", label=str(store.path.name)):
                store.append_many(fresh)

    by_key: Dict[str, JobResult] = dict(done)
    for result in fresh:
        by_key[result.key] = result
    ordered = tuple(by_key[job.key()] for job in jobs)
    return ExperimentRun(
        jobs=tuple(jobs),
        results=ordered,
        executed=len(fresh) - deduped,
        skipped=len(done),
        deduped=deduped,
    )
