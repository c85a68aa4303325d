"""Parallel experiment-execution engine with a resumable store.

The engine turns every experiment driver into declarative data: a
:class:`~repro.engine.Job` names a problem instance, an algorithm from the
registry and its parameters; executors run job batches serially or across a
process pool; and an append-only JSONL store makes long sweeps resumable.
The experiment layer and the CLI enter through
:func:`~repro.engine.run_experiments` or :func:`~repro.engine.run_jobs`.

Runtime-simulation work rides the same machinery: a
:class:`~repro.engine.SimulationJob` (scenario spec + policy + seed +
replication, content-hash keyed) enters through
:func:`~repro.engine.run_simulation_jobs`, with
:class:`~repro.engine.SimulationRecord` rows stored resumably in a
``ResultStore(record_type=SimulationRecord)``.  Both entry points share
one pipeline (resume, duplicate-key collapse, store append, job-order
results), and executors see only work items that run themselves:
``item.run()`` returns the record, ``item.failure_result(message)`` builds
one for an item the process pool lost.  Offline work items are jobs;
simulation work items are always :class:`~repro.engine.SimulationBatch`
objects, one per Monte Carlo cell chunk, whose lanes are the simulation
jobs.

Guarantees
----------
* **Determinism** — results come back in job order whatever the executor,
  and every job is a pure function of its content, so ``--jobs 4`` output
  is byte-identical to ``--jobs 1``.
* **Isolation** — a failing job surfaces in its record's ``error`` without
  aborting the batch.
* **Resumability** — with ``resume=True`` jobs whose key already has a
  successful stored result are skipped entirely.
"""

from .. import _lazy_exports

__all__ = [
    "SimulationBatch",
    "SimulationBatchResult",
    "SimulationJob",
    "SimulationRecord",
    "SimulationRun",
    "execute_simulation_batch",
    "run_simulation_jobs",
    "Job",
    "JobResult",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "resolve_algorithm_name",
    "scheduler_config_params",
    "SerialExecutor",
    "ParallelExecutor",
    "default_executor",
    "execute_job",
    "ResultStore",
    "ExperimentRun",
    "build_jobs",
    "run_experiments",
    "run_jobs",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".api": ("ExperimentRun", "build_jobs", "run_experiments", "run_jobs"),
        ".executors": (
            "ParallelExecutor", "SerialExecutor", "default_executor", "execute_job",
        ),
        ".jobs": (
            "Job", "JobResult", "algorithm_names", "get_algorithm",
            "register_algorithm", "resolve_algorithm_name", "scheduler_config_params",
        ),
        ".simjobs": (
            "SimulationBatch", "SimulationBatchResult", "SimulationJob",
            "SimulationRecord", "SimulationRun", "execute_simulation_batch",
            "run_simulation_jobs",
        ),
        ".store": ("ResultStore",),
    },
)
