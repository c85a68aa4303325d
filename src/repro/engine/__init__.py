"""Parallel experiment-execution engine with a resumable store.

The engine turns every experiment driver into declarative data: a
:class:`~repro.engine.Job` names a problem instance, an algorithm from the
registry and its parameters; executors run job batches serially or across a
process pool; and an append-only JSONL store makes long sweeps resumable.  :func:`~repro.engine.run_experiments` is the single entry point
the experiment layer, the benchmarks and the CLI all build on.

Runtime-simulation work rides the same machinery: a
:class:`~repro.engine.SimulationJob` (scenario spec + policy + seed +
replication, content-hash keyed) runs through the same executors via
:func:`~repro.engine.run_simulation_jobs`, with
:class:`~repro.engine.SimulationRecord` rows stored resumably in a
``ResultStore(record_type=SimulationRecord)``.

Guarantees
----------
* **Determinism** — results come back in job order whatever the executor,
  and every job is a pure function of its content, so ``--jobs 4`` output
  is byte-identical to ``--jobs 1``.
* **Isolation** — a failing job surfaces in ``JobResult.error`` without
  aborting the batch.
* **Resumability** — with ``resume=True`` jobs whose key already has a
  successful stored result are skipped entirely.
"""

from .api import ExperimentRun, build_jobs, run_experiments, run_jobs
from .executors import (
    ParallelExecutor,
    SerialExecutor,
    default_executor,
    execute_job,
)
from .jobs import (
    Job,
    JobResult,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    resolve_algorithm_name,
    scheduler_config_params,
)
from .simjobs import (
    SimulationBatch,
    SimulationBatchResult,
    SimulationJob,
    SimulationRecord,
    SimulationRun,
    execute_simulation_batch,
    execute_simulation_job,
    run_simulation_jobs,
)
from .store import ResultStore

__all__ = [
    "SimulationBatch",
    "SimulationBatchResult",
    "SimulationJob",
    "SimulationRecord",
    "SimulationRun",
    "execute_simulation_batch",
    "execute_simulation_job",
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
