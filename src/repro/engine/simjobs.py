"""Simulation jobs: runtime-simulator runs as engine work items.

A :class:`SimulationJob` is to :mod:`repro.sim` what
:class:`~repro.engine.Job` is to the offline algorithms: pure data — a
:class:`~repro.scenarios.ScenarioSpec`, a policy name, policy parameters,
a seed and a replication index — hashed into a stable content key, shipped
to worker processes, executed with per-job error isolation, and resumable
through the same append-only :class:`~repro.engine.ResultStore` (with
``record_type=SimulationRecord``).

Determinism mirrors the experiment engine's guarantee: a job's outcome is
a pure function of its content (the perturbation stream is seeded by
``(seed, replication)``), so serial, parallel and resumed runs of the same
job list produce byte-identical records, and a store never goes stale
under re-ordering.

>>> from repro.engine import SimulationJob, run_simulation_jobs
>>> from repro.scenarios import default_registry
>>> job = SimulationJob(spec=default_registry().get("g3"), policy="greedy-energy")
>>> run = run_simulation_jobs([job])
>>> run.ok and run.records[0].feasible
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import traceback as traceback_module

from ..errors import ConfigurationError
from ..obs import RECORDER as _OBS
from ..scenarios import ScenarioSpec
from .executors import SerialExecutor, _job_metrics
from .jobs import _canonical, _content_hash
from .store import ResultStore

__all__ = [
    "SimulationJob",
    "SimulationRecord",
    "SimulationBatch",
    "SimulationBatchResult",
    "SimulationRun",
    "execute_simulation_job",
    "execute_simulation_batch",
    "run_simulation_jobs",
]

#: Replication lanes per batch work item (``batch="auto"``).  Caps the
#: per-item memory footprint (one live simulator per lane) and keeps one
#: huge cell splittable across pool workers.
DEFAULT_BATCH_SIZE = 256


@lru_cache(maxsize=256)
def _scenario_payload(spec: ScenarioSpec) -> Dict[str, Any]:
    """``spec.to_dict()`` without its presentational fields, memoised.

    Presentational fields are excluded, like Job.key() excludes the
    problem's display name: equal work gets equal keys.  The spec is frozen,
    so every job of one spec shares one payload.
    """
    scenario = spec.to_dict()
    scenario.pop("name", None)
    scenario.pop("description", None)
    return scenario


@dataclass(frozen=True)
class SimulationJob:
    """One (scenario, policy, seed, replication) simulation work item.

    Attributes
    ----------
    spec:
        The scenario to simulate — its problem *and* its stochastic tier.
    policy:
        Registered policy name (see :func:`repro.sim.policy_names`).
    params:
        JSON-serialisable policy parameters (e.g. ``{"algorithm":
        "annealing", "algorithm_params": {"seed": 7}}`` for a replay of a
        different offline schedule, or ``{"soc_reserve": 0.4}`` for the
        reactive policy).
    seed, replication:
        Perturbation stream identity; replications of one scenario/policy
        cell share ``seed`` and vary ``replication``.
    evaluate_at:
        Sigma evaluation point, as in the offline stack.
    """

    spec: ScenarioSpec
    policy: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    replication: int = 0
    evaluate_at: str = "completion"

    def __post_init__(self) -> None:
        from ..sim.schedulers import POLICIES, policy_names

        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown simulation policy {self.policy!r}; "
                f"choose from {list(policy_names())}"
            )
        object.__setattr__(self, "params", dict(self.params))

    # ------------------------------------------------------------------
    def job_spec(self) -> Dict[str, Any]:
        """The complete, JSON-serialisable description of this job.

        The ``"scenario"`` entry is memoised per spec and shared by every
        job of that spec: read it, never mutate it.
        """
        return {
            "scenario": _scenario_payload(self.spec),
            "policy": self.policy,
            "params": _canonical(self.params),
            "seed": self.seed,
            "replication": self.replication,
            "evaluate_at": self.evaluate_at,
        }

    def key(self) -> str:
        """Stable content hash identifying this job across runs and machines."""
        if "_key" not in self.__dict__:
            self._hash_keys()
        return self.__dict__["_key"]

    def cell_key(self) -> str:
        """Content hash of everything but the replication index.

        Jobs sharing a cell key are replications of one Monte Carlo cell:
        same scenario, policy, parameters, seed and evaluation point.
        Exactly these may run as lockstep lanes of one
        :class:`SimulationBatch` (the perturbation stream is the only
        per-replication input, and each lane owns its own).
        """
        if "_cell_key" not in self.__dict__:
            self._hash_keys()
        return self.__dict__["_cell_key"]

    def _hash_keys(self) -> None:
        # Both keys come from one job_spec(): the params canonicalisation
        # is the costly part (a static-replay job carries a whole schedule).
        spec = self.job_spec()
        object.__setattr__(self, "_key", _content_hash(spec))
        del spec["replication"]
        object.__setattr__(self, "_cell_key", _content_hash(spec))

    @property
    def label(self) -> str:
        """Human-readable ``scenario/policy#replication`` tag."""
        return f"{self.spec.name}/{self.policy}#{self.replication}"

    def failure_result(self, error: str) -> "SimulationRecord":
        """The record shape for a failure outside the runner (pool loss)."""
        return SimulationRecord(
            key=self.key(),
            scenario=self.spec.name,
            policy=self.policy,
            seed=self.seed,
            replication=self.replication,
            error=error,
        )

    def __repr__(self) -> str:
        return f"SimulationJob({self.label}, seed={self.seed})"


@dataclass(frozen=True)
class SimulationRecord:
    """Store-friendly outcome of one :class:`SimulationJob`.

    A completed run carries the realised-timeline essentials and
    ``error is None``; a failed run (including a retry-budget-exhausted
    simulation) carries the one-line error and ``None`` elsewhere.
    """

    key: str
    scenario: str
    policy: str
    seed: int = 0
    replication: int = 0
    cost: Optional[float] = None
    makespan: Optional[float] = None
    feasible: Optional[bool] = None
    retries: int = 0
    events: int = 0
    depletion_time: Optional[float] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    traceback: Optional[str] = None
    #: Per-job observability metrics delta (``repro.obs``), shipped back to
    #: the parent through the process pool.  Never serialised.
    metrics: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """True when the simulation completed."""
        return self.error is None

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-friendly representation (inverse of :meth:`from_dict`)."""
        return {
            "key": self.key,
            "scenario": self.scenario,
            "policy": self.policy,
            "seed": self.seed,
            "replication": self.replication,
            "cost": self.cost,
            "makespan": self.makespan,
            "feasible": self.feasible,
            "retries": self.retries,
            "events": self.events,
            "depletion_time": self.depletion_time,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationRecord":
        """Rebuild a record from its :meth:`to_dict` form."""
        return cls(
            key=str(data["key"]),
            scenario=str(data["scenario"]),
            policy=str(data["policy"]),
            seed=int(data.get("seed", 0)),
            replication=int(data.get("replication", 0)),
            cost=data.get("cost"),
            makespan=data.get("makespan"),
            feasible=data.get("feasible"),
            retries=int(data.get("retries", 0)),
            events=int(data.get("events", 0)),
            depletion_time=data.get("depletion_time"),
            error=data.get("error"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            traceback=data.get("traceback"),
        )

    def summary(self) -> str:
        """One-line human-readable outcome."""
        if not self.ok:
            return f"{self.scenario}/{self.policy}#{self.replication}: ERROR {self.error}"
        status = "ok" if self.feasible else "DEADLINE MISS"
        return (
            f"{self.scenario}/{self.policy}#{self.replication}: "
            f"sigma={self.cost:.1f}, makespan={self.makespan:.1f} ({status})"
        )


def execute_simulation_job(job: SimulationJob) -> SimulationRecord:
    """Run one simulation job to completion, capturing any failure.

    The single execution path of serial and parallel runs (module-level so
    worker processes import it by name).
    """
    from ..sim.perturbation import rng_for_seed
    from ..sim.runtime import Simulator
    from ..sim.schedulers import make_policy

    obs_before = _OBS.counters_snapshot(include_volatile=True) if _OBS.enabled else None
    started = time.perf_counter()
    try:
        with _OBS.span("engine.job", label=job.label):
            problem = job.spec.build_problem()
            model = problem.model()
            scheduler = make_policy(job.policy, problem, job.params, model=model)
            result = Simulator(
                problem,
                scheduler,
                perturbation=job.spec.perturbation(),
                rng=rng_for_seed(job.seed, job.replication),
                model=model,
                evaluate_at=job.evaluate_at,
                imode=job.spec.information_mode(),
            ).run()
    except Exception as exc:  # noqa: BLE001 - per-job isolation is the point
        return SimulationRecord(
            key=job.key(),
            scenario=job.spec.name,
            policy=job.policy,
            seed=job.seed,
            replication=job.replication,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_module.format_exc(),
            elapsed_s=time.perf_counter() - started,
            metrics=_job_metrics(obs_before, kind="simjobs", failed=True),
        )
    return SimulationRecord(
        key=job.key(),
        scenario=job.spec.name,
        policy=job.policy,
        seed=job.seed,
        replication=job.replication,
        cost=result.cost,
        makespan=result.makespan,
        feasible=result.feasible,
        retries=result.retries,
        events=result.events,
        depletion_time=result.depletion_time,
        elapsed_s=time.perf_counter() - started,
        metrics=_job_metrics(obs_before, kind="simjobs"),
    )


@dataclass(frozen=True)
class SimulationBatch:
    """Same-cell simulation jobs shipped to a worker as one work item.

    All member jobs must share a :meth:`SimulationJob.cell_key` — same
    scenario, policy, params, seed and evaluation point, differing only in
    the replication index — so the worker can build the problem and the
    policy context once and run every replication as a lockstep lane of a
    :class:`~repro.sim.BatchSimulator`.  Pure data (like the jobs it
    wraps), so the parallel executor pickles it to workers unchanged.
    """

    #: Span name the parallel executor synthesizes for this work item
    #: (serial runs record the same name inside the batch runner).
    SPAN_NAME = "engine.batch"

    jobs: Tuple[SimulationJob, ...]

    def __post_init__(self) -> None:
        jobs = tuple(self.jobs)
        object.__setattr__(self, "jobs", jobs)
        if not jobs:
            raise ConfigurationError("a simulation batch needs at least one job")
        cell = jobs[0].cell_key()
        for job in jobs[1:]:
            if job.cell_key() != cell:
                raise ConfigurationError(
                    f"batch members must share one cell; {jobs[0].label} and "
                    f"{job.label} differ beyond the replication index"
                )

    @property
    def label(self) -> str:
        """Human-readable ``scenario/policy xN`` tag."""
        first = self.jobs[0]
        return f"{first.spec.name}/{first.policy} x{len(self.jobs)}"

    def failure_result(self, error: str) -> "SimulationBatchResult":
        """The record shape for a batch the *pool* lost (transport errors)."""
        return SimulationBatchResult(
            records=tuple(job.failure_result(error) for job in self.jobs)
        )

    def __repr__(self) -> str:
        return f"SimulationBatch({self.label})"


@dataclass(frozen=True)
class SimulationBatchResult:
    """Outcome of one :class:`SimulationBatch`: a record per member job.

    Carries the same executor-facing accounting surface as a single
    record (``elapsed_s``, ``metrics``), aggregated over the whole batch,
    so both executors account batches exactly like jobs.
    """

    records: Tuple[SimulationRecord, ...]
    elapsed_s: float = 0.0
    metrics: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """True when every replication in the batch completed."""
        return all(record.ok for record in self.records)


def _batch_metrics(obs_before, executed: int, failed: int):
    """Close out one batch's observability accounting; None while disabled.

    The per-job counters advance by the member counts, so a batched run's
    ``engine.simjobs.*`` totals match the scalar path's.
    """
    if obs_before is None or not _OBS.enabled:
        return None
    if executed:
        _OBS.count("engine.simjobs.executed", executed)
    if failed:
        _OBS.count("engine.simjobs.failed", failed)
    _OBS.count("engine.simjobs.batches")
    return _OBS.metrics_delta(obs_before)


def _lane_failure(job: SimulationJob, error: Exception, elapsed_s: float, traceback: str) -> SimulationRecord:
    return SimulationRecord(
        key=job.key(),
        scenario=job.spec.name,
        policy=job.policy,
        seed=job.seed,
        replication=job.replication,
        error=f"{type(error).__name__}: {error}",
        traceback=traceback,
        elapsed_s=elapsed_s,
    )


def execute_simulation_batch(batch: SimulationBatch) -> SimulationBatchResult:
    """Run one batch of same-cell replications through the lockstep driver.

    The worker-side counterpart of :func:`execute_simulation_job` for
    batches (module-level so pools import it by name): problem, battery
    model and — for ``static-replay`` — the offline schedule are
    resolved **once**, then every replication runs as a
    :class:`~repro.sim.BatchSimulator` lane.  Per-lane outcomes are
    bit-identical to the scalar runner's, so batched and scalar stores
    hold the same rows; errors stay isolated per lane (a replication that
    exhausts its retry budget fails alone), while a setup failure —
    unresolvable scenario, unknown policy parameters — fails every member
    with the same error, since none of them could have run.
    """
    from ..sim.batch import BatchSimulator
    from ..sim.perturbation import rng_for_seed
    from ..sim.schedulers import StaticReplayScheduler, make_policy

    obs_before = _OBS.counters_snapshot(include_volatile=True) if _OBS.enabled else None
    started = time.perf_counter()
    jobs = batch.jobs
    first = jobs[0]
    try:
        with _OBS.span("engine.batch", label=batch.label):
            problem = first.spec.build_problem()
            model = problem.model()
            if first.policy == "static-replay":
                # Resolve the offline schedule once for the whole cell;
                # sibling lanes replay it through cheap clones.
                base = make_policy(first.policy, problem, first.params, model=model)
                schedulers = [base] + [
                    StaticReplayScheduler(base.sequence, base.columns)
                    for _ in jobs[1:]
                ]
            else:
                schedulers = [
                    make_policy(job.policy, problem, job.params, model=model)
                    for job in jobs
                ]
            outcomes = BatchSimulator(
                problem,
                schedulers,
                rngs=[rng_for_seed(job.seed, job.replication) for job in jobs],
                perturbation=first.spec.perturbation(),
                model=model,
                evaluate_at=first.evaluate_at,
                imode=first.spec.information_mode(),
            ).run()
    except Exception as exc:  # noqa: BLE001 - batch-level isolation
        elapsed = time.perf_counter() - started
        share = elapsed / len(jobs)
        trace = traceback_module.format_exc()
        return SimulationBatchResult(
            records=tuple(_lane_failure(job, exc, share, trace) for job in jobs),
            elapsed_s=elapsed,
            metrics=_batch_metrics(obs_before, executed=0, failed=len(jobs)),
        )
    elapsed = time.perf_counter() - started
    share = elapsed / len(jobs)
    records: List[SimulationRecord] = []
    failed = 0
    for job, outcome in zip(jobs, outcomes):
        if isinstance(outcome, Exception):
            failed += 1
            trace = "".join(
                traceback_module.format_exception(
                    type(outcome), outcome, outcome.__traceback__
                )
            )
            records.append(_lane_failure(job, outcome, share, trace))
            continue
        records.append(
            SimulationRecord(
                key=job.key(),
                scenario=job.spec.name,
                policy=job.policy,
                seed=job.seed,
                replication=job.replication,
                cost=outcome.cost,
                makespan=outcome.makespan,
                feasible=outcome.feasible,
                retries=outcome.retries,
                events=outcome.events,
                depletion_time=outcome.depletion_time,
                elapsed_s=share,
            )
        )
    return SimulationBatchResult(
        records=tuple(records),
        elapsed_s=elapsed,
        metrics=_batch_metrics(obs_before, executed=len(records) - failed, failed=failed),
    )


@dataclass(frozen=True)
class SimulationRun:
    """Everything produced by one :func:`run_simulation_jobs` call."""

    jobs: Tuple[SimulationJob, ...]
    records: Tuple[SimulationRecord, ...]
    executed: int
    """Jobs actually simulated in this call."""
    skipped: int
    """Jobs answered from the result store (resume hits)."""

    @property
    def ok(self) -> bool:
        """True when every simulation completed."""
        return all(record.ok for record in self.records)

    def failures(self) -> Tuple[SimulationRecord, ...]:
        """The records that captured an error."""
        return tuple(record for record in self.records if not record.ok)

    @property
    def cache_hits(self) -> int:
        return 0  # kept because perfbench/layers.py reads it after every run

    @property
    def cache_misses(self) -> int:
        return 0  # kept because perfbench/layers.py reads it after every run

    def by_cell(self) -> Dict[Tuple[str, str], List[SimulationRecord]]:
        """Records grouped per (scenario, policy) cell, replication order."""
        grouped: Dict[Tuple[str, str], List[SimulationRecord]] = {}
        for record in self.records:
            grouped.setdefault((record.scenario, record.policy), []).append(record)
        for cell in grouped.values():
            cell.sort(key=lambda record: record.replication)
        return grouped

    def summary(self) -> str:
        """One-line accounting summary."""
        return (
            f"{len(self.records)} simulations ({self.executed} executed, "
            f"{self.skipped} resumed), {len(self.failures())} failed"
        )


def _resolve_batch_size(batch) -> Optional[int]:
    """Lanes per work item implied by the ``batch`` argument, None = off."""
    if batch in (False, None, 0, "off", "none"):
        return None
    if batch in (True, "auto"):
        return DEFAULT_BATCH_SIZE
    if isinstance(batch, int) and not isinstance(batch, bool):
        if batch < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch!r}")
        return batch
    raise ConfigurationError(
        f"batch must be 'auto', False, or a positive lane count, got {batch!r}"
    )


def _batched_records(
    pending: Sequence[SimulationJob], executor, progress, batch_size: int
) -> List[SimulationRecord]:
    """Run pending jobs as per-cell lockstep batches; records in job order.

    Jobs are grouped by :meth:`SimulationJob.cell_key` (preserving first-seen
    order), chunked to ``batch_size`` lanes, executed through
    :func:`execute_simulation_batch`, and the per-lane records are scattered
    back to their jobs' original positions — so the returned list (and the
    store rows appended from it) is ordered exactly like the scalar path's.
    Note ``progress`` fires once per *batch* with the
    :class:`SimulationBatchResult` when batching is on.
    """
    cells: Dict[str, List[int]] = {}
    for index, job in enumerate(pending):
        cells.setdefault(job.cell_key(), []).append(index)
    batches: List[SimulationBatch] = []
    index_chunks: List[List[int]] = []
    for indices in cells.values():
        for start in range(0, len(indices), batch_size):
            chunk = indices[start : start + batch_size]
            index_chunks.append(chunk)
            batches.append(
                SimulationBatch(jobs=tuple(pending[i] for i in chunk))
            )
    outcomes = executor.run(
        batches, progress=progress, runner=execute_simulation_batch
    )
    fresh: List[Optional[SimulationRecord]] = [None] * len(pending)
    for chunk, outcome in zip(index_chunks, outcomes):
        for position, record in zip(chunk, outcome.records):
            fresh[position] = record
    return [record for record in fresh if record is not None]


def run_simulation_jobs(
    jobs: Sequence[SimulationJob],
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress=None,
    batch="auto",
) -> SimulationRun:
    """Run simulation jobs through an executor — the sim analogue of
    :func:`repro.engine.run_jobs`.

    Records come back in job order whatever the executor, so downstream
    reports are byte-reproducible; with ``resume=True`` the store answers
    jobs whose key already holds a completed record.  Deduplication is
    by :meth:`SimulationJob.key` throughout: resume hits dedupe against
    the store whatever ``batch`` setting wrote it (a ``--no-batch`` store
    resumed with ``batch="auto"`` recomputes nothing, and vice versa),
    and duplicate-key jobs *within* one call — e.g. two differently named
    specs describing the same work, since names are excluded from keys —
    are simulated and stored once, with the one record fanned back to
    every duplicate's position.  The store must have
    been built with ``record_type=SimulationRecord``, and a custom
    executor must accept the full contract
    ``run(jobs, progress=..., runner=...)`` (simulation jobs are executed
    through :func:`execute_simulation_job`, passed as ``runner``).

    ``batch`` controls Monte Carlo batching: with ``"auto"`` (the default)
    replications of one (scenario, policy, params, seed) cell are grouped
    into :class:`SimulationBatch` work items of up to
    :data:`DEFAULT_BATCH_SIZE` lanes and run through the lockstep
    :class:`~repro.sim.BatchSimulator` — bit-identical records, fewer
    kernel calls.  Pass ``False`` to force the scalar per-job path, or a
    positive int to override the lanes-per-batch cap.
    """
    if resume and store is None:
        raise ConfigurationError("resume=True requires a result store")
    if store is not None and store.record_type is not SimulationRecord:
        raise ConfigurationError(
            "simulation runs need a ResultStore(record_type=SimulationRecord); "
            f"this store holds {store.record_type.__name__}"
        )
    batch_size = _resolve_batch_size(batch)
    jobs = list(jobs)
    executor = executor if executor is not None else SerialExecutor()

    # Run-level root span, mirroring run_jobs: worker-side engine.job /
    # engine.batch spans parent onto it through the shipped TraceContext.
    with _OBS.span("engine.run", label=f"{len(jobs)} simjobs"):
        if resume and store is not None:
            pending, done = store.split_pending(jobs)
        else:
            pending, done = list(jobs), {}

        # In-call dedupe: duplicate-key pending jobs run (and hit the store)
        # once; the by_key merge below fans the single record back to every
        # duplicate's position in the returned tuple.
        unique: Dict[str, SimulationJob] = {}
        for job in pending:
            unique.setdefault(job.key(), job)
        duplicates = len(pending) - len(unique)
        pending = list(unique.values())

        if _OBS.enabled and done:
            _OBS.count("engine.simjobs.resumed", len(done))
        if _OBS.enabled and duplicates:
            _OBS.count("engine.simjobs.deduped", duplicates)
        if not pending:
            fresh: List[SimulationRecord] = []
        elif batch_size is not None:
            fresh = _batched_records(pending, executor, progress, batch_size)
        else:
            fresh = executor.run(
                pending, progress=progress, runner=execute_simulation_job
            )
        if store is not None:
            with _OBS.span("engine.store.append", label=str(store.path.name)):
                store.append_many(fresh)

    by_key: Dict[str, SimulationRecord] = dict(done)
    for record in fresh:
        by_key[record.key] = record
    ordered = tuple(by_key[job.key()] for job in jobs)
    return SimulationRun(
        jobs=tuple(jobs),
        records=ordered,
        executed=len(fresh),
        skipped=len(done),
    )
