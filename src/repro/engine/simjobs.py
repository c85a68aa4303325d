"""Simulation jobs: runtime-simulator runs as engine work items.

A :class:`SimulationJob` is to :mod:`repro.sim` what
:class:`~repro.engine.Job` is to the offline algorithms: pure data — a
:class:`~repro.scenarios.ScenarioSpec`, a policy name, policy parameters,
a seed and a replication index — hashed into a stable content key and
resumable through the same append-only :class:`~repro.engine.ResultStore`
(with ``record_type=SimulationRecord``).  A job does not run itself:
:func:`run_simulation_jobs` groups the pending jobs of each Monte Carlo
cell into :class:`SimulationBatch` work items, and every job runs as one
lane of its cell's :class:`~repro.sim.BatchSimulator`, with per-lane error
isolation (a lane that exhausts its retry budget fails alone).

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

import dataclasses
import operator
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import traceback as traceback_module

from ..canonical import _canonical
from ..errors import ConfigurationError
from ..obs import RECORDER as _OBS
from ..scenarios import ScenarioSpec
from ..sim.batch import BatchSimulator
from ..sim.perturbation import rng_for_seed
from ..sim.schedulers import POLICIES, StaticReplayScheduler, make_policy, policy_names
from .api import _run_pipeline
from .jobs import _canonical_json, _digest
from .store import ResultStore

__all__ = [
    "SimulationJob",
    "SimulationRecord",
    "SimulationBatch",
    "SimulationBatchResult",
    "SimulationRun",
    "execute_simulation_batch",
    "run_simulation_jobs",
]

#: Replication lanes per :class:`SimulationBatch` work item.  Caps the
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


@lru_cache(maxsize=256)
def _key_tail(spec: ScenarioSpec, seed: int) -> str:
    """The ``"scenario"``/``"seed"`` end of a job's canonical JSON."""
    return _canonical_json({"scenario": _scenario_payload(spec), "seed": seed})[1:]


def _key_head(evaluate_at: str, params: Mapping[str, Any], policy: str) -> str:
    """The ``"evaluate_at"``/``"params"``/``"policy"`` start of a job's
    canonical JSON, left open for the replication and the tail."""
    return _canonical_json(
        {"evaluate_at": evaluate_at, "params": _canonical(params), "policy": policy}
    )[:-1]


def _job_key(head: str, replication: str, tail: str) -> str:
    """A job's key from its rendered head, replication and tail."""
    return _digest(f'{head},"replication":{replication},{tail}')


#: The problem memo's key: the spec fields build_problem reads, bar the
#: display name (so none of the stochastic or information tier).
_build_inputs = operator.attrgetter(*(
    f.name for f in dataclasses.fields(ScenarioSpec) if f.name not in {
        "name", "description", "jitter", "jitter_model", "failure_rate",
        "imode", "imode_rel_error", "imode_seed"}
))
_PROBLEMS: Dict[Tuple, Any] = {}


def _problem(spec: ScenarioSpec):
    """One problem per distinct build input per process (at most 256 kept).

    Named twins, specs differing only in name or in their stochastic or
    information tier, share the problem built from the first of them (no
    record reads its name), and with it the graph and per-graph tables.
    """
    inputs = _build_inputs(spec)
    if inputs not in _PROBLEMS:
        if len(_PROBLEMS) >= 256:
            del _PROBLEMS[next(iter(_PROBLEMS))]  # the oldest
        _PROBLEMS[inputs] = spec.build_problem()
    return _PROBLEMS[inputs]


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


@dataclass(frozen=True)
class SimulationJob:
    """One (scenario, policy, seed, replication) simulation, as keyed data.

    A job carries its content key, its cell key, a label and the shape of
    its failure record; it runs only as a lane of a
    :class:`SimulationBatch`, which :func:`run_simulation_jobs` builds.

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

    # Engine-pipeline facts, as on Job: the first of several equal-key jobs
    # in one call executes.
    record_type = SimulationRecord
    counters = "engine.simjobs"
    last_duplicate_runs = False

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown simulation policy {self.policy!r}; "
                f"choose from {list(policy_names())}"
            )
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def cell(
        cls,
        spec: ScenarioSpec,
        policy: str,
        replications: int,
        params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        evaluate_at: str = "completion",
    ) -> Tuple["SimulationJob", ...]:
        """Replications ``0 .. replications - 1`` of one Monte Carlo cell.

        Each job equals, keys included, the ``SimulationJob`` built alone
        with the same fields; the cell's canonical head (evaluation point,
        params, policy) is rendered once for all of them, not per job, and
        ``str`` renders each index as ``json.dumps`` would.
        """
        jobs = tuple(
            cls(spec, policy, params or {}, seed, replication, evaluate_at)
            for replication in range(replications)
        )
        if jobs:
            head = _key_head(evaluate_at, jobs[0].params, policy)
            tail = _key_tail(spec, seed)
            cell_key = _digest(f"{head},{tail}")
            for job in jobs:
                job._set_keys(_job_key(head, str(job.replication), tail), cell_key)
        return jobs

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
        Exactly these may run as lanes of one
        :class:`SimulationBatch` (the perturbation stream is the only
        per-replication input, and each lane owns its own).
        """
        if "_cell_key" not in self.__dict__:
            self._hash_keys()
        return self.__dict__["_cell_key"]

    def _hash_keys(self) -> None:
        # The canonical JSON of job_spec(), rendered once for both keys: a
        # head (evaluate_at, params, policy), the replication, and a tail
        # (scenario, seed) memoised per spec and seed.
        head = _key_head(self.evaluate_at, self.params, self.policy)
        tail = _key_tail(self.spec, self.seed)
        key = _job_key(head, _canonical_json(self.replication), tail)
        self._set_keys(key, _digest(f"{head},{tail}"))

    def _set_keys(self, key: str, cell_key: str) -> None:
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_cell_key", cell_key)

    @property
    def label(self) -> str:
        """Human-readable ``scenario/policy#replication`` tag."""
        return f"{self.spec.name}/{self.policy}#{self.replication}"

    def failure_result(self, error: str) -> SimulationRecord:
        """The record shape for a job that failed with ``error``."""
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
class SimulationBatch:
    """Same-cell simulation jobs shipped to a worker as one work item.

    The only simulation work item executors see.  All member jobs must
    share a :meth:`SimulationJob.cell_key` — same scenario, policy,
    params, seed and evaluation point, differing only in the replication
    index — so the worker can build the problem and the
    policy context once and run every replication as a lane of a
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

    def run(self) -> "SimulationBatchResult":
        """Execute this batch (see :func:`execute_simulation_batch`)."""
        return execute_simulation_batch(self)

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

    The per-job counters advance by the member counts, so
    ``engine.simjobs.executed``/``failed`` count jobs, not batches.
    """
    if obs_before is None or not _OBS.enabled:
        return None
    if executed:
        _OBS.count(f"{SimulationJob.counters}.executed", executed)
    if failed:
        _OBS.count(f"{SimulationJob.counters}.failed", failed)
    _OBS.count(f"{SimulationJob.counters}.batches")
    return _OBS.metrics_delta(obs_before)


def _lane_failure(job: SimulationJob, error: Exception, elapsed_s: float, traceback: str) -> SimulationRecord:
    return dataclasses.replace(
        job.failure_result(f"{type(error).__name__}: {error}"),
        traceback=traceback,
        elapsed_s=elapsed_s,
    )


def execute_simulation_batch(batch: SimulationBatch) -> SimulationBatchResult:
    """Run one batch of same-cell replications through a :class:`BatchSimulator`.

    The one execution path of every simulation job, serial and parallel
    (module-level so pools import it by name): the problem is built once
    per distinct problem per process (so every cell of a spec and of its
    named twins shares one graph and its per-graph simulator tables), the
    battery model and — for ``static-replay`` — the offline schedule once
    per batch, then every replication runs as a
    :class:`~repro.sim.BatchSimulator` lane, and its
    :class:`~repro.sim.LaneSummary` becomes the job's record.  Each lane's
    outcome is bit-identical to a one-lane :class:`~repro.sim.Simulator`
    run of the same job, so the rows do not depend on how a cell was
    chunked; errors stay isolated per lane (a replication that
    exhausts its retry budget fails alone), while a setup failure —
    unresolvable scenario, unknown policy parameters — fails every member
    with the same error, since none of them could have run.
    """
    obs_before = _OBS.counters_snapshot(include_volatile=True) if _OBS.enabled else None
    started = time.perf_counter()
    jobs = batch.jobs
    first = jobs[0]
    try:
        with _OBS.span("engine.batch", label=batch.label):
            problem = _problem(first.spec)
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


def _batched_records(
    pending: Sequence[SimulationJob], executor, progress
) -> List[SimulationRecord]:
    """Run pending jobs as per-cell batches; records in job order.

    Jobs are grouped by :meth:`SimulationJob.cell_key` (preserving first-seen
    order), chunked to :data:`DEFAULT_BATCH_SIZE` lanes, executed through
    :func:`execute_simulation_batch`, and the per-lane records are scattered
    back to their jobs' original positions, so the returned list (and the
    store rows appended from it) follows ``pending``.
    """
    cells: Dict[str, List[int]] = {}
    for index, job in enumerate(pending):
        cells.setdefault(job.cell_key(), []).append(index)
    batches: List[SimulationBatch] = []
    index_chunks: List[List[int]] = []
    for indices in cells.values():
        for start in range(0, len(indices), DEFAULT_BATCH_SIZE):
            chunk = indices[start : start + DEFAULT_BATCH_SIZE]
            index_chunks.append(chunk)
            batches.append(
                SimulationBatch(jobs=tuple(pending[i] for i in chunk))
            )
    outcomes = executor.run(batches, progress=progress)
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
) -> SimulationRun:
    """Run simulation jobs through an executor — the sim analogue of
    :func:`repro.engine.run_jobs`, through the same pipeline.

    Every pending job runs as a lane of its Monte Carlo cell: replications
    of one (scenario, policy, params, seed) cell are grouped into
    :class:`SimulationBatch` work items of up to :data:`DEFAULT_BATCH_SIZE`
    lanes and run through a :class:`~repro.sim.BatchSimulator`.
    ``progress`` therefore fires once per cell batch, with its
    :class:`SimulationBatchResult`.

    Records come back in job order whatever the executor, so downstream
    reports are byte-reproducible; with ``resume=True`` the store answers
    jobs whose key already holds a completed record.  Deduplication is
    by :meth:`SimulationJob.key` throughout: resume hits dedupe against
    the store whoever wrote it, and duplicate-key jobs *within* one call
    are simulated and stored once, with the first one's record fanned
    back to every duplicate's position (see
    :func:`repro.engine.api._run_pipeline`).  The store must have been
    built with ``record_type=SimulationRecord``.
    """
    return SimulationRun(
        *_run_pipeline(
            SimulationJob, jobs, executor, store, resume, progress, _batched_records
        )
    )
