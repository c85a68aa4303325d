"""Declarative experiment jobs and their results.

A :class:`Job` is the engine's unit of work: one problem instance (task
graph + deadline + battery) paired with one named algorithm and a
JSON-serialisable parameter mapping.  Jobs are pure data — they carry no
callables — so they can be hashed into stable keys, shipped to worker
processes, and written to disk.  A :class:`JobResult` is the corresponding
unit of output: the essential numbers of the produced schedule (or the
captured error), small enough to round-trip through the JSONL result store.

The mapping from algorithm *names* to implementations lives in the registry
at the bottom of this module; executors resolve names at run time, which is
what keeps jobs serialisable.  Every runner receives the battery ``model``
the executor built from the job's problem.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple
from weakref import WeakKeyDictionary

from ..baselines import (
    AnnealingConfig,
    all_fastest_baseline,
    all_slowest_baseline,
    best_uniform_baseline,
    chowdhury_baseline,
    rakhmatov_baseline,
    simulated_annealing_baseline,
)
from ..battery import BatteryModel
from ..core import FactorWeights, SchedulerConfig, battery_aware_schedule
from ..canonical import _canonical
from ..errors import ConfigurationError
from ..scheduling import SchedulingProblem

__all__ = [
    "Job",
    "JobResult",
    "algorithm_names",
    "resolve_algorithm_name",
    "get_algorithm",
    "register_algorithm",
    "scheduler_config_params",
]


# ----------------------------------------------------------------------
# the job specification
# ----------------------------------------------------------------------
def _canonical_json(value: Any) -> str:
    """``value`` as the canonical JSON the content keys hash."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(payload: str) -> str:
    """The 24-hex-digit key of a canonical JSON payload."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _content_hash(spec: Dict[str, Any]) -> str:
    """The 24-hex-digit key of a JSON-serialisable job description: what
    ``Job.key()`` and ``SimulationJob.key()`` render piecewise."""
    return _digest(_canonical_json(spec))


def _problem_spec(problem: SchedulingProblem) -> Dict[str, Any]:
    """The ``"battery"``/``"deadline"``/``"graph"`` entries of a job spec."""
    battery = problem.battery
    return {
        "graph": problem.graph.to_dict(),
        "deadline": problem.deadline,
        "battery": {
            "beta": battery.beta,
            "capacity": _canonical(battery.capacity),
            "series_terms": battery.series_terms,
            "chemistry": battery.chemistry,
            "chemistry_params": _canonical(dict(battery.chemistry_params)),
        },
    }


#: problem -> ((num_tasks, num_edges), rendered problem part of its job
#: keys).  Weak, so the text lives as long as the problem, and outside the
#: jobs, so a pickled job never carries it.
_PROBLEM_TEXT: "WeakKeyDictionary" = WeakKeyDictionary()


def _problem_text(problem: SchedulingProblem) -> str:
    """The canonical JSON of :func:`_problem_spec` without its braces,
    rendered once per problem (sorted keys put it between a job's
    ``"algorithm"`` and ``"params"``)."""
    # The counts guard against a graph grown after the render.
    shape = (problem.graph.num_tasks, problem.graph.num_edges)
    memo = _PROBLEM_TEXT.get(problem)
    if memo is None or memo[0] != shape:
        memo = (shape, _canonical_json(_problem_spec(problem))[1:-1])
        _PROBLEM_TEXT[problem] = memo
    return memo[1]


# ----------------------------------------------------------------------
# the job result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobResult:
    """Outcome of executing one :class:`Job`.

    Exactly one of the two shapes occurs: a completed run carries the
    schedule essentials and ``error is None``; a failed run carries
    ``error`` (a one-line ``ExceptionType: message`` string) and ``None``
    for every schedule field.  Failures never abort a batch — they surface
    here and the remaining jobs keep running.
    """

    key: str
    algorithm: str
    problem_name: str
    cost: Optional[float] = None
    makespan: Optional[float] = None
    feasible: Optional[bool] = None
    sequence: Optional[Tuple[str, ...]] = None
    assignment: Optional[Dict[str, int]] = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    traceback: Optional[str] = None
    #: Per-job observability metrics delta (``repro.obs``), shipped back to
    #: the parent through the process pool.  Never serialised: traced and
    #: untraced runs must produce byte-identical result stores.
    metrics: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """True when the job produced a schedule."""
        return self.error is None

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-friendly representation (inverse of :meth:`from_dict`)."""
        return {
            "key": self.key,
            "algorithm": self.algorithm,
            "problem_name": self.problem_name,
            "cost": self.cost,
            "makespan": self.makespan,
            "feasible": self.feasible,
            "sequence": list(self.sequence) if self.sequence is not None else None,
            "assignment": dict(self.assignment) if self.assignment is not None else None,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        sequence = data.get("sequence")
        assignment = data.get("assignment")
        return cls(
            key=str(data["key"]),
            algorithm=str(data["algorithm"]),
            problem_name=str(data.get("problem_name", "")),
            cost=data.get("cost"),
            makespan=data.get("makespan"),
            feasible=data.get("feasible"),
            sequence=tuple(sequence) if sequence is not None else None,
            assignment={str(k): int(v) for k, v in assignment.items()}
            if assignment is not None
            else None,
            error=data.get("error"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            traceback=data.get("traceback"),
        )

    def summary(self) -> str:
        """One-line human-readable outcome."""
        if not self.ok:
            return f"{self.problem_name}/{self.algorithm}: ERROR {self.error}"
        status = "ok" if self.feasible else "DEADLINE MISS"
        return (
            f"{self.problem_name}/{self.algorithm}: sigma={self.cost:.1f}, "
            f"makespan={self.makespan:.1f} ({status})"
        )


@dataclass(frozen=True)
class Job:
    """One (problem, algorithm, parameters) work item.

    Attributes
    ----------
    problem:
        The scheduling problem instance to solve.
    algorithm:
        Registered algorithm name (aliases are resolved to the canonical
        name on construction, so equal work always gets equal keys).
    params:
        JSON-serialisable algorithm parameters (e.g. ``{"seed": 7}`` for the
        annealing baseline or ``{"drop_factor": "slack_ratio"}`` for an
        ablated iterative run).
    """

    problem: SchedulingProblem
    algorithm: str
    params: Mapping[str, Any] = field(default_factory=dict)

    # What the engine pipeline (repro.engine.api._run_pipeline) needs to
    # know about this job type: the store's record class, the obs counter
    # prefix, which of several equal-key jobs in one call executes, and the
    # field a process pool ships to each worker once (executors._by_reference).
    record_type = JobResult
    counters = "engine.jobs"
    last_duplicate_runs = True
    shared_field = "problem"

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", resolve_algorithm_name(self.algorithm))
        object.__setattr__(self, "params", dict(self.params))

    # ------------------------------------------------------------------
    def spec(self) -> Dict[str, Any]:
        """The complete, JSON-serialisable description of this job."""
        return {
            **_problem_spec(self.problem),
            "algorithm": self.algorithm,
            "params": _canonical(self.params),
        }

    def key(self) -> str:
        """Stable content hash identifying this job across runs and machines.

        The key covers everything that influences the result — the graph
        structure and design points, the deadline, the battery parameters,
        the algorithm and its parameters — plus the graph's own name (in
        ``graph.to_dict()``), but not the problem's display name.  It is the
        hash of the canonical JSON of :meth:`spec`, rendered from the
        problem's part (graph, deadline, battery), which every job of one
        problem shares and renders once, between this job's algorithm and
        params.  Memoised: every field is frozen after construction.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = _digest(
                f'{{"algorithm":{_canonical_json(self.algorithm)},'
                f"{_problem_text(self.problem)},"
                f'"params":{_canonical_json(_canonical(self.params))}}}'
            )
            object.__setattr__(self, "_key", cached)
        return cached

    @property
    def label(self) -> str:
        """Human-readable ``problem/algorithm`` tag used in progress output."""
        name = self.problem.name or self.problem.graph.name or "problem"
        return f"{name}/{self.algorithm}"

    def run(self) -> JobResult:
        """Execute this job (see :func:`repro.engine.executors.execute_job`)."""
        from .executors import execute_job

        return execute_job(self)

    def failure_result(self, error: str) -> JobResult:
        """The result shape for a job that failed with ``error``."""
        return JobResult(
            key=self.key(),
            algorithm=self.algorithm,
            problem_name=self.problem.name or self.problem.graph.name or "",
            error=error,
        )

    def __repr__(self) -> str:
        return f"Job({self.label}, params={dict(self.params)!r})"


# ----------------------------------------------------------------------
# the algorithm registry
# ----------------------------------------------------------------------
AlgorithmRunner = Callable[[SchedulingProblem, Optional[BatteryModel], Dict[str, Any]], Any]

_REGISTRY: Dict[str, AlgorithmRunner] = {}
_ALIASES: Dict[str, str] = {}


def register_algorithm(
    name: str, runner: AlgorithmRunner, aliases: Tuple[str, ...] = ()
) -> None:
    """Add ``runner`` under ``name`` (plus optional aliases) to the registry.

    The runner is called as ``runner(problem, model, params)`` and must
    return an object exposing ``cost``, ``makespan``, ``sequence`` and
    ``assignment`` — the shape both :class:`~repro.core.SchedulingSolution`
    and :class:`~repro.baselines.BaselineResult` already have.
    """
    _REGISTRY[name] = runner
    for alias in aliases:
        _ALIASES[alias] = name


def resolve_algorithm_name(name: str) -> str:
    """Map an algorithm name or alias to its canonical registry name."""
    if name in _REGISTRY:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    known = sorted(set(_REGISTRY) | set(_ALIASES))
    raise ConfigurationError(f"unknown algorithm {name!r}; choose from {known}")


def get_algorithm(name: str) -> AlgorithmRunner:
    """The runner registered under ``name`` (or an alias of it)."""
    return _REGISTRY[resolve_algorithm_name(name)]


def algorithm_names() -> Tuple[str, ...]:
    """All canonical algorithm names, sorted."""
    return tuple(sorted(_REGISTRY))


def scheduler_config_params(
    config: Optional[SchedulerConfig], drop_factor: Optional[str] = None
) -> Dict[str, Any]:
    """Translate a :class:`SchedulerConfig` into JSON-able job parameters.

    Only non-default values are emitted, so the common case (paper-default
    configuration) yields ``{}`` and the job key stays independent of how
    the caller spelled the default.
    """
    params: Dict[str, Any] = {}
    if config is not None:
        if config.evaluate_at != SchedulerConfig().evaluate_at:
            params["evaluate_at"] = config.evaluate_at
        if config.factor_weights is not None:
            params["factor_weights"] = asdict(config.factor_weights)
    if drop_factor is not None:
        params["drop_factor"] = drop_factor
    return params


#: What an ``iterative`` job reads from its params.
_ITERATIVE_PARAMS = ("drop_factor", "evaluate_at", "factor_weights")


def _require_read(algorithm: str, params: Mapping[str, Any], reads: Tuple[str, ...]) -> None:
    """Fail a job whose params name a setting ``algorithm`` does not read.

    Otherwise the defaults would run under a key that names another setting.
    ``seed``, which ``run_suite`` and the sweeps merge into every job, is
    always accepted.
    """
    unknown = sorted(set(params) - {*reads, "seed"})
    if unknown:
        raise ConfigurationError(
            f"{algorithm} takes no param {unknown[0]!r}; it reads {list(reads)}"
        )


def _scheduler_config_from_params(params: Mapping[str, Any]) -> SchedulerConfig:
    """Inverse of :func:`scheduler_config_params` (engine-side)."""
    _require_read("iterative", params, _ITERATIVE_PARAMS)
    weights: Optional[FactorWeights] = None
    if "factor_weights" in params:
        weights = FactorWeights(**params["factor_weights"])
    if params.get("drop_factor") is not None:
        weights = FactorWeights.without(params["drop_factor"])
    return SchedulerConfig(
        evaluate_at=str(params.get("evaluate_at", "completion")),
        factor_weights=weights,
    )


def _run_iterative(
    problem: SchedulingProblem, model: Optional[BatteryModel], params: Dict[str, Any]
):
    config = _scheduler_config_from_params(params)
    return battery_aware_schedule(problem, config=config, model=model)


def _run_annealing(
    problem: SchedulingProblem, model: Optional[BatteryModel], params: Dict[str, Any]
):
    _require_read("annealing", params, ("iterations", "seed"))
    config = AnnealingConfig(
        iterations=int(params.get("iterations", AnnealingConfig.iterations)),
    )
    seed = params.get("seed")
    return simulated_annealing_baseline(
        problem, config=config, model=model, seed=int(seed) if seed is not None else None
    )


def _register_baseline(name: str, function: Callable, aliases: Tuple[str, ...] = ()) -> None:
    """Register a baseline, which reads no params (bar the accepted seed)."""

    def run(problem: SchedulingProblem, model: Optional[BatteryModel], params: Dict[str, Any]):
        _require_read(name, params, ())
        return function(problem, model=model)

    register_algorithm(name, run, aliases=aliases)


register_algorithm("iterative", _run_iterative, aliases=("iterative (ours)", "ours"))
_register_baseline("dp-energy+greedy", rakhmatov_baseline, aliases=("rakhmatov",))
_register_baseline("last-task-first", chowdhury_baseline, aliases=("chowdhury",))
_register_baseline("best-uniform", best_uniform_baseline)
_register_baseline("all-fastest", all_fastest_baseline)
_register_baseline("all-slowest", all_slowest_baseline)
register_algorithm(
    "annealing", _run_annealing, aliases=("simulated-annealing", "sa")
)
