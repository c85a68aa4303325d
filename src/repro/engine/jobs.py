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

import collections.abc
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

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
def _canonical(value: Any) -> Any:
    """Normalise a parameter value so that equal configs produce equal JSON."""
    # The ``collections.abc`` ABC, not the much slower ``typing`` alias: this
    # recursion visits every node of a static-replay job's whole schedule.
    if isinstance(value, collections.abc.Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _content_hash(spec: Dict[str, Any]) -> str:
    """The 24-hex-digit key of a JSON-serialisable job description."""
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", resolve_algorithm_name(self.algorithm))
        object.__setattr__(self, "params", dict(self.params))

    # ------------------------------------------------------------------
    def spec(self) -> Dict[str, Any]:
        """The complete, JSON-serialisable description of this job."""
        battery = self.problem.battery
        return {
            "graph": self.problem.graph.to_dict(),
            "deadline": self.problem.deadline,
            "battery": {
                "beta": battery.beta,
                "capacity": _canonical(battery.capacity),
                "series_terms": battery.series_terms,
                "chemistry": battery.chemistry,
                "chemistry_params": _canonical(dict(battery.chemistry_params)),
            },
            "algorithm": self.algorithm,
            "params": _canonical(self.params),
        }

    def key(self) -> str:
        """Stable content hash identifying this job across runs and machines.

        The key covers everything that influences the result — the graph
        structure and design points, the deadline, the battery parameters,
        the algorithm and its parameters — and nothing presentational (the
        problem's display name is excluded).  Memoised: every field is
        frozen after construction and the full-graph serialisation is too
        expensive to repeat on every store/ordering probe.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = _content_hash(self.spec())
            object.__setattr__(self, "_key", cached)
        return cached

    def structural_key(self) -> str:
        """Content hash identifying this job *up to graph isomorphism*.

        Like :meth:`key`, but the graph enters through its canonical-form
        signature (:func:`repro.taskgraph.graph_signature`) instead of its
        verbatim serialisation, so two jobs whose graphs differ only in
        task naming / insertion order collide deliberately.  This is the
        grouping key of the engine's opt-in structural dedup
        (``run_jobs(..., dedupe=True)``).  Memoised like :meth:`key`.
        """
        cached = self.__dict__.get("_structural_key")
        if cached is None:
            from ..taskgraph.optimize import graph_signature

            spec = self.spec()
            spec["graph"] = graph_signature(self.problem.graph)
            cached = _content_hash(spec)
            object.__setattr__(self, "_structural_key", cached)
        return cached

    @property
    def label(self) -> str:
        """Human-readable ``problem/algorithm`` tag used in progress output."""
        name = self.problem.name or self.problem.graph.name or "problem"
        return f"{name}/{self.algorithm}"

    def __repr__(self) -> str:
        return f"Job({self.label}, params={dict(self.params)!r})"


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
    the caller spelled the default.  ``record_evaluations`` is intentionally
    dropped: it changes only the in-memory history, never the result.
    """
    params: Dict[str, Any] = {}
    if config is not None:
        defaults = SchedulerConfig()
        for attr in (
            "max_iterations",
            "evaluate_at",
            "require_feasible_windows",
            "repair_infeasible",
            "improvement_tolerance",
        ):
            value = getattr(config, attr)
            if value != getattr(defaults, attr):
                params[attr] = value
        if config.factor_weights is not None:
            params["factor_weights"] = {
                name: getattr(config.factor_weights, name)
                for name in (
                    "slack_ratio",
                    "current_ratio",
                    "energy_ratio",
                    "current_increase_fraction",
                    "design_point_fraction",
                )
            }
    if drop_factor is not None:
        params["drop_factor"] = drop_factor
    return params


def _scheduler_config_from_params(params: Mapping[str, Any]) -> SchedulerConfig:
    """Inverse of :func:`scheduler_config_params` (engine-side)."""
    weights: Optional[FactorWeights] = None
    if "factor_weights" in params:
        weights = FactorWeights(**params["factor_weights"])
    if params.get("drop_factor") is not None:
        weights = FactorWeights.without(params["drop_factor"])
    return SchedulerConfig(
        max_iterations=int(params.get("max_iterations", 25)),
        evaluate_at=str(params.get("evaluate_at", "completion")),
        factor_weights=weights,
        require_feasible_windows=bool(params.get("require_feasible_windows", True)),
        repair_infeasible=bool(params.get("repair_infeasible", True)),
        record_evaluations=False,
        improvement_tolerance=float(params.get("improvement_tolerance", 1e-9)),
    )


def _run_iterative(
    problem: SchedulingProblem, model: Optional[BatteryModel], params: Dict[str, Any]
):
    config = _scheduler_config_from_params(params)
    return battery_aware_schedule(problem, config=config, model=model)


def _run_annealing(
    problem: SchedulingProblem, model: Optional[BatteryModel], params: Dict[str, Any]
):
    config = AnnealingConfig(
        iterations=int(params.get("iterations", AnnealingConfig.iterations)),
    )
    seed = params.get("seed")
    return simulated_annealing_baseline(
        problem, config=config, model=model, seed=int(seed) if seed is not None else None
    )


def _baseline_runner(function: Callable) -> AlgorithmRunner:
    def run(problem: SchedulingProblem, model: Optional[BatteryModel], params: Dict[str, Any]):
        return function(problem, model=model)

    return run


register_algorithm("iterative", _run_iterative, aliases=("iterative (ours)", "ours"))
register_algorithm(
    "dp-energy+greedy", _baseline_runner(rakhmatov_baseline), aliases=("rakhmatov",)
)
register_algorithm(
    "last-task-first", _baseline_runner(chowdhury_baseline), aliases=("chowdhury",)
)
register_algorithm("best-uniform", _baseline_runner(best_uniform_baseline))
register_algorithm("all-fastest", _baseline_runner(all_fastest_baseline))
register_algorithm("all-slowest", _baseline_runner(all_slowest_baseline))
register_algorithm(
    "annealing", _run_annealing, aliases=("simulated-annealing", "sa")
)
