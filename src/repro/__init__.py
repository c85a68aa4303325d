"""Battery-aware task scheduling for portable computing platforms.

A from-scratch reproduction of Khan & Vemuri, *"An Iterative Algorithm for
Battery-Aware Task Scheduling on Portable Computing Platforms"* (DATE 2005):
an iterative heuristic that jointly chooses a task execution order and one
design point (voltage/frequency setting or FPGA bitstream) per task so that
a task-graph deadline is met while the apparent charge drawn from the
battery — per the Rakhmatov–Vrudhula analytical model — is minimised.

Quickstart
----------
>>> from repro import (
...     BatterySpec, SchedulingProblem, battery_aware_schedule, build_g3,
... )
>>> problem = SchedulingProblem(graph=build_g3(), deadline=230.0,
...                             battery=BatterySpec(beta=0.273))
>>> solution = battery_aware_schedule(problem)
>>> solution.feasible
True

Subpackages
-----------
Subpackages load on first use: ``import repro`` imports none of them, and
the first access of a name (``repro.battery_aware_schedule``,
``repro.core``) imports only the modules that define it.

``repro.taskgraph``
    Tasks, design points, DAGs, voltage-scaling synthesis, paper graphs.
``repro.battery``
    Load profiles and battery models (Rakhmatov–Vrudhula, ideal, Peukert).
``repro.scheduling``
    Sequences, assignments, schedules, list scheduling, battery cost.
``repro.core``
    The paper's iterative algorithm and its factor machinery.
``repro.baselines``
    The [1]-style DP+greedy baseline and further comparison schedulers.
``repro.workloads``
    Synthetic task-graph generators and the legacy benchmark-suite view.
``repro.scenarios``
    The scenario catalogue: named, seeded specs crossing DAG families,
    platform models, battery chemistries and deadline tiers.
``repro.engine``
    Parallel experiment execution: jobs, executors and resumable result
    stores (offline experiments and simulations).
``repro.sim``
    Event-driven runtime simulation: online scheduling policies,
    seeded perturbations, bit-conformant replay of offline schedules.
``repro.obs``
    Tracing/metrics/profiling: a no-op-when-disabled recorder, JSONL
    traces, Chrome-trace export (``--trace`` / ``repro stats``).
``repro.analysis``
    Metrics, text tables, suite leaderboards and result export.
``repro.experiments``
    Drivers reproducing every table and figure of the paper, plus the
    scenario-suite driver (:func:`repro.experiments.run_suite`).
"""

import importlib as _importlib
import sys as _sys


def _lazy_exports(package, exports, submodules=()):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package that re-exports lazily.

    ``exports`` maps a relative submodule (``".core"``) to the public names
    it provides; ``submodules`` names submodules that resolve as attributes
    themselves.  The first access of a name imports its submodule and caches
    the value in the package namespace.  Any other name raises
    :class:`AttributeError` without importing anything, so ``hasattr`` stays
    false.  Every package ``__init__`` of :mod:`repro` builds its pair here.
    """
    where = {name: module for module, names in exports.items() for name in names}
    where.update(dict.fromkeys(submodules))
    namespace = _sys.modules[package].__dict__

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = where[name]
        if module is None:
            value = _importlib.import_module(f".{name}", package)
        else:
            value = getattr(_importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *where})

    return __getattr__, __dir__


__version__ = "1.0.0"

__all__ = [
    "__version__",
    # task graphs
    "DesignPoint",
    "Task",
    "TaskGraph",
    "build_g2",
    "build_g3",
    "scaled_design_points",
    # battery
    "BatteryModel",
    "BatterySpec",
    "IdealBatteryModel",
    "PeukertModel",
    "KineticBatteryModel",
    "RakhmatovVrudhulaModel",
    "LoadInterval",
    "LoadProfile",
    "simulate_discharge",
    # platform models
    "DvsProcessor",
    "OperatingPoint",
    "FpgaFabric",
    # scheduling substrate
    "DesignPointAssignment",
    "Schedule",
    "SchedulingProblem",
    "battery_cost",
    "sequence_by_decreasing_energy",
    # core algorithm
    "battery_aware_schedule",
    "BatteryAwareScheduler",
    "refine_solution",
    "SchedulerConfig",
    "SchedulingSolution",
    "FactorWeights",
    # baselines
    "BaselineResult",
    "rakhmatov_baseline",
    "minimum_energy_assignment",
    "chowdhury_baseline",
    "simulated_annealing_baseline",
    "exhaustive_optimum",
    "all_fastest_baseline",
    "all_slowest_baseline",
    "best_uniform_baseline",
    # workloads
    "chain_graph",
    "fork_join_graph",
    "layered_graph",
    "tree_graph",
    "diamond_graph",
    "problem_with_tightness",
    # scenarios
    "ScenarioSpec",
    "ScenarioRegistry",
    "default_registry",
    # runtime simulation
    "Simulator",
    "SimulationResult",
    "StaticReplayScheduler",
    "PerturbationModel",
    # errors
    "ReproError",
    "TaskGraphError",
    "ScheduleError",
    "DeadlineError",
    "InfeasibleDeadlineError",
    "BatteryModelError",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".taskgraph": (
            "DesignPoint", "Task", "TaskGraph", "build_g2", "build_g3",
            "scaled_design_points",
        ),
        ".battery": (
            "BatteryModel", "BatterySpec", "IdealBatteryModel", "KineticBatteryModel",
            "LoadInterval", "LoadProfile", "PeukertModel", "RakhmatovVrudhulaModel",
            "simulate_discharge",
        ),
        ".platform": ("DvsProcessor", "FpgaFabric", "OperatingPoint"),
        ".scheduling": (
            "DesignPointAssignment", "Schedule", "SchedulingProblem", "battery_cost",
            "sequence_by_decreasing_energy",
        ),
        ".core": (
            "BatteryAwareScheduler", "FactorWeights", "SchedulerConfig",
            "SchedulingSolution", "battery_aware_schedule", "refine_solution",
        ),
        ".baselines": (
            "BaselineResult", "all_fastest_baseline", "all_slowest_baseline",
            "best_uniform_baseline", "chowdhury_baseline", "exhaustive_optimum",
            "minimum_energy_assignment", "rakhmatov_baseline",
            "simulated_annealing_baseline",
        ),
        ".workloads": (
            "chain_graph", "diamond_graph", "fork_join_graph", "layered_graph",
            "problem_with_tightness", "tree_graph",
        ),
        ".scenarios": ("ScenarioRegistry", "ScenarioSpec", "default_registry"),
        ".sim": (
            "PerturbationModel", "Simulator", "SimulationResult", "StaticReplayScheduler",
        ),
        ".errors": (
            "BatteryModelError", "DeadlineError", "InfeasibleDeadlineError",
            "ReproError", "ScheduleError", "TaskGraphError",
        ),
    },
    submodules=(
        "analysis", "baselines", "battery", "canonical", "cli", "core", "engine",
        "errors", "experiments", "obs", "platform", "scenarios", "scheduling", "sim",
        "taskgraph", "workloads",
    ),
)
