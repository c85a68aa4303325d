"""Baseline schedulers the paper compares against (or that bound its results).

* :func:`rakhmatov_baseline` — the Table 4 comparison algorithm: dynamic
  program minimising total energy under the deadline, followed by
  Equation-5 greedy sequencing.
* :func:`chowdhury_baseline` — last-task-first voltage downscaling ([7]).
* :func:`all_fastest_baseline` / :func:`all_slowest_baseline` /
  :func:`best_uniform_baseline` — uniform-column bounds.
* :func:`simulated_annealing_baseline` — heavyweight metaheuristic yardstick.
* :func:`exhaustive_optimum` — true optimum for small instances (testing).
"""

from .. import _lazy_exports

__all__ = [
    "BaselineResult",
    "minimum_energy_assignment",
    "equation5_weights",
    "greedy_current_sequence",
    "rakhmatov_baseline",
    "chowdhury_baseline",
    "last_task_first_assignment",
    "uniform_baseline",
    "all_fastest_baseline",
    "all_slowest_baseline",
    "best_uniform_baseline",
    "AnnealingConfig",
    "simulated_annealing_baseline",
    "enumerate_topological_orders",
    "exhaustive_optimum",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".annealing": ("AnnealingConfig", "simulated_annealing_baseline"),
        ".bounds": (
            "all_fastest_baseline", "all_slowest_baseline", "best_uniform_baseline",
            "uniform_baseline",
        ),
        ".chowdhury": ("chowdhury_baseline", "last_task_first_assignment"),
        ".common": ("BaselineResult",),
        ".dp_energy": ("minimum_energy_assignment",),
        ".exhaustive": ("enumerate_topological_orders", "exhaustive_optimum"),
        ".greedy_sequence": (
            "equation5_weights", "greedy_current_sequence", "rakhmatov_baseline",
        ),
    },
)
