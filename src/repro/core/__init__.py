"""The paper's contribution: iterative battery-aware sequencing and assignment.

Public entry points:

* :func:`battery_aware_schedule` / :class:`BatteryAwareScheduler` — the
  top-level iterative algorithm (``BatteryAwareSQNDPAllocation``);
* :func:`evaluate_windows`, :func:`choose_design_points`,
  :func:`calculate_dpf`, :func:`find_weighted_sequence` — the individual
  pseudocode routines, exposed for study, testing and the illustrative
  example;
* the factor functions (``slack_ratio`` .. ``design_point_fraction``) and the
  :class:`SequencedMatrices` helper they operate on.
"""

from .. import _lazy_exports

__all__ = [
    "battery_aware_schedule",
    "BatteryAwareScheduler",
    "refine_solution",
    "SchedulerConfig",
    "SchedulingSolution",
    "IterationRecord",
    "SequencedMatrices",
    "WindowEvaluation",
    "WindowRecord",
    "evaluate_windows",
    "initial_window_start",
    "choose_design_points",
    "calculate_dpf",
    "promote_until_feasible",
    "ChooseResult",
    "DesignPointEvaluation",
    "find_weighted_sequence",
    "equation4_weights",
    "FactorValues",
    "FactorWeights",
    "slack_ratio",
    "current_ratio",
    "energy_ratio",
    "current_increase_fraction",
    "design_point_fraction",
    "windowed_design_point_fraction",
    "suitability",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".choose": (
            "ChooseResult", "DesignPointEvaluation", "calculate_dpf",
            "choose_design_points", "promote_until_feasible",
        ),
        ".config": ("SchedulerConfig",),
        ".factors": (
            "FactorValues", "FactorWeights", "current_increase_fraction",
            "current_ratio", "design_point_fraction", "energy_ratio", "slack_ratio",
            "suitability", "windowed_design_point_fraction",
        ),
        ".iterative": ("BatteryAwareScheduler", "battery_aware_schedule"),
        ".matrices": ("SequencedMatrices",),
        ".refine": ("refine_solution",),
        ".result": ("IterationRecord", "SchedulingSolution"),
        ".weighted": ("equation4_weights", "find_weighted_sequence"),
        ".windows": (
            "WindowEvaluation", "WindowRecord", "evaluate_windows",
            "initial_window_start",
        ),
    },
)
