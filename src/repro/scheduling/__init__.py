"""Scheduling substrate: sequences, assignments, schedules and their battery cost.

Provides the building blocks every algorithm in :mod:`repro.core` and
:mod:`repro.baselines` shares — the list-scheduling engine used to generate
precedence-respecting sequences, the design-point assignment mapping, the
fully resolved :class:`Schedule`, and the cost-evaluation stack
(:func:`battery_cost` / :func:`evaluate_schedule` for full evaluation,
:class:`IncrementalCostEvaluator` for the moves of neighbourhood search).
"""

from .. import _lazy_exports

__all__ = [
    "DesignPointAssignment",
    "Schedule",
    "ScheduledTask",
    "SchedulingProblem",
    "battery_cost",
    "profile_for",
    "EVALUATION_MODES",
    "IncrementalCostEvaluator",
    "MoveProposal",
    "ScheduleEvaluation",
    "ScheduleState",
    "evaluate_schedule",
    "relocation_window",
    "list_schedule",
    "sequence_by_weights",
    "sequence_by_decreasing_energy",
    "average_energy_weights",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".assignment": ("DesignPointAssignment",),
        ".cost": ("EVALUATION_MODES", "battery_cost", "profile_for"),
        ".evaluator": (
            "IncrementalCostEvaluator", "MoveProposal", "ScheduleEvaluation",
            "ScheduleState", "evaluate_schedule", "relocation_window",
        ),
        ".list_scheduler": (
            "average_energy_weights", "list_schedule", "sequence_by_decreasing_energy",
            "sequence_by_weights",
        ),
        ".problem": ("SchedulingProblem",),
        ".schedule": ("Schedule", "ScheduledTask"),
    },
)
