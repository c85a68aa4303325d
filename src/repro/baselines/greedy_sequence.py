"""Equation-5 greedy sequencing and the full [1]-style comparison baseline.

After its dynamic program has fixed one design point per task, the approach
the paper compares against (Section 5) orders the tasks with a greedy list
scheduler whose weights are

    w(v) = max( I_v , MeanI(G_v) )                       (Equation 5)

where ``I_v`` is the chosen design point's current of task ``v`` and
``MeanI(G_v)`` the mean chosen current over the subgraph rooted at ``v``.
Ready tasks with the largest weight are scheduled first.

:func:`rakhmatov_baseline` chains the two halves — minimum-energy
design-point selection (:mod:`repro.baselines.dp_energy`) followed by
Equation-5 sequencing — and evaluates the battery cost of the result, which
is exactly the comparison column of the paper's Table 4.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..battery import BatteryModel
from ..scheduling import (
    DesignPointAssignment,
    SchedulingProblem,
    evaluate_schedule,
    sequence_by_weights,
)
from ..taskgraph import TaskGraph
from .common import BaselineResult
from .dp_energy import minimum_energy_assignment

__all__ = ["equation5_weights", "greedy_current_sequence", "rakhmatov_baseline"]


def equation5_weights(
    graph: TaskGraph, assignment: DesignPointAssignment
) -> Dict[str, float]:
    """Equation 5 weights: ``max(own chosen current, mean subgraph chosen current)``."""
    assignment.validate(graph)
    chosen = {name: assignment.design_point(graph, name).current for name in graph.task_names()}
    weights: Dict[str, float] = {}
    for name in graph.task_names():
        members = graph.subgraph_rooted_at(name)
        # Insertion order, not set order: no weight depends on PYTHONHASHSEED.
        mean_current = sum(chosen[m] for m in chosen if m in members) / len(members)
        weights[name] = max(chosen[name], mean_current)
    return weights


def greedy_current_sequence(
    graph: TaskGraph, assignment: DesignPointAssignment
) -> Tuple[str, ...]:
    """List-schedule the graph with Equation 5 weights (largest weight first)."""
    return sequence_by_weights(
        graph, equation5_weights(graph, assignment), higher_first=True
    )


def rakhmatov_baseline(
    problem: SchedulingProblem,
    model: Optional[BatteryModel] = None,
    time_steps: int = 2000,
) -> BaselineResult:
    """The comparison algorithm of Table 4: DP energy minimisation + Equation 5 order.

    Parameters
    ----------
    problem:
        Task graph, deadline and battery specification.
    model:
        Battery model used to *evaluate* the result (the baseline itself is
        battery-agnostic — that is its point); defaults to the problem's
        analytical model.
    time_steps:
        Time grid resolution handed to the dynamic program.
    """
    battery_model = model if model is not None else problem.model()
    assignment = minimum_energy_assignment(
        problem.graph, problem.deadline, time_steps=time_steps
    )
    sequence = greedy_current_sequence(problem.graph, assignment)
    # One canonical full evaluation through the evaluator stack.
    cost = evaluate_schedule(problem.graph, sequence, assignment, battery_model).cost
    return BaselineResult(
        name="dp-energy+greedy",
        graph=problem.graph,
        deadline=problem.deadline,
        sequence=sequence,
        assignment=assignment,
        cost=cost,
        makespan=assignment.total_execution_time(problem.graph),
    )
