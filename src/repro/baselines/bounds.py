"""Trivial bounding baselines: uniform design-point assignments.

Two schedules bracket every algorithm's battery cost on a given sequence:

* **all-fastest** — every task at its highest-power design point: meets any
  feasible deadline but draws the largest currents (and the battery model
  punishes it further through the rate-capacity effect);
* **all-slowest** — every task at its lowest-power design point: the
  cheapest possible energy, but usually misses tight deadlines.

They anchor the sweep plots and give the tests cheap sanity bounds (the
iterative algorithm must never cost more than the cheapest *feasible*
uniform assignment).

:func:`best_uniform_baseline` evaluates all ``m`` uniform columns in one
batch call of the battery model's schedule path
(:meth:`~repro.battery.BatteryModel.schedule_charge_batch`, shared by
every chemistry) — one vectorized sigma computation instead of
``m`` independent ones — with per-column costs bit-identical to
:func:`~repro.scheduling.battery_cost`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..battery import BatteryModel
from ..scheduling import (
    DesignPointAssignment,
    SchedulingProblem,
    battery_cost,
    sequence_by_decreasing_energy,
)
from .common import BaselineResult

__all__ = ["uniform_baseline", "all_fastest_baseline", "all_slowest_baseline", "best_uniform_baseline"]


def uniform_baseline(
    problem: SchedulingProblem,
    column: int,
    model: Optional[BatteryModel] = None,
    sequence: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> BaselineResult:
    """Evaluate the schedule that assigns every task the same design-point column."""
    battery_model = model if model is not None else problem.model()
    task_sequence: Tuple[str, ...] = (
        tuple(sequence) if sequence is not None else sequence_by_decreasing_energy(problem.graph)
    )
    assignment = DesignPointAssignment.uniform(problem.graph, column)
    cost = battery_cost(problem.graph, task_sequence, assignment, battery_model)
    return BaselineResult(
        name=name or f"uniform-column-{column + 1}",
        graph=problem.graph,
        deadline=problem.deadline,
        sequence=task_sequence,
        assignment=assignment,
        cost=cost,
        makespan=assignment.total_execution_time(problem.graph),
    )


def all_fastest_baseline(
    problem: SchedulingProblem, model: Optional[BatteryModel] = None
) -> BaselineResult:
    """Every task at its fastest (highest-power) design point."""
    return uniform_baseline(problem, column=0, model=model, name="all-fastest")


def all_slowest_baseline(
    problem: SchedulingProblem, model: Optional[BatteryModel] = None
) -> BaselineResult:
    """Every task at its slowest (lowest-power) design point (may miss the deadline)."""
    m = problem.graph.uniform_design_point_count()
    return uniform_baseline(problem, column=m - 1, model=model, name="all-slowest")


def best_uniform_baseline(
    problem: SchedulingProblem, model: Optional[BatteryModel] = None
) -> BaselineResult:
    """The cheapest *feasible* uniform-column assignment.

    This is the strongest baseline one can build without mixing design
    points across tasks; it corresponds to picking the widest feasible
    window column in the paper's terminology.  All columns share one batch
    sigma evaluation.
    """
    battery_model = model if model is not None else problem.model()
    graph = problem.graph
    m = graph.uniform_design_point_count()
    sequence = sequence_by_decreasing_energy(graph)
    points = {
        task.name: task.ordered_design_points() for task in graph
    }
    durations = np.array(
        [[points[name][column].execution_time for name in sequence] for column in range(m)]
    )
    currents = np.array(
        [[points[name][column].current for name in sequence] for column in range(m)]
    )
    costs = battery_model.schedule_charge_batch(durations, currents)
    results = []
    for column in range(m):
        assignment = DesignPointAssignment.uniform(graph, column)
        results.append(
            BaselineResult(
                name=f"uniform-column-{column + 1}",
                graph=graph,
                deadline=problem.deadline,
                sequence=sequence,
                assignment=assignment,
                cost=float(costs[column]),
                makespan=assignment.total_execution_time(graph),
            )
        )
    feasible = [result for result in results if result.feasible]
    pool = feasible if feasible else results
    best = min(pool, key=lambda result: result.cost)
    return BaselineResult(
        name="best-uniform",
        graph=best.graph,
        deadline=best.deadline,
        sequence=best.sequence,
        assignment=best.assignment,
        cost=best.cost,
        makespan=best.makespan,
    )
