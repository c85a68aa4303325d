"""Local-search refinement of a schedule (extension beyond the paper).

The paper stops as soon as an outer iteration fails to improve.  A cheap way
to squeeze out a little more battery capacity — and a natural "future work"
extension — is a hill-climbing pass over the final solution:

* **sequence moves**: swap two adjacent tasks when the precedence edges
  allow it (this directly exploits the battery model's preference for
  non-increasing current profiles);
* **assignment moves**: shift a single task one design-point column up or
  down, provided the deadline still holds.

Moves are applied greedily (best-improvement per sweep) until a full sweep
finds nothing better or the sweep budget is exhausted.  The result is
returned as a new :class:`~repro.core.result.SchedulingSolution` carrying
the original iteration history, so it can be dropped into any code that
consumes scheduler output.

Both move kinds are exactly the neighbourhood moves of the
:class:`~repro.scheduling.IncrementalCostEvaluator` (an adjacent swap is a
relocation by one position), so the sweep is driven through one evaluator:
each candidate re-costs only the schedule prefix the move touches, and an
accepted move becomes the next state via ``apply`` instead of a rebuild.
"""

from __future__ import annotations

from typing import Optional

from ..battery import BatteryModel
from ..errors import ConfigurationError
from ..scheduling import IncrementalCostEvaluator, SchedulingProblem
from .result import SchedulingSolution

__all__ = ["refine_solution"]


def refine_solution(
    problem: SchedulingProblem,
    solution: SchedulingSolution,
    model: Optional[BatteryModel] = None,
    max_sweeps: int = 20,
) -> SchedulingSolution:
    """Hill-climb around a solution with adjacent swaps and single-column shifts.

    Parameters
    ----------
    problem:
        The problem the solution belongs to (supplies the graph, deadline and
        battery model).
    solution:
        Starting point, normally the output of
        :func:`~repro.core.battery_aware_schedule`.
    model:
        Battery model override; defaults to the problem's analytical model.
    max_sweeps:
        Upper bound on full improvement sweeps (each sweep examines every
        adjacent pair and every single-column shift once).

    Returns
    -------
    SchedulingSolution
        With a cost no larger than the input's; all other metadata (iteration
        history, convergence flag) is carried over unchanged.
    """
    if max_sweeps < 1:
        raise ConfigurationError("max_sweeps must be >= 1")
    graph = problem.graph
    deadline = problem.deadline
    battery_model = model if model is not None else problem.model()

    evaluator = IncrementalCostEvaluator(
        graph, solution.sequence, solution.assignment, battery_model
    )
    best_cost = solution.cost

    edges = set(graph.edges())
    design_point_counts = {task.name: task.num_design_points for task in graph}

    for _ in range(max_sweeps):
        improved = False

        # Adjacent sequence swaps (precedence-safe by construction: only the
        # direct edge between the two swapped tasks can be violated).  A swap
        # of positions (i, i+1) is the relocate move "put sequence[i] at
        # position i+1".
        for index in range(len(evaluator.sequence) - 1):
            sequence = evaluator.sequence
            first, second = sequence[index], sequence[index + 1]
            if (first, second) in edges:
                continue
            proposal = evaluator.propose_relocate(first, index + 1)
            if proposal.cost < best_cost - 1e-9:
                evaluator.apply(proposal)
                best_cost = proposal.cost
                improved = True

        # Single-task design-point shifts.
        for name in evaluator.sequence:
            for delta in (-1, 1):
                column = evaluator.columns[name] + delta
                if not (0 <= column < design_point_counts[name]):
                    continue
                if evaluator.candidate_makespan(name, column) > deadline + 1e-9:
                    continue
                proposal = evaluator.propose_design_point(name, column)
                if proposal.cost < best_cost - 1e-9:
                    evaluator.apply(proposal)
                    best_cost = proposal.cost
                    improved = True

        if not improved:
            break

    assignment = evaluator.assignment()
    return SchedulingSolution(
        graph=graph,
        deadline=deadline,
        sequence=evaluator.sequence,
        assignment=assignment,
        cost=best_cost,
        makespan=assignment.total_execution_time(graph),
        iterations=solution.iterations,
        converged=solution.converged,
    )
