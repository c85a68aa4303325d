"""Top-level iterative driver (``BatteryAwareSQNDPAllocation``, Figure 1).

One outer iteration does three things:

1. build the sequence-ordered matrices for the current task order ``L`` and
   run the window search (:func:`~repro.core.windows.evaluate_windows`),
   which returns the minimum-battery-cost design-point assignment ``S`` over
   all windows;
2. compute the Equation 4 weighted sequence ``L_w`` from ``S`` and evaluate
   its battery cost under the same assignment — if re-ordering alone already
   helps, the iteration's cost is updated; and
3. compare the iteration's best cost with the previous iteration's: if it
   did not improve, stop; otherwise adopt ``L_w`` as the sequence for the
   next iteration.

The returned :class:`~repro.core.result.SchedulingSolution` holds the best
(sequence, assignment) pair seen across all iterations together with the
full per-iteration history needed to regenerate the paper's Tables 2 and 3.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..battery import BatteryModel
from ..scheduling import (
    SchedulingProblem,
    evaluate_schedule,
    sequence_by_decreasing_energy,
)
from ..taskgraph import TaskGraph, validate_sequence
from .config import SchedulerConfig
from .matrices import SequencedMatrices
from .result import IterationRecord, SchedulingSolution
from .weighted import find_weighted_sequence
from .windows import evaluate_windows

__all__ = ["battery_aware_schedule", "BatteryAwareScheduler"]

#: Hard cap on the number of outer iterations.  The paper's stopping rule
#: (no improvement between consecutive iterations) normally fires after a
#: handful; the cap only guards against pathological oscillation.
MAX_ITERATIONS = 25

#: Minimum cost decrease (mA·min) that counts as an improvement.
IMPROVEMENT_TOLERANCE = 1e-9


def battery_aware_schedule(
    problem: SchedulingProblem,
    config: Optional[SchedulerConfig] = None,
    initial_sequence: Optional[Sequence[str]] = None,
    model: Optional[BatteryModel] = None,
) -> SchedulingSolution:
    """Run the paper's iterative heuristic on a scheduling problem.

    Parameters
    ----------
    problem:
        Task graph + deadline + battery specification.
    config:
        Algorithm configuration; defaults reproduce the paper.
    initial_sequence:
        Optional replacement for the ``SequenceDecEnergy`` seed sequence
        (must respect the graph's precedence edges).  Exposed for
        experimentation and testing.
    model:
        Optional battery model override; defaults to the analytical model
        described by ``problem.battery``.

    Returns
    -------
    SchedulingSolution
        The best feasible schedule found, with per-iteration history.
    """
    return BatteryAwareScheduler(config).solve(
        problem, initial_sequence=initial_sequence, model=model
    )


class BatteryAwareScheduler:
    """Object-oriented wrapper around :func:`battery_aware_schedule`.

    Holding the configuration in an object makes it convenient to run the
    same setup over many problems.
    """

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()

    # ------------------------------------------------------------------
    def solve(
        self,
        problem: SchedulingProblem,
        initial_sequence: Optional[Sequence[str]] = None,
        model: Optional[BatteryModel] = None,
    ) -> SchedulingSolution:
        """Solve one problem instance; see :func:`battery_aware_schedule`."""
        graph = problem.graph
        deadline = problem.deadline
        problem.require_feasible()
        battery_model = model if model is not None else problem.model()

        if initial_sequence is None:
            sequence: Tuple[str, ...] = sequence_by_decreasing_energy(graph)
        else:
            validate_sequence(graph, initial_sequence)
            sequence = tuple(initial_sequence)

        previous_cost = math.inf
        best_cost = math.inf
        best_sequence = sequence
        best_assignment = None
        iterations: List[IterationRecord] = []
        converged = False

        for index in range(1, MAX_ITERATIONS + 1):
            record = self._run_iteration(
                graph, sequence, deadline, battery_model, index
            )
            iterations.append(record)

            # Track the best candidate seen anywhere (window result or the
            # re-ordered weighted sequence under the same assignment).
            if record.best_window.cost < best_cost:
                best_cost = record.best_window.cost
                best_sequence = record.sequence
                best_assignment = record.assignment
            if record.improved_by_weighted and record.weighted_cost < best_cost:
                best_cost = record.weighted_cost
                best_sequence = record.weighted_sequence
                best_assignment = record.assignment

            # The paper's stopping rule: no improvement over the previous
            # iteration terminates the search.
            if record.cost >= previous_cost - IMPROVEMENT_TOLERANCE:
                converged = True
                break
            previous_cost = record.cost
            sequence = record.weighted_sequence

        makespan = best_assignment.total_execution_time(graph)
        return SchedulingSolution(
            graph=graph,
            deadline=deadline,
            sequence=best_sequence,
            assignment=best_assignment,
            cost=best_cost,
            makespan=makespan,
            iterations=tuple(iterations),
            converged=converged,
        )

    # ------------------------------------------------------------------
    def _run_iteration(
        self,
        graph: TaskGraph,
        sequence: Tuple[str, ...],
        deadline: float,
        model: BatteryModel,
        index: int,
    ) -> IterationRecord:
        config = self.config
        matrices = SequencedMatrices(graph, sequence)
        window_evaluation = evaluate_windows(
            matrices,
            deadline=deadline,
            model=model,
            weights=config.factor_weights,
            evaluate_at=config.evaluate_at,
        )
        assignment = window_evaluation.best.assignment

        # One full canonical evaluation through the evaluator stack (the
        # window search before it re-costs candidates the same way).
        weighted_sequence = find_weighted_sequence(graph, assignment)
        weighted_cost = evaluate_schedule(
            graph,
            weighted_sequence,
            assignment,
            model,
            deadline=deadline,
            evaluate_at=config.evaluate_at,
        ).cost
        weighted_makespan = assignment.total_execution_time(graph)

        min_cost = window_evaluation.best.cost
        improved_by_weighted = weighted_cost < min_cost - IMPROVEMENT_TOLERANCE
        if improved_by_weighted:
            min_cost = weighted_cost

        return IterationRecord(
            index=index,
            sequence=tuple(sequence),
            windows=window_evaluation,
            weighted_sequence=tuple(weighted_sequence),
            weighted_cost=weighted_cost,
            weighted_makespan=weighted_makespan,
            cost=min_cost,
            improved_by_weighted=improved_by_weighted,
        )
