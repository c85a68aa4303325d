"""Exhaustive search over sequences and assignments (small instances only).

Enumerates every topological order of the task graph and every design-point
combination, evaluating the battery cost of each feasible pair.  The state
space is ``(#topological orders) * m^n``, so a guard refuses instances whose
enumeration would exceed a configurable budget; within that budget the
result is the true optimum, which the test-suite uses to check that the
iterative heuristic and the annealer land close to (and never below) it.

Orders are enumerated by a depth-first search that costs tasks as they are
placed: an interval's sigma contribution depends only on its design point
and its *time-to-end* (makespan minus completion time), both known the
moment it is placed, so a prefix's sigma is exact long before the order is
complete.  Each chemistry supplies a per-interval **contribution floor**
(:meth:`~repro.battery.BatteryModel.contribution_floor`) — the nominal
charge ``I * Delta`` for the Rakhmatov–Vrudhula and kinetic models (their
rate-capacity excess only adds), the *exact* contribution for the
time-insensitive Peukert and ideal models, and zero for any other
time-sensitive model — so the quantity

    prefix sigma + sum of remaining contribution floors

is a valid lower bound on every completion of the prefix and prunes the
subtree whenever it cannot beat the incumbent.  Shared prefixes across
orders are also costed once instead of once per order.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..battery import BatteryModel
from ..errors import ConfigurationError, InfeasibleDeadlineError
from ..scheduling import DesignPointAssignment, SchedulingProblem, evaluate_schedule
from ..taskgraph import TaskGraph
from .common import BaselineResult

__all__ = ["enumerate_topological_orders", "exhaustive_optimum"]


def enumerate_topological_orders(graph: TaskGraph, limit: Optional[int] = None) -> Iterator[Tuple[str, ...]]:
    """Yield every topological order of ``graph`` (optionally capped at ``limit``)."""
    names = graph.task_names()
    indegree = {name: len(graph.predecessors(name)) for name in names}
    produced = 0

    def backtrack(prefix: List[str], indegree: dict) -> Iterator[Tuple[str, ...]]:
        nonlocal produced
        if limit is not None and produced >= limit:
            return
        if len(prefix) == len(names):
            produced += 1
            yield tuple(prefix)
            return
        for name in names:
            if name in prefix or indegree[name] != 0:
                continue
            next_indegree = dict(indegree)
            next_indegree[name] = -1  # mark consumed
            for child in graph.successors(name):
                next_indegree[child] -= 1
            prefix.append(name)
            yield from backtrack(prefix, next_indegree)
            prefix.pop()
            if limit is not None and produced >= limit:
                return

    yield from backtrack([], indegree)


def exhaustive_optimum(
    problem: SchedulingProblem,
    model: Optional[BatteryModel] = None,
    max_states: int = 2_000_000,
) -> BaselineResult:
    """Brute-force the optimal (sequence, assignment) pair.

    Raises
    ------
    ConfigurationError
        When the instance would require more than ``max_states`` cost
        evaluations.
    InfeasibleDeadlineError
        When no combination meets the deadline.
    """
    graph = problem.graph
    deadline = problem.deadline
    battery_model = model if model is not None else problem.model()
    m = graph.uniform_design_point_count()
    n = graph.num_tasks

    # Count orders only up to the first count that blows the budget, so the
    # guard itself stays cheap on graphs with astronomically many orders.
    order_budget = max_states // (m**n) + 1
    order_count = sum(1 for _ in enumerate_topological_orders(graph, limit=order_budget))
    state_count = order_count * (m**n)
    if state_count > max_states:
        raise ConfigurationError(
            f"exhaustive search would evaluate {state_count} states or more "
            f"(> max_states={max_states}); use a smaller instance"
        )

    durations = {
        task.name: [dp.execution_time for dp in task.ordered_design_points()]
        for task in graph
    }
    currents = {
        task.name: [dp.current for dp in task.ordered_design_points()]
        for task in graph
    }
    names = graph.task_names()

    best = _pruned_search(
        graph, names, durations, currents, battery_model, deadline, m, n
    )
    if best is None:
        raise InfeasibleDeadlineError(
            f"no design-point combination meets the deadline {deadline:g}"
        )

    order, columns, makespan = best
    assignment = DesignPointAssignment(dict(zip(names, columns)))
    # Report the canonical cost of the winner (the DFS accumulates the same
    # sigma up to rounding; re-evaluating keeps the returned number
    # bit-identical to battery_cost of the same solution).
    cost = evaluate_schedule(graph, order, assignment, battery_model).cost
    return BaselineResult(
        name="exhaustive",
        graph=graph,
        deadline=deadline,
        sequence=order,
        assignment=assignment,
        cost=cost,
        makespan=makespan,
    )


def _pruned_search(
    graph: TaskGraph,
    names: Sequence[str],
    durations: Dict[str, List[float]],
    currents: Dict[str, List[float]],
    model: BatteryModel,
    deadline: float,
    m: int,
    n: int,
) -> Optional[Tuple[Tuple[str, ...], Tuple[int, ...], float]]:
    """DFS over (column combo, topological order) with prefix-sigma pruning."""
    successors = {name: graph.successors(name) for name in names}
    base_indegree = {name: len(graph.predecessors(name)) for name in names}

    # Per-(task, column) contribution floors, computed once: the chemistry's
    # guaranteed minimum contribution of the task at that design point,
    # whatever its eventual position.
    floors = {
        name: model.contribution_floor(
            np.asarray(durations[name]), np.asarray(currents[name])
        )
        for name in names
    }

    best_cost = math.inf
    best: Optional[Tuple[Tuple[str, ...], Tuple[int, ...], float]] = None

    for columns in itertools.product(range(m), repeat=n):
        column_by_name = dict(zip(names, columns))
        duration_of = {name: durations[name][column_by_name[name]] for name in names}
        current_of = {name: currents[name][column_by_name[name]] for name in names}
        makespan = sum(duration_of[name] for name in names)
        if makespan > deadline + 1e-9:
            continue
        floor_of = {name: float(floors[name][column_by_name[name]]) for name in names}
        total_floor = math.fsum(floor_of[name] for name in names)

        prefix: List[str] = []
        indegree = dict(base_indegree)

        def place(elapsed: float, sigma: float, remaining_floor: float) -> None:
            nonlocal best_cost, best
            # Placed tasks carry indegree -1, so the test also excludes them.
            ready = [name for name in names if indegree[name] == 0]
            if not ready:
                return
            # One vectorized call costs every ready candidate of this node.
            ready_durations = np.array([duration_of[name] for name in ready])
            ready_currents = np.array([current_of[name] for name in ready])
            time_to_end = np.maximum(makespan - elapsed - ready_durations, 0.0)
            contributions = model.interval_contributions(
                ready_durations, ready_currents, time_to_end
            )
            margin = 1e-9 * (1.0 + abs(best_cost)) if best_cost < math.inf else 0.0
            for pick, name in enumerate(ready):
                new_sigma = sigma + float(contributions[pick])
                if len(prefix) == n - 1:
                    if new_sigma < best_cost:
                        best_cost = new_sigma
                        best = (tuple(prefix) + (name,), columns, makespan)
                        margin = 1e-9 * (1.0 + abs(best_cost))
                    continue
                new_remaining = remaining_floor - floor_of[name]
                # Every unplaced task contributes at least its chemistry's
                # contribution floor wherever it lands, so this bound is
                # valid (and exact for time-insensitive chemistries) up to
                # float noise; the margin keeps pruning conservative.
                if new_sigma + new_remaining - margin >= best_cost:
                    continue
                prefix.append(name)
                indegree[name] = -1
                for child in successors[name]:
                    indegree[child] -= 1
                place(elapsed + duration_of[name], new_sigma, new_remaining)
                prefix.pop()
                indegree[name] = 0
                for child in successors[name]:
                    indegree[child] += 1

        place(0.0, 0.0, total_floor)

    return best

