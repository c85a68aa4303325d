"""Simulated-annealing baseline over joint (sequence, assignment) space.

The paper argues that metaheuristics such as simulated annealing are too
heavy to run *on* the battery-powered platform itself; the library still
implements one, both as a quality yardstick for the iterative heuristic on
synthetic workloads and to let users measure how close the heuristic gets to
a search that spends orders of magnitude more evaluations.

The state is a (precedence-respecting sequence, design-point assignment)
pair.  Neighbourhood moves either

* change one task's design point by one column, or
* move one task to a different position within the window of positions
  allowed by its predecessors and successors (which preserves validity by
  construction).

Deadline violations are admitted during the walk but penalised
proportionally to the overshoot, so the search can traverse infeasible
regions yet always reports a feasible incumbent when one exists.

Both neighbourhood moves are the
:class:`~repro.scheduling.IncrementalCostEvaluator`'s moves, so the walk is
driven through one evaluator *for every chemistry*: each candidate is costed
in full by the battery model's schedule path, the same call
:func:`~repro.scheduling.evaluate_schedule` makes, and a rejected candidate
leaves the state untouched.  Without fused compound tasks (which the
evaluator prices at their averaged design point), the walk's trajectory is
exactly the one a search costing every candidate with ``evaluate_schedule``
and the same RNG stream would take.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..battery import BatteryModel
from ..errors import ConfigurationError
from ..scheduling import (
    DesignPointAssignment,
    IncrementalCostEvaluator,
    SchedulingProblem,
    relocation_window,
    sequence_by_decreasing_energy,
)
from ..taskgraph import TaskGraph
from .common import BaselineResult

__all__ = ["AnnealingConfig", "simulated_annealing_baseline"]


@dataclass(frozen=True)
class AnnealingConfig:
    """Parameters of the annealing schedule."""

    iterations: int = 20000
    initial_temperature: float = 0.2
    """Initial temperature as a fraction of the starting cost."""
    final_temperature_ratio: float = 1e-3
    """Geometric cooling target: final T = initial T * ratio."""
    deadline_penalty: float = 10.0
    """Cost multiplier applied per unit of deadline overshoot (relative)."""
    seed: int = 2005

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if not (0 < self.final_temperature_ratio <= 1):
            raise ConfigurationError("final_temperature_ratio must be in (0, 1]")
        if self.initial_temperature <= 0:
            raise ConfigurationError("initial_temperature must be > 0")


def simulated_annealing_baseline(
    problem: SchedulingProblem,
    config: Optional[AnnealingConfig] = None,
    model: Optional[BatteryModel] = None,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> BaselineResult:
    """Anneal over sequences and assignments; returns the best feasible state found.

    Randomness is fully explicit so results are reproducible end-to-end:
    ``rng`` (an externally owned :class:`random.Random`) takes precedence,
    then ``seed``, then ``config.seed``.  Two calls with the same problem
    and the same seed walk the identical trajectory — independent of the
    cost engine, because the acceptance draw is consumed once per evaluated
    move rather than short-circuited behind the improving-move test (the
    pre-evaluator behaviour, under which same-seed trajectories depended on
    ULP-level rounding of the cost path).
    """
    config = config or AnnealingConfig()
    battery_model = model if model is not None else problem.model()
    graph = problem.graph
    deadline = problem.deadline
    if rng is None:
        rng = random.Random(config.seed if seed is None else seed)

    sequence = list(sequence_by_decreasing_energy(graph))
    m = graph.uniform_design_point_count()
    # Start from the fastest assignment so the walk begins feasible whenever
    # the instance is feasible at all.
    columns = {name: 0 for name in graph.task_names()}

    evaluator = IncrementalCostEvaluator(
        graph, sequence, DesignPointAssignment(columns), battery_model
    )

    def penalised(sigma: float, makespan: float) -> Tuple[float, bool]:
        feasible = makespan <= deadline + 1e-9
        if not feasible:
            overshoot = (makespan - deadline) / deadline
            sigma *= 1.0 + config.deadline_penalty * overshoot
        return sigma, feasible

    current_cost, current_feasible = penalised(evaluator.cost, evaluator.makespan)
    current_makespan = evaluator.makespan
    best = (
        list(sequence),
        dict(columns),
        current_cost,
        current_makespan,
        current_feasible,
    )

    initial_t = config.initial_temperature * max(current_cost, 1e-9)
    final_t = initial_t * config.final_temperature_ratio
    cooling = (final_t / initial_t) ** (1.0 / max(config.iterations - 1, 1))
    temperature = initial_t

    # Hot-loop views: the evaluator's live sequence/position state (re-read
    # after relocations commit) and the fixed task-order pool the design-point
    # draw samples from (``columns`` is mutated in place, never rebuilt, so
    # its iteration order — and with it the RNG stream — never changes).
    sequence = evaluator.state.sequence
    positions = evaluator.positions
    name_pool = list(columns)

    for _ in range(config.iterations):
        moved_column = None
        if rng.random() < 0.5:
            # Design-point move: shift one task by one column.
            name = rng.choice(name_pool)
            column = columns[name]
            delta = rng.choice((-1, 1))
            new_column = min(max(column + delta, 0), m - 1)
            if new_column == column:
                continue
            proposal = evaluator.propose_design_point(name, new_column)
            moved_column = (name, new_column)
        else:
            # Sequence move: relocate one task within its legal position range.
            name = rng.choice(sequence)
            target = _relocation_target(graph, sequence, positions, name, rng)
            if target is None:
                continue
            proposal = evaluator.propose_relocate(name, target)

        candidate_cost, candidate_feasible = penalised(
            proposal.cost, proposal.makespan
        )
        # The acceptance draw is consumed unconditionally (not short-circuited
        # behind the improving-move test) so the RNG stream — and with it the
        # whole trajectory — is invariant to ULP-level cost-engine noise: a
        # tie that one evaluation order ranks "equal" and another "one ULP
        # worse" accepts either way, with the same stream afterwards.
        draw = rng.random()
        accept = candidate_cost <= current_cost or draw < math.exp(
            (current_cost - candidate_cost) / max(temperature, 1e-12)
        )
        if accept:
            evaluator.apply(proposal)
            # Update the column mirror in place (incumbent snapshots below
            # copy, so this is safe) and re-read the evaluator's live
            # sequence/position views, which a relocation replaces.
            if moved_column is not None:
                columns[moved_column[0]] = moved_column[1]
            else:
                sequence = evaluator.state.sequence
                positions = evaluator.positions
            current_cost = candidate_cost
            current_makespan = proposal.makespan
            current_feasible = candidate_feasible
            better_feasibility = current_feasible and not best[4]
            better_cost = current_cost < best[2] and current_feasible >= best[4]
            if better_feasibility or better_cost:
                best = (
                    list(sequence),
                    dict(columns),
                    current_cost,
                    current_makespan,
                    current_feasible,
                )
        temperature *= cooling

    best_sequence, best_columns, best_cost, best_makespan, _ = best
    assignment = DesignPointAssignment(best_columns)
    return BaselineResult(
        name="simulated-annealing",
        graph=graph,
        deadline=deadline,
        sequence=tuple(best_sequence),
        assignment=assignment,
        cost=best_cost,
        makespan=best_makespan,
    )


def _relocation_target(
    graph: TaskGraph,
    sequence: List[str],
    positions: dict,
    name: str,
    rng: random.Random,
) -> Optional[int]:
    """A random legal new position for ``name``; None when it cannot move.

    Draws from the same distribution (and consumes the same RNG values) as
    the pre-evaluator implementation that rebuilt the sequence list: a task
    whose window is its own position alone still consumes one draw.
    """
    lower, upper = relocation_window(graph, positions, name, len(sequence))
    target = rng.randint(lower, upper)
    if target == positions[name]:
        return None
    return target
