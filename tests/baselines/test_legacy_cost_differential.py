"""Differential oracle: the searchers against walks costed the legacy way.

Annealing and refinement cost their candidates with the incremental
evaluator.  The oracles below re-implement both searches with every
candidate costed the way the original code did it — ``Schedule`` ->
``LoadProfile`` -> the chemistry's retained scalar
``apparent_charge_reference`` loop.  The evaluator changes speed, not
trajectories: both walks must reach the same incumbent sequence and
assignment, with sigmas equal to 1e-12.

The ideal chemistry is left out.  Its cost ignores order, so the annealing
incumbent would be decided by rounding noise of the legacy profile path,
not by the cost engine.
"""

import math
import random

import pytest

from repro.baselines.annealing import (
    AnnealingConfig,
    _relocation_target,
    simulated_annealing_baseline,
)
from repro.battery import BatterySpec, LoadProfile
from repro.core import SchedulingSolution, battery_aware_schedule
from repro.core.refine import refine_solution
from repro.scheduling import (
    DesignPointAssignment,
    Schedule,
    SchedulingProblem,
    sequence_by_decreasing_energy,
)
from repro.workloads.generators import layered_graph

CHEMISTRY_SPECS = {
    "rakhmatov": {},
    "peukert": {"chemistry": "peukert", "chemistry_params": {"exponent": 1.3}},
    "kibam": {"chemistry": "kibam"},
}

#: (num_layers, layer_width, seed) of the layered problems.
SHAPES = [(4, 3, 3), (6, 4, 11)]

ITERATIONS = 500


def make_problem(num_layers, layer_width, seed, chemistry):
    """A layered problem with a deadline 40% of the way to all-slowest."""
    graph = layered_graph(
        num_layers=num_layers, layer_width=layer_width, seed=seed,
        name=f"layered-{num_layers}x{layer_width}",
    )
    fastest = sum(t.ordered_design_points()[0].execution_time for t in graph)
    slowest = sum(t.ordered_design_points()[-1].execution_time for t in graph)
    return SchedulingProblem(
        graph=graph, deadline=0.6 * fastest + 0.4 * slowest,
        battery=BatterySpec(beta=0.273, **CHEMISTRY_SPECS[chemistry]),
        name=graph.name,
    )


def legacy_battery_cost(graph, sequence, assignment, model):
    """Sigma through Schedule -> LoadProfile -> the scalar reference loop."""
    schedule = Schedule(graph, sequence, assignment)
    return model.apparent_charge_reference(
        schedule.to_profile(), at_time=schedule.makespan
    )


def reference_annealer(problem, config):
    """The annealing walk with every candidate costed the legacy way.

    Same RNG stream, moves and acceptance rule as
    :func:`simulated_annealing_baseline`; returns the incumbent as
    ``(sequence, columns, cost, makespan, feasible)``.
    """
    model = problem.model()
    graph = problem.graph
    deadline = problem.deadline
    rng = random.Random(config.seed)
    sequence = list(sequence_by_decreasing_energy(graph))
    m = graph.uniform_design_point_count()
    durations = {t.name: [dp.execution_time for dp in t.ordered_design_points()] for t in graph}
    currents = {t.name: [dp.current for dp in t.ordered_design_points()] for t in graph}
    columns = {name: 0 for name in graph.task_names()}

    def energy(seq, cols):
        profile = LoadProfile.from_back_to_back(
            durations=[durations[n][cols[n]] for n in seq],
            currents=[currents[n][cols[n]] for n in seq],
        )
        makespan = profile.end_time
        cost = model.apparent_charge_reference(profile, at_time=makespan)
        feasible = makespan <= deadline + 1e-9
        if not feasible:
            cost *= 1.0 + config.deadline_penalty * (makespan - deadline) / deadline
        return cost, makespan, feasible

    start = energy(sequence, columns)
    current_cost = start[0]
    best = (list(sequence), dict(columns), *start)
    initial_t = config.initial_temperature * max(current_cost, 1e-9)
    final_t = initial_t * config.final_temperature_ratio
    cooling = (final_t / initial_t) ** (1.0 / max(config.iterations - 1, 1))
    temperature = initial_t
    positions = {n: i for i, n in enumerate(sequence)}
    for _ in range(config.iterations):
        new_sequence = sequence
        new_columns = columns
        if rng.random() < 0.5:
            name = rng.choice(list(columns))
            column = columns[name]
            new_column = min(max(column + rng.choice((-1, 1)), 0), m - 1)
            if new_column == column:
                continue
            new_columns = dict(columns)
            new_columns[name] = new_column
        else:
            name = rng.choice(sequence)
            target = _relocation_target(graph, sequence, positions, name, rng)
            if target is None:
                continue
            new_sequence = list(sequence)
            new_sequence.pop(positions[name])
            new_sequence.insert(target, name)
        cost, makespan, feasible = energy(new_sequence, new_columns)
        draw = rng.random()
        if cost <= current_cost or draw < math.exp(
            (current_cost - cost) / max(temperature, 1e-12)
        ):
            sequence = list(new_sequence)
            columns = dict(new_columns)
            positions = {t: i for i, t in enumerate(sequence)}
            current_cost = cost
            if (feasible and not best[4]) or (cost < best[2] and feasible >= best[4]):
                best = (list(sequence), dict(columns), cost, makespan, feasible)
        temperature *= cooling
    return best


def reference_refine(problem, solution, max_sweeps=20):
    """The refinement sweep with every candidate costed the legacy way."""
    graph = problem.graph
    deadline = problem.deadline
    model = problem.model()
    sequence = list(solution.sequence)
    columns = dict(solution.assignment)
    best_cost = solution.cost
    edges = set(graph.edges())
    counts = {t.name: t.num_design_points for t in graph}
    durations = {t.name: [dp.execution_time for dp in t.ordered_design_points()] for t in graph}
    makespan = sum(durations[n][columns[n]] for n in sequence)
    for _ in range(max_sweeps):
        improved = False
        for index in range(len(sequence) - 1):
            first, second = sequence[index], sequence[index + 1]
            if (first, second) in edges:
                continue
            candidate = list(sequence)
            candidate[index], candidate[index + 1] = second, first
            cost = legacy_battery_cost(graph, candidate, DesignPointAssignment(columns), model)
            if cost < best_cost - 1e-9:
                sequence = candidate
                best_cost = cost
                improved = True
        for name in sequence:
            for delta in (-1, 1):
                column = columns[name] + delta
                if not (0 <= column < counts[name]):
                    continue
                new_makespan = makespan - durations[name][columns[name]] + durations[name][column]
                if new_makespan > deadline + 1e-9:
                    continue
                candidate_columns = dict(columns)
                candidate_columns[name] = column
                cost = legacy_battery_cost(
                    graph, sequence, DesignPointAssignment(candidate_columns), model
                )
                if cost < best_cost - 1e-9:
                    columns = candidate_columns
                    makespan = new_makespan
                    best_cost = cost
                    improved = True
        if not improved:
            break
    return tuple(sequence), columns, best_cost


def fastest_solution(problem):
    """The all-fastest, decreasing-energy start: every column can still move."""
    graph = problem.graph
    sequence = sequence_by_decreasing_energy(graph)
    assignment = DesignPointAssignment.all_fastest(graph)
    return SchedulingSolution(
        graph=graph, deadline=problem.deadline, sequence=tuple(sequence),
        assignment=assignment,
        cost=legacy_battery_cost(graph, sequence, assignment, problem.model()),
        makespan=assignment.total_execution_time(graph),
        iterations=(), converged=True,
    )


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), 1e-12)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
class TestIncumbentsMatchLegacyCostPath:
    def test_annealing(self, chemistry, shape):
        problem = make_problem(*shape, chemistry)
        config = AnnealingConfig(iterations=ITERATIONS, seed=shape[2])
        sequence, columns, cost, makespan, feasible = reference_annealer(problem, config)
        result = simulated_annealing_baseline(problem, config)
        assert feasible
        assert result.sequence == tuple(sequence)
        assert dict(result.assignment) == columns
        assert rel_diff(cost, result.cost) <= 1e-12

    @pytest.mark.parametrize("start", ["paper", "fastest"])
    def test_refine(self, chemistry, shape, start):
        problem = make_problem(*shape, chemistry)
        solution = (
            battery_aware_schedule(problem) if start == "paper" else fastest_solution(problem)
        )
        sequence, columns, cost = reference_refine(problem, solution)
        refined = refine_solution(problem, solution)
        assert refined.sequence == sequence
        assert dict(refined.assignment) == columns
        assert rel_diff(cost, refined.cost) <= 1e-12
        if start == "fastest":
            assert columns != dict(solution.assignment)  # the sweep did move
