"""Unit tests for the local-search refinement pass."""

import pytest

from repro.battery import BatterySpec
from repro.core import battery_aware_schedule, refine_solution
from repro.errors import ConfigurationError
from repro.experiments import table4_problems
from repro.scheduling import SchedulingProblem, battery_cost
from repro.taskgraph import validate_sequence
from repro.workloads import layered_graph, problem_with_tightness


@pytest.fixture
def g2_problem(g2):
    return SchedulingProblem(graph=g2, deadline=75.0, battery=BatterySpec(beta=0.273))


class TestRefineSolution:
    def test_never_worse_and_still_feasible(self, g2_problem):
        solution = battery_aware_schedule(g2_problem)
        refined = refine_solution(g2_problem, solution)
        assert refined.cost <= solution.cost + 1e-9
        assert refined.makespan <= g2_problem.deadline + 1e-9
        validate_sequence(g2_problem.graph, refined.sequence)
        refined.assignment.validate(g2_problem.graph)

    def test_reported_cost_is_consistent(self, g2_problem):
        solution = battery_aware_schedule(g2_problem)
        refined = refine_solution(g2_problem, solution)
        recomputed = battery_cost(
            g2_problem.graph, refined.sequence, refined.assignment, g2_problem.model()
        )
        assert recomputed == pytest.approx(refined.cost, rel=1e-9)

    def test_history_carried_over(self, g2_problem):
        solution = battery_aware_schedule(g2_problem)
        refined = refine_solution(g2_problem, solution)
        assert refined.iterations == solution.iterations
        assert refined.converged == solution.converged

    def test_improves_a_deliberately_bad_start(self, g2_problem):
        """Refinement fixes an obviously poor (but feasible) starting point."""
        from repro.baselines import all_fastest_baseline
        from repro.core.result import SchedulingSolution

        fastest = all_fastest_baseline(g2_problem)
        start = SchedulingSolution(
            graph=g2_problem.graph,
            deadline=g2_problem.deadline,
            sequence=fastest.sequence,
            assignment=fastest.assignment,
            cost=fastest.cost,
            makespan=fastest.makespan,
            iterations=(),
            converged=True,
        )
        refined = refine_solution(g2_problem, start)
        assert refined.cost < start.cost * 0.8
        assert refined.makespan <= g2_problem.deadline + 1e-9

    def test_max_sweeps_validation(self, g2_problem):
        solution = battery_aware_schedule(g2_problem)
        with pytest.raises(ConfigurationError):
            refine_solution(g2_problem, solution, max_sweeps=0)

    @pytest.mark.parametrize("index", range(6))
    def test_never_worse_on_table4_instances(self, index):
        problem = table4_problems()[index]
        solution = battery_aware_schedule(problem)
        refined = refine_solution(problem, solution)
        assert refined.cost <= solution.cost + 1e-9
        assert refined.makespan <= problem.deadline + 1e-9

    @pytest.mark.parametrize("tightness", [0.3, 0.7])
    def test_on_synthetic_workloads(self, tightness):
        graph = layered_graph(num_layers=3, layer_width=3, seed=23, name="layered")
        problem = problem_with_tightness(graph, tightness, battery=BatterySpec(beta=0.273))
        solution = battery_aware_schedule(problem)
        refined = refine_solution(problem, solution)
        assert refined.cost <= solution.cost + 1e-9
        assert refined.makespan <= problem.deadline + 1e-9
