"""Unit tests for the top-level iterative scheduler (repro.core.iterative)."""

import pytest

from repro.baselines import all_fastest_baseline, rakhmatov_baseline
from repro.battery import BatterySpec, IdealBatteryModel
from repro.core import (
    BatteryAwareScheduler,
    FactorWeights,
    SchedulerConfig,
    battery_aware_schedule,
)
from repro.core import iterative as iterative_module
from repro.errors import InfeasibleDeadlineError
from repro.scheduling import Schedule, SchedulingProblem, battery_cost
from repro.taskgraph import validate_sequence


class TestOnG3:
    @pytest.fixture(scope="class")
    def solution(self, request):
        from repro.taskgraph import build_g3

        problem = SchedulingProblem(
            graph=build_g3(), deadline=230.0, battery=BatterySpec(beta=0.273)
        )
        return battery_aware_schedule(problem)

    def test_feasible(self, solution):
        assert solution.feasible
        assert solution.makespan <= 230.0 + 1e-9

    def test_sequence_valid(self, solution):
        validate_sequence(solution.graph, solution.sequence)

    def test_assignment_valid(self, solution):
        solution.assignment.validate(solution.graph)

    def test_converged_quickly(self, solution):
        assert solution.converged
        assert 2 <= solution.num_iterations <= 10

    def test_cost_matches_reported_schedule(self, solution):
        model = BatterySpec(beta=0.273).model()
        recomputed = battery_cost(
            solution.graph, solution.sequence, solution.assignment, model
        )
        assert recomputed == pytest.approx(solution.cost, rel=1e-9)

    def test_cost_is_minimum_over_history(self, solution):
        candidates = []
        for record in solution.iterations:
            candidates.append(record.best_window.cost)
            if record.improved_by_weighted:
                candidates.append(record.weighted_cost)
        assert solution.cost == pytest.approx(min(candidates))

    def test_first_iteration_not_better_than_final(self, solution):
        assert solution.iterations[0].cost >= solution.cost - 1e-9

    def test_close_to_paper_value(self, solution):
        """The paper reports sigma = 13737 mA·min for G3 at deadline 230."""
        assert solution.cost == pytest.approx(13737.0, rel=0.10)

    def test_beats_dp_energy_baseline(self, solution):
        problem = SchedulingProblem(
            graph=solution.graph, deadline=230.0, battery=BatterySpec(beta=0.273)
        )
        baseline = rakhmatov_baseline(problem)
        assert solution.cost < baseline.cost

    def test_beats_all_fastest(self, solution):
        problem = SchedulingProblem(
            graph=solution.graph, deadline=230.0, battery=BatterySpec(beta=0.273)
        )
        assert solution.cost < all_fastest_baseline(problem).cost

    def test_schedule_materialisation(self, solution):
        schedule = solution.schedule()
        assert isinstance(schedule, Schedule)
        assert schedule.makespan == pytest.approx(solution.makespan)
        assert len(solution.design_point_labels()) == 15

    def test_history_records_windows(self, solution):
        first = solution.iterations[0]
        assert first.index == 1
        assert len(first.windows.records) == 4
        assert first.best_window in first.windows.records

    def test_to_dict_round_trippable(self, solution):
        data = solution.to_dict()
        assert data["deadline"] == 230.0
        assert len(data["iterations"]) == solution.num_iterations
        assert data["cost"] == pytest.approx(solution.cost)

    def test_summary_mentions_outcome(self, solution):
        text = solution.summary()
        assert "meets" in text
        assert "iterations" in text


class TestConfigurationVariants:
    def test_infeasible_deadline_raises(self, g3):
        problem = SchedulingProblem(graph=g3, deadline=40.0)
        with pytest.raises(InfeasibleDeadlineError):
            battery_aware_schedule(problem)

    def test_initial_sequence_override(self, g3_problem, g3):
        topo = g3.topological_order()
        solution = battery_aware_schedule(g3_problem, initial_sequence=topo)
        assert solution.feasible
        assert solution.iterations[0].sequence == topo

    def test_invalid_initial_sequence(self, g3_problem, g3):
        names = list(g3.task_names())
        names[0], names[1] = names[1], names[0]
        with pytest.raises(Exception):
            battery_aware_schedule(g3_problem, initial_sequence=names)

    def test_model_override(self, g3_problem):
        solution = battery_aware_schedule(g3_problem, model=IdealBatteryModel())
        assert solution.feasible
        # Under an ideal battery the cost equals the plain charge of the schedule.
        schedule = solution.schedule()
        assert solution.cost == pytest.approx(schedule.to_profile().total_charge)

    def test_deadline_evaluation_mode(self, g3_problem):
        config = SchedulerConfig(evaluate_at="deadline")
        solution = battery_aware_schedule(g3_problem, config=config)
        assert solution.feasible

    def test_max_iterations_cap(self, g3_problem, monkeypatch):
        monkeypatch.setattr(iterative_module, "MAX_ITERATIONS", 1)
        solution = battery_aware_schedule(g3_problem)
        assert solution.num_iterations == 1
        assert not solution.converged

    def test_factor_weights_change_result_structure(self, g3_problem):
        config = SchedulerConfig(factor_weights=FactorWeights.without("current_increase_fraction"))
        solution = battery_aware_schedule(g3_problem, config=config)
        assert solution.feasible

    def test_scheduler_object_reusable(self, g3_problem, g2):
        scheduler = BatteryAwareScheduler(SchedulerConfig())
        first = scheduler.solve(g3_problem)
        second = scheduler.solve(
            SchedulingProblem(graph=g2, deadline=75.0, battery=BatterySpec(beta=0.273))
        )
        assert first.feasible and second.feasible
        assert first.graph.name == "G3" and second.graph.name == "G2"


class TestOnTightDeadlines:
    @pytest.mark.parametrize("deadline", [100.0, 150.0])
    def test_g3_tight_deadlines_feasible(self, g3, deadline):
        problem = SchedulingProblem(graph=g3, deadline=deadline, battery=BatterySpec(beta=0.273))
        solution = battery_aware_schedule(problem)
        assert solution.feasible
        assert solution.makespan <= deadline + 1e-9

    def test_larger_fork_join_feasible_at_mid_tightness(self):
        from repro.workloads import fork_join_graph, problem_with_tightness

        graph = fork_join_graph(num_stages=3, branches_per_stage=8, seed=17)
        problem = problem_with_tightness(graph, 0.5, battery=BatterySpec(beta=0.273))
        solution = battery_aware_schedule(problem)
        assert solution.feasible

    @pytest.mark.parametrize("deadline", [55.0, 75.0, 95.0])
    def test_g2_deadlines_feasible_and_competitive(self, g2, deadline):
        problem = SchedulingProblem(graph=g2, deadline=deadline, battery=BatterySpec(beta=0.273))
        solution = battery_aware_schedule(problem)
        baseline = rakhmatov_baseline(problem)
        assert solution.feasible
        assert solution.cost <= baseline.cost * 1.001
