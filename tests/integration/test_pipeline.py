"""Integration tests: the full pipeline across algorithms and workloads."""

import pytest

from repro.analysis import schedule_metrics
from repro.baselines import (
    AnnealingConfig,
    all_fastest_baseline,
    best_uniform_baseline,
    chowdhury_baseline,
    exhaustive_optimum,
    rakhmatov_baseline,
    simulated_annealing_baseline,
)
from repro.battery import BatterySpec, IdealBatteryModel
from repro.core import SchedulerConfig, battery_aware_schedule
from repro.engine import run_experiments
from repro.scheduling import Schedule, SchedulingProblem
from repro.taskgraph import build_g2, build_g3, validate_sequence
from repro.workloads import problem_with_tightness, suite_problems


class TestPaperProblemsEndToEnd:
    @pytest.mark.parametrize(
        "graph_builder,deadline",
        [
            (build_g2, 55.0),
            (build_g2, 75.0),
            (build_g2, 95.0),
            (build_g3, 100.0),
            (build_g3, 150.0),
            (build_g3, 230.0),
        ],
    )
    def test_all_algorithms_produce_valid_feasible_schedules(self, graph_builder, deadline):
        graph = graph_builder()
        problem = SchedulingProblem(graph=graph, deadline=deadline, battery=BatterySpec(beta=0.273))
        results = {
            "ours": battery_aware_schedule(problem),
            "dp": rakhmatov_baseline(problem),
            "chowdhury": chowdhury_baseline(problem),
            "uniform": best_uniform_baseline(problem),
            "fastest": all_fastest_baseline(problem),
        }
        for name, result in results.items():
            validate_sequence(graph, result.sequence)
            result.assignment.validate(graph)
            assert result.makespan <= deadline + 1e-6, name
            assert result.cost > 0, name
        # Our algorithm is the cheapest of the bunch on every paper instance.
        our_cost = results["ours"].cost
        for name in ("dp", "chowdhury", "uniform", "fastest"):
            assert our_cost <= results[name].cost * 1.001, name

    def test_schedule_metrics_of_final_solution(self):
        problem = SchedulingProblem(graph=build_g3(), deadline=230.0, battery=BatterySpec(beta=0.273))
        solution = battery_aware_schedule(problem)
        metrics = schedule_metrics(solution.schedule(), problem.model(), deadline=230.0)
        assert metrics.meets_deadline
        assert metrics.apparent_charge == pytest.approx(solution.cost, rel=1e-9)
        assert metrics.rate_capacity_overhead > 0


class TestSuiteWorkloads:
    @pytest.mark.parametrize("tightness", [0.25, 0.6])
    def test_suite_instances_solved(self, tightness):
        problems = suite_problems(tightness_levels=(tightness,), names=("chain-10", "layered-4x3", "diamond-3"))
        for problem in problems:
            solution = battery_aware_schedule(problem)
            baseline = rakhmatov_baseline(problem)
            assert solution.feasible
            assert baseline.feasible
            # The heuristic stays within a few percent of (usually beats) the
            # energy-optimal baseline on synthetic workloads.
            assert solution.cost <= baseline.cost * 1.10

    def test_engine_over_suite(self):
        problems = suite_problems(tightness_levels=(0.5,), names=("fork-join-2x4", "tree-in-3x2"))
        run = run_experiments(problems, ["iterative", "dp-energy+greedy"])
        assert len(run.results) == 4
        for result in run.results:
            assert result.ok
            assert result.feasible


class TestCrossModelConsistency:
    def test_ideal_battery_reduces_to_energy_minimisation(self, g2):
        """With an ideal battery the plain charge is all that matters, so the
        energy-optimal DP baseline is provably optimal and the heuristic can
        only match or exceed it (it stays within a modest factor — the
        heuristic's extra factors are tuned for non-ideal batteries)."""
        problem = SchedulingProblem(graph=g2, deadline=75.0, battery=BatterySpec(beta=0.273))
        ideal = IdealBatteryModel()
        ours = battery_aware_schedule(problem, model=ideal)
        baseline = rakhmatov_baseline(problem, model=ideal)
        assert ours.cost >= baseline.cost - 1e-6
        assert ours.cost <= baseline.cost * 1.30

    def test_small_instance_against_exhaustive_and_annealing(self, diamond4):
        problem = problem_with_tightness(diamond4, 0.5, battery=BatterySpec(beta=0.273))
        optimum = exhaustive_optimum(problem)
        ours = battery_aware_schedule(problem)
        annealed = simulated_annealing_baseline(
            problem, config=AnnealingConfig(iterations=4000, seed=11)
        )
        assert optimum.cost <= ours.cost + 1e-6
        assert optimum.cost <= annealed.cost + 1e-6
        assert ours.cost <= optimum.cost * 1.25
        assert annealed.cost <= optimum.cost * 1.25


class TestSchedulePersistence:
    def test_solution_can_be_rebuilt_from_its_parts(self, g3):
        problem = SchedulingProblem(graph=g3, deadline=230.0, battery=BatterySpec(beta=0.273))
        solution = battery_aware_schedule(problem, config=SchedulerConfig())
        rebuilt = Schedule(g3, solution.sequence, solution.assignment)
        assert rebuilt.makespan == pytest.approx(solution.makespan)
        profile = rebuilt.to_profile()
        assert problem.model().apparent_charge(profile) == pytest.approx(solution.cost, rel=1e-9)
