"""Unit tests for the exhaustive-search baseline."""

import itertools
import math

import numpy as np
import pytest

from repro.baselines import (
    enumerate_topological_orders,
    exhaustive_optimum,
    rakhmatov_baseline,
)
from repro.battery import BatterySpec, IdealBatteryModel
from repro.battery.base import BatteryModel
from repro.core import battery_aware_schedule
from repro.errors import ConfigurationError, InfeasibleDeadlineError
from repro.scheduling import SchedulingProblem
from repro.taskgraph import validate_sequence


def _brute_force(problem, model):
    """Oracle: cost every (design-point combo, topological order) pair.

    Returns the cheapest sigma among the pairs that meet the deadline
    (``inf`` when none does); no pruning, so it checks the pruned search.
    """
    graph = problem.graph
    names = graph.task_names()
    durations = {
        t.name: [dp.execution_time for dp in t.ordered_design_points()] for t in graph
    }
    currents = {t.name: [dp.current for dp in t.ordered_design_points()] for t in graph}
    orders = list(enumerate_topological_orders(graph))
    best_cost = math.inf
    for columns in itertools.product(
        range(graph.uniform_design_point_count()), repeat=graph.num_tasks
    ):
        column_by_name = dict(zip(names, columns))
        makespan = sum(durations[name][column_by_name[name]] for name in names)
        if makespan > problem.deadline + 1e-9:
            continue
        for order in orders:
            best_cost = min(best_cost, model.schedule_charge(
                [durations[name][column_by_name[name]] for name in order],
                [currents[name][column_by_name[name]] for name in order],
            ))
    return best_cost


class TestEnumerateTopologicalOrders:
    def test_chain_has_single_order(self, chain3):
        orders = list(enumerate_topological_orders(chain3))
        assert orders == [("T1", "T2", "T3")]

    def test_diamond_has_two_orders(self, diamond4):
        orders = list(enumerate_topological_orders(diamond4))
        assert len(orders) == 2
        assert set(orders) == {("A", "B", "C", "D"), ("A", "C", "B", "D")}

    def test_every_order_is_valid(self, diamond4):
        for order in enumerate_topological_orders(diamond4):
            validate_sequence(diamond4, order)

    def test_limit(self, diamond4):
        assert len(list(enumerate_topological_orders(diamond4, limit=1))) == 1


class TestExhaustiveOptimum:
    @pytest.fixture
    def problem(self, diamond4):
        deadline = 0.6 * (diamond4.min_makespan() + diamond4.max_makespan())
        return SchedulingProblem(graph=diamond4, deadline=deadline, battery=BatterySpec(beta=0.273))

    def test_optimum_is_feasible(self, problem):
        result = exhaustive_optimum(problem)
        assert result.feasible
        validate_sequence(problem.graph, result.sequence)

    def test_optimum_lower_bounds_heuristics(self, problem):
        optimum = exhaustive_optimum(problem)
        heuristic = battery_aware_schedule(problem)
        baseline = rakhmatov_baseline(problem)
        assert optimum.cost <= heuristic.cost + 1e-6
        assert optimum.cost <= baseline.cost + 1e-6

    def test_heuristic_is_near_optimal_on_small_instance(self, problem):
        optimum = exhaustive_optimum(problem)
        heuristic = battery_aware_schedule(problem)
        assert heuristic.cost <= optimum.cost * 1.25

    def test_state_budget_guard(self, g3):
        problem = SchedulingProblem(graph=g3, deadline=230.0, battery=BatterySpec(beta=0.273))
        with pytest.raises(ConfigurationError):
            exhaustive_optimum(problem, max_states=1000)

    def test_infeasible_deadline(self, diamond4):
        problem = SchedulingProblem(
            graph=diamond4, deadline=diamond4.min_makespan() * 0.5,
            battery=BatterySpec(beta=0.273),
        )
        with pytest.raises(InfeasibleDeadlineError):
            exhaustive_optimum(problem)


class TestDefaultFloor:
    def test_sensitive_model_without_floor_override_reaches_optimum(self, diamond4):
        """A time-sensitive model that keeps the default zero
        ``contribution_floor`` runs the pruned search and still lands on the
        brute-force optimum."""

        class FloorlessModel(BatteryModel):
            # TIME_SENSITIVE stays True: the inherited floor is all zeros.
            def apparent_charge(self, profile, at_time=None):
                return IdealBatteryModel().apparent_charge(profile, at_time)

            def interval_contributions(self, durations, currents, time_to_end):
                return np.asarray(currents, float) * np.asarray(durations, float)

        deadline = 0.6 * (diamond4.min_makespan() + diamond4.max_makespan())
        problem = SchedulingProblem(
            graph=diamond4, deadline=deadline, battery=BatterySpec(beta=0.273)
        )
        model = FloorlessModel()
        result = exhaustive_optimum(problem, model=model)
        assert result.cost == pytest.approx(_brute_force(problem, model), rel=1e-12)


class TestCrossChemistryPruning:
    """The per-chemistry contribution floors must never prune the optimum."""

    CHEMISTRIES = (
        ("rakhmatov", ()),
        ("peukert", (("exponent", 1.3),)),
        ("kibam", ()),
        ("ideal", ()),
    )

    @pytest.mark.parametrize("chemistry,params", CHEMISTRIES)
    def test_pruned_search_matches_legacy_enumeration(
        self, diamond4, chemistry, params
    ):
        deadline = 0.6 * (diamond4.min_makespan() + diamond4.max_makespan())
        problem = SchedulingProblem(
            graph=diamond4, deadline=deadline,
            battery=BatterySpec(
                beta=0.273, chemistry=chemistry, chemistry_params=params
            ),
        )
        model = problem.model()
        pruned = exhaustive_optimum(problem)
        oracle = _brute_force(problem, model)
        assert oracle < math.inf
        assert pruned.cost == pytest.approx(oracle, rel=1e-12)
