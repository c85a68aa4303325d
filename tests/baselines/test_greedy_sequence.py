"""Unit tests for Equation-5 sequencing and the full [1]-style baseline."""

import pytest

from repro.baselines import (
    equation5_weights,
    greedy_current_sequence,
    rakhmatov_baseline,
)
from repro.scheduling import DesignPointAssignment, SchedulingProblem
from repro.battery import BatterySpec
from repro.taskgraph import validate_sequence

from ..conftest import run_python


class TestEquation5Weights:
    def test_max_of_own_and_mean(self, diamond4):
        assignment = DesignPointAssignment.all_fastest(diamond4)
        weights = equation5_weights(diamond4, assignment)
        current = {
            name: assignment.design_point(diamond4, name).current
            for name in diamond4.task_names()
        }
        expected_a = max(
            current["A"],
            (current["A"] + current["B"] + current["C"] + current["D"]) / 4,
        )
        assert weights["A"] == pytest.approx(expected_a)
        assert weights["D"] == pytest.approx(current["D"])

    def test_leaf_weight_is_own_current(self, g3):
        assignment = DesignPointAssignment.all_slowest(g3)
        weights = equation5_weights(g3, assignment)
        assert weights["T15"] == pytest.approx(
            assignment.design_point(g3, "T15").current
        )

    def test_weights_are_the_same_in_every_process(self):
        # Set iteration order varies with PYTHONHASHSEED; the weights of
        # the baseline's own assignment must not, down to the last bit.
        assert _weights_under_hash_seed(0) == _weights_under_hash_seed(1)


_WEIGHTS_SCRIPT = """
from repro.baselines import equation5_weights, minimum_energy_assignment
from repro.scenarios import default_registry

registry = default_registry()
for name in ("erdos-24-dense", "fft-8", "series-parallel-d4", "g3x3"):
    problem = registry.get(name).build_problem()
    assignment = minimum_energy_assignment(problem.graph, problem.deadline)
    weights = equation5_weights(problem.graph, assignment)
    print(name, sorted((task, float(value).hex()) for task, value in weights.items()))
"""


def _weights_under_hash_seed(seed):
    return run_python(_WEIGHTS_SCRIPT, PYTHONHASHSEED=str(seed))


class TestGreedySequence:
    def test_valid_sequence(self, g3):
        assignment = DesignPointAssignment.all_slowest(g3)
        sequence = greedy_current_sequence(g3, assignment)
        validate_sequence(g3, sequence)

    def test_higher_current_branch_first(self, diamond4):
        assignment = DesignPointAssignment({"A": 0, "B": 0, "C": 2, "D": 0})
        sequence = greedy_current_sequence(diamond4, assignment)
        assert sequence.index("B") < sequence.index("C")


class TestRakhmatovBaseline:
    @pytest.fixture
    def problem(self, g3):
        return SchedulingProblem(graph=g3, deadline=230.0, battery=BatterySpec(beta=0.273))

    def test_result_fields(self, problem):
        result = rakhmatov_baseline(problem)
        assert result.name == "dp-energy+greedy"
        assert result.feasible
        validate_sequence(problem.graph, result.sequence)
        result.assignment.validate(problem.graph)

    def test_cost_consistent_with_schedule(self, problem):
        result = rakhmatov_baseline(problem)
        model = problem.model()
        profile = result.schedule().to_profile()
        assert result.cost == pytest.approx(model.apparent_charge(profile), rel=1e-9)

    def test_close_to_paper_value(self, problem):
        """The paper reports 22686 mA·min for the baseline on G3 at deadline 230."""
        result = rakhmatov_baseline(problem)
        assert result.cost == pytest.approx(22686.0, rel=0.10)

    def test_cost_decreases_with_looser_deadline(self, g3):
        battery = BatterySpec(beta=0.273)
        costs = [
            rakhmatov_baseline(
                SchedulingProblem(graph=g3, deadline=d, battery=battery)
            ).cost
            for d in (100.0, 150.0, 230.0)
        ]
        assert costs[0] > costs[1] > costs[2]

    def test_summary(self, problem):
        assert "sigma" in rakhmatov_baseline(problem).summary()
