"""Unit tests for repro.core.weighted (Equation 4 re-sequencing)."""

import pytest

from repro.core import equation4_weights, find_weighted_sequence
from repro.core.weighted import _rooted_subgraphs
from repro.scheduling import DesignPointAssignment
from repro.taskgraph import validate_sequence

from ..conftest import run_python


class TestEquation4Weights:
    def test_weights_sum_chosen_currents_over_subgraph(self, diamond4):
        assignment = DesignPointAssignment.all_fastest(diamond4)
        weights = equation4_weights(diamond4, assignment)
        current = {
            name: assignment.design_point(diamond4, name).current
            for name in diamond4.task_names()
        }
        assert weights["D"] == pytest.approx(current["D"])
        assert weights["B"] == pytest.approx(current["B"] + current["D"])
        assert weights["A"] == pytest.approx(sum(current.values()))

    def test_weights_depend_on_assignment(self, diamond4):
        fast = equation4_weights(diamond4, DesignPointAssignment.all_fastest(diamond4))
        slow = equation4_weights(diamond4, DesignPointAssignment.all_slowest(diamond4))
        assert fast["A"] > slow["A"]

    def test_root_weight_largest_in_g3(self, g3):
        weights = equation4_weights(g3, DesignPointAssignment.all_slowest(g3))
        assert weights["T1"] == max(weights.values())


    def test_one_walk_gives_every_rooted_subgraph_of_the_catalogue(self):
        from repro.scenarios import default_registry

        for spec in default_registry():
            graph = spec.build_problem().graph
            rooted = _rooted_subgraphs(graph)
            assert list(rooted) == list(graph.task_names())
            for name in graph.task_names():
                assert rooted[name] == graph.subgraph_rooted_at(name)

    def test_weights_are_the_same_in_every_process(self):
        # Set iteration order varies with PYTHONHASHSEED; the weights of
        # iterative's final assignment must not.
        assert _weights_under_hash_seed(0) == _weights_under_hash_seed(1)


_WEIGHTS_SCRIPT = """
from repro import battery_aware_schedule
from repro.core import equation4_weights
from repro.scenarios import default_registry

registry = default_registry()
for name in ("chain-10", "fork-join-2x4", "layered-4x3"):
    problem = registry.get(name).build_problem()
    weights = equation4_weights(problem.graph, battery_aware_schedule(problem).assignment)
    print(name, sorted((task, value.hex()) for task, value in weights.items()))
"""


def _weights_under_hash_seed(seed):
    return run_python(_WEIGHTS_SCRIPT, PYTHONHASHSEED=str(seed))


class TestFindWeightedSequence:
    def test_produces_valid_sequence(self, g3):
        assignment = DesignPointAssignment.all_slowest(g3)
        sequence = find_weighted_sequence(g3, assignment)
        validate_sequence(g3, sequence)

    def test_heavier_subtree_scheduled_first(self, diamond4):
        # Give B a much larger chosen current than C: B should come first.
        assignment = DesignPointAssignment({"A": 0, "B": 0, "C": 2, "D": 0})
        sequence = find_weighted_sequence(diamond4, assignment)
        assert sequence.index("B") < sequence.index("C")

    def test_deterministic(self, g3):
        assignment = DesignPointAssignment.all_slowest(g3)
        assert find_weighted_sequence(g3, assignment) == find_weighted_sequence(g3, assignment)
