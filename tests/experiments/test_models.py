"""Tests for the battery-model cross-check experiment (E11)."""

import pytest

from repro.battery import BatterySpec
from repro.errors import ConfigurationError
from repro.experiments import battery_model_crosscheck, default_models
from repro.scheduling import SchedulingProblem
from repro.taskgraph import validate_sequence


@pytest.fixture(scope="module")
def crosscheck():
    from repro.taskgraph import build_g2

    problem = SchedulingProblem(
        graph=build_g2(), deadline=75.0, battery=BatterySpec(beta=0.273), name="G2@75"
    )
    return battery_model_crosscheck(problem, num_random_candidates=15, seed=7)


class TestDefaultModels:
    def test_model_set(self):
        models = default_models()
        assert set(models) == {"analytical", "kibam", "peukert", "ideal"}


class TestCrossCheck:
    def test_candidate_pool_composition(self, crosscheck):
        labels = [candidate.label for candidate in crosscheck.candidates]
        assert "iterative (ours)" in labels
        assert "dp-energy+greedy" in labels
        assert sum(1 for label in labels if label.startswith("random-")) == 15

    def test_every_candidate_is_a_valid_schedule(self, crosscheck):
        graph = crosscheck.problem.graph
        for candidate in crosscheck.candidates:
            validate_sequence(graph, candidate.sequence)
            candidate.assignment.validate(graph)
            assert set(candidate.costs) == set(crosscheck.model_names)
            assert all(cost > 0 for cost in candidate.costs.values())

    def test_rank_correlations_in_range(self, crosscheck):
        for first in crosscheck.model_names:
            for second in crosscheck.model_names:
                value = crosscheck.rank_correlation(first, second)
                assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
        assert crosscheck.rank_correlation("analytical", "analytical") == pytest.approx(1.0)

    def test_analytical_and_kibam_agree_strongly(self, crosscheck):
        """Two very different non-ideal battery formulations rank candidates similarly."""
        assert crosscheck.rank_correlation("analytical", "kibam") > 0.7

    def test_heuristic_ranks_high_under_non_ideal_models(self, crosscheck):
        pool = len(crosscheck.candidates)
        assert crosscheck.heuristic_rank("analytical") <= max(2, pool // 4)
        assert crosscheck.heuristic_rank("analytical") <= 3
        assert crosscheck.heuristic_rank("kibam") <= max(3, pool // 3)

    def test_tables_render(self, crosscheck):
        assert "Rank correlation" in crosscheck.correlation_table().to_text()
        assert "iterative (ours)" in crosscheck.candidate_table().to_text()

    def test_invalid_random_count(self):
        from repro.taskgraph import build_g2

        problem = SchedulingProblem(graph=build_g2(), deadline=75.0, battery=BatterySpec(beta=0.273))
        with pytest.raises(ConfigurationError):
            battery_model_crosscheck(problem, num_random_candidates=-1)
