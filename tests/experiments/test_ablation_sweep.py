"""Tests for the extension experiments: factor ablation and parameter sweeps."""

import math

import pytest

from repro.battery import BatterySpec
from repro.experiments import (
    FACTOR_NAMES,
    beta_sweep,
    deadline_sweep,
    run_ablation,
)
from repro.scheduling import SchedulingProblem


class TestAblation:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.taskgraph import build_g2

        problems = [
            SchedulingProblem(
                graph=build_g2(), deadline=deadline, battery=BatterySpec(beta=0.273),
                name=f"G2@{deadline:g}",
            )
            for deadline in (55.0, 95.0)
        ]
        return run_ablation(problems=problems)

    def test_row_per_problem(self, result):
        assert len(result.rows) == 2

    def test_every_factor_ablated(self, result):
        for row in result.rows:
            assert set(row.ablated_costs) == set(FACTOR_NAMES)
            assert all(math.isfinite(cost) for cost in row.ablated_costs.values())

    def test_costs_positive(self, result):
        for row in result.rows:
            assert row.full_cost > 0
            assert all(cost > 0 for cost in row.ablated_costs.values())

    def test_degradation_and_mean(self, result):
        means = result.mean_degradation()
        assert set(means) == set(FACTOR_NAMES)
        for row in result.rows:
            for factor in FACTOR_NAMES:
                assert math.isfinite(row.degradation_percent(factor))

    def test_render(self, result):
        text = result.to_table().to_text()
        assert "full B" in text
        assert "-design_point_fraction" in text

    def test_default_run_covers_table4_instances(self):
        # Dropping a factor may help or hurt one instance, but it never
        # breaks feasibility handling: the cost stays within a sane band.
        result = run_ablation()
        assert len(result.rows) == 6
        for row in result.rows:
            assert set(row.ablated_costs) == set(FACTOR_NAMES)
            assert all(cost <= 3.0 * row.full_cost for cost in row.ablated_costs.values())


class TestDeadlineSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.taskgraph import build_g2

        return deadline_sweep(build_g2(), num_points=4)

    def test_point_count_and_algorithms(self, sweep):
        assert len(sweep.points) == 4
        assert "iterative (ours)" in sweep.algorithms
        assert "dp-energy+greedy" in sweep.algorithms

    def test_our_costs_competitive_with_dp_baseline(self, sweep):
        """Ours never loses by more than a few percent anywhere on the curve,
        and does not lose at all once the deadline has real slack (the tightest
        sweep points sit below the paper's tightest evaluated deadline)."""
        ours = sweep.series("iterative (ours)")
        baseline = sweep.series("dp-energy+greedy")
        for our_cost, base_cost in zip(ours, baseline):
            assert our_cost <= base_cost * 1.05
        assert ours[-1] <= baseline[-1] * 1.001

    def test_our_costs_decrease_with_deadline(self, sweep):
        ours = sweep.series("iterative (ours)")
        assert ours[0] >= ours[-1]

    def test_coordinates_increase(self, sweep):
        coords = [point.coordinate for point in sweep.points]
        assert coords == sorted(coords)
        assert coords[0] > 0

    def test_render(self, sweep):
        assert "deadline sweep" in sweep.to_table().to_text()

    def test_loosest_point_beats_all_fastest(self, sweep):
        assert sweep.series("iterative (ours)")[-1] < sweep.series("all-fastest")[-1]

    def test_invalid_point_count(self, g2):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            deadline_sweep(g2, num_points=1)


class TestDeadlineSweepG3:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.taskgraph import build_g3

        return deadline_sweep(build_g3(), num_points=5)

    def test_ours_wins_clearly_with_loose_deadlines(self, sweep):
        """Before the fully relaxed point, where every algorithm converges to
        the all-slowest assignment, the battery-aware heuristic wins clearly."""
        ours = sweep.series("iterative (ours)")
        baseline = sweep.series("dp-energy+greedy")
        assert ours[-2] < baseline[-2]
        assert ours[-1] <= baseline[-1] * 1.001

    def test_our_costs_decrease_with_deadline(self, sweep):
        ours = sweep.series("iterative (ours)")
        assert ours[0] >= ours[-1]


class TestBetaSweep:
    def test_gap_shrinks_as_battery_becomes_ideal(self, g2):
        sweep = beta_sweep(g2, deadline=75.0, betas=(0.15, 5.0))
        gaps = []
        for point in sweep.points:
            ours = point.costs["iterative (ours)"]
            baseline = point.costs["dp-energy+greedy"]
            gaps.append((baseline - ours) / ours)
        assert gaps[-1] <= gaps[0] + 1e-6

    def test_empty_betas_rejected(self, g2):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            beta_sweep(g2, deadline=75.0, betas=())

    def test_costs_fall_with_larger_beta(self, g2):
        sweep = beta_sweep(g2, deadline=75.0, betas=(0.15, 0.5, 5.0))
        ours = sweep.series("iterative (ours)")
        assert ours[0] > ours[-1]
