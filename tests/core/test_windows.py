"""Unit tests for repro.core.windows (EvaluateWindows)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.battery import BatterySpec, RakhmatovVrudhulaModel
from repro.core import (
    SchedulerConfig,
    SequencedMatrices,
    battery_aware_schedule,
    evaluate_windows,
    initial_window_start,
)
from repro.core import windows as windows_module
from repro.errors import AlgorithmError, InfeasibleDeadlineError
from repro.scheduling import (
    SchedulingProblem,
    evaluate_schedule,
    sequence_by_decreasing_energy,
)


@pytest.fixture
def g3_matrices(g3):
    return SequencedMatrices(g3, sequence_by_decreasing_energy(g3))


@pytest.fixture
def model():
    return RakhmatovVrudhulaModel(beta=0.273)


class TestInitialWindowStart:
    def test_paper_deadline_starts_at_second_narrowest_window(self, g3_matrices):
        # CT(4) ~ 219 <= 230, so the search starts with window 4:5 (0-based 3).
        assert initial_window_start(g3_matrices, deadline=230.0) == 3

    def test_tighter_deadline_moves_window_left(self, g3_matrices):
        # CT(4) ~ 219 > 150, CT(3) ~ 177 > 150, CT(2) ~ 137 <= 150.
        assert initial_window_start(g3_matrices, deadline=150.0) == 1

    def test_very_tight_deadline_full_window(self, g3_matrices):
        assert initial_window_start(g3_matrices, deadline=100.0) == 0

    def test_infeasible_deadline_raises(self, g3_matrices):
        with pytest.raises(InfeasibleDeadlineError):
            initial_window_start(g3_matrices, deadline=50.0)

    def test_never_starts_beyond_m_minus_2(self, g3_matrices):
        # Even an extremely loose deadline starts at window (m-1):m.
        assert initial_window_start(g3_matrices, deadline=1e6) == g3_matrices.m - 2


class TestEvaluateWindows:
    def test_paper_deadline_evaluates_four_windows(self, g3_matrices, model):
        evaluation = evaluate_windows(g3_matrices, deadline=230.0, model=model)
        labels = [record.label for record in evaluation.records]
        assert labels == ["4:5", "3:5", "2:5", "1:5"]

    def test_best_is_minimum_cost_feasible(self, g3_matrices, model):
        evaluation = evaluate_windows(g3_matrices, deadline=230.0, model=model)
        feasible = [record for record in evaluation.records if record.feasible]
        assert evaluation.best.feasible
        assert evaluation.best.cost == pytest.approx(min(r.cost for r in feasible))
        assert evaluation.best_cost == evaluation.best.cost

    def test_every_best_assignment_meets_deadline(self, g3_matrices, model):
        for deadline in (100.0, 150.0, 230.0):
            evaluation = evaluate_windows(g3_matrices, deadline=deadline, model=model)
            assert evaluation.best.makespan <= deadline + 1e-9

    def test_record_lookup(self, g3_matrices, model):
        evaluation = evaluate_windows(g3_matrices, deadline=230.0, model=model)
        assert evaluation.record_for("2:5") is not None
        assert evaluation.record_for("9:9") is None

    def test_assignments_cover_all_tasks(self, g3_matrices, model, g3):
        evaluation = evaluate_windows(g3_matrices, deadline=230.0, model=model)
        for record in evaluation.records:
            record.assignment.validate(g3)

    def test_infeasible_deadline_raises(self, g3_matrices, model):
        with pytest.raises(InfeasibleDeadlineError):
            evaluate_windows(g3_matrices, deadline=10.0, model=model)

    def test_costs_positive_and_finite(self, g3_matrices, model):
        evaluation = evaluate_windows(g3_matrices, deadline=230.0, model=model)
        for record in evaluation.records:
            assert record.cost > 0
            assert record.makespan > 0

    def test_wider_windows_allow_higher_power_columns(self, g3_matrices, model):
        evaluation = evaluate_windows(g3_matrices, deadline=230.0, model=model)
        narrow = evaluation.record_for("4:5").assignment
        assert min(narrow.values()) >= 3

    def test_g2_windows(self, g2, model):
        matrices = SequencedMatrices(g2, sequence_by_decreasing_energy(g2))
        evaluation = evaluate_windows(matrices, deadline=75.0, model=model)
        assert evaluation.best.feasible
        assert all(record.label.endswith(":4") for record in evaluation.records)


def _stub_search(monkeypatch, full_window_column):
    """Every window but the full one chooses its slowest columns, the full
    one ``full_window_column`` throughout, and no repair succeeds."""

    def choose(matrices, starts, deadline, weights, record_evaluations):
        results = []
        for start in starts:
            column = full_window_column if start == 0 else matrices.m - 1
            selection = np.full(matrices.n, column)
            results.append(
                SimpleNamespace(selection=selection, makespan=matrices.total_time(selection))
            )
        return results

    def no_repair(*args):
        raise AlgorithmError("no promotion meets the deadline")

    monkeypatch.setattr(windows_module, "_choose_windows", choose)
    monkeypatch.setattr(windows_module, "promote_until_feasible", no_repair)


class TestWindowsThatStayInfeasible:
    """A window whose repair fails is reported, and never wins."""

    def test_only_the_feasible_window_can_win(self, g3_matrices, model, monkeypatch):
        _stub_search(monkeypatch, full_window_column=0)
        evaluation = evaluate_windows(g3_matrices, deadline=230.0, model=model)
        assert [r.feasible for r in evaluation.records] == [False, False, False, True]
        assert evaluation.best is evaluation.records[-1]

    def test_raises_when_no_window_meets_the_deadline(self, g3_matrices, model, monkeypatch):
        _stub_search(monkeypatch, full_window_column=g3_matrices.m - 1)
        with pytest.raises(InfeasibleDeadlineError):
            evaluate_windows(g3_matrices, deadline=230.0, model=model)


class TestEvaluationPoint:
    """Window costs are taken at the scheduler's configured evaluation point."""

    @pytest.mark.parametrize("graph_name, deadline", [("g2", 75.0), ("g3", 230.0)])
    def test_deadline_mode_window_costs_equal_evaluate_schedule(
        self, request, graph_name, deadline
    ):
        graph = request.getfixturevalue(graph_name)
        problem = SchedulingProblem(graph, deadline, battery=BatterySpec(beta=0.273))
        model = problem.model()
        solution = battery_aware_schedule(
            problem, config=SchedulerConfig(evaluate_at="deadline")
        )
        for iteration in solution.iterations:
            for record in iteration.windows.records:
                expected = evaluate_schedule(
                    graph, iteration.sequence, record.assignment, model,
                    deadline=deadline, evaluate_at="deadline",
                )
                assert record.cost == expected.cost, (iteration.index, record.label)
