"""Unit tests for repro.scheduling.evaluator."""

import numpy as np
import pytest

from repro.battery import BatteryModel, RakhmatovVrudhulaModel
from repro.errors import ConfigurationError, ScheduleError
from repro.scheduling import (
    DesignPointAssignment,
    IncrementalCostEvaluator,
    battery_cost,
    evaluate_schedule,
)

SEQ = ("A", "B", "C", "D")


class _CustomKernelModel(BatteryModel):
    """A minimal third-party chemistry whose kernel depends on time-to-end."""

    def apparent_charge(self, profile, at_time=None):  # pragma: no cover - unused
        return 0.0

    def interval_contributions(self, durations, currents, time_to_end):
        durations = np.asarray(durations, dtype=float)
        currents = np.asarray(currents, dtype=float)
        time_to_end = np.asarray(time_to_end, dtype=float)
        return currents * durations * (1.0 + 0.01 * time_to_end)


@pytest.fixture
def model():
    return RakhmatovVrudhulaModel(beta=0.273)


@pytest.fixture
def assignment(diamond4):
    return DesignPointAssignment.all_fastest(diamond4)


@pytest.fixture
def evaluator(diamond4, assignment, model):
    return IncrementalCostEvaluator(diamond4, SEQ, assignment, model)


class TestConstruction:
    def test_initial_state_matches_battery_cost(self, diamond4, assignment, model, evaluator):
        assert evaluator.cost == battery_cost(diamond4, SEQ, assignment, model)

    def test_initial_makespan(self, diamond4, assignment, evaluator):
        assert evaluator.makespan == pytest.approx(
            assignment.total_execution_time(diamond4)
        )

    def test_rejects_invalid_sequence(self, diamond4, assignment, model):
        with pytest.raises(Exception):
            IncrementalCostEvaluator(diamond4, ("B", "A", "C", "D"), assignment, model)

    def test_full_evaluation_always_validates(self, diamond4, assignment, model):
        with pytest.raises(ScheduleError):
            evaluate_schedule(diamond4, ("B", "A", "C", "D"), assignment, model)

    def test_deadline_mode_requires_deadline(self, diamond4, assignment, model):
        with pytest.raises(ConfigurationError):
            IncrementalCostEvaluator(
                diamond4, SEQ, assignment, model, evaluate_at="deadline"
            )

    def test_invalid_mode_rejected(self, diamond4, assignment, model):
        with pytest.raises(ConfigurationError):
            IncrementalCostEvaluator(
                diamond4, SEQ, assignment, model, evaluate_at="bogus"
            )


class TestProposals:
    def test_propose_does_not_mutate_state(self, evaluator):
        cost = evaluator.cost
        sequence = evaluator.sequence
        evaluator.propose_design_point("B", 1)
        evaluator.propose_relocate("B", 2)
        assert evaluator.cost == cost
        assert evaluator.sequence == sequence

    def test_design_point_proposal_cost(self, diamond4, model, evaluator):
        proposal = evaluator.propose_design_point("B", 2)
        expected = evaluate_schedule(
            diamond4,
            SEQ,
            DesignPointAssignment({"A": 0, "B": 2, "C": 0, "D": 0}),
            model,
        )
        assert (proposal.cost, proposal.makespan) == (expected.cost, expected.makespan)
        assert proposal.kind == "design_point"

    def test_relocate_proposal_cost_and_makespan(self, diamond4, model, evaluator):
        proposal = evaluator.propose_relocate("B", 2)  # A C B D
        expected = battery_cost(
            diamond4,
            ("A", "C", "B", "D"),
            DesignPointAssignment.all_fastest(diamond4),
            model,
        )
        assert proposal.cost == expected
        # Relocations permute the same duration multiset: exact fsum makespan.
        assert proposal.makespan == evaluator.makespan

    def test_same_column_rejected(self, evaluator):
        with pytest.raises(ScheduleError):
            evaluator.propose_design_point("B", 0)

    def test_out_of_range_column_rejected(self, evaluator):
        with pytest.raises(ScheduleError):
            evaluator.propose_design_point("B", 99)

    def test_precedence_violating_relocate_rejected(self, evaluator):
        # D is the join task: it cannot move before its predecessors B and C.
        with pytest.raises(ScheduleError):
            evaluator.propose_relocate("D", 0)
        # A is the fork task: it cannot move after its successors.
        with pytest.raises(ScheduleError):
            evaluator.propose_relocate("A", 3)

    def test_same_position_relocate_rejected(self, evaluator):
        with pytest.raises(ScheduleError):
            evaluator.propose_relocate("B", 1)

    def test_unknown_task_rejected(self, evaluator):
        with pytest.raises(ScheduleError):
            evaluator.propose_design_point("Z", 0)

    def test_candidate_makespan(self, diamond4, evaluator):
        slow = evaluator.candidate_makespan("B", 2)
        assignment = DesignPointAssignment({"A": 0, "B": 2, "C": 0, "D": 0})
        assert slow == pytest.approx(assignment.total_execution_time(diamond4))


class TestApply:
    def test_apply_commits_proposal(self, evaluator):
        proposal = evaluator.propose_design_point("C", 1)
        evaluator.apply(proposal)
        assert evaluator.cost == proposal.cost
        assert evaluator.columns["C"] == 1

    def test_apply_relocate_updates_positions(self, evaluator):
        proposal = evaluator.propose_relocate("B", 2)
        evaluator.apply(proposal)
        assert evaluator.sequence == ("A", "C", "B", "D")
        assert evaluator.position("B") == 2

    def test_stale_proposal_rejected(self, evaluator):
        stale = evaluator.propose_design_point("B", 1)
        fresh = evaluator.propose_design_point("C", 1)
        evaluator.apply(fresh)
        with pytest.raises(ScheduleError):
            evaluator.apply(stale)

    def test_full_reevaluation_matches_after_walk(self, evaluator):
        evaluator.apply(evaluator.propose_design_point("B", 1))
        evaluator.apply(evaluator.propose_relocate("B", 2))
        evaluator.apply(evaluator.propose_design_point("A", 2))
        assert evaluator.cost == evaluator.evaluate_full()


class TestRepeatedProposals:
    def test_repeated_proposal_is_bit_identical(self, evaluator):
        first = evaluator.propose_design_point("B", 1)
        second = evaluator.propose_design_point("B", 1)
        assert second.cost == first.cost
        assert (second.makespan, second.rest) == (first.makespan, first.rest)
        assert second.sequence == first.sequence

    def test_apply_after_repeated_proposal_keeps_state_consistent(self, evaluator):
        evaluator.propose_design_point("B", 1)
        repeat = evaluator.propose_design_point("B", 1)
        evaluator.apply(repeat)
        assert evaluator.cost == repeat.cost
        assert evaluator.cost == evaluator.evaluate_full()


class TestCustomKernelModel:
    """A custom model runs the same schedule path as the built-ins."""

    @pytest.fixture
    def custom(self, diamond4, assignment):
        return IncrementalCostEvaluator(diamond4, SEQ, assignment, _CustomKernelModel())

    def test_proposals_match_battery_cost(self, diamond4, custom):
        model = _CustomKernelModel()
        proposal = custom.propose_design_point("B", 1)
        expected = battery_cost(
            diamond4,
            SEQ,
            DesignPointAssignment({"A": 0, "B": 1, "C": 0, "D": 0}),
            model,
        )
        assert proposal.cost == pytest.approx(expected, rel=1e-12)
        relocated = custom.propose_relocate("B", 2)
        assert relocated.cost == pytest.approx(
            battery_cost(
                diamond4,
                ("A", "C", "B", "D"),
                DesignPointAssignment.all_fastest(diamond4),
                model,
            ),
            rel=1e-12,
        )

    def test_apply_matches_full_evaluation(self, custom):
        proposal = custom.propose_design_point("C", 2)
        custom.apply(proposal)
        assert custom.cost == proposal.cost
        assert custom.cost == custom.evaluate_full()
        assert custom.columns["C"] == 2


class TestPositionsView:
    def test_positions_reflect_current_order(self, evaluator):
        assert evaluator.positions == {"A": 0, "B": 1, "C": 2, "D": 3}
        evaluator.apply(evaluator.propose_relocate("B", 2))
        assert evaluator.positions == {"A": 0, "C": 1, "B": 2, "D": 3}

    def test_positions_replaced_not_mutated_on_relocate(self, evaluator):
        view = evaluator.positions
        evaluator.apply(evaluator.propose_relocate("B", 2))
        # The pre-move view is left intact; the evaluator swapped in a new dict.
        assert view == {"A": 0, "B": 1, "C": 2, "D": 3}
        assert evaluator.positions is not view


class TestScheduleStateShape:
    def test_state_arrays_are_consistent(self, diamond4, assignment, evaluator):
        state = evaluator.state
        assert len(state.sequence) == 4
        assert state.durations.shape == (4,)
        assert state.currents.shape == (4,)
        assert list(state.sequence) == list(SEQ)
        assert state.columns == dict(assignment)
        assert state.makespan == pytest.approx(float(np.sum(state.durations)))
        assert state.rest == 0.0
        assert state.cost == battery_cost(diamond4, SEQ, assignment, evaluator.model)

    def test_assignment_roundtrip(self, evaluator, assignment):
        assert evaluator.assignment() == assignment
