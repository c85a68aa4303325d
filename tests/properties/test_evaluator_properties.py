"""Property tests of the incremental/vectorized cost-evaluation stack.

The contracts under test:

* the vectorized ``apparent_charge`` is bit-identical to the retained scalar
  reference implementation (golden tests on the paper's G3 profiles plus
  randomized profiles with gaps and truncation);
* the incremental evaluator agrees with full ``battery_cost`` to <= 1e-9
  over long randomized forward-only walks of mixed moves (and is in fact
  bit-identical for every chemistry);
* ``apply`` leaves the state bit-for-bit equal to a freshly built one; and
* the batch schedule evaluation matches per-schedule evaluation exactly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.battery import (
    IdealBatteryModel,
    KineticBatteryModel,
    LoadInterval,
    LoadProfile,
    PeukertModel,
    RakhmatovVrudhulaModel,
    suffix_durations,
)
from repro.scheduling import (
    DesignPointAssignment,
    IncrementalCostEvaluator,
    battery_cost,
    evaluate_schedule,
    sequence_by_decreasing_energy,
)
from repro.taskgraph import G3_BETA
from repro.workloads.generators import layered_graph

#: Agreement tolerance between incremental and full evaluation (the issue's
#: contract; in practice the two are bit-identical for every chemistry).
AGREEMENT_ATOL = 1e-9

#: One representative model per battery chemistry (non-default parameters
#: where the chemistry has any, so parameter plumbing is exercised too).
CHEMISTRY_MODELS = {
    "rakhmatov": lambda: RakhmatovVrudhulaModel(beta=G3_BETA),
    "peukert": lambda: PeukertModel(exponent=1.3),
    "kibam": lambda: KineticBatteryModel(c=0.625, k=0.05),
    "ideal": lambda: IdealBatteryModel(),
}

@pytest.fixture(params=sorted(CHEMISTRY_MODELS))
def chemistry_model(request):
    """One battery model per chemistry, for cross-chemistry conformance."""
    return CHEMISTRY_MODELS[request.param]()


def random_walk_moves(graph, evaluator, rng, steps):
    """Yield ``(proposal, sequence, columns)`` from a random mixed-move walk.

    ``sequence`` and ``columns`` are the candidate the proposal costs, built
    from the evaluator's current state plus the move (never read off the
    proposal), so a test can cost it from scratch.  The caller decides which
    proposals to apply; the walk only moves forward.
    """
    names = list(graph.task_names())
    m = graph.uniform_design_point_count()
    produced = 0
    while produced < steps:
        sequence = list(evaluator.sequence)
        columns = evaluator.columns
        if rng.random() < 0.5:
            name = rng.choice(names)
            column = rng.randrange(m)
            if column == columns[name]:
                continue
            proposal = evaluator.propose_design_point(name, column)
            columns[name] = column
        else:
            name = rng.choice(names)
            position = evaluator.position(name)
            lower = max(
                (evaluator.position(p) for p in graph.predecessors(name)), default=-1
            ) + 1
            upper = min(
                (evaluator.position(s) for s in graph.successors(name)),
                default=len(names),
            ) - 1
            if upper < lower:
                continue
            target = rng.randint(lower, upper)
            if target == position:
                continue
            proposal = evaluator.propose_relocate(name, target)
            sequence.insert(target, sequence.pop(position))
        assert proposal.sequence == tuple(sequence)
        yield proposal, tuple(sequence), columns
        produced += 1


def assert_state_matches_fresh_build(graph, evaluator, model, **point):
    """The evaluator's state equals a freshly built one's, bit for bit."""
    fresh = IncrementalCostEvaluator(
        graph, evaluator.sequence, evaluator.assignment(), model, **point
    )
    assert evaluator.cost == fresh.cost
    assert (evaluator.makespan, evaluator.state.rest) == (fresh.makespan, fresh.state.rest)
    assert evaluator.positions == fresh.positions
    assert np.array_equal(evaluator.state.durations, fresh.state.durations)
    assert np.array_equal(evaluator.state.currents, fresh.state.currents)
    assert np.array_equal(evaluator.state.contributions, fresh.state.contributions)
    if model.TIME_SENSITIVE:  # time-insensitive kernels never read the tail
        assert np.array_equal(evaluator.state.tail, fresh.state.tail)


class TestIncrementalAgreesWithFullCost:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_200_mixed_moves_match_battery_cost(self, seed):
        """>= 200 mixed moves: every proposal and state equals battery_cost."""
        graph = layered_graph(num_layers=8, layer_width=3, seed=seed, name=f"walk{seed}")
        model = RakhmatovVrudhulaModel(beta=G3_BETA)
        sequence = sequence_by_decreasing_energy(graph)
        assignment = DesignPointAssignment.all_fastest(graph)
        evaluator = IncrementalCostEvaluator(graph, sequence, assignment, model)
        rng = random.Random(1000 + seed)
        for step, (proposal, candidate, columns) in enumerate(
            random_walk_moves(graph, evaluator, rng, steps=220)
        ):
            full = battery_cost(graph, candidate, DesignPointAssignment(columns), model)
            assert proposal.cost == pytest.approx(full, abs=AGREEMENT_ATOL), step
            # The stack's stronger, internal contract: bit-identical.
            assert proposal.cost == full, step
            if rng.random() < 0.7:
                evaluator.apply(proposal)
                assert evaluator.cost == full

    def test_deadline_mode_walk_matches_battery_cost(self, g3):
        """Deadline-mode (recovery-crediting) proposals match battery_cost."""
        model = RakhmatovVrudhulaModel(beta=G3_BETA)
        sequence = sequence_by_decreasing_energy(g3)
        assignment = DesignPointAssignment.all_fastest(g3)
        deadline = 400.0
        evaluator = IncrementalCostEvaluator(
            g3, sequence, assignment, model, deadline=deadline, evaluate_at="deadline"
        )
        rng = random.Random(5)
        for proposal, candidate, columns in random_walk_moves(g3, evaluator, rng, steps=60):
            full = battery_cost(
                g3,
                candidate,
                DesignPointAssignment(columns),
                model,
                deadline=deadline,
                evaluate_at="deadline",
            )
            assert proposal.cost == pytest.approx(full, abs=AGREEMENT_ATOL)
            if rng.random() < 0.5:
                evaluator.apply(proposal)

    def test_generic_model_walk_matches_battery_cost(self, diamond4):
        """Models without the array path fall back to exact full evaluation."""
        model = IdealBatteryModel()
        sequence = ("A", "B", "C", "D")
        assignment = DesignPointAssignment.all_fastest(diamond4)
        evaluator = IncrementalCostEvaluator(diamond4, sequence, assignment, model)
        rng = random.Random(9)
        for proposal, candidate, columns in random_walk_moves(
            diamond4, evaluator, rng, steps=40
        ):
            full = battery_cost(diamond4, candidate, DesignPointAssignment(columns), model)
            assert proposal.cost == pytest.approx(full, abs=AGREEMENT_ATOL)
            evaluator.apply(proposal)


class TestVectorizedApparentChargeGolden:
    """The vectorized kernel against the scalar reference (seed implementation)."""

    def test_g3_profiles_bit_identical(self, g3, paper_model):
        """Golden: the paper's G3 schedules under several assignments."""
        sequence = sequence_by_decreasing_energy(g3)
        m = g3.uniform_design_point_count()
        for column in range(m):
            assignment = DesignPointAssignment.uniform(g3, column)
            profile = LoadProfile.from_back_to_back(
                durations=[assignment.execution_time(g3, n) for n in sequence],
                currents=[assignment.current(g3, n) for n in sequence],
            )
            for at_time in (None, profile.end_time, profile.end_time * 0.5, profile.end_time + 50.0):
                vectorized = paper_model.apparent_charge(profile, at_time)
                scalar = paper_model.apparent_charge_reference(profile, at_time)
                assert vectorized == scalar

    def test_random_profiles_with_gaps_bit_identical(self):
        rng = random.Random(17)
        for trial in range(50):
            model = RakhmatovVrudhulaModel(beta=rng.uniform(0.05, 2.0))
            clock = 0.0
            intervals = []
            for _ in range(rng.randint(1, 12)):
                clock += rng.uniform(0.0, 5.0)  # idle gap
                duration = rng.uniform(0.1, 30.0)
                current = rng.choice([0.0, rng.uniform(0.0, 500.0)])
                intervals.append(LoadInterval(clock, duration, current))
                clock += duration
            profile = LoadProfile(intervals)
            for at_time in (None, clock * rng.random(), clock + rng.uniform(0, 100)):
                assert model.apparent_charge(profile, at_time) == (
                    model.apparent_charge_reference(profile, at_time)
                ), trial

    def test_empty_profile_is_zero(self, paper_model):
        assert paper_model.apparent_charge(LoadProfile()) == 0.0


class TestSchedulePathConsistency:
    def test_schedule_charge_matches_battery_cost_bitwise(self, g3, paper_model):
        """The canonical array path and the battery_cost wrapper agree exactly."""
        sequence = sequence_by_decreasing_energy(g3)
        assignment = DesignPointAssignment.all_fastest(g3)
        durations = [assignment.execution_time(g3, n) for n in sequence]
        currents = [assignment.current(g3, n) for n in sequence]
        assert paper_model.schedule_charge(durations, currents) == battery_cost(
            g3, sequence, assignment, paper_model
        )

    def test_schedule_charge_close_to_profile_evaluation(self, paper_model):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 20)
            durations = [rng.uniform(0.1, 30.0) for _ in range(n)]
            currents = [rng.uniform(0.0, 500.0) for _ in range(n)]
            profile = LoadProfile.from_back_to_back(durations, currents)
            array_path = paper_model.schedule_charge(durations, currents)
            profile_path = paper_model.apparent_charge(profile)
            assert array_path == pytest.approx(profile_path, abs=AGREEMENT_ATOL)

    def test_batch_matches_single_bitwise(self, paper_model):
        rng = random.Random(31)
        n, batch = 12, 7
        durations = [[rng.uniform(0.1, 30.0) for _ in range(n)] for _ in range(batch)]
        currents = [[rng.uniform(0.0, 500.0) for _ in range(n)] for _ in range(batch)]
        batched = paper_model.schedule_charge_batch(durations, currents)
        for row in range(batch):
            assert batched[row] == paper_model.schedule_charge(
                durations[row], currents[row]
            )

    def test_suffix_durations_definition(self):
        durations = np.array([3.0, 1.5, 2.25, 4.0])
        tail = suffix_durations(durations)
        assert tail[-1] == 0.0
        for k in range(len(durations)):
            assert tail[k] == pytest.approx(float(np.sum(durations[k + 1 :])))

    def test_evaluate_schedule_reports_makespan_and_rest(self, g3, paper_model):
        sequence = sequence_by_decreasing_energy(g3)
        assignment = DesignPointAssignment.all_fastest(g3)
        evaluation = evaluate_schedule(
            g3, sequence, assignment, paper_model, deadline=500.0, evaluate_at="deadline"
        )
        expected_makespan = assignment.total_execution_time(g3)
        assert evaluation.makespan == pytest.approx(expected_makespan)
        assert evaluation.rest == pytest.approx(500.0 - evaluation.makespan)


class TestCrossChemistryIncrementalAgreesWithFull:
    """The incremental/full contract, for every battery chemistry.

    Mirrors :class:`TestIncrementalAgreesWithFullCost` but parametrised over
    all four chemistries: 220-move mixed forward-only propose/apply walks where every
    proposal must agree with a from-scratch ``battery_cost`` to <= 1e-9 —
    and in fact bitwise, since every chemistry shares the fsum-reduced
    time-to-end kernel of ``ScheduleKernelMixin``.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    def test_220_mixed_moves_match_battery_cost(self, chemistry_model, seed):
        graph = layered_graph(num_layers=8, layer_width=3, seed=seed, name=f"xwalk{seed}")
        sequence = sequence_by_decreasing_energy(graph)
        assignment = DesignPointAssignment.all_fastest(graph)
        evaluator = IncrementalCostEvaluator(graph, sequence, assignment, chemistry_model)
        rng = random.Random(2000 + seed)
        for step, (proposal, candidate, columns) in enumerate(
            random_walk_moves(graph, evaluator, rng, steps=220)
        ):
            full = evaluate_schedule(
                graph, candidate, DesignPointAssignment(columns), chemistry_model
            )
            assert proposal.cost == pytest.approx(full.cost, abs=AGREEMENT_ATOL), step
            # The stack's stronger, internal contract: bit-identical.
            assert (proposal.cost, proposal.makespan) == (full.cost, full.makespan), step
            if rng.random() < 0.7:
                evaluator.apply(proposal)
                assert evaluator.cost == full.cost
        assert evaluator.cost == evaluator.evaluate_full()

    def test_deadline_mode_walk_matches_battery_cost(self, g3, chemistry_model):
        """Deadline-mode (recovery-crediting) proposals match battery_cost."""
        sequence = sequence_by_decreasing_energy(g3)
        assignment = DesignPointAssignment.all_fastest(g3)
        deadline = 400.0
        evaluator = IncrementalCostEvaluator(
            g3, sequence, assignment, chemistry_model,
            deadline=deadline, evaluate_at="deadline",
        )
        rng = random.Random(5)
        for proposal, candidate, columns in random_walk_moves(g3, evaluator, rng, steps=60):
            full = evaluate_schedule(
                g3,
                candidate,
                DesignPointAssignment(columns),
                chemistry_model,
                deadline=deadline,
                evaluate_at="deadline",
            )
            assert proposal.cost == pytest.approx(full.cost, abs=AGREEMENT_ATOL)
            assert (proposal.cost, proposal.makespan) == (full.cost, full.makespan)
            assert proposal.rest == full.rest
            if rng.random() < 0.5:
                evaluator.apply(proposal)

    @pytest.mark.parametrize("evaluate_at", ["completion", "deadline"])
    def test_applied_state_equals_a_fresh_build(self, g3, chemistry_model, evaluate_at):
        """Every apply leaves the state a from-scratch build has, bitwise,
        whatever proposals were made and never applied in between."""
        point = {"deadline": 400.0, "evaluate_at": evaluate_at}
        sequence = sequence_by_decreasing_energy(g3)
        assignment = DesignPointAssignment.all_fastest(g3)
        evaluator = IncrementalCostEvaluator(
            g3, sequence, assignment, chemistry_model, **point
        )
        rng = random.Random(3)
        for proposal, _, _ in random_walk_moves(g3, evaluator, rng, steps=40):
            if rng.random() < 0.7:
                evaluator.apply(proposal)
                assert_state_matches_fresh_build(g3, evaluator, chemistry_model, **point)

    def test_batch_matches_single_bitwise(self, chemistry_model):
        rng = random.Random(31)
        n, batch = 12, 7
        durations = [[rng.uniform(0.1, 30.0) for _ in range(n)] for _ in range(batch)]
        currents = [[rng.uniform(0.0, 500.0) for _ in range(n)] for _ in range(batch)]
        batched = chemistry_model.schedule_charge_batch(durations, currents)
        for row in range(batch):
            assert batched[row] == chemistry_model.schedule_charge(
                durations[row], currents[row]
            )

    def test_schedule_charge_close_to_scalar_reference(self, chemistry_model):
        """The vectorized kernel against the retained scalar profile path."""
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 20)
            durations = [rng.uniform(0.1, 30.0) for _ in range(n)]
            currents = [rng.uniform(0.0, 500.0) for _ in range(n)]
            rest = rng.choice([0.0, rng.uniform(0.0, 60.0)])
            profile = LoadProfile.from_back_to_back(durations, currents)
            array_path = chemistry_model.schedule_charge(durations, currents, rest)
            profile_path = chemistry_model.apparent_charge_reference(
                profile, profile.end_time + rest
            )
            assert array_path == pytest.approx(profile_path, abs=AGREEMENT_ATOL)

    def test_repeated_proposals_are_pure(self, chemistry_model):
        """Re-proposing a move returns the exact cost and never touches the state."""
        graph = layered_graph(num_layers=5, layer_width=3, seed=4, name="xrepeat")
        sequence = sequence_by_decreasing_energy(graph)
        assignment = DesignPointAssignment.all_fastest(graph)
        evaluator = IncrementalCostEvaluator(graph, sequence, assignment, chemistry_model)
        before_cost = evaluator.cost
        before_contrib = evaluator.state.contributions.copy()
        for name in list(graph.task_names())[:6]:
            column = 1 if evaluator.columns[name] != 1 else 2
            first = evaluator.propose_design_point(name, column)
            second = evaluator.propose_design_point(name, column)
            columns = {**evaluator.columns, name: column}
            full = battery_cost(
                graph, evaluator.sequence, DesignPointAssignment(columns), chemistry_model
            )
            assert first.cost == second.cost == full
        assert evaluator.cost == before_cost
        assert np.array_equal(evaluator.state.contributions, before_contrib)
