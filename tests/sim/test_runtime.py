"""Unit tests of one simulated run through the :class:`~repro.sim.Simulator` front."""

import math

import pytest

from repro import build_g3
from repro.battery import BatterySpec
from repro.errors import SimulationError
from repro.scheduling import SchedulingProblem
from repro.sim import (
    GreedyEnergyScheduler,
    InformationMode,
    PerturbationModel,
    Scheduler,
    SimulationResult,
    Simulator,
    StaticReplayScheduler,
    make_policy,
    rng_for_seed,
)

from ..conftest import make_simple_task


@pytest.fixture
def diamond_problem(diamond4):
    return SchedulingProblem(graph=diamond4, deadline=30.0, name="diamond")


def replay_all_fastest(problem):
    sequence = problem.graph.topological_order()
    return StaticReplayScheduler(sequence, {name: 0 for name in sequence})


class TestDeterministicRun:
    def test_back_to_back_timeline(self, diamond_problem):
        result = Simulator(diamond_problem, replay_all_fastest(diamond_problem)).run()
        assert isinstance(result, SimulationResult)
        assert len(result.intervals) == 4
        clock = 0.0
        for interval in result.intervals:
            assert interval.start == clock
            clock = interval.finish
        assert result.makespan == pytest.approx(clock)
        assert result.retries == 0

    def test_completion_order_respects_precedence(self, diamond_problem):
        result = Simulator(diamond_problem, replay_all_fastest(diamond_problem)).run()
        positions = {name: i for i, name in enumerate(result.sequence)}
        for parent, child in diamond_problem.graph.edges():
            assert positions[parent] < positions[child]

    def test_makespan_is_fsum_of_durations(self, diamond_problem):
        result = Simulator(diamond_problem, replay_all_fastest(diamond_problem)).run()
        assert result.makespan == math.fsum(i.duration for i in result.intervals)

    def test_single_shot(self, diamond_problem):
        simulator = Simulator(diamond_problem, replay_all_fastest(diamond_problem))
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.run()

    def test_deadline_miss_is_reported_not_raised(self, diamond4):
        problem = SchedulingProblem(graph=diamond4, deadline=1.0, name="tight")
        result = Simulator(problem, replay_all_fastest(problem)).run()
        assert not result.feasible
        assert result.makespan > 1.0

    def test_evaluate_at_deadline_credits_rest(self, diamond_problem):
        at_completion = Simulator(
            diamond_problem, replay_all_fastest(diamond_problem)
        ).run()
        at_deadline = Simulator(
            diamond_problem,
            replay_all_fastest(diamond_problem),
            evaluate_at="deadline",
        ).run()
        assert at_deadline.rest == pytest.approx(
            diamond_problem.deadline - at_deadline.makespan
        )
        # Recovery after completion can only lower sigma.
        assert at_deadline.cost < at_completion.cost


class TestProtocolViolations:
    def test_unknown_task_rejected(self, diamond_problem):
        scheduler = StaticReplayScheduler(("A", "B", "C", "D"), {n: 0 for n in "ABCD"})
        scheduler.columns["A"] = 0
        scheduler.sequence = ("A", "B", "C", "Z")
        with pytest.raises(Exception):
            Simulator(diamond_problem, scheduler).run()

    def test_out_of_range_column_rejected(self, diamond_problem):
        sequence = diamond_problem.graph.topological_order()
        scheduler = StaticReplayScheduler(sequence, {name: 99 for name in sequence})
        with pytest.raises(SimulationError):
            Simulator(diamond_problem, scheduler).run()

    def test_a_policy_of_neither_kind_is_rejected(self, diamond_problem):
        class Unknown(Scheduler):
            name = "unknown"

        with pytest.raises(SimulationError):
            Simulator(diamond_problem, Unknown())

    def test_precedence_violating_replay_rejected(self, diamond_problem):
        with pytest.raises(Exception):
            Simulator(
                diamond_problem,
                StaticReplayScheduler(
                    ("B", "A", "C", "D"), {n: 0 for n in "ABCD"}
                ),
            ).run()

    def test_stochastic_run_requires_rng(self, diamond_problem):
        with pytest.raises(SimulationError):
            Simulator(
                diamond_problem,
                replay_all_fastest(diamond_problem),
                perturbation=PerturbationModel(jitter=0.1),
            )


class TestPerturbedRuns:
    def test_jitter_changes_durations_not_structure(self, diamond_problem):
        result = Simulator(
            diamond_problem,
            replay_all_fastest(diamond_problem),
            perturbation=PerturbationModel(jitter=0.2),
            rng=rng_for_seed(11),
        ).run()
        nominal = {
            name: diamond_problem.graph.task(name).execution_times()[0]
            for name in diamond_problem.graph.task_names()
        }
        assert all(i.duration != nominal[i.task] for i in result.intervals)
        assert set(result.sequence) == set(diamond_problem.graph.task_names())

    def test_failures_spend_time_and_retry(self, diamond_problem):
        result = Simulator(
            diamond_problem,
            replay_all_fastest(diamond_problem),
            perturbation=PerturbationModel(failure_rate=0.4),
            rng=rng_for_seed(13),
        ).run()
        assert result.retries > 0
        failed = [i for i in result.intervals if i.failed]
        assert len(failed) == result.retries
        # A failed attempt is immediately followed by a retry of the task.
        for index, interval in enumerate(result.intervals[:-1]):
            if interval.failed:
                nxt = result.intervals[index + 1]
                assert nxt.task == interval.task
                assert nxt.attempt == interval.attempt + 1
        # Every task still finishes exactly once.
        assert sorted(result.sequence) == sorted(diamond_problem.graph.task_names())
        # Failed attempts draw charge: the realised sigma covers them.
        assert result.num_attempts == 4 + result.retries

    def test_retry_budget_exhaustion_raises(self, diamond_problem):
        with pytest.raises(SimulationError):
            Simulator(
                diamond_problem,
                replay_all_fastest(diamond_problem),
                perturbation=PerturbationModel(failure_rate=0.9, max_retries=1),
                rng=rng_for_seed(1),
            ).run()

    def test_same_seed_bitwise_identical(self, diamond_problem):
        def run():
            return Simulator(
                diamond_problem,
                replay_all_fastest(diamond_problem),
                perturbation=PerturbationModel(jitter=0.3, failure_rate=0.2),
                rng=rng_for_seed(21),
            ).run()

        assert run().to_dict() == run().to_dict()

    def test_different_seeds_differ(self, diamond_problem):
        def run(seed):
            return Simulator(
                diamond_problem,
                replay_all_fastest(diamond_problem),
                perturbation=PerturbationModel(jitter=0.3),
                rng=rng_for_seed(seed),
            ).run()

        assert run(1).cost != run(2).cost


class TestBatteryQueries:
    def test_depletion_time_with_finite_capacity(self, diamond4):
        problem = SchedulingProblem(
            graph=diamond4,
            deadline=30.0,
            battery=BatterySpec(capacity=1500.0),
        )
        result = Simulator(problem, replay_all_fastest(problem)).run()
        assert result.depletion_time is not None
        assert 0.0 < result.depletion_time < result.makespan

    def test_unbounded_battery_has_no_depletion(self, diamond_problem):
        result = Simulator(diamond_problem, replay_all_fastest(diamond_problem)).run()
        assert result.depletion_time is None

    def test_trace_attached_on_request(self, diamond_problem):
        result = Simulator(
            diamond_problem,
            replay_all_fastest(diamond_problem),
            trace_samples=32,
        ).run()
        assert result.trace is not None
        assert len(result.trace.times) == 32
        assert result.trace.apparent_charge[-1] == pytest.approx(
            result.cost, rel=1e-9
        )

    def test_result_round_trip_with_trace(self, diamond_problem):
        result = Simulator(
            diamond_problem,
            replay_all_fastest(diamond_problem),
            trace_samples=16,
        ).run()
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt.cost == result.cost
        assert rebuilt.intervals == result.intervals
        assert rebuilt.trace.times == result.trace.times

    def test_live_state_of_charge_decreases(self, diamond4):
        problem = SchedulingProblem(
            graph=diamond4, deadline=30.0, battery=BatterySpec(capacity=1e6)
        )
        socs = []

        class Probe(GreedyEnergyScheduler):
            def choose_columns(self, name):
                socs.append(self.simulator.state_of_charge().tolist())
                return super().choose_columns(name)

        Simulator(problem, Probe()).run()
        assert socs[0] == [1.0]
        assert socs[-1][0] < socs[1][0] < 1.0


class TestGraphGrowthAfterARun:
    """Regression: every per-graph memo follows a graph that grows.

    The simulator memoises graph-pure tables (ranks, belief tables, policy
    weights, validated replay sequences) per graph object.  A graph that
    gains a task after a run must not be served the stale tables: the
    second run has to equal a run on a freshly built graph of the same
    shape.
    """

    @staticmethod
    def _grow(graph):
        graph.add_task(make_simple_task("extra", m=5))
        graph.add_edge("T15", "extra")
        return graph

    @staticmethod
    def _run(graph, policy, imode):
        problem = SchedulingProblem(
            graph=graph, deadline=300.0, battery=BatterySpec(beta=0.273)
        )
        return Simulator(
            problem,
            make_policy(policy, problem),
            perturbation=PerturbationModel(jitter=0.1),
            rng=rng_for_seed(7, 0),
            imode=imode,
        ).run()

    @pytest.mark.parametrize(
        "imode",
        (
            None,
            InformationMode.exact(),
            InformationMode.mean(),
            InformationMode.noisy(0.2, seed=1),
        ),
        ids=("none", "exact", "mean", "noisy"),
    )
    @pytest.mark.parametrize(
        "policy", ("greedy-energy", "deadline-slack", "static-replay")
    )
    def test_second_run_equals_a_fresh_graph(self, policy, imode):
        graph = build_g3()
        assert len(self._run(graph, policy, imode).intervals) == 15
        grown = self._run(self._grow(graph), policy, imode)
        fresh = self._run(self._grow(build_g3()), policy, imode)
        assert len(grown.sequence) == 16
        assert grown == fresh
