"""Batch simulation == the scalar event loop, bitwise, everywhere.

:class:`~repro.sim.BatchSimulator` promises that every lane's
:class:`~repro.sim.SimulationResult` (from ``results()``) equals what the
event loop of :mod:`tests.sim.oracle` computes for the same
``(seed, replication)`` stream — full dataclass equality, which covers
sigma, makespan, rest, feasibility, sequence, columns, every interval,
retries, events and the depletion time — and that ``run()``'s per-lane
:class:`~repro.sim.LaneSummary` is that result's projection.  This suite
pins that on a differential grid (chemistries, policies, jitter models,
failures with retries, evaluation points, information modes, deadlines),
on finite batteries, traces and exhausted retry budgets, plus the
policies a batch accepts, the counters a cell emits, and the per-lane
error isolation contract.
"""

import gc
import itertools
import math
import weakref

import pytest

from repro.battery import BatterySpec
from repro.errors import SimulationError
from repro.obs import RECORDER, recording
from repro.scheduling import SchedulingProblem
from repro.sim import (
    BatchSimulator,
    BatteryReactiveScheduler,
    GreedyEnergyScheduler,
    InformationMode,
    LaneSummary,
    PerturbationModel,
    Scheduler,
    Simulator,
    StaticReplayScheduler,
    make_policy,
    rng_for_seed,
)
from repro.taskgraph import DesignPoint, Task, TaskGraph, build_g3

from .oracle import oracle_run

CHEMISTRY_SPECS = {
    "rakhmatov": BatterySpec(beta=0.273),
    "peukert": BatterySpec(chemistry="peukert", chemistry_params={"exponent": 1.3}),
    "kibam": BatterySpec(chemistry="kibam", chemistry_params={"c": 0.625, "k": 0.05}),
    "ideal": BatterySpec(chemistry="ideal"),
}

POLICY_NAMES = (
    "static-replay",
    "greedy-energy",
    "deadline-slack",
    "battery-reactive",
)

PERTURBATIONS = {
    "jitter": PerturbationModel(jitter=0.10),
    "failures": PerturbationModel(jitter=0.15, failure_rate=0.08),
}

#: Cells whose tasks fail and retry: the three jitter shapes, and a retry
#: budget some lanes exhaust.
FAILURE_TIERS = {
    "lognormal": PerturbationModel(jitter=0.15, failure_rate=0.12),
    "uniform": PerturbationModel(jitter=0.2, jitter_model="uniform", failure_rate=0.12),
    "no-jitter": PerturbationModel(failure_rate=0.12),
    "exhausted": PerturbationModel(jitter=0.05, failure_rate=0.3, max_retries=0),
}


def _problem(
    chemistry: str, capacity: float = math.inf, deadline: float = 260.0, graph=None
) -> SchedulingProblem:
    spec = CHEMISTRY_SPECS[chemistry]
    battery = BatterySpec(
        beta=spec.beta,
        capacity=capacity,
        chemistry=spec.chemistry,
        chemistry_params=dict(spec.chemistry_params),
    )
    return SchedulingProblem(
        graph=graph if graph is not None else build_g3(),
        deadline=deadline,
        battery=battery,
    )


def _make_scheduler(policy: str, problem: SchedulingProblem):
    if policy == "static-replay":
        graph = problem.graph
        m = graph.uniform_design_point_count()
        sequence = graph.topological_order()
        columns = {name: index % m for index, name in enumerate(sequence)}
        return StaticReplayScheduler(sequence, columns)
    return make_policy(policy, problem)


def _oracle_outcomes(problem, policy, perturbation, seed, lanes, **kwargs):
    """Reference outcomes: one oracle run per replication stream."""
    outcomes = []
    for replication in range(lanes):
        try:
            outcomes.append(
                oracle_run(
                    problem,
                    _make_scheduler(policy, problem),
                    perturbation=perturbation,
                    rng=rng_for_seed(seed, replication),
                    **kwargs,
                )
            )
        except SimulationError as error:
            outcomes.append(error)
    return outcomes


def _batch_outcomes(problem, policy, perturbation, seed, lanes, **kwargs):
    batch = BatchSimulator(
        problem,
        [_make_scheduler(policy, problem) for _ in range(lanes)],
        rngs=[rng_for_seed(seed, replication) for replication in range(lanes)],
        perturbation=perturbation,
        **kwargs,
    )
    return batch.results()


def _assert_matching(batch_outcomes, oracle_outcomes):
    assert len(batch_outcomes) == len(oracle_outcomes)
    for lane, (batched, reference) in enumerate(zip(batch_outcomes, oracle_outcomes)):
        if isinstance(reference, Exception):
            assert isinstance(batched, SimulationError), f"lane {lane}"
            assert str(batched) == str(reference), f"lane {lane}"
        else:
            # Full dataclass equality: bitwise cost/makespan/rest plus the
            # whole realised timeline, retries, event counts and depletion.
            assert batched == reference, f"lane {lane}"


class TestBatchMatchesScalarBitwise:
    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("tier", sorted(PERTURBATIONS))
    def test_all_chemistries_policies_perturbations(self, chemistry, policy, tier):
        # A failures cell's lanes retry, each as often as its oracle run,
        # so its timelines have ragged lengths.
        problem = _problem(chemistry)
        perturbation = PERTURBATIONS[tier]
        lanes = 6
        reference = _oracle_outcomes(problem, policy, perturbation, 7, lanes)
        _assert_matching(_batch_outcomes(problem, policy, perturbation, 7, lanes), reference)
        if tier == "failures":
            assert len({outcome.retries for outcome in reference}) > 1

    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("tier", sorted(PERTURBATIONS))
    def test_depletion_accounting_on_finite_battery(self, chemistry, policy, tier):
        # A finite capacity gives each lane a state of charge while it runs
        # and a lifetime root-find over its own attempts when it is done.
        problem = _problem(chemistry, capacity=CAPACITIES[chemistry])
        perturbation = PERTURBATIONS[tier]
        lanes = 4
        reference = _oracle_outcomes(problem, policy, perturbation, 3, lanes)
        _assert_matching(_batch_outcomes(problem, policy, perturbation, 3, lanes), reference)
        assert all(outcome.depletion_time is not None for outcome in reference)

    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_traces_sample_each_lanes_own_attempts(self, chemistry, policy):
        # Spare slots (where a sibling retried) stay out of a lane's traced
        # profile, on bounded and unbounded batteries.
        perturbation = PERTURBATIONS["failures"]
        for capacity in (math.inf, CAPACITIES[chemistry]):
            problem = _problem(chemistry, capacity=capacity)
            kwargs = dict(trace_samples=7)
            reference = _oracle_outcomes(problem, policy, perturbation, 5, 4, **kwargs)
            batched = _batch_outcomes(problem, policy, perturbation, 5, 4, **kwargs)
            _assert_matching(batched, reference)
            assert [outcome.trace for outcome in batched] == [
                outcome.trace for outcome in reference
            ]
            assert len({outcome.retries for outcome in reference}) > 1

    def test_null_perturbation_lanes_are_identical_and_draw_free(self):
        problem = _problem("rakhmatov")
        lanes = 3
        outcomes = _batch_outcomes(problem, "deadline-slack", None, 0, lanes)
        reference = oracle_run(problem, _make_scheduler("deadline-slack", problem))
        for outcome in outcomes:
            assert outcome == reference

    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_retry_budget_exhaustion_is_isolated_per_lane(self, chemistry, policy):
        # Zero retry budget + a high failure rate: whichever lanes draw an
        # early failure die with the oracle's SimulationError while their
        # siblings complete, on bounded and unbounded batteries alike.
        perturbation = FAILURE_TIERS["exhausted"]
        lanes = 12
        for capacity in (math.inf, CAPACITIES[chemistry]):
            problem = _problem(chemistry, capacity=capacity)
            reference = _oracle_outcomes(problem, policy, perturbation, 11, lanes)
            _assert_matching(_batch_outcomes(problem, policy, perturbation, 11, lanes), reference)
            failed = [o for o in reference if isinstance(o, Exception)]
            completed = [o for o in reference if not isinstance(o, Exception)]
            assert failed, "expected at least one lane to exhaust its retry budget"
            assert completed, "expected at least one lane to survive"

    def test_an_exhausted_lane_draws_no_further(self):
        # The lane's stream stops at the attempt that exhausts the budget:
        # exactly what the oracle drew from it, no more.
        problem = _problem("ideal")
        perturbation = FAILURE_TIERS["exhausted"]
        streams = [rng_for_seed(11, replication) for replication in range(12)]
        BatchSimulator(
            problem,
            [_make_scheduler("greedy-energy", problem) for _ in range(12)],
            rngs=streams,
            perturbation=perturbation,
        )
        for replication, stream in enumerate(streams):
            reference = rng_for_seed(11, replication)
            try:
                oracle_run(
                    problem, _make_scheduler("greedy-energy", problem),
                    perturbation=perturbation, rng=reference,
                )
            except SimulationError:
                pass
            assert stream.bit_generator.state == reference.bit_generator.state


class TestBatchEdgeCases:
    @pytest.mark.parametrize("tier", sorted(PERTURBATIONS))
    def test_single_lane_equals_scalar(self, tier):
        # The degenerate batch: one lane must still be bitwise-equal to
        # the oracle on the same stream, through jitter and failure/retry
        # alike.
        problem = _problem("kibam")
        perturbation = PERTURBATIONS[tier]
        _assert_matching(
            _batch_outcomes(problem, "battery-reactive", perturbation, 13, 1),
            _oracle_outcomes(problem, "battery-reactive", perturbation, 13, 1),
        )

    def test_retry_reruns_same_task_and_column_immediately(self):
        # The retry contract: a failed attempt goes to the *front* of the
        # PE queue with the same design point, so the very next interval is
        # the same task, same column, attempt + 1 — the policy is never
        # re-consulted for a retry.
        problem = _problem("ideal")
        result = Simulator(
            problem,
            _make_scheduler("greedy-energy", problem),
            perturbation=PerturbationModel(jitter=0.05, failure_rate=0.35),
            rng=rng_for_seed(2, 0),
        ).run()
        assert result.retries > 0, "perturbation never forced a retry"
        intervals = result.intervals
        for failed, following in zip(intervals, intervals[1:]):
            if failed.failed:
                assert following.task == failed.task
                assert following.column == failed.column
                assert following.attempt == failed.attempt + 1


class TestBatchConstruction:
    def test_rejects_empty_batch(self):
        with pytest.raises(SimulationError):
            BatchSimulator(_problem("ideal"), [])

    def test_zero_lanes_rejected_before_any_lane_state_exists(self):
        with pytest.raises(SimulationError, match="at least one"):
            BatchSimulator(_problem("ideal"), [], rngs=[])

    def test_rejects_shared_scheduler_instances(self):
        problem = _problem("ideal")
        scheduler = _make_scheduler("greedy-energy", problem)
        with pytest.raises(SimulationError):
            BatchSimulator(problem, [scheduler, scheduler])

    def test_rejects_mismatched_rng_count(self):
        problem = _problem("ideal")
        schedulers = [_make_scheduler("greedy-energy", problem) for _ in range(3)]
        with pytest.raises(SimulationError):
            BatchSimulator(problem, schedulers, rngs=[rng_for_seed(0, 0)])

    @pytest.mark.parametrize("first", ("run", "results"))
    def test_runs_exactly_once_through_either_method(self, first):
        problem = _problem("ideal")
        batch = BatchSimulator(
            problem, [_make_scheduler("greedy-energy", problem)]
        )
        getattr(batch, first)()
        for method in (batch.run, batch.results):
            with pytest.raises(SimulationError, match="exactly once"):
                method()

    def test_policies_are_freed_with_their_batch(self):
        # A bound policy refers to the cell's live state but nothing refers
        # back, so reference counting alone frees every lane's policy with
        # the batch.
        problem = _problem("ideal")
        schedulers = [_make_scheduler("greedy-energy", problem) for _ in range(6)]
        alive = [weakref.ref(scheduler) for scheduler in schedulers]
        batch = BatchSimulator(
            problem,
            schedulers,
            rngs=[rng_for_seed(11, lane) for lane in range(6)],
            perturbation=PERTURBATIONS["failures"],
            trace_samples=4,
        )
        del schedulers
        collecting = gc.isenabled()
        gc.disable()
        try:
            summaries = batch.run()
            assert sum(summary.retries for summary in summaries) > 0
            del batch
            assert [ref() for ref in alive] == [None] * 6
        finally:
            if collecting:
                gc.enable()

    def test_len_counts_lanes(self):
        problem = _problem("ideal")
        batch = BatchSimulator(
            problem,
            [_make_scheduler("greedy-energy", problem) for _ in range(4)],
        )
        assert len(batch) == 4


#: Per chemistry, a capacity every policy's lanes run out of mid-run.
CAPACITIES = {"rakhmatov": 4000.0, "peukert": 10000.0, "kibam": 4000.0, "ideal": 4000.0}

GRID_PERTURBATIONS = (
    PerturbationModel(jitter=0.1),
    PerturbationModel(jitter=0.6),
    PerturbationModel(jitter=0.3, jitter_model="uniform"),
    None,
    PerturbationModel(jitter=0.2, failure_rate=0.15),
)
GRID_MODES = (
    None,
    InformationMode.blind(),
    InformationMode.mean(),
    InformationMode.noisy(0.3, seed=5),
)


class TestColumnarGrid:
    """The columnar simulator against the oracle, on every axis it reads."""

    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_grid_equals_scalar(self, chemistry, policy):
        # Per (chemistry, policy): jitter models x evaluation points x
        # information modes x deadlines (tight, the default, loose) — 96
        # cells of 3 lanes, each lane equal to its oracle run bitwise.
        graph = build_g3()
        for perturbation, evaluate_at, imode, deadline in itertools.product(
            GRID_PERTURBATIONS,
            ("completion", "deadline"),
            GRID_MODES,
            (150.0, 260.0, 400.0),
        ):
            problem = _problem(chemistry, deadline=deadline, graph=graph)
            kwargs = dict(evaluate_at=evaluate_at, imode=imode)
            outcomes = _batch_outcomes(problem, policy, perturbation, 3, 3, **kwargs)
            reference = _oracle_outcomes(problem, policy, perturbation, 3, 3, **kwargs)
            assert list(outcomes) == reference, (perturbation, evaluate_at, imode, deadline)
            assert [o.to_dict() for o in outcomes] == [r.to_dict() for r in reference]

    @pytest.mark.parametrize("perturbation", GRID_PERTURBATIONS[:3], ids=repr)
    def test_vector_draws_equal_scalar_draws(self, perturbation):
        for replication in range(8):
            vector = rng_for_seed(11, replication)
            scalar = rng_for_seed(11, replication)
            drawn = perturbation.duration_factors(vector, 25)
            assert drawn.tolist() == [
                perturbation.duration_factor(scalar) for _ in range(25)
            ]
            # Both generators sit at the same point of their streams.
            assert vector.random() == scalar.random()

    def test_null_perturbation_draws_nothing(self):
        rng = rng_for_seed(2, 0)
        state = rng.bit_generator.state
        assert PerturbationModel().duration_factors(rng, 4).tolist() == [1.0] * 4
        assert rng.bit_generator.state == state


class _SubclassedGreedy(GreedyEnergyScheduler):
    """A subclass of a built-in online policy runs its inherited rules."""


class _CustomPolicy(Scheduler):
    """A policy that is neither a static replay nor an online policy."""

    name = "custom"


class TestColumnarEligibility:
    """Which lanes a batch accepts: one built-in policy shape, equal lanes."""

    def _batch(self, problem, schedulers, perturbation=PERTURBATIONS["jitter"], **kwargs):
        return BatchSimulator(
            problem,
            schedulers,
            rngs=[rng_for_seed(5, lane) for lane in range(len(schedulers))],
            perturbation=perturbation,
            **kwargs,
        )

    def test_a_subclassed_online_policy_equals_its_base(self):
        problem = _problem("rakhmatov", capacity=CAPACITIES["rakhmatov"])
        results = self._batch(problem, [_SubclassedGreedy() for _ in range(3)]).results()
        reference = _oracle_outcomes(problem, "greedy-energy", PERTURBATIONS["jitter"], 5, 3)
        assert [result.policy for result in results] == ["greedy-energy"] * 3
        assert list(results) == reference

    @pytest.mark.parametrize("case", ("custom-policy", "mixed-types", "unequal-params"))
    def test_each_unsupported_batch_is_rejected_at_construction(self, case):
        problem = _problem("rakhmatov")

        def scheduler(lane):
            if case == "custom-policy":
                return _CustomPolicy()
            if case == "mixed-types" and lane == 1:
                return make_policy("battery-reactive", problem)
            if case == "unequal-params":
                return BatteryReactiveScheduler(stress_threshold=0.5 if lane == 2 else 0.25)
            return make_policy("greedy-energy", problem)

        with pytest.raises(SimulationError):
            self._batch(problem, [scheduler(lane) for lane in range(3)])

    def test_invalid_replay_sequence_fails_every_lane_like_scalar(self):
        problem = _problem("ideal")
        sequence = list(reversed(problem.graph.topological_order()))
        columns = {name: 0 for name in sequence}
        outcomes = self._batch(
            problem, [StaticReplayScheduler(sequence, columns) for _ in range(3)]
        ).run()
        with pytest.raises(Exception) as reference:
            oracle_run(
                problem,
                StaticReplayScheduler(sequence, columns),
                perturbation=PERTURBATIONS["jitter"],
                rng=rng_for_seed(5, 0),
            )
        for outcome in outcomes:
            assert type(outcome) is reference.type
            assert str(outcome) == str(reference.value)

    def test_out_of_range_replay_column_fails_every_lane_like_scalar(self):
        problem = _problem("ideal")
        sequence = problem.graph.topological_order()
        columns = {name: 0 for name in sequence}
        columns[sequence[2]] = 99
        outcomes = self._batch(
            problem, [StaticReplayScheduler(sequence, columns) for _ in range(2)]
        ).run()
        with pytest.raises(SimulationError) as reference:
            oracle_run(problem, StaticReplayScheduler(sequence, columns))
        assert "out of range" in str(reference.value)
        assert [str(outcome) for outcome in outcomes] == [str(reference.value)] * 2


def _sim_counters(run):
    """The deterministic ``sim.*`` counters ``run()`` emits (lane-level ones)."""
    try:
        with recording() as recorder:
            run()
        counters = recorder.counters_snapshot()["counters"]
    finally:
        RECORDER.reset()
    return {
        key: value
        for key, value in counters.items()
        if key.startswith("sim.") and not key.startswith("sim.batch.")
    }


class TestColumnarCounters:
    @pytest.mark.parametrize("chemistry", ("rakhmatov", "peukert"))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize(
        "imode", (None, InformationMode.noisy(0.3, seed=101)), ids=("exact", "noisy")
    )
    def test_columnar_cell_emits_the_scalar_lane_totals(self, chemistry, policy, imode):
        problem = _problem(chemistry)
        perturbation = PERTURBATIONS["jitter"]
        lanes = 4

        def batch():
            _batch_outcomes(problem, policy, perturbation, 9, lanes, imode=imode)

        def oracle():
            _oracle_outcomes(problem, policy, perturbation, 9, lanes, imode=imode)

        expected = _sim_counters(oracle)
        assert expected["sim.decisions[%s]" % policy] == lanes * problem.graph.num_tasks
        assert _sim_counters(batch) == expected

    @pytest.mark.parametrize("chemistry", ("rakhmatov", "peukert"))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("tier", sorted(FAILURE_TIERS))
    @pytest.mark.parametrize("bounded", (False, True), ids=("unbounded", "bounded"))
    def test_failing_cell_emits_the_scalar_lane_totals(self, chemistry, policy, tier, bounded):
        # Every attempt counts a task-end and every failed one a retry; a
        # lane whose budget runs out stops counting where its oracle run
        # raises (drawing the plans counts nothing).
        capacity = CAPACITIES[chemistry] if bounded else math.inf
        problem = _problem(chemistry, capacity=capacity, deadline=200.0)
        perturbation = FAILURE_TIERS[tier]
        lanes = 5

        def batch():
            _batch_outcomes(problem, policy, perturbation, 9, lanes)

        def oracle():
            _oracle_outcomes(problem, policy, perturbation, 9, lanes)

        expected = _sim_counters(oracle)
        # A zero budget fails at the first failed attempt, before a retry.
        assert ("sim.retries[%s]" % policy in expected) is (tier != "exhausted")
        assert _sim_counters(batch) == expected

    def test_a_bounded_battery_counts_state_of_charge_and_sigma_queries(self):
        problem = _problem("kibam", capacity=CAPACITIES["kibam"])

        def batch():
            _batch_outcomes(problem, "battery-reactive", PERTURBATIONS["jitter"], 2, 3)

        expected = _sim_counters(
            lambda: _oracle_outcomes(problem, "battery-reactive", PERTURBATIONS["jitter"], 2, 3)
        )
        asked = 3 * problem.graph.num_tasks
        assert expected["sim.query.state_of_charge[battery-reactive]"] == asked
        assert expected["sim.query.apparent_charge[battery-reactive]"] == asked
        assert "sim.query.delivered_charge[battery-reactive]" not in expected
        assert _sim_counters(batch) == expected


class TestLaneSummaries:
    """``run()`` gives each lane's six store scalars: ``results()`` projected."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("tier", sorted(PERTURBATIONS))
    @pytest.mark.parametrize("evaluate_at", ("completion", "deadline"))
    def test_summaries_equal_projected_results(self, policy, tier, evaluate_at):
        problem = _problem("kibam", deadline=150.0)

        def batch():
            return BatchSimulator(
                problem,
                [_make_scheduler(policy, problem) for _ in range(5)],
                rngs=[rng_for_seed(4, lane) for lane in range(5)],
                perturbation=PERTURBATIONS[tier],
                evaluate_at=evaluate_at,
            )

        summaries = batch().run()
        assert all(type(outcome) is LaneSummary for outcome in summaries)
        assert list(summaries) == [LaneSummary.of(result) for result in batch().results()]

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("tier", sorted(FAILURE_TIERS))
    def test_failing_cells_summarise_their_scalar_runs(self, policy, tier):
        problem = _problem("kibam", deadline=150.0)
        perturbation = FAILURE_TIERS[tier]
        batch = BatchSimulator(
            problem,
            [_make_scheduler(policy, problem) for _ in range(6)],
            rngs=[rng_for_seed(4, lane) for lane in range(6)],
            perturbation=perturbation,
        )
        reference = _oracle_outcomes(problem, policy, perturbation, 4, 6)
        for summary, expected in zip(batch.run(), reference):
            if isinstance(expected, Exception):
                assert type(summary) is type(expected)
                assert str(summary) == str(expected)
            else:
                assert summary == LaneSummary.of(expected)
        if tier != "exhausted":
            assert len({outcome.retries for outcome in reference}) > 1

    def test_a_makespan_on_the_deadline_is_feasible(self):
        # A draw-free replay ends exactly at its modeled makespan; with the
        # deadline set there, the lane is feasible.
        problem = _problem("ideal")
        scheduler = _make_scheduler("static-replay", problem)
        makespan = oracle_run(problem, scheduler).makespan
        problem = _problem("ideal", deadline=makespan)
        summaries = BatchSimulator(
            problem, [_make_scheduler("static-replay", problem) for _ in range(2)]
        ).run()
        reference = oracle_run(problem, _make_scheduler("static-replay", problem))
        assert reference.feasible
        assert list(summaries) == [LaneSummary.of(reference)] * 2

    def test_finite_battery_summaries_carry_depletion_time(self):
        problem = _problem("rakhmatov", capacity=2500.0)
        reference = _oracle_outcomes(problem, "greedy-energy", PERTURBATIONS["jitter"], 3, 4)
        batch = BatchSimulator(
            problem,
            [_make_scheduler("greedy-energy", problem) for _ in range(4)],
            rngs=[rng_for_seed(3, lane) for lane in range(4)],
            perturbation=PERTURBATIONS["jitter"],
        )
        assert list(batch.run()) == [LaneSummary.of(result) for result in reference]
        assert any(result.depletion_time is not None for result in reference)

    def test_lane_exceptions_keep_their_positions(self):
        problem = _problem("ideal")
        perturbation = PerturbationModel(jitter=0.05, failure_rate=0.3, max_retries=0)
        reference = _oracle_outcomes(problem, "greedy-energy", perturbation, 11, 12)
        summaries = BatchSimulator(
            problem,
            [_make_scheduler("greedy-energy", problem) for _ in range(12)],
            rngs=[rng_for_seed(11, lane) for lane in range(12)],
            perturbation=perturbation,
        ).run()
        assert any(isinstance(outcome, Exception) for outcome in reference)
        for summary, expected in zip(summaries, reference):
            if isinstance(expected, Exception):
                assert str(summary) == str(expected)
            else:
                assert summary == LaneSummary.of(expected)


#: Believed times under which ``b``'s slower column 1 looks the faster one.
ZERO_CHARGE_MODE = InformationMode.noisy(0.3, seed=0)


def _zero_charge_problem() -> SchedulingProblem:
    """A chain whose jittered lanes split into charged and uncharged ones.

    ``a`` draws no current at either column.  Under
    :data:`ZERO_CHARGE_MODE` the policy believes ``b``'s charging column 1
    is its fastest, so a lane that ran ``a`` fast picks it; a slow lane
    fits no column and falls back to column 0, which draws no current.
    So at ``c`` some lanes have delivered charge and ask for sigma, and
    the others have delivered none and do not ask.
    """
    graph = TaskGraph(
        tasks=[
            Task("a", [DesignPoint(5.0, 0.0), DesignPoint(6.0, 0.0)]),
            Task("b", [DesignPoint(2.0, 0.0), DesignPoint(2.2, 40.0)]),
            Task("c", [DesignPoint(3.0, 30.0), DesignPoint(6.0, 10.0)]),
            Task("d", [DesignPoint(3.0, 30.0), DesignPoint(6.0, 10.0)]),
        ],
        edges=[("a", "b"), ("b", "c"), ("c", "d")],
    )
    return SchedulingProblem(graph=graph, deadline=12.0, battery=BatterySpec(beta=0.273))


class TestZeroDeliveredCharge:
    """Lanes with no delivered charge never ask for sigma, nor count as asking."""

    LANES = 8

    def _batch(self, problem):
        return BatchSimulator(
            problem,
            [make_policy("battery-reactive", problem) for _ in range(self.LANES)],
            rngs=[rng_for_seed(1, lane) for lane in range(self.LANES)],
            perturbation=PERTURBATIONS["jitter"],
            imode=ZERO_CHARGE_MODE,
        )

    def _oracle(self, problem):
        return _oracle_outcomes(
            problem, "battery-reactive", PERTURBATIONS["jitter"], 1, self.LANES,
            imode=ZERO_CHARGE_MODE,
        )

    def test_some_lanes_ask_for_sigma_and_some_do_not(self):
        problem = _zero_charge_problem()
        results = self._batch(problem).results()
        assert list(results) == self._oracle(problem)
        picks = {result.columns["b"] for result in results}
        assert picks == {0, 1}, "expected both charged and uncharged lanes at c"

    def test_apparent_charge_counts_only_asking_lanes(self):
        problem = _zero_charge_problem()
        expected = _sim_counters(lambda: self._oracle(problem))
        asked = expected["sim.query.apparent_charge[battery-reactive]"]
        # Charged lanes ask at c and d; uncharged ones ask only at d.
        assert self.LANES < asked < 2 * self.LANES
        assert _sim_counters(lambda: self._batch(problem).run()) == expected
