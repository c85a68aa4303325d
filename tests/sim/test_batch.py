"""Batch simulation == scalar simulation, bitwise, everywhere.

:class:`~repro.sim.BatchSimulator` promises that every lane's
:class:`~repro.sim.SimulationResult` (from ``results()``) equals the
scalar :class:`~repro.sim.Simulator`'s for the same ``(seed, replication)``
stream — full dataclass equality, which covers sigma, makespan, rest,
feasibility, sequence, columns, every interval, retries and events — and
that ``run()``'s per-lane :class:`~repro.sim.LaneSummary` is that
result's projection.  This suite pins that on both of its paths — the
columnar core (a differential grid over chemistries, policies, jitter
models, failures with retries, evaluation points, information modes and
deadlines) and the scalar fallback (finite batteries, traces, custom
policies, exhausted retry budgets) — plus the choice between them, the
counters a columnar cell emits, and the per-lane error isolation
contract.
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
#: budget every lane exhausts (such a cell runs on scalar lanes).
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


def _scalar_outcomes(problem, policy, perturbation, seed, lanes, **kwargs):
    """Reference outcomes: one scalar simulator per replication stream."""
    outcomes = []
    for replication in range(lanes):
        simulator = Simulator(
            problem,
            _make_scheduler(policy, problem),
            perturbation=perturbation,
            rng=rng_for_seed(seed, replication),
            **kwargs,
        )
        try:
            outcomes.append(simulator.run())
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


def _assert_matching(batch_outcomes, scalar_outcomes):
    assert len(batch_outcomes) == len(scalar_outcomes)
    for lane, (batched, scalar) in enumerate(zip(batch_outcomes, scalar_outcomes)):
        if isinstance(scalar, Exception):
            assert isinstance(batched, SimulationError), f"lane {lane}"
            assert str(batched) == str(scalar), f"lane {lane}"
        else:
            # Full dataclass equality: bitwise cost/makespan/rest plus the
            # whole realised timeline, retries and event counts.
            assert batched == scalar, f"lane {lane}"


class TestBatchMatchesScalarBitwise:
    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("tier", sorted(PERTURBATIONS))
    def test_all_chemistries_policies_perturbations(self, chemistry, policy, tier):
        # Both tiers run columnar: a failures cell's lanes retry, each as
        # often as its scalar run, so its timelines have ragged lengths.
        problem = _problem(chemistry)
        perturbation = PERTURBATIONS[tier]
        lanes = 6
        batch = BatchSimulator(
            problem,
            [_make_scheduler(policy, problem) for _ in range(lanes)],
            rngs=[rng_for_seed(7, replication) for replication in range(lanes)],
            perturbation=perturbation,
        )
        assert batch.columnar
        scalar = _scalar_outcomes(problem, policy, perturbation, 7, lanes)
        _assert_matching(batch.results(), scalar)
        if tier == "failures":
            assert len({outcome.retries for outcome in scalar}) > 1

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_depletion_accounting_on_finite_battery(self, policy):
        # A finite capacity takes the depletion_time branch of _finalize;
        # the lifetime root-find must agree between the paths too.
        problem = _problem("rakhmatov", capacity=2500.0)
        perturbation = PerturbationModel(jitter=0.10)
        lanes = 4
        scalar = _scalar_outcomes(problem, policy, perturbation, 3, lanes)
        batched = _batch_outcomes(problem, policy, perturbation, 3, lanes)
        _assert_matching(batched, scalar)
        assert any(
            outcome.depletion_time is not None
            for outcome in scalar
            if not isinstance(outcome, Exception)
        )

    def test_null_perturbation_lanes_are_identical_and_draw_free(self):
        problem = _problem("rakhmatov")
        lanes = 3
        outcomes = _batch_outcomes(problem, "deadline-slack", None, 0, lanes)
        scalar = Simulator(
            problem, _make_scheduler("deadline-slack", problem)
        ).run()
        for outcome in outcomes:
            assert outcome == scalar

    def test_retry_budget_exhaustion_is_isolated_per_lane(self):
        problem = _problem("ideal")
        # Zero retry budget + a high failure rate: whichever lanes draw an
        # early failure die with SimulationError while siblings complete.
        # Drawing the attempt plans consumed every stream, so the cell's
        # fallback to scalar lanes must first restore each one.
        perturbation = PerturbationModel(jitter=0.05, failure_rate=0.3, max_retries=0)
        lanes = 12
        scalar = _scalar_outcomes(problem, "greedy-energy", perturbation, 11, lanes)
        batch = BatchSimulator(
            problem,
            [_make_scheduler("greedy-energy", problem) for _ in range(lanes)],
            rngs=[rng_for_seed(11, replication) for replication in range(lanes)],
            perturbation=perturbation,
        )
        assert not batch.columnar
        _assert_matching(batch.results(), scalar)
        failed = [o for o in scalar if isinstance(o, Exception)]
        completed = [o for o in scalar if not isinstance(o, Exception)]
        assert failed, "expected at least one lane to exhaust its retry budget"
        assert completed, "expected at least one lane to survive"


class _FailsAfterScheduler(Scheduler):
    """Delegates to greedy-energy but raises after a decision budget.

    A fault probe for the per-lane isolation contract: the raise happens
    *mid-run* — after the lane has already made progress — not at
    construction or at the first wakeup.  A cell holding it runs on
    scalar lanes (its policies differ in type).
    """

    name = "fails-after"

    def __init__(self, problem: SchedulingProblem, after: int):
        self._inner = make_policy("greedy-energy", problem)
        self._after = after
        self._made = 0

    def init(self, simulator) -> None:
        super().init(simulator)
        self._inner.init(simulator)

    def schedule(self, new_ready, new_finished):
        decisions = self._inner.schedule(new_ready, new_finished)
        self._made += len(decisions)
        if self._made > self._after:
            raise RuntimeError("injected scheduler fault")
        return decisions


class _ReadyOrderProbe(Scheduler):
    """Records every ``ready_tasks()`` snapshot while delegating decisions."""

    name = "ready-order-probe"

    def __init__(self, problem: SchedulingProblem):
        self._inner = make_policy("greedy-energy", problem)
        self.snapshots = []

    def init(self, simulator) -> None:
        super().init(simulator)
        self._inner.init(simulator)

    def schedule(self, new_ready, new_finished):
        self.snapshots.append(self.simulator.ready_tasks())
        return self._inner.schedule(new_ready, new_finished)


class TestBatchEdgeCases:
    @pytest.mark.parametrize("tier", sorted(PERTURBATIONS))
    def test_single_lane_equals_scalar(self, tier):
        # The degenerate batch: one lane must still be bitwise-equal to
        # the scalar simulator on the same stream, through jitter and
        # failure/retry alike.
        problem = _problem("kibam")
        perturbation = PERTURBATIONS[tier]
        _assert_matching(
            _batch_outcomes(problem, "battery-reactive", perturbation, 13, 1),
            _scalar_outcomes(problem, "battery-reactive", perturbation, 13, 1),
        )

    def test_mid_batch_scheduler_fault_is_isolated(self):
        # Lane 1's scheduler raises after three decisions, mid-run.  Its
        # outcome is that exception; lanes 0 and 2 finish bitwise-equal
        # to their scalar references as if the faulty sibling never ran.
        problem = _problem("rakhmatov")
        perturbation = PerturbationModel(jitter=0.10)
        schedulers = [
            _make_scheduler("greedy-energy", problem),
            _FailsAfterScheduler(problem, after=3),
            _make_scheduler("greedy-energy", problem),
        ]
        outcomes = BatchSimulator(
            problem,
            schedulers,
            rngs=[rng_for_seed(7, replication) for replication in range(3)],
            perturbation=perturbation,
        ).results()
        scalar = _scalar_outcomes(problem, "greedy-energy", perturbation, 7, 3)
        assert isinstance(outcomes[1], RuntimeError)
        assert "injected scheduler fault" in str(outcomes[1])
        assert outcomes[0] == scalar[0]
        assert outcomes[2] == scalar[2]

    def test_ready_tasks_order_survives_retry_requeues(self):
        # A failed task re-enters the ready set via bisect.insort on its
        # graph rank: ready_tasks() stays in graph insertion order even
        # after failure -> retry re-queues (not append-at-the-end order).
        problem = _problem("ideal")
        probe = _ReadyOrderProbe(problem)
        result = Simulator(
            problem,
            probe,
            perturbation=PerturbationModel(jitter=0.05, failure_rate=0.35),
            rng=rng_for_seed(2, 0),
        ).run()
        assert result.retries > 0, "perturbation never forced a retry"
        order = {name: rank for rank, name in enumerate(problem.graph.task_names())}
        for snapshot in probe.snapshots:
            assert list(snapshot) == sorted(snapshot, key=order.__getitem__)

    def test_retry_reruns_same_task_and_column_immediately(self):
        # The retry contract behind the re-queue: a failed attempt goes to
        # the *front* of the PE queue with the same design point, so the
        # very next interval is the same task, same column, attempt + 1 —
        # the scheduler is never re-consulted for a retry.
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

    def test_scalar_lanes_are_freed_with_their_batch(self):
        # A spent scalar lane and its policy refer to each other; the batch
        # unlinks them, so reference counting alone frees both with it.
        # (A traced cell runs on scalar lanes.)
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
        alive += [weakref.ref(lane) for lane in batch._lanes]
        del schedulers
        collecting = gc.isenabled()
        gc.disable()
        try:
            summaries = batch.run()
            assert sum(summary.retries for summary in summaries) > 0
            del batch
            assert [ref() for ref in alive] == [None] * 12
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
    """The columnar core against scalar runs, on every axis it reads."""

    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_grid_equals_scalar(self, chemistry, policy):
        # Per (chemistry, policy): jitter models x evaluation points x
        # information modes x deadlines (tight, the default, loose) — 96
        # cells of 3 lanes, each lane equal to its scalar run bitwise.
        graph = build_g3()
        for perturbation, evaluate_at, imode, deadline in itertools.product(
            GRID_PERTURBATIONS,
            ("completion", "deadline"),
            GRID_MODES,
            (150.0, 260.0, 400.0),
        ):
            problem = _problem(chemistry, deadline=deadline, graph=graph)
            kwargs = dict(evaluate_at=evaluate_at, imode=imode)
            batch = BatchSimulator(
                problem,
                [_make_scheduler(policy, problem) for _ in range(3)],
                rngs=[rng_for_seed(3, replication) for replication in range(3)],
                perturbation=perturbation,
                **kwargs,
            )
            assert batch.columnar
            outcomes = batch.results()
            reference = _scalar_outcomes(problem, policy, perturbation, 3, 3, **kwargs)
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
    """A subclass may override anything, so its cells run scalar."""


class _CustomPolicy(Scheduler):
    """A registered-style custom policy: topological order, fastest points."""

    name = "custom"

    def init(self, simulator) -> None:
        super().init(simulator)
        self._sent = False

    def schedule(self, new_ready, new_finished):
        if self._sent:
            return ()
        self._sent = True
        return [(name, 0) for name in self.simulator.graph.topological_order()]


class TestColumnarEligibility:
    """Which cells run columnar: input properties only, each one checked."""

    def _batch(self, problem, schedulers, perturbation=PERTURBATIONS["jitter"], **kwargs):
        return BatchSimulator(
            problem,
            schedulers,
            rngs=[rng_for_seed(5, lane) for lane in range(len(schedulers))],
            perturbation=perturbation,
            **kwargs,
        )

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_retry_free_cells_of_built_in_policies_are_columnar(self, policy):
        problem = _problem("kibam")
        schedulers = [_make_scheduler(policy, problem) for _ in range(3)]
        assert self._batch(problem, schedulers).columnar

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_failing_cells_within_their_retry_budget_are_columnar(self, policy):
        problem = _problem("kibam")
        schedulers = [_make_scheduler(policy, problem) for _ in range(3)]
        assert self._batch(problem, schedulers, PERTURBATIONS["failures"]).columnar

    @pytest.mark.parametrize(
        "case",
        (
            "finite-capacity",
            "trace",
            "subclass",
            "custom-policy",
            "mixed-types",
            "unequal-params",
        ),
    )
    def test_each_ineligible_property_falls_back_to_scalar_lanes(self, case):
        capacity = 2500.0 if case == "finite-capacity" else math.inf
        problem = _problem("rakhmatov", capacity=capacity)
        perturbation = PERTURBATIONS["jitter"]
        kwargs = {"trace_samples": 8} if case == "trace" else {}

        def scheduler(lane):
            if case == "subclass":
                return _SubclassedGreedy()
            if case == "custom-policy":
                return _CustomPolicy()
            if case == "mixed-types" and lane == 1:
                return make_policy("battery-reactive", problem)
            if case == "unequal-params":
                return BatteryReactiveScheduler(stress_threshold=0.5 if lane == 2 else 0.25)
            return make_policy("greedy-energy", problem)

        batch = self._batch(
            problem, [scheduler(lane) for lane in range(3)], perturbation, **kwargs
        )
        assert not batch.columnar
        reference = [
            Simulator(
                problem,
                scheduler(lane),
                perturbation=perturbation,
                rng=rng_for_seed(5, lane),
                **kwargs,
            ).run()
            for lane in range(3)
        ]
        assert list(batch.results()) == reference

    def test_invalid_replay_sequence_fails_every_lane_like_scalar(self):
        problem = _problem("ideal")
        sequence = list(reversed(problem.graph.topological_order()))
        columns = {name: 0 for name in sequence}
        outcomes = self._batch(
            problem, [StaticReplayScheduler(sequence, columns) for _ in range(3)]
        ).run()
        with pytest.raises(Exception) as scalar:
            Simulator(
                problem,
                StaticReplayScheduler(sequence, columns),
                perturbation=PERTURBATIONS["jitter"],
                rng=rng_for_seed(5, 0),
            ).run()
        for outcome in outcomes:
            assert type(outcome) is scalar.type
            assert str(outcome) == str(scalar.value)

    def test_out_of_range_replay_column_fails_every_lane_like_scalar(self):
        problem = _problem("ideal")
        sequence = problem.graph.topological_order()
        columns = {name: 0 for name in sequence}
        columns[sequence[2]] = 99
        outcomes = self._batch(
            problem, [StaticReplayScheduler(sequence, columns) for _ in range(2)]
        ).run()
        with pytest.raises(SimulationError) as scalar:
            Simulator(problem, StaticReplayScheduler(sequence, columns)).run()
        assert "out of range" in str(scalar.value)
        assert [str(outcome) for outcome in outcomes] == [str(scalar.value)] * 2


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

        def columnar():
            batch = BatchSimulator(
                problem,
                [_make_scheduler(policy, problem) for _ in range(lanes)],
                rngs=[rng_for_seed(9, lane) for lane in range(lanes)],
                perturbation=perturbation,
                imode=imode,
            )
            assert batch.columnar
            batch.run()

        def scalar():
            _scalar_outcomes(problem, policy, perturbation, 9, lanes, imode=imode)

        expected = _sim_counters(scalar)
        assert expected["sim.decisions[%s]" % policy] == lanes * problem.graph.num_tasks
        assert _sim_counters(columnar) == expected

    @pytest.mark.parametrize("chemistry", ("rakhmatov", "peukert"))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("tier", sorted(FAILURE_TIERS))
    def test_failing_cell_emits_the_scalar_lane_totals(self, chemistry, policy, tier):
        # Every attempt counts a task-end and every failed one a retry; a
        # cell whose budget runs out emits only its scalar lanes' counters
        # (drawing the plans counts nothing).
        problem = _problem(chemistry, deadline=200.0)
        perturbation = FAILURE_TIERS[tier]
        lanes = 5

        def batch():
            batch = BatchSimulator(
                problem,
                [_make_scheduler(policy, problem) for _ in range(lanes)],
                rngs=[rng_for_seed(9, lane) for lane in range(lanes)],
                perturbation=perturbation,
            )
            assert batch.columnar is (tier != "exhausted")
            batch.run()

        def scalar():
            _scalar_outcomes(problem, policy, perturbation, 9, lanes)

        expected = _sim_counters(scalar)
        # A zero budget fails at the first failed attempt, before a retry.
        assert ("sim.retries[%s]" % policy in expected) is (tier != "exhausted")
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
        assert batch.columnar is (tier != "exhausted")
        scalar = _scalar_outcomes(problem, policy, perturbation, 4, 6)
        for summary, reference in zip(batch.run(), scalar):
            if isinstance(reference, Exception):
                assert type(summary) is type(reference)
                assert str(summary) == str(reference)
            else:
                assert summary == LaneSummary.of(reference)
        if tier != "exhausted":
            assert len({outcome.retries for outcome in scalar}) > 1

    def test_a_makespan_on_the_deadline_is_feasible(self):
        # A draw-free replay ends exactly at its modeled makespan; with the
        # deadline set there, the lane is feasible on both paths.
        problem = _problem("ideal")
        scheduler = _make_scheduler("static-replay", problem)
        makespan = Simulator(problem, scheduler).run().makespan
        problem = _problem("ideal", deadline=makespan)
        summaries = BatchSimulator(
            problem, [_make_scheduler("static-replay", problem) for _ in range(2)]
        ).run()
        reference = Simulator(problem, _make_scheduler("static-replay", problem)).run()
        assert reference.feasible
        assert list(summaries) == [LaneSummary.of(reference)] * 2

    def test_finite_battery_summaries_carry_depletion_time(self):
        problem = _problem("rakhmatov", capacity=2500.0)
        summaries = _scalar_outcomes(problem, "greedy-energy", PERTURBATIONS["jitter"], 3, 4)
        batch = BatchSimulator(
            problem,
            [_make_scheduler("greedy-energy", problem) for _ in range(4)],
            rngs=[rng_for_seed(3, lane) for lane in range(4)],
            perturbation=PERTURBATIONS["jitter"],
        )
        assert not batch.columnar
        assert list(batch.run()) == [LaneSummary.of(result) for result in summaries]
        assert any(summary.depletion_time is not None for summary in summaries)

    def test_lane_exceptions_keep_their_positions(self):
        problem = _problem("ideal")
        perturbation = PerturbationModel(jitter=0.05, failure_rate=0.3, max_retries=0)
        scalar = _scalar_outcomes(problem, "greedy-energy", perturbation, 11, 12)
        summaries = BatchSimulator(
            problem,
            [_make_scheduler("greedy-energy", problem) for _ in range(12)],
            rngs=[rng_for_seed(11, lane) for lane in range(12)],
            perturbation=perturbation,
        ).run()
        assert any(isinstance(outcome, Exception) for outcome in scalar)
        for summary, reference in zip(summaries, scalar):
            if isinstance(reference, Exception):
                assert str(summary) == str(reference)
            else:
                assert summary == LaneSummary.of(reference)


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

    def test_some_lanes_ask_for_sigma_and_some_do_not(self):
        problem = _zero_charge_problem()
        batch = self._batch(problem)
        assert batch.columnar
        results = batch.results()
        scalar = _scalar_outcomes(
            problem, "battery-reactive", PERTURBATIONS["jitter"], 1, self.LANES,
            imode=ZERO_CHARGE_MODE,
        )
        assert list(results) == scalar
        picks = {result.columns["b"] for result in results}
        assert picks == {0, 1}, "expected both charged and uncharged lanes at c"

    def test_apparent_charge_counts_only_asking_lanes(self):
        problem = _zero_charge_problem()

        def scalar():
            _scalar_outcomes(
                problem, "battery-reactive", PERTURBATIONS["jitter"], 1, self.LANES,
                imode=ZERO_CHARGE_MODE,
            )

        expected = _sim_counters(scalar)
        asked = expected["sim.query.apparent_charge[battery-reactive]"]
        # Charged lanes ask at c and d; uncharged ones ask only at d.
        assert self.LANES < asked < 2 * self.LANES
        assert _sim_counters(lambda: self._batch(problem).run()) == expected
