"""Unit tests for the scheduling policies and their registry."""

import pytest

from repro import build_g3
from repro.battery import BatterySpec
from repro.errors import ConfigurationError
from repro.scheduling import SchedulingProblem
from repro.sim import (
    BatchSimulator,
    BatteryReactiveScheduler,
    DeadlineSlackScheduler,
    GreedyEnergyScheduler,
    InformationMode,
    PerturbationModel,
    Simulator,
    StaticReplayScheduler,
    make_policy,
    policy_names,
    rng_for_seed,
    schedulers,
)

ONLINE_POLICIES = (
    GreedyEnergyScheduler,
    DeadlineSlackScheduler,
    BatteryReactiveScheduler,
)


@pytest.fixture
def problem(g3):
    return SchedulingProblem(graph=g3, deadline=230.0, name="g3")


class TestStaticReplay:
    def test_missing_column_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticReplayScheduler(("A", "B"), {"A": 0})

    def test_replays_exactly(self, problem):
        sequence = problem.graph.topological_order()
        columns = {name: 1 for name in sequence}
        result = Simulator(problem, StaticReplayScheduler(sequence, columns)).run()
        assert result.sequence == tuple(sequence)
        assert result.columns == columns


class TestOnlinePolicies:
    @pytest.mark.parametrize("policy_cls", ONLINE_POLICIES)
    def test_produces_valid_precedence_order(self, problem, policy_cls):
        result = Simulator(problem, policy_cls()).run()
        positions = {name: i for i, name in enumerate(result.sequence)}
        for parent, child in problem.graph.edges():
            assert positions[parent] < positions[child]
        assert sorted(result.sequence) == sorted(problem.graph.task_names())

    @pytest.mark.parametrize("policy_cls", ONLINE_POLICIES)
    def test_meets_deadline_without_perturbation(self, problem, policy_cls):
        # Deterministic durations + the shared deadline guard: every online
        # policy must deliver a feasible run.
        result = Simulator(problem, policy_cls()).run()
        assert result.feasible

    @pytest.mark.parametrize("policy_cls", ONLINE_POLICIES)
    def test_deterministic_without_perturbation(self, problem, policy_cls):
        first = Simulator(problem, policy_cls()).run()
        second = Simulator(problem, policy_cls()).run()
        assert first.to_dict() == second.to_dict()

    @pytest.mark.parametrize("policy_cls", ONLINE_POLICIES)
    def test_survives_heavy_perturbation(self, problem, policy_cls):
        result = Simulator(
            problem,
            policy_cls(),
            perturbation=PerturbationModel(jitter=0.3, failure_rate=0.15),
            rng=rng_for_seed(5),
        ).run()
        assert sorted(result.sequence) == sorted(problem.graph.task_names())

    def test_greedy_orders_by_average_energy(self, problem):
        result = Simulator(problem, GreedyEnergyScheduler()).run()
        graph = problem.graph
        # Whenever two tasks were simultaneously ready, the heavier one ran
        # first; spot-check with the first decision (all entry tasks ready).
        entries = graph.entry_tasks()
        heaviest = max(entries, key=lambda name: graph.task(name).average_energy)
        assert result.sequence[0] == heaviest

    def test_slack_policy_distributes_slack(self, problem):
        greedy = Simulator(problem, GreedyEnergyScheduler()).run()
        slack = Simulator(problem, DeadlineSlackScheduler()).run()
        # The slack policy never finishes after the greedy-by-energy policy
        # on G3 and spends its budget more evenly (strictly better sigma
        # here; pinned loosely as "not worse" to stay robust).
        assert slack.cost <= greedy.cost

    def test_reactive_policy_reacts_to_bounded_battery(self, g3):
        loose = SchedulingProblem(
            graph=g3, deadline=230.0, battery=BatterySpec(capacity=1e9)
        )
        tight = SchedulingProblem(
            graph=g3, deadline=230.0, battery=BatterySpec(capacity=20000.0)
        )
        relaxed = Simulator(loose, BatteryReactiveScheduler()).run()
        stressed = Simulator(tight, BatteryReactiveScheduler()).run()
        # A nearly-empty battery keeps the policy in recovery mode, which
        # changes the chosen design points.
        assert relaxed.columns != stressed.columns

    @pytest.mark.parametrize("imode", ("exact", "blind", "mean", "noisy"))
    def test_believed_min_time_is_the_fastest_believed_column(self, imode):
        # Why deadline-slack has no "slowest feasible" fallback: a fitting
        # column must be feasible, and when any column is feasible the
        # fastest one (believed time == believed min-time) fits as well.
        from repro.scenarios import default_registry
        from repro.sim import resolve_beliefs

        mode = (
            InformationMode.noisy(0.3, seed=101)
            if imode == "noisy"
            else InformationMode(kind=imode)
        )
        registry = default_registry()
        for name in registry.names():
            beliefs = resolve_beliefs(registry.get(name).build_graph(), mode)
            for task, times in beliefs.times.items():
                assert beliefs.min_times[task] == min(times), (name, task)

    def test_reactive_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            BatteryReactiveScheduler(stress_threshold=-0.1)
        with pytest.raises(ConfigurationError):
            BatteryReactiveScheduler(soc_reserve=1.5)


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(policy_names()) >= {
            "static-replay",
            "greedy-energy",
            "deadline-slack",
            "battery-reactive",
        }

    def test_unknown_policy_rejected(self, problem):
        with pytest.raises(ConfigurationError):
            make_policy("round-robin", problem)

    def test_static_replay_factory_runs_offline_algorithm(self, problem):
        scheduler = make_policy("static-replay", problem)
        result = Simulator(problem, scheduler).run()
        # The replayed iterative schedule is feasible and deterministic.
        assert result.feasible
        from repro.core import battery_aware_schedule

        solution = battery_aware_schedule(problem)
        assert result.cost == solution.cost

    def test_static_replay_factory_accepts_explicit_schedule(self, problem):
        sequence = problem.graph.topological_order()
        scheduler = make_policy(
            "static-replay",
            problem,
            {"sequence": list(sequence), "columns": {n: 0 for n in sequence}},
        )
        assert Simulator(problem, scheduler).run().feasible

    def test_static_replay_factory_rejects_partial_schedule(self, problem):
        with pytest.raises(ConfigurationError):
            make_policy(
                "static-replay",
                problem,
                {"sequence": list(problem.graph.topological_order())},
            )

    def test_simple_factories_reject_unknown_params(self, problem):
        with pytest.raises(ConfigurationError):
            make_policy("greedy-energy", problem, {"bogus": 1})
        scheduler = make_policy("battery-reactive", problem, {"soc_reserve": 0.5})
        assert scheduler.soc_reserve == 0.5


class TestPerGraphMemo:
    """What the per-graph tables memoise, counted deterministically."""

    @pytest.mark.parametrize("policy_cls", ONLINE_POLICIES)
    def test_task_weights_run_once_per_graph_mode_and_policy(
        self, monkeypatch, policy_cls
    ):
        calls = []
        original = policy_cls.task_weights

        def counting(self):
            calls.append(self.simulator.beliefs.mode.label)
            return original(self)

        monkeypatch.setattr(policy_cls, "task_weights", counting)
        problem = SchedulingProblem(graph=build_g3(), deadline=230.0)
        perturbation = PerturbationModel(jitter=0.1)
        modes = (
            None,
            InformationMode.exact(),
            InformationMode.mean(),
            InformationMode.noisy(0.3, seed=101),
        )
        for imode in modes:
            for replication in range(4):
                Simulator(
                    problem,
                    policy_cls(),
                    perturbation=perturbation,
                    rng=rng_for_seed(7, replication),
                    imode=imode,
                ).run()
            BatchSimulator(
                problem,
                [policy_cls() for _ in range(4)],
                rngs=[rng_for_seed(7, replication) for replication in range(4)],
                perturbation=perturbation,
                imode=imode,
            ).run()
        # ``None`` and ``exact`` share one belief table, hence one entry.
        assert calls == ["exact", "mean", "noisy(0.3,101)"]
        other = SchedulingProblem(graph=build_g3(), deadline=230.0)
        Simulator(other, policy_cls()).run()
        assert calls == ["exact", "mean", "noisy(0.3,101)", "exact"]

    def test_static_replay_sequence_is_validated_once_per_graph(
        self, monkeypatch
    ):
        calls = []
        original = schedulers.validate_sequence

        def counting(graph, sequence):
            calls.append(sequence)
            return original(graph, sequence)

        monkeypatch.setattr(schedulers, "validate_sequence", counting)
        problem = SchedulingProblem(graph=build_g3(), deadline=230.0)
        sequence = problem.graph.topological_order()
        columns = {name: 0 for name in sequence}
        for imode in (None, InformationMode.mean()):
            for _ in range(3):
                Simulator(
                    problem, StaticReplayScheduler(sequence, columns), imode=imode
                ).run()
        BatchSimulator(
            problem, [StaticReplayScheduler(sequence, columns) for _ in range(4)]
        ).run()
        assert calls == [tuple(sequence)]
        other = SchedulingProblem(graph=build_g3(), deadline=230.0)
        Simulator(other, StaticReplayScheduler(sequence, columns)).run()
        assert calls == [tuple(sequence)] * 2
