"""Information modes: exact is bitwise-invisible, belief modes are semantic.

The conformance anchor of :mod:`repro.sim.imode`: an ``exact`` information
mode and no mode at all resolve to one belief table that holds the
modeled tables verbatim, and reproduce the simulator's results and the
event-loop oracle's (:mod:`tests.sim.oracle`) **bitwise** across every
chemistry and policy — the golden fixtures
included (``golden_online.json`` pins the online policies per mode).  The belief modes must be deterministic, seeded, and
mean what they say: ``blind`` erases every duration estimate, ``mean``
erases per-task identity but keeps the column ladder, ``noisy`` applies
seeded mean-one factors.
"""

import json
import math
from pathlib import Path

import pytest

from repro import build_g2, build_g3
from repro.battery import BatterySpec
from repro.errors import ConfigurationError
from repro.obs import RECORDER, recording
from repro.scheduling import SchedulingProblem, sequence_by_decreasing_energy
from repro.sim import (
    BatchSimulator,
    GraphBeliefs,
    InformationMode,
    PerturbationModel,
    Simulator,
    StaticReplayScheduler,
    make_policy,
    resolve_beliefs,
    rng_for_seed,
)

from .oracle import oracle_run

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "battery" / "golden_chemistry.json"
)

#: Same parameters as the golden fixture (they are part of it).
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

BELIEF_MODES = {
    "blind": InformationMode.blind(),
    "mean": InformationMode.mean(),
    "noisy": InformationMode.noisy(0.3, seed=101),
}


def _problem(chemistry: str) -> SchedulingProblem:
    return SchedulingProblem(
        graph=build_g3(), deadline=260.0, battery=CHEMISTRY_SPECS[chemistry]
    )


def _scheduler(policy: str, problem: SchedulingProblem):
    if policy == "static-replay":
        graph = problem.graph
        m = graph.uniform_design_point_count()
        sequence = graph.topological_order()
        columns = {name: index % m for index, name in enumerate(sequence)}
        return StaticReplayScheduler(sequence, columns)
    return make_policy(policy, problem)


def _run(problem, policy, seed=7, imode=None, jitter=0.10):
    return Simulator(
        problem,
        _scheduler(policy, problem),
        perturbation=PerturbationModel(jitter=jitter),
        rng=rng_for_seed(seed, 0),
        imode=imode,
    ).run()


class TestExactModeIsBitwiseInvisible:
    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_exact_equals_unset_scalar(self, chemistry, policy):
        problem = _problem(chemistry)
        unset = _run(problem, policy)
        exact = _run(problem, policy, imode=InformationMode.exact())
        # Full dataclass equality: bitwise cost/makespan plus the whole
        # realised timeline, retries and event counts.
        assert exact == unset

    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_exact_equals_unset_batched(self, chemistry, policy):
        problem = _problem(chemistry)
        lanes = 4
        scalar = [
            oracle_run(
                problem,
                _scheduler(policy, problem),
                perturbation=PerturbationModel(jitter=0.10),
                rng=rng_for_seed(7, replication),
            )
            for replication in range(lanes)
        ]
        batched = BatchSimulator(
            problem,
            [_scheduler(policy, problem) for _ in range(lanes)],
            rngs=[rng_for_seed(7, replication) for replication in range(lanes)],
            perturbation=PerturbationModel(jitter=0.10),
            imode=InformationMode.exact(),
        ).results()
        assert list(batched) == scalar

    @pytest.mark.parametrize("graph_name", ("g2", "g3"))
    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    def test_exact_replay_still_reproduces_golden_sigma(
        self, graph_name, chemistry
    ):
        golden = json.loads(GOLDEN_PATH.read_text())
        graph = {"g2": build_g2, "g3": build_g3}[graph_name]()
        problem = SchedulingProblem(
            graph=graph,
            deadline=graph.max_makespan() + 1.0,
            battery=CHEMISTRY_SPECS[chemistry],
        )
        sequence = sequence_by_decreasing_energy(graph)
        m = graph.uniform_design_point_count()
        for column in range(m):
            columns = {name: column for name in sequence}
            result = Simulator(
                problem,
                StaticReplayScheduler(sequence, columns),
                perturbation=PerturbationModel(),
                imode=InformationMode.exact(),
            ).run()
            committed = golden["graphs"][graph_name][chemistry][
                f"uniform-{column + 1}"
            ]
            assert result.cost == committed

    def test_exact_beliefs_are_the_modeled_tables(self):
        # Exact mode shares the modeled tables, never recomputes them:
        # time x current and an fsum mean differ bitwise from the modeled
        # energies/averages on some catalogue tasks.
        graph = build_g3()
        beliefs = resolve_beliefs(graph, InformationMode.exact())
        assert resolve_beliefs(graph, None) is beliefs
        assert not beliefs.blind
        for task in graph:
            assert beliefs.times[task.name] is task.execution_times()
            assert beliefs.energies[task.name] is task.energies()
            assert beliefs.average_energy[task.name].hex() == (
                task.average_energy.hex()
            )
            assert beliefs.min_times[task.name] == task.min_execution_time
        policy = _scheduler("greedy-energy", _problem("rakhmatov"))
        Simulator(SchedulingProblem(graph=graph, deadline=260.0), policy).run()
        assert policy.simulator.beliefs is beliefs
        assert policy.simulator.min_times is beliefs.min_times


class TestModeValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            InformationMode(kind="psychic")

    def test_noisy_requires_positive_rel_error(self):
        with pytest.raises(ConfigurationError):
            InformationMode(kind="noisy")
        with pytest.raises(ConfigurationError):
            InformationMode.noisy(0.0)

    @pytest.mark.parametrize("kind", ("exact", "blind", "mean"))
    def test_non_noisy_rejects_noise_parameters(self, kind):
        with pytest.raises(ConfigurationError):
            InformationMode(kind=kind, rel_error=0.1)
        with pytest.raises(ConfigurationError):
            InformationMode(kind=kind, seed=3)

    def test_labels_and_tokens(self):
        assert InformationMode.exact().label == "exact"
        assert InformationMode.noisy(0.3, seed=101).label == "noisy(0.3,101)"
        assert InformationMode.noisy(0.3, seed=101).token == ("noisy", 0.3, 101)
        assert InformationMode.exact().is_exact
        assert not InformationMode.blind().is_exact


class TestBeliefTables:
    def test_blind_erases_every_duration(self):
        graph = build_g3()
        beliefs = resolve_beliefs(graph, InformationMode.blind())
        assert beliefs.blind
        assert beliefs.remaining_partials is None
        for name in graph.task_names():
            assert all(math.isinf(time) for time in beliefs.times[name])
            assert math.isinf(beliefs.min_times[name])
            assert all(math.isinf(energy) for energy in beliefs.energies[name])

    def test_mean_erases_task_identity_but_keeps_columns(self):
        graph = build_g3()
        beliefs = resolve_beliefs(graph, InformationMode.mean())
        names = graph.task_names()
        width = len(beliefs.times[names[0]])
        for column in range(width):
            values = {beliefs.times[name][column] for name in names}
            assert len(values) == 1  # one believed time per column
        modeled = {name: graph.task(name).execution_times() for name in names}
        for column in range(width):
            expected = math.fsum(
                modeled[name][column] for name in names
            ) / len(names)
            assert beliefs.times[names[0]][column] == expected

    def test_noisy_is_seeded_and_mean_one_scaled(self):
        graph = build_g3()
        mode = InformationMode.noisy(0.3, seed=101)
        a = GraphBeliefs(graph, mode)
        b = GraphBeliefs(graph, mode)
        assert a.times == b.times  # pure function of (graph, mode)
        other = GraphBeliefs(graph, InformationMode.noisy(0.3, seed=102))
        assert a.times != other.times
        for name in graph.task_names():
            modeled = graph.task(name).execution_times()
            for believed, true in zip(a.times[name], modeled):
                assert believed > 0
                assert believed != true  # factors are continuous draws

    def test_energies_use_real_currents(self):
        graph = build_g3()
        beliefs = resolve_beliefs(graph, InformationMode.noisy(0.2, seed=5))
        for name in graph.task_names():
            currents = graph.task(name).currents()
            for believed_time, current, energy in zip(
                beliefs.times[name], currents, beliefs.energies[name]
            ):
                assert energy == believed_time * current

    def test_beliefs_are_memoized_per_graph_and_mode(self):
        graph = build_g3()
        mode = InformationMode.noisy(0.3, seed=101)
        assert resolve_beliefs(graph, mode) is resolve_beliefs(graph, mode)
        assert resolve_beliefs(graph, mode) is not resolve_beliefs(
            graph, InformationMode.mean()
        )
        assert resolve_beliefs(build_g3(), mode) is not resolve_beliefs(graph, mode)


class TestBeliefModeRuns:
    @pytest.mark.parametrize("mode_name", sorted(BELIEF_MODES))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_deterministic_per_mode(self, mode_name, policy):
        problem = _problem("rakhmatov")
        mode = BELIEF_MODES[mode_name]
        assert _run(problem, policy, imode=mode) == _run(
            problem, policy, imode=mode
        )

    @pytest.mark.parametrize("mode_name", sorted(BELIEF_MODES))
    def test_static_replay_is_imode_invariant(self, mode_name):
        # A deployed offline plan was computed from the modeled times
        # before the run started; runtime beliefs cannot change it.
        problem = _problem("rakhmatov")
        assert _run(problem, "static-replay", imode=BELIEF_MODES[mode_name]) == _run(
            problem, "static-replay"
        )

    @pytest.mark.parametrize("policy", ("greedy-energy", "deadline-slack"))
    def test_belief_modes_change_online_decisions(self, policy):
        # On G3 the column ladder is wide enough that erasing duration
        # information must change at least one decision.
        problem = _problem("rakhmatov")
        exact = _run(problem, policy)
        blind = _run(problem, policy, imode=InformationMode.blind())
        assert [(i.task, i.column) for i in exact.intervals] != [
            (i.task, i.column) for i in blind.intervals
        ]

    @pytest.mark.parametrize("mode_name", sorted(BELIEF_MODES))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_batched_equals_scalar_under_belief_modes(self, mode_name, policy):
        problem = _problem("kibam")
        mode = BELIEF_MODES[mode_name]
        lanes = 4
        perturbation = PerturbationModel(jitter=0.15, failure_rate=0.05)
        scalar = [
            oracle_run(
                problem,
                _scheduler(policy, problem),
                perturbation=perturbation,
                rng=rng_for_seed(3, replication),
                imode=mode,
            )
            for replication in range(lanes)
        ]
        batched = BatchSimulator(
            problem,
            [_scheduler(policy, problem) for _ in range(lanes)],
            rngs=[rng_for_seed(3, replication) for replication in range(lanes)],
            perturbation=perturbation,
            imode=mode,
        ).results()
        assert list(batched) == scalar

    def test_blind_greedy_runs_slowest_columns(self):
        # With every believed energy infinite, the greedy tie-break
        # prefers the highest column index — the slowest design point.
        problem = _problem("ideal")
        result = _run(problem, "greedy-energy", imode=InformationMode.blind(),
                      jitter=0.0)
        m = problem.graph.uniform_design_point_count()
        assert all(interval.column == m - 1 for interval in result.intervals)

    def test_blind_deadline_slack_runs_fastest_columns(self):
        # With no duration information the slack policy cannot budget an
        # allowance; it falls back to the fastest design point.
        problem = _problem("ideal")
        result = _run(problem, "deadline-slack", imode=InformationMode.blind(),
                      jitter=0.0)
        assert all(interval.column == 0 for interval in result.intervals)


class TestDecisionCounter:
    """``sim.imode.decisions`` exists only for belief modes."""

    @pytest.mark.parametrize(
        "imode, expected",
        (
            (None, []),
            (InformationMode.exact(), []),
            (
                InformationMode.noisy(0.3, seed=101),
                ["sim.imode.decisions[greedy-energy|noisy(0.3,101)]"],
            ),
        ),
        ids=("none", "exact", "noisy"),
    )
    def test_counter_catalogue_per_mode(self, imode, expected):
        problem = _problem("rakhmatov")
        try:
            with recording() as recorder:
                _run(problem, "greedy-energy", imode=imode)
            counters = recorder.counters_snapshot()["counters"]
        finally:
            RECORDER.reset()
        decisions = counters["sim.decisions[greedy-energy]"]
        assert decisions == problem.graph.num_tasks
        keys = [key for key in counters if key.startswith("sim.imode.")]
        assert keys == expected
        for key in keys:
            assert counters[key] == decisions
