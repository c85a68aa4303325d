"""The conformance anchor: zero-perturbation replay == offline sigma, bitwise.

Simulating a :class:`StaticReplayScheduler` with a null perturbation must
reproduce the offline evaluator's sigma *bit for bit* for every chemistry
on the golden G2/G3 fixtures (``tests/battery/golden_chemistry.json``) —
the contract that lets every simulation result be compared against every
offline result in the repository.  The event-loop oracle
(:mod:`tests.sim.oracle`) must give the same result, so the differential
suites that compare against it are anchored to the offline evaluator too.
"""

import json
from pathlib import Path

import pytest

from repro import build_g2, build_g3
from repro.battery import (
    IdealBatteryModel,
    KineticBatteryModel,
    PeukertModel,
    RakhmatovVrudhulaModel,
)
from repro.scheduling import (
    DesignPointAssignment,
    SchedulingProblem,
    evaluate_schedule,
    sequence_by_decreasing_energy,
)
from repro.sim import PerturbationModel, Simulator, StaticReplayScheduler

from .oracle import oracle_run

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "battery" / "golden_chemistry.json"
)

#: Same fixed models as the golden fixture (parameters are part of it).
CHEMISTRY_MODELS = {
    "rakhmatov": lambda: RakhmatovVrudhulaModel(beta=0.273),
    "peukert": lambda: PeukertModel(exponent=1.3),
    "kibam": lambda: KineticBatteryModel(c=0.625, k=0.05),
    "ideal": lambda: IdealBatteryModel(),
}

GRAPH_BUILDERS = {"g2": build_g2, "g3": build_g3}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _assignments(graph):
    """The golden fixture's cases: every uniform column plus the staircase."""
    m = graph.uniform_design_point_count()
    cases = {
        f"uniform-{column + 1}": DesignPointAssignment.uniform(graph, column)
        for column in range(m)
    }
    cases["mixed-staircase"] = DesignPointAssignment(
        {name: index % m for index, name in enumerate(graph.task_names())}
    )
    return cases


def _simulate_replay(graph, sequence, assignment, model):
    problem = SchedulingProblem(
        graph=graph, deadline=graph.max_makespan() + 1.0, name=graph.name
    )
    columns = {name: assignment[name] for name in sequence}
    result = Simulator(
        problem,
        StaticReplayScheduler(sequence, columns),
        perturbation=PerturbationModel(),
        model=model,
    ).run()
    assert result == oracle_run(
        problem, StaticReplayScheduler(sequence, columns), model=model
    )
    return result


@pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
@pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_MODELS))
class TestReplayConformance:
    def test_simulated_sigma_bitwise_equals_golden(
        self, golden, graph_name, chemistry
    ):
        graph = GRAPH_BUILDERS[graph_name]()
        model = CHEMISTRY_MODELS[chemistry]()
        sequence = sequence_by_decreasing_energy(graph)
        committed = golden["graphs"][graph_name][chemistry]
        for label, assignment in _assignments(graph).items():
            result = _simulate_replay(graph, sequence, assignment, model)
            assert result.cost == committed[label], (graph_name, chemistry, label)

    def test_simulated_sigma_bitwise_equals_offline_evaluator(
        self, graph_name, chemistry
    ):
        graph = GRAPH_BUILDERS[graph_name]()
        model = CHEMISTRY_MODELS[chemistry]()
        sequence = sequence_by_decreasing_energy(graph)
        for label, assignment in _assignments(graph).items():
            result = _simulate_replay(graph, sequence, assignment, model)
            offline = evaluate_schedule(graph, sequence, assignment, model)
            assert result.cost == offline.cost, (graph_name, chemistry, label)
            assert result.makespan == offline.makespan

    def test_realised_timeline_matches_plan_exactly(self, graph_name, chemistry):
        graph = GRAPH_BUILDERS[graph_name]()
        model = CHEMISTRY_MODELS[chemistry]()
        sequence = sequence_by_decreasing_energy(graph)
        assignment = _assignments(graph)["mixed-staircase"]
        result = _simulate_replay(graph, sequence, assignment, model)
        assert result.sequence == tuple(sequence)
        for interval in result.intervals:
            point = graph.task(interval.task).ordered_design_points()[
                interval.column
            ]
            assert interval.duration == point.execution_time
            assert interval.current == point.current
