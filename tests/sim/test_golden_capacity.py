"""Golden fixture of every policy on a battery that runs out mid-run.

``golden_capacity.json`` pins, for G2 and G3 under every chemistry, the
four policies at two seeds, with 10 % jitter, 5 % attempt failures and a
finite capacity below every policy's final sigma (so each run depletes
before it finishes, and ``battery-reactive`` reads its state of charge):

* ``cost``, ``makespan`` and ``depletion_time`` as ``float.hex()``
  strings (bitwise);
* the ``(task, column)`` start sequence, retries included;
* the retry count;
* the sampled discharge trace at ``trace_samples=5``: its sample times and
  apparent charges, as ``float.hex()`` strings.

Regenerate only after an intentional change to a policy, the perturbation
draws or the battery kernels::

    PYTHONPATH=src python tests/sim/test_golden_capacity.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro import build_g2, build_g3
from repro.battery import BatterySpec
from repro.scheduling import SchedulingProblem
from repro.sim import (
    BatchSimulator,
    LaneSummary,
    PerturbationModel,
    Simulator,
    make_policy,
    rng_for_seed,
)

GOLDEN_PATH = Path(__file__).with_name("golden_capacity.json")

#: (graph builder, deadline) per graph, as in ``golden_online.json``.
GRAPHS = {"g2": (build_g2, 75.0), "g3": (build_g3, 230.0)}

CHEMISTRY_SPECS = {
    "rakhmatov": BatterySpec(beta=0.273),
    "peukert": BatterySpec(chemistry="peukert", chemistry_params={"exponent": 1.3}),
    "kibam": BatterySpec(chemistry="kibam", chemistry_params={"c": 0.625, "k": 0.05}),
    "ideal": BatterySpec(chemistry="ideal"),
}

#: Capacity per (graph, chemistry): about 70 % of the lowest final sigma
#: any of the pinned runs reaches on an unbounded battery, so every run
#: depletes before its last task ends.
CAPACITIES = {
    ("g2", "rakhmatov"): 9000.0,
    ("g2", "peukert"): 32000.0,
    ("g2", "kibam"): 7000.0,
    ("g2", "ideal"): 7000.0,
    ("g3", "rakhmatov"): 9500.0,
    ("g3", "peukert"): 43000.0,
    ("g3", "kibam"): 9000.0,
    ("g3", "ideal"): 9000.0,
}

POLICIES = ("static-replay", "greedy-energy", "deadline-slack", "battery-reactive")

SEEDS = (0, 7919)

PERTURBATION = PerturbationModel(jitter=0.1, failure_rate=0.05)

TRACE_SAMPLES = 5


def _cases():
    for graph_name in sorted(GRAPHS):
        for chemistry in sorted(CHEMISTRY_SPECS):
            for policy in POLICIES:
                for seed in SEEDS:
                    yield graph_name, chemistry, policy, seed


def _key(graph_name, chemistry, policy, seed) -> str:
    return f"{graph_name}/{chemistry}/{policy}/{seed}"


def _problem(graph_name, chemistry, capacity=None) -> SchedulingProblem:
    builder, deadline = GRAPHS[graph_name]
    spec = CHEMISTRY_SPECS[chemistry]
    battery = BatterySpec(
        beta=spec.beta,
        capacity=CAPACITIES[graph_name, chemistry] if capacity is None else capacity,
        chemistry=spec.chemistry,
        chemistry_params=dict(spec.chemistry_params),
    )
    return SchedulingProblem(graph=builder(), deadline=deadline, battery=battery)


def _pinned(result) -> dict:
    """One run reduced to its pinned fields."""
    return {
        "cost": result.cost.hex(),
        "makespan": result.makespan.hex(),
        "depletion_time": result.depletion_time.hex(),
        "starts": [[interval.task, interval.column] for interval in result.intervals],
        "retries": result.retries,
        "trace": {
            "times": [value.hex() for value in result.trace.times],
            "apparent_charge": [value.hex() for value in result.trace.apparent_charge],
        },
    }


def run_case(graph_name, chemistry, policy, seed) -> dict:
    """One golden run through the one-lane front."""
    problem = _problem(graph_name, chemistry)
    result = Simulator(
        problem,
        make_policy(policy, problem),
        perturbation=PERTURBATION,
        rng=rng_for_seed(seed, 0),
        trace_samples=TRACE_SAMPLES,
    ).run()
    return _pinned(result)


def record_golden_capacity() -> dict:
    """Every golden case, keyed ``graph/chemistry/policy/seed``."""
    return {_key(*case): run_case(*case) for case in _cases()}


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():  # pragma: no cover - regeneration guard
        pytest.fail(
            f"missing golden fixture {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/sim/test_golden_capacity.py`"
        )
    return json.loads(GOLDEN_PATH.read_text())["runs"]


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


def test_every_pinned_run_depletes_mid_run(golden):
    for key, run in golden.items():
        depletion = float.fromhex(run["depletion_time"])
        assert 0.0 < depletion < float.fromhex(run["makespan"]), key


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
@pytest.mark.parametrize("policy", POLICIES)
def test_runs_match_golden(golden, graph_name, chemistry, policy):
    for seed in SEEDS:
        committed = golden[_key(graph_name, chemistry, policy, seed)]
        assert run_case(graph_name, chemistry, policy, seed) == committed, seed


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
@pytest.mark.parametrize("policy", POLICIES)
def test_one_batch_of_both_seeds_matches_golden(golden, graph_name, chemistry, policy):
    # Both seeds as lanes of one cell: the per-lane state of charge,
    # depletion time and trace come out of one columnar run, and
    # ``run()``'s summaries are the same lanes' projections.
    problem = _problem(graph_name, chemistry)

    def batch(trace_samples):
        return BatchSimulator(
            problem,
            [make_policy(policy, problem) for _ in SEEDS],
            rngs=[rng_for_seed(seed, 0) for seed in SEEDS],
            perturbation=PERTURBATION,
            trace_samples=trace_samples,
        )

    results = batch(TRACE_SAMPLES).results()
    for seed, result in zip(SEEDS, results):
        assert _pinned(result) == golden[_key(graph_name, chemistry, policy, seed)]
    assert list(batch(0).run()) == [LaneSummary.of(result) for result in results]


def test_the_state_of_charge_changes_reactive_columns():
    # The fixture pins battery-reactive's state-of-charge branch: on some
    # case the bounded run starts a task at another column than the same
    # run on an unbounded battery.
    differs = []
    for graph_name, chemistry, policy, seed in _cases():
        if policy != "battery-reactive":
            continue
        runs = []
        for capacity in (None, math.inf):
            problem = _problem(graph_name, chemistry, capacity)
            result = Simulator(
                problem,
                make_policy(policy, problem),
                perturbation=PERTURBATION,
                rng=rng_for_seed(seed, 0),
            ).run()
            runs.append([(interval.task, interval.column) for interval in result.intervals])
        differs.append(runs[0] != runs[1])
    assert any(differs)


def main() -> None:  # pragma: no cover - manual regeneration entry point
    comment = (
        "Golden finite-capacity runs; regenerate with "
        "`PYTHONPATH=src python tests/sim/test_golden_capacity.py` only "
        "after an intentional policy, perturbation or kernel change."
    )
    runs = record_golden_capacity()
    rows = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(runs[key], sort_keys=True)}"
        for key in sorted(runs)
    )
    GOLDEN_PATH.write_text(
        f'{{"_comment": {json.dumps(comment)},\n "runs": {{\n{rows}\n }}}}\n'
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    main()
