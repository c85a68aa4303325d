"""Golden fixture of the online policies under every information mode.

``golden_online.json`` pins, for G2 and G3 under every chemistry, the
three online policies (``greedy-energy``, ``deadline-slack``,
``battery-reactive``) under the four information modes at two seeds and
10 % jitter:

* ``cost`` and ``makespan`` as ``float.hex()`` strings (bitwise);
* the ``(task, column)`` start sequence, retries included;
* the retry count.

The exact-mode entries are replayed both with ``InformationMode.exact()``
and with no mode at all, so the two spellings stay bitwise the same run
whatever code path implements them.  Regenerate only after an intentional
change to a policy or to the belief tables::

    PYTHONPATH=src python tests/sim/test_golden_online.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import build_g2, build_g3
from repro.battery import BatterySpec
from repro.scheduling import SchedulingProblem
from repro.sim import (
    InformationMode,
    PerturbationModel,
    Simulator,
    make_policy,
    rng_for_seed,
)

GOLDEN_PATH = Path(__file__).with_name("golden_online.json")

#: (graph builder, deadline) per graph: deadlines between the all-fastest
#: and all-slowest makespans, so the deadline guards bind.
GRAPHS = {"g2": (build_g2, 75.0), "g3": (build_g3, 230.0)}

CHEMISTRY_SPECS = {
    "rakhmatov": BatterySpec(beta=0.273),
    "peukert": BatterySpec(chemistry="peukert", chemistry_params={"exponent": 1.3}),
    "kibam": BatterySpec(chemistry="kibam", chemistry_params={"c": 0.625, "k": 0.05}),
    "ideal": BatterySpec(chemistry="ideal"),
}

POLICIES = ("greedy-energy", "deadline-slack", "battery-reactive")

MODES = {
    "exact": InformationMode.exact(),
    "blind": InformationMode.blind(),
    "mean": InformationMode.mean(),
    "noisy(0.3,101)": InformationMode.noisy(0.3, seed=101),
}

SEEDS = (0, 7919)

JITTER = 0.1


def _cases():
    for graph_name in sorted(GRAPHS):
        for chemistry in sorted(CHEMISTRY_SPECS):
            for policy in POLICIES:
                for mode_label in MODES:
                    for seed in SEEDS:
                        yield graph_name, chemistry, policy, mode_label, seed


def _key(graph_name, chemistry, policy, mode_label, seed) -> str:
    return f"{graph_name}/{chemistry}/{policy}/{mode_label}/{seed}"


def run_case(graph_name, chemistry, policy, imode, seed) -> dict:
    """One golden run, reduced to its pinned fields."""
    builder, deadline = GRAPHS[graph_name]
    problem = SchedulingProblem(
        graph=builder(), deadline=deadline, battery=CHEMISTRY_SPECS[chemistry]
    )
    result = Simulator(
        problem,
        make_policy(policy, problem),
        perturbation=PerturbationModel(jitter=JITTER),
        rng=rng_for_seed(seed, 0),
        imode=imode,
    ).run()
    return {
        "cost": result.cost.hex(),
        "makespan": result.makespan.hex(),
        "starts": [[interval.task, interval.column] for interval in result.intervals],
        "retries": result.retries,
    }


def record_golden_online() -> dict:
    """Every golden case, keyed ``graph/chemistry/policy/mode/seed``."""
    return {
        _key(*case): run_case(*case[:3], MODES[case[3]], case[4])
        for case in _cases()
    }


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():  # pragma: no cover - regeneration guard
        pytest.fail(
            f"missing golden fixture {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/sim/test_golden_online.py`"
        )
    return json.loads(GOLDEN_PATH.read_text())["runs"]


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode_label", sorted(MODES))
def test_runs_match_golden(golden, graph_name, chemistry, policy, mode_label):
    for seed in SEEDS:
        committed = golden[_key(graph_name, chemistry, policy, mode_label, seed)]
        imodes = [MODES[mode_label]]
        if mode_label == "exact":
            imodes.append(None)
        for imode in imodes:
            run = run_case(graph_name, chemistry, policy, imode, seed)
            assert run == committed, (seed, imode)


def main() -> None:  # pragma: no cover - manual regeneration entry point
    comment = (
        "Golden online-policy runs; regenerate with "
        "`PYTHONPATH=src python tests/sim/test_golden_online.py` only "
        "after an intentional policy or belief-table change."
    )
    runs = record_golden_online()
    # One run per line keeps the fixture reviewable in a diff.
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
