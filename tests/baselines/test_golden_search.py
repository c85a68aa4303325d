"""Golden fixture of the two neighbourhood searches, pinned bitwise.

``golden_search.json`` pins, per case, the incumbent a search returns:
``repr`` of its cost and makespan, its sequence and its design-point
columns.

* ``simulated_annealing_baseline`` with ``AnnealingConfig(iterations=2000)``
  at seeds 7 and 11, on the catalogue's ``g2``, ``g3`` and ``layered-6x4``
  under the rakhmatov, peukert, kibam and ideal chemistries;
* ``refine_solution`` of ``battery_aware_schedule``'s solution on the six
  Table 4 instances.

A change to how the searches cost their candidates must leave every entry
unchanged.  Regenerate only after an intentional change to a search's
moves, its RNG stream or the battery kernels::

    PYTHONPATH=src python tests/baselines/test_golden_search.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.baselines import AnnealingConfig, simulated_annealing_baseline
from repro.core import battery_aware_schedule, refine_solution
from repro.experiments.table4 import table4_problems
from repro.scenarios import default_registry

GOLDEN_PATH = Path(__file__).with_name("golden_search.json")

GRAPHS = ("g2", "g3", "layered-6x4")

#: Chemistry overrides of a catalogue spec, as the ``g3-*`` scenarios set them.
CHEMISTRIES = {
    "rakhmatov": {},
    "peukert": {"chemistry": "peukert", "chemistry_params": {"exponent": 1.3}},
    "kibam": {"chemistry": "kibam"},
    "ideal": {"chemistry": "ideal"},
}

SEEDS = (7, 11)

ITERATIONS = 2000


def _record(outcome) -> dict:
    return {
        "cost": repr(outcome.cost),
        "makespan": repr(outcome.makespan),
        "sequence": list(outcome.sequence),
        "assignment": {name: outcome.assignment[name] for name in outcome.sequence},
    }


def _annealing_cases():
    return [
        (graph, chemistry, seed)
        for graph in GRAPHS
        for chemistry in CHEMISTRIES
        for seed in SEEDS
    ]


def _run_annealing(graph: str, chemistry: str, seed: int) -> dict:
    spec = dataclasses.replace(
        default_registry().get(graph), **CHEMISTRIES[chemistry]
    )
    config = AnnealingConfig(iterations=ITERATIONS)
    return _record(simulated_annealing_baseline(spec.build_problem(), config, seed=seed))


def _run_refine(problem) -> dict:
    return _record(refine_solution(problem, battery_aware_schedule(problem)))


def _generate() -> dict:
    return {
        "annealing": {
            f"{graph}/{chemistry}/{seed}": _run_annealing(graph, chemistry, seed)
            for graph, chemistry, seed in _annealing_cases()
        },
        "refine": {problem.name: _run_refine(problem) for problem in table4_problems()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["annealing"]) == sorted(
        f"{graph}/{chemistry}/{seed}" for graph, chemistry, seed in _annealing_cases()
    )
    assert sorted(golden["refine"]) == sorted(p.name for p in table4_problems())


@pytest.mark.parametrize(
    "graph, chemistry, seed", _annealing_cases(), ids=lambda v: str(v)
)
def test_annealing_matches_golden(golden, graph, chemistry, seed):
    assert _run_annealing(graph, chemistry, seed) == golden["annealing"][
        f"{graph}/{chemistry}/{seed}"
    ]


@pytest.mark.parametrize("problem", table4_problems(), ids=lambda p: p.name)
def test_refine_matches_golden(golden, problem):
    assert _run_refine(problem) == golden["refine"][problem.name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
