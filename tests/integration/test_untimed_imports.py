"""The modules a run needs load with its entry point, not inside the run.

Package inits re-export lazily, so a module imported only inside a
function loads the first time that function runs: inside the timed part
of a benchmark pass, or inside the first job of a sweep.  This test
imports the entry points the benchmark's passes import before their
timers start, builds the same kind of inputs, and then runs a solve, a
one-scenario suite, a Monte Carlo suite under every default policy and
one job of every registered algorithm in a fresh interpreter.  No new
``repro`` module may load during those runs.
"""

from __future__ import annotations

import json

from ..conftest import run_python

#: The imports of the benchmark worker and of every pass, before its timer.
PREAMBLE = """
import json, sys, tempfile
from pathlib import Path

import repro, repro.engine, repro.experiments
from repro import ScenarioSpec, SchedulingProblem, battery_aware_schedule, build_g2
from repro.engine import Job, ResultStore, SerialExecutor, algorithm_names
from repro.experiments import run_simulation_suite, run_suite
from repro.scenarios import default_registry
"""

#: solve-scaling's set-up builds its problems from specs; then one solve.
SOLVE = """
problem = ScenarioSpec(
    name="crossbar-4x5", family="crossbar", seed=7,
    family_params={"num_layers": 4, "layer_width": 5}, tightness=0.5,
).build_problem()
before = set(sys.modules)
battery_aware_schedule(problem)
facts = {}
"""

#: The suite and Monte Carlo passes set up only the catalogue.
ENGINE = """
default_registry()
problem = SchedulingProblem(graph=build_g2(), deadline=75.0, name="G2@75")
before = set(sys.modules)
with tempfile.TemporaryDirectory() as scratch:
    store = Path(scratch) / "suite.jsonl"
    run_suite(scenarios=["g3"], store=ResultStore(store), seed=0)
    run_suite(scenarios=["g3"], store=ResultStore(store), resume=True, seed=0)
run_suite(scenarios=["chain-10"], optimize="cull+fuse", seed=0)
simulation = run_simulation_suite(
    scenarios=["map-reduce-6x3-fail10", "tour-erdos-18-rakhmatov-j25-blind"],
    replications=2, seed=0,
)
jobs = [
    Job(problem=problem, algorithm=name,
        params={"iterations": 20} if name == "annealing" else {})
    for name in algorithm_names()
]
results = SerialExecutor().run(jobs)
facts = {
    "failed": [r.error for r in results if not r.ok],
    "retries": sum(r.retries for r in simulation.run.records),
    "policies": sorted({r.policy for r in simulation.run.records}),
    "algorithms": sorted(r.algorithm for r in results),
}
"""

REPORT = """
facts["new"] = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
print(json.dumps(facts))
"""


def run_fresh(setup):
    out = run_python(PREAMBLE + setup + REPORT)
    return json.loads(out.splitlines()[-1])


def test_no_repro_module_loads_inside_a_solve():
    assert run_fresh(SOLVE)["new"] == []


def test_no_repro_module_loads_inside_an_engine_run():
    facts = run_fresh(ENGINE)
    assert facts["new"] == []
    assert facts["failed"] == []
    # The runs reached what they were meant to: failed and retried tasks,
    # every default policy and every registered algorithm.
    from repro.engine import algorithm_names
    from repro.experiments import DEFAULT_SIM_POLICIES

    assert facts["retries"] > 0
    assert facts["policies"] == sorted(DEFAULT_SIM_POLICIES)
    assert facts["algorithms"] == sorted(algorithm_names())
