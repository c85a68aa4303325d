"""The simulation experiment: policies x stochastic scenarios x replications.

:func:`run_simulation_suite` is the experiments-layer entry point over
:mod:`repro.sim`: select scenarios (default: the catalogue's stochastic
tier), cross them with simulation policies and seeded replications into
:class:`~repro.engine.SimulationJob` grids (one
:meth:`~repro.engine.SimulationJob.cell` per scenario and policy), run
them through the engine (each cell's replications as lanes of one batch;
parallel byte-identical to serial, resumable), anchor each scenario with
its offline-predicted sigma (one offline run per distinct problem), and
reduce everything into the robustness report of
:mod:`repro.analysis.robustness`.

>>> from repro.experiments import run_simulation_suite
>>> result = run_simulation_suite(scenarios=["g3-jitter10"],
...                               policies=["static-replay"], replications=2)
>>> result.run.ok
True
>>> result.robustness_rows()[0].replications
2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import (
    PolicyStanding,
    RobustnessRow,
    TextTable,
    compute_robustness,
    degradation_leaderboard,
    degradation_table,
    robustness_table,
)
from ..engine import (
    ResultStore,
    SimulationJob,
    SimulationRun,
    run_experiments,
    run_simulation_jobs,
)
from ..engine.simjobs import _problem
from ..errors import ConfigurationError
from ..scenarios import ScenarioRegistry, ScenarioSpec, default_registry
from ..scenarios import problem_fingerprint

__all__ = ["DEFAULT_SIM_POLICIES", "SimulationSuiteResult", "run_simulation_suite"]

#: Policies the simulation suite runs when none are named: the offline
#: replay anchor against the three online schedulers.
DEFAULT_SIM_POLICIES: Tuple[str, ...] = (
    "static-replay",
    "greedy-energy",
    "deadline-slack",
    "battery-reactive",
)


@dataclass(frozen=True)
class SimulationSuiteResult:
    """Everything produced by one :func:`run_simulation_suite` call."""

    specs: Tuple[ScenarioSpec, ...]
    policies: Tuple[str, ...]
    replications: int
    seed: int
    run: SimulationRun
    offline_costs: Dict[str, float]
    """Scenario name -> offline-predicted sigma (the robustness anchor)."""

    def robustness_rows(self) -> List[RobustnessRow]:
        """Per-(scenario, policy) distribution summaries."""
        return compute_robustness(self.run.records, self.offline_costs)

    def robustness_table(self) -> TextTable:
        """The per-cell robustness report."""
        return robustness_table(self.robustness_rows())

    def leaderboard(self) -> List[PolicyStanding]:
        """Policies ranked by mean degradation across scenarios."""
        return degradation_leaderboard(self.robustness_rows())

    def leaderboard_table(self) -> TextTable:
        """The degradation leaderboard as a report table."""
        return degradation_table(self.leaderboard())

    def summary(self) -> str:
        """One-line accounting summary (delegates to the engine run)."""
        return self.run.summary()


def run_simulation_suite(
    scenarios: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    replications: int = 3,
    seed: int = 0,
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress=None,
    registry: Optional[ScenarioRegistry] = None,
    offline_algorithm: str = "iterative",
) -> SimulationSuiteResult:
    """Simulate policies over scenarios through the engine.

    Parameters
    ----------
    scenarios:
        Scenario names to simulate (default: every scenario carrying a
        stochastic tier, in catalogue order).  Deterministic scenarios are
        allowed — they exercise the conformance path.
    policies:
        Simulation policy names (default: :data:`DEFAULT_SIM_POLICIES`).
    replications:
        Seeded perturbation replications per (scenario, policy) cell.
    seed:
        Base seed; replication ``r`` draws from the independent
        ``(seed, r)`` stream, so the whole suite is a pure function of
        its arguments.
    executor, store, resume, progress:
        Engine fan-out and resume controls, as in
        :func:`repro.engine.run_simulation_jobs` (the store must carry
        ``record_type=SimulationRecord``; each cell's replications run as
        :class:`~repro.sim.BatchSimulator` lanes, and
        ``progress`` fires once per cell batch).
    registry:
        Scenario registry to select from (default: the standard catalogue).
    offline_algorithm:
        Offline algorithm anchoring the robustness report *and* replayed
        by the ``static-replay`` policy.

    Each distinct problem is built, fingerprinted and solved offline once,
    in-process and first (scenarios that differ only in name or stochastic
    tier share one built problem and anchor — the simulations are the
    expensive, fanned-out part), and ``static-replay`` jobs receive the
    anchor's explicit schedule as parameters, so replications replay it
    without re-solving the offline problem in every worker.
    """
    registry = registry if registry is not None else default_registry()
    if scenarios is None:
        specs = registry.select(stochastic=True)
    else:
        specs = registry.select(names=scenarios)
    policy_list: Tuple[str, ...] = (
        tuple(policies) if policies is not None else DEFAULT_SIM_POLICIES
    )
    if replications < 1:
        raise ConfigurationError(
            f"replications must be >= 1, got {replications!r}"
        )

    # One anchor per distinct problem: the offline job key covers the
    # graph's name, so the engine alone would solve each named twin.  Twins
    # share one built problem (held alive in `problems`, so ids are unique).
    problems = [_problem(spec) for spec in specs]
    prints: Dict[int, str] = {}
    anchors: Dict[str, object] = {}
    for problem in problems:
        if id(problem) not in prints:
            prints[id(problem)] = problem_fingerprint(problem)
            anchors.setdefault(prints[id(problem)], problem)
    offline = run_experiments(list(anchors.values()), [offline_algorithm])
    results = dict(zip(anchors, offline.results))
    offline_costs: Dict[str, float] = {}
    replay_params: Dict[str, Dict] = {}
    for spec, problem in zip(specs, problems):
        result = results[prints[id(problem)]]
        if result.ok:
            offline_costs[spec.name] = float(result.cost)
            replay_params[spec.name] = {
                "sequence": list(result.sequence),
                "columns": dict(result.assignment),
            }
        else:
            # No anchor schedule to hand over; let the replay factory solve
            # (and error-capture) inside the worker instead.
            replay_params[spec.name] = {"algorithm": offline_algorithm}

    jobs = [
        job
        for spec in specs
        for policy in policy_list
        for job in SimulationJob.cell(
            spec,
            policy,
            replications,
            params=replay_params[spec.name] if policy == "static-replay" else None,
            seed=seed,
        )
    ]
    run = run_simulation_jobs(
        jobs,
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
    )
    return SimulationSuiteResult(
        specs=tuple(specs),
        policies=policy_list,
        replications=int(replications),
        seed=int(seed),
        run=run,
        offline_costs=offline_costs,
    )
