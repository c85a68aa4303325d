"""The suite experiment: run algorithms across the scenario catalogue.

:func:`run_suite` is the experiments-layer entry point over
:mod:`repro.scenarios`: select scenarios from a registry (default: the
whole standard catalogue), cross them with registered algorithm names, and
push the resulting job grid through the experiment engine — with all of
the engine's guarantees (parallel output byte-identical to serial,
failures isolated per job, resumable through a
:class:`~repro.engine.ResultStore`).  The result bundles the per-job grid
with the suite leaderboard (see :mod:`repro.analysis.leaderboard`).

>>> from repro.experiments import run_suite
>>> result = run_suite(scenarios=["g3"], algorithms=["all-fastest"])
>>> result.run.ok
True
>>> result.leaderboard()[0].algorithm
'all-fastest'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis import (
    LeaderboardEntry,
    TextTable,
    compute_leaderboard,
    leaderboard_table,
)
from ..engine import ExperimentRun, ResultStore, run_experiments
from ..engine.api import AlgorithmSpec
from ..scenarios import ScenarioRegistry, ScenarioSpec, default_registry

__all__ = ["DEFAULT_SUITE_ALGORITHMS", "SuiteRunResult", "run_suite"]

#: Algorithms the suite runs when none are named: the paper's iterative
#: heuristic against the deterministic baselines.  (The stochastic
#: annealing baseline is opt-in — pass it explicitly with a seed param to
#: keep suite output reproducible.)
DEFAULT_SUITE_ALGORITHMS: Tuple[str, ...] = (
    "iterative",
    "dp-energy+greedy",
    "last-task-first",
    "best-uniform",
)


@dataclass(frozen=True)
class SuiteRunResult:
    """Everything produced by one :func:`run_suite` call."""

    specs: Tuple[ScenarioSpec, ...]
    algorithms: Tuple[str, ...]
    run: ExperimentRun

    def to_table(self) -> TextTable:
        """The full result grid: one row per (scenario, algorithm) job."""
        table = TextTable(
            title=f"Scenario suite ({len(self.specs)} scenarios x "
                  f"{len(self.algorithms)} algorithms)",
            headers=("scenario", "algorithm", "sigma", "makespan", "status"),
        )
        for result in self.run.results:
            table.add_row(
                result.problem_name,
                result.algorithm,
                result.cost,
                result.makespan,
                "ok" if result.ok else result.error,
            )
        return table

    def leaderboard(self) -> List[LeaderboardEntry]:
        """Per-algorithm standings across the selected scenarios."""
        return compute_leaderboard(
            (
                result.problem_name,
                result.algorithm,
                result.cost,
                result.feasible,
                result.elapsed_s,
            )
            for result in self.run.results
        )

    def leaderboard_table(self) -> TextTable:
        """The leaderboard as a report table."""
        return leaderboard_table(self.leaderboard())

    def summary(self) -> str:
        """One-line accounting summary (delegates to the engine run)."""
        return self.run.summary()


def run_suite(
    scenarios: Optional[Sequence[str]] = None,
    algorithms: Optional[AlgorithmSpec] = None,
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    progress=None,
    registry: Optional[ScenarioRegistry] = None,
    seed: Optional[int] = None,
    optimize: str = "",
) -> SuiteRunResult:
    """Run algorithms over scenario-catalogue problems through the engine.

    Parameters
    ----------
    scenarios:
        Scenario names to include (default: every *deterministic* scenario
        in the registry, in catalogue order — stochastic-tier entries
        build offline problems identical to their deterministic twins, so
        including them would double-count those problems in the
        leaderboard; name them explicitly to run them anyway).
    algorithms:
        Algorithm names or a name -> params mapping (default:
        :data:`DEFAULT_SUITE_ALGORITHMS`).
    executor, store, resume, progress:
        Passed through to :func:`repro.engine.run_experiments` — use
        ``ParallelExecutor`` / ``default_executor(jobs)`` for fan-out and a
        :class:`~repro.engine.ResultStore` with ``resume=True`` to continue
        interrupted runs.
    registry:
        Scenario registry to select from (default:
        :func:`repro.scenarios.default_registry`).
    seed:
        Merged into every job's parameters; stochastic algorithms (the
        annealing baseline) consume it, so two same-seed suite runs are
        byte-identical, and it enters every job key either way.
    optimize:
        Optional optimize-pass list (e.g. ``"fuse"`` or ``"cull+fuse"``)
        applied to every selected spec via
        :meth:`~repro.scenarios.ScenarioRegistry.optimized` — problems are
        built on rewritten graphs and job keys grow the pass list, so
        optimized and unoptimized results never collide in a store.
    """
    registry = registry if registry is not None else default_registry()
    if optimize:
        registry = registry.optimized(optimize)
    if scenarios is None:
        specs = registry.select(stochastic=False)
    else:
        specs = registry.select(names=scenarios)
    algorithm_spec: AlgorithmSpec = (
        algorithms if algorithms is not None else DEFAULT_SUITE_ALGORITHMS
    )
    problems = [spec.build_problem() for spec in specs]
    run = run_experiments(
        problems,
        algorithm_spec,
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
        params={"seed": int(seed)} if seed is not None else None,
    )
    # Iterating a mapping yields its keys, so both spec shapes reduce to names.
    return SuiteRunResult(
        specs=tuple(specs), algorithms=tuple(algorithm_spec), run=run
    )
