"""Deadline and battery sweeps (extension experiment E9).

Two sweeps extend the paper's point comparisons into curves:

* :func:`deadline_sweep` — for one graph, scan the deadline from just above
  the all-fastest makespan to the all-slowest makespan and record the
  battery cost of the iterative heuristic and the baselines at every point.
  The paper's Table 4 rows are three samples of this curve per graph.
* :func:`beta_sweep` — fix the deadline and scan the battery's diffusion
  parameter ``beta``: as the battery approaches ideal behaviour the gap
  between battery-aware and energy-only scheduling should close, which is
  the motivating claim of Section 3.

Both sweeps submit their (coordinate, algorithm) grid to the experiment
engine (:mod:`repro.engine`), so they fan out across worker processes via
``executor=`` and resume from a :class:`~repro.engine.ResultStore` when asked.  A failed cell
surfaces as ``inf`` instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..analysis import TextTable
from ..battery import BatterySpec
from ..engine import ResultStore, run_experiments
from ..errors import ConfigurationError
from ..scheduling import SchedulingProblem
from ..taskgraph import TaskGraph

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SWEEP_ALGORITHMS",
    "deadline_sweep",
    "beta_sweep",
]

#: The sweep's algorithm set as (display label, engine registry name) pairs.
SWEEP_ALGORITHMS: Tuple[Tuple[str, str], ...] = (
    ("iterative (ours)", "iterative"),
    ("dp-energy+greedy", "dp-energy+greedy"),
    ("last-task-first", "last-task-first"),
    ("best-uniform", "best-uniform"),
    ("all-fastest", "all-fastest"),
)
_LABELS = tuple(display for display, _ in SWEEP_ALGORITHMS)


@dataclass(frozen=True)
class SweepPoint:
    """Costs of every algorithm at one sweep coordinate."""

    coordinate: float
    """The swept value (a deadline or a beta)."""

    costs: Dict[str, float]
    """Algorithm name -> battery cost sigma (inf when the algorithm failed)."""


@dataclass(frozen=True)
class SweepResult:
    """A labelled series of sweep points."""

    parameter: str
    graph_name: str
    points: Tuple[SweepPoint, ...]
    algorithms: Tuple[str, ...]

    def to_table(self) -> TextTable:
        """One row per sweep coordinate, one sigma column per algorithm."""
        table = TextTable(
            title=f"{self.parameter} sweep on {self.graph_name}",
            headers=(self.parameter, *self.algorithms),
        )
        for point in self.points:
            table.add_row(point.coordinate, *(point.costs[name] for name in self.algorithms))
        return table

    def series(self, algorithm: str) -> Tuple[float, ...]:
        """The cost curve of one algorithm across the sweep."""
        return tuple(point.costs[algorithm] for point in self.points)


def _engine_points(
    problems: Sequence[SchedulingProblem],
    coordinates: Sequence[float],
    executor,
    store: Optional[ResultStore],
    resume: bool,
    seed: Optional[int],
) -> Tuple[SweepPoint, ...]:
    """Run the sweep grid through the engine and fold results into points."""
    run = run_experiments(
        problems,
        [engine for _, engine in SWEEP_ALGORITHMS],
        executor=executor,
        store=store,
        resume=resume,
        params={"seed": int(seed)} if seed is not None else None,
    )
    results = iter(run.results)  # problem-major: one row of algorithms per problem
    return tuple(
        SweepPoint(
            coordinate=coordinate,
            costs={
                label: float(result.cost) if result.ok else float("inf")
                for label, result in zip(_LABELS, results)
            },
        )
        for coordinate in coordinates
    )


def deadline_sweep(
    graph: TaskGraph,
    num_points: int = 8,
    battery: Optional[BatterySpec] = None,
    margin: float = 0.02,
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    seed: Optional[int] = None,
) -> SweepResult:
    """Scan the deadline between the all-fastest and all-slowest makespans.

    ``margin`` keeps the tightest point slightly above the all-fastest
    makespan so every algorithm has at least a sliver of slack to work with.
    ``seed`` is merged into every engine job's parameters: stochastic
    algorithms consume it, deterministic ones record it in their job keys
    (so stores keep per-seed results apart).
    """
    if num_points < 2:
        raise ConfigurationError("num_points must be >= 2")
    battery = battery or BatterySpec()
    lo = graph.min_makespan()
    hi = graph.max_makespan()
    span = hi - lo
    deadlines = [
        lo + (margin + (1.0 - margin) * index / (num_points - 1)) * span
        for index in range(num_points)
    ]
    problems = [
        SchedulingProblem(
            graph=graph, deadline=deadline, battery=battery, name=f"{graph.name}@{deadline:.1f}"
        )
        for deadline in deadlines
    ]
    return SweepResult(
        parameter="deadline",
        graph_name=graph.name or "graph",
        points=_engine_points(problems, deadlines, executor, store, resume, seed),
        algorithms=_LABELS,
    )


def beta_sweep(
    graph: TaskGraph,
    deadline: float,
    betas: Sequence[float] = (0.1, 0.2, 0.273, 0.4, 0.8, 1.6, 5.0),
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    seed: Optional[int] = None,
) -> SweepResult:
    """Scan the battery diffusion parameter at a fixed deadline."""
    if not betas:
        raise ConfigurationError("at least one beta value is required")
    problems = [
        SchedulingProblem(
            graph=graph,
            deadline=deadline,
            battery=BatterySpec(beta=beta),
            name=f"{graph.name}@beta={beta:g}",
        )
        for beta in betas
    ]
    return SweepResult(
        parameter="beta",
        graph_name=graph.name or "graph",
        points=_engine_points(
            problems, [float(beta) for beta in betas], executor, store, resume, seed
        ),
        algorithms=_LABELS,
    )
