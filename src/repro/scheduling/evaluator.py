"""Battery-cost evaluation of candidate schedules.

Every search layer in the library — the paper's iterative heuristic, the
hill-climbing refinement pass, the annealing yardstick and the enumeration
baselines — spends its time asking one question: *what is sigma for this
(sequence, assignment) candidate?*  This module answers it with one call,
the battery model's vectorized schedule path
(:meth:`~repro.battery.RakhmatovVrudhulaModel.schedule_charge`) on the
candidate's back-to-back duration/current arrays:

* :func:`evaluate_schedule` — the canonical evaluation of one candidate.  It
  skips the :class:`~repro.scheduling.Schedule` /
  :class:`~repro.battery.LoadProfile` object layer entirely, and expands
  fused compound tasks into their member segments.
  :func:`~repro.scheduling.battery_cost` is a thin wrapper over it.
* :class:`IncrementalCostEvaluator` — the move evaluator of neighbourhood
  search.  It keeps a :class:`ScheduleState` (the current timeline arrays
  and their sigma) and exposes ``propose``/``apply`` for the two
  neighbourhood moves every searcher uses: change one task's design point,
  or relocate one task to another position.  A proposal costs the whole
  candidate; ``apply`` makes it the current state.  A rejected proposal is
  simply never applied.

Because both paths make the same call on the same arrays, a proposal's
sigma is bit-identical to :func:`evaluate_schedule` of the same candidate,
for every chemistry and evaluation point.  The one exception is a fused
compound task: the move evaluator prices it at its single averaged design
point (the search-time proxy), not at its member segments.

A complete propose/apply round trip:

>>> from repro.battery import RakhmatovVrudhulaModel
>>> from repro.scheduling import DesignPointAssignment
>>> from repro.scheduling.evaluator import IncrementalCostEvaluator
>>> from repro.workloads import chain_graph
>>> graph = chain_graph(3, seed=1)
>>> assignment = DesignPointAssignment({name: 0 for name in graph.task_names()})
>>> evaluator = IncrementalCostEvaluator(
...     graph, graph.task_names(), assignment, RakhmatovVrudhulaModel(beta=0.273))
>>> proposal = evaluator.propose_design_point("T2", 3)
>>> evaluator.apply(proposal)
>>> evaluator.cost == proposal.cost and evaluator.cost == evaluator.evaluate_full()
True
>>> evaluator.columns["T2"]
3
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..battery import BatteryModel
from ..errors import ConfigurationError, ScheduleError
from ..obs import RECORDER as _OBS
from ..taskgraph import TaskGraph, validate_sequence
from .assignment import DesignPointAssignment

__all__ = [
    "EVALUATION_MODES",
    "ScheduleEvaluation",
    "ScheduleState",
    "MoveProposal",
    "IncrementalCostEvaluator",
    "evaluate_schedule",
    "relocation_window",
]

#: Supported sigma evaluation points (re-exported by :mod:`repro.scheduling.cost`).
EVALUATION_MODES = ("completion", "deadline")

#: Feasibility slack shared by the schedule/deadline comparisons.
_EPS = 1e-9


def _resolve_rest(
    makespan: float, deadline: Optional[float], evaluate_at: str
) -> float:
    """Idle time between completion and the sigma evaluation point.

    ``evaluate_at="completion"`` evaluates sigma at the makespan (rest 0).
    ``evaluate_at="deadline"`` evaluates at the deadline, crediting
    post-completion recovery — but a deadline *earlier* than the makespan is
    clamped to the makespan (rest 0 again): the cost of a deadline-missing
    schedule is its completion-time sigma, never a sigma from before the
    work has finished.  See :func:`repro.scheduling.battery_cost` for the
    user-facing statement of this clamping rule.
    """
    if evaluate_at not in EVALUATION_MODES:
        raise ConfigurationError(
            f"evaluate_at must be one of {EVALUATION_MODES}, got {evaluate_at!r}"
        )
    if evaluate_at == "deadline":
        if deadline is None:
            raise ConfigurationError('evaluate_at="deadline" requires a deadline value')
        return max(float(deadline) - makespan, 0.0)
    return 0.0


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Result of one full canonical evaluation."""

    cost: float
    """Apparent charge sigma at the evaluation point (mA·min)."""

    makespan: float
    """Completion time of the schedule."""

    rest: float
    """Idle time between completion and the sigma evaluation point."""


def evaluate_schedule(
    graph: TaskGraph,
    sequence: Sequence[str],
    assignment: DesignPointAssignment,
    model: BatteryModel,
    deadline: Optional[float] = None,
    evaluate_at: str = "completion",
) -> ScheduleEvaluation:
    """Canonical full evaluation of one candidate solution.

    Builds the back-to-back duration/current arrays directly from the graph
    tables and hands them to the model's vectorized schedule path; no
    :class:`Schedule` or :class:`~repro.battery.LoadProfile` objects are
    created.  Move proposals of :class:`IncrementalCostEvaluator` make the
    same model call, so they cost the same candidate bit-identically when
    it holds no compound task.
    Compound tasks produced by :func:`repro.taskgraph.fuse` are expanded
    into their recorded member segments, so a fused schedule's canonical
    cost equals its unfused translation's cost bitwise (the compound's
    single averaged design point is only the search-time proxy).

    >>> from repro.battery import RakhmatovVrudhulaModel
    >>> from repro.scheduling import DesignPointAssignment
    >>> from repro.scheduling.evaluator import evaluate_schedule
    >>> from repro.workloads import chain_graph
    >>> graph = chain_graph(3, seed=1)
    >>> assignment = DesignPointAssignment({name: 0 for name in graph.task_names()})
    >>> evaluation = evaluate_schedule(
    ...     graph, graph.task_names(), assignment, RakhmatovVrudhulaModel(beta=0.273))
    >>> evaluation.cost > 0 and evaluation.rest == 0.0
    True
    """
    validate_sequence(graph, sequence)
    assignment.validate(graph)
    interval_durations: List[float] = []
    interval_currents: List[float] = []
    for name in sequence:
        task = graph.task(name)
        column = assignment[name]
        # Compound tasks (taskgraph.optimize.fuse) carry their members'
        # exact per-column (duration, current) rows; expanding them here
        # makes the canonical cost of a fused schedule bitwise equal to the
        # cost of its unfused translation, for every chemistry.
        segments = task.metadata.get("fused_segments")
        if segments is None:
            point = task.ordered_design_points()[column]
            interval_durations.append(point.execution_time)
            interval_currents.append(point.current)
        else:
            for duration, current in segments[column]:
                interval_durations.append(duration)
                interval_currents.append(current)
    durations = np.asarray(interval_durations, dtype=float)
    currents = np.asarray(interval_currents, dtype=float)
    makespan = math.fsum(durations)
    rest = _resolve_rest(makespan, deadline, evaluate_at)
    cost = model.schedule_charge(durations, currents, rest)
    return ScheduleEvaluation(cost=cost, makespan=makespan, rest=rest)


def relocation_window(
    graph: TaskGraph, positions: Dict[str, int], name: str, size: int
) -> Tuple[int, int]:
    """The positions ``name`` may move to without breaking precedence.

    ``positions`` maps every task of a ``size``-task sequence to its index.
    The window runs from just after ``name``'s last predecessor to just
    before its first successor, so in a precedence-respecting sequence it
    always contains ``name``'s own position.
    """
    lower = max((positions[p] for p in graph.predecessors(name)), default=-1) + 1
    upper = min((positions[s] for s in graph.successors(name)), default=size) - 1
    return lower, upper


@dataclass
class ScheduleState:
    """Timeline arrays of one candidate and its sigma.

    ``durations``/``currents`` are per-position arrays in sequence order.
    """

    sequence: List[str]
    columns: Dict[str, int]
    durations: np.ndarray
    currents: np.ndarray
    makespan: float
    rest: float
    cost: float


@dataclass(frozen=True)
class MoveProposal:
    """A costed-but-uncommitted neighbourhood move.

    Produced by :meth:`IncrementalCostEvaluator.propose_design_point` and
    :meth:`~IncrementalCostEvaluator.propose_relocate`; hand it back to
    :meth:`~IncrementalCostEvaluator.apply` to commit it.  ``cost`` and
    ``makespan`` describe the *candidate* (post-move) schedule.
    """

    kind: str
    cost: float
    makespan: float
    rest: float
    sequence: Tuple[str, ...]
    _durations: np.ndarray = field(repr=False)
    _currents: np.ndarray = field(repr=False)
    _version: int = field(repr=False, default=0)
    _changed_column: Optional[Tuple[str, int]] = field(repr=False, default=None)


class IncrementalCostEvaluator:
    """Move evaluator over (sequence, assignment) states.

    Parameters
    ----------
    graph:
        The task graph being scheduled.
    sequence, assignment:
        The starting candidate (validated against the graph).
    model:
        Battery model supplying the cost function through its
        ``schedule_charge`` path.
    deadline, evaluate_at:
        Sigma evaluation point, with the same semantics (including deadline
        clamping) as :func:`repro.scheduling.battery_cost`.
    """

    def __init__(
        self,
        graph: TaskGraph,
        sequence: Sequence[str],
        assignment: DesignPointAssignment,
        model: BatteryModel,
        deadline: Optional[float] = None,
        evaluate_at: str = "completion",
    ) -> None:
        validate_sequence(graph, sequence)
        assignment.validate(graph)
        _resolve_rest(0.0, deadline, evaluate_at)  # validate mode/deadline pairing
        self.graph = graph
        self.model = model
        self.deadline = None if deadline is None else float(deadline)
        self.evaluate_at = evaluate_at
        # Per-task design-point tables, indexed by canonical column.
        self._durations_by_task: Dict[str, Tuple[float, ...]] = {}
        self._currents_by_task: Dict[str, Tuple[float, ...]] = {}
        for task in graph:
            points = task.ordered_design_points()
            self._durations_by_task[task.name] = tuple(dp.execution_time for dp in points)
            self._currents_by_task[task.name] = tuple(dp.current for dp in points)
        with _OBS.span("eval.state.build", label=graph.name or None):
            self.state = self._build_state(
                list(sequence), {name: assignment[name] for name in assignment}
            )
        self._positions = {name: index for index, name in enumerate(self.state.sequence)}
        self._version = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def cost(self) -> float:
        """sigma of the current state at the configured evaluation point."""
        return self.state.cost

    @property
    def makespan(self) -> float:
        """Completion time of the current state."""
        return self.state.makespan

    @property
    def sequence(self) -> Tuple[str, ...]:
        """Current task order."""
        return tuple(self.state.sequence)

    @property
    def columns(self) -> Dict[str, int]:
        """Current per-task design-point columns (a copy)."""
        return dict(self.state.columns)

    def assignment(self) -> DesignPointAssignment:
        """Current state as a :class:`DesignPointAssignment`."""
        return DesignPointAssignment(self.state.columns)

    def position(self, name: str) -> int:
        """Current position of a task in the sequence."""
        try:
            return self._positions[name]
        except KeyError:
            raise ScheduleError(f"task {name!r} is not part of this schedule") from None

    @property
    def positions(self) -> Dict[str, int]:
        """Live task -> position mapping of the current state.

        Returned by reference for hot-loop searchers (one dict lookup beats a
        method call per query); treat it as read-only — it is replaced, not
        mutated, when a relocation commits, so re-read it after ``apply``.
        """
        return self._positions

    def candidate_makespan(self, name: str, column: int) -> float:
        """Makespan if ``name`` moved to design-point ``column`` (no costing).

        Cheap feasibility pre-check for searchers that discard
        deadline-violating design-point moves before paying for a proposal.
        """
        position = self.position(name)
        candidate = self.state.durations.tolist()
        candidate[position] = self._column_durations(name, column)[column]
        return math.fsum(candidate)

    def evaluate_full(self) -> float:
        """Canonical evaluation of the current state (testing hook)."""
        return evaluate_schedule(
            self.graph,
            self.state.sequence,
            DesignPointAssignment(self.state.columns),
            self.model,
            deadline=self.deadline,
            evaluate_at=self.evaluate_at,
        ).cost

    # ------------------------------------------------------------------
    # proposals
    # ------------------------------------------------------------------
    def propose_design_point(self, name: str, column: int) -> MoveProposal:
        """Cost the move "run ``name`` at design-point ``column``" without committing."""
        position = self.position(name)
        durations = self._column_durations(name, column)
        if column == self.state.columns[name]:
            raise ScheduleError(
                f"task {name!r} already runs at design-point column {column}"
            )
        new_durations = self.state.durations.copy()
        new_currents = self.state.currents.copy()
        new_durations[position] = durations[column]
        new_currents[position] = self._currents_by_task[name][column]
        return self._cost_candidate(
            kind="design_point",
            sequence=tuple(self.state.sequence),
            durations=new_durations,
            currents=new_currents,
            makespan=math.fsum(new_durations.tolist()),
            changed_column=(name, column),
        )

    def propose_relocate(self, name: str, position: int) -> MoveProposal:
        """Cost the move "place ``name`` at sequence ``position``" without committing.

        The target position must lie within :func:`relocation_window`, the
        window allowed by ``name``'s predecessors and successors (validity by
        construction).  The makespan is exactly unchanged (same duration
        multiset, exact fsum).
        """
        index = self.position(name)
        n = len(self.state.sequence)
        if not (0 <= position < n):
            raise ScheduleError(f"target position {position} out of range [0, {n})")
        if position == index:
            raise ScheduleError(f"task {name!r} is already at position {position}")
        lower, upper = relocation_window(self.graph, self._positions, name, n)
        if not (lower <= position <= upper):
            raise ScheduleError(
                f"moving task {name!r} to position {position} violates precedence "
                f"(legal window [{lower}, {upper}])"
            )
        new_sequence = list(self.state.sequence)
        new_durations = self.state.durations.tolist()
        new_currents = self.state.currents.tolist()
        for values in (new_sequence, new_durations, new_currents):
            values.insert(position, values.pop(index))
        return self._cost_candidate(
            kind="relocate",
            sequence=tuple(new_sequence),
            durations=np.array(new_durations),
            currents=np.array(new_currents),
            makespan=self.state.makespan,
        )

    def _column_durations(self, name: str, column: int) -> Tuple[float, ...]:
        """``name``'s per-column durations, after checking ``column`` exists."""
        durations = self._durations_by_task[name]
        if not (0 <= column < len(durations)):
            raise ScheduleError(
                f"column {column} out of range for task {name!r} "
                f"({len(durations)} design points)"
            )
        return durations

    def _cost_candidate(
        self,
        kind: str,
        sequence: Tuple[str, ...],
        durations: np.ndarray,
        currents: np.ndarray,
        makespan: float,
        changed_column: Optional[Tuple[str, int]] = None,
    ) -> MoveProposal:
        """Cost a whole candidate through the model's schedule path."""
        if _OBS.enabled:
            _OBS.count(f"eval.propose.{kind}")
        rest = _resolve_rest(makespan, self.deadline, self.evaluate_at)
        return MoveProposal(
            kind=kind,
            cost=self.model.schedule_charge(durations, currents, rest),
            makespan=makespan,
            rest=rest,
            sequence=sequence,
            _durations=durations,
            _currents=currents,
            _version=self._version,
            _changed_column=changed_column,
        )

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def apply(self, proposal: MoveProposal) -> None:
        """Commit a proposal produced from the *current* state."""
        if proposal._version != self._version:
            raise ScheduleError(
                "stale proposal: it was produced from a different evaluator state"
            )
        state = self.state
        state.durations = proposal._durations
        state.currents = proposal._currents
        if proposal._changed_column is not None:
            name, column = proposal._changed_column
            state.columns[name] = column
        else:
            # Relocation: a new positions dict, so the ``positions`` view
            # handed out before this move is replaced, never mutated.
            state.sequence = list(proposal.sequence)
            self._positions = {name: index for index, name in enumerate(state.sequence)}
        state.makespan = proposal.makespan
        state.rest = proposal.rest
        state.cost = proposal.cost
        self._version += 1
        if _OBS.enabled:
            _OBS.count("eval.apply")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_state(self, sequence: List[str], columns: Dict[str, int]) -> ScheduleState:
        durations = np.array(
            [self._durations_by_task[name][columns[name]] for name in sequence]
        )
        currents = np.array(
            [self._currents_by_task[name][columns[name]] for name in sequence]
        )
        makespan = math.fsum(durations)
        rest = _resolve_rest(makespan, self.deadline, self.evaluate_at)
        return ScheduleState(
            sequence=sequence,
            columns=columns,
            durations=durations,
            currents=currents,
            makespan=makespan,
            rest=rest,
            cost=self.model.schedule_charge(durations, currents, rest),
        )

    def __repr__(self) -> str:
        return (
            f"IncrementalCostEvaluator({len(self.state.sequence)} tasks, "
            f"cost={self.state.cost:g}, makespan={self.state.makespan:g})"
        )
