"""Incremental, vectorized battery-cost evaluation of candidate schedules.

Every search layer in the library — the paper's iterative heuristic, the
hill-climbing refinement pass, the annealing yardstick and the enumeration
baselines — spends its time asking one question: *what is sigma for this
(sequence, assignment) candidate?*  This module answers it once, at three
speeds:

* :func:`evaluate_schedule` — the canonical **full** evaluation.  It skips
  the :class:`~repro.scheduling.Schedule` / :class:`~repro.battery.LoadProfile`
  object layer entirely, handing duration/current arrays straight to the
  battery model's vectorized schedule path
  (:meth:`~repro.battery.RakhmatovVrudhulaModel.schedule_charge`).
  :func:`~repro.scheduling.battery_cost` is a thin wrapper over it.
* :class:`IncrementalCostEvaluator` — **delta** evaluation for neighbourhood
  search.  It keeps a :class:`ScheduleState` (timeline arrays plus
  per-interval sigma contributions) and exposes ``propose``/``apply`` for
  the two neighbourhood moves every searcher uses: change one task's design
  point, or relocate one task to another position.  A proposal re-costs only
  the intervals whose contribution can have changed.  The evaluator only
  moves forward: a rejected proposal is simply never applied.
* :meth:`~repro.battery.RakhmatovVrudhulaModel.schedule_charge_batch` —
  **batch** evaluation of many same-length schedules at once (used by the
  uniform-assignment bounds).

Bit-level contract
------------------
The three paths return *bit-identical* sigma values for the same candidate.
This works because the canonical path parametrises interval ``k`` by its
**time-to-end** (the sum of the durations scheduled after it): a move at
position ``p`` leaves every interval after ``max(p, target)`` untouched —
same duration, same current, same time-to-end, bit for bit — so the
incremental evaluator recomputes only the affected prefix, re-extending the
same back-to-front suffix-sum chain a full evaluation would build
(:func:`~repro.battery.suffix_durations`), and reduces the contributions
with an exactly rounded (order-independent) ``math.fsum``.  Searches driven
incrementally therefore walk the *identical* trajectory a full-recompute
search would.

Chemistry dispatch
------------------
The evaluator is chemistry-generic: every :class:`~repro.battery.BatteryModel`
(all four built-in chemistries — Rakhmatov–Vrudhula, Peukert, KiBaM,
ideal) gets true incremental updates through its ``interval_contributions``
kernel.  The recompute window depends on the chemistry's ``TIME_SENSITIVE``
flag:

* **time-sensitive** chemistries (Rakhmatov–Vrudhula, KiBaM): a move at
  window ``[lo, hi]`` changes the time-to-end of every interval at or
  before ``hi``, so the whole prefix ``[0, hi]`` is re-costed and the
  suffix is reused;
* **time-insensitive** chemistries (Peukert, ideal): contributions ignore
  time-to-end entirely, so only the changed segment ``[lo, hi]`` is
  re-costed — contributions on *both* sides are reused bit-for-bit, and a
  moved evaluation point (deadline mode) invalidates nothing.

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

from ..battery import BatteryModel, suffix_durations
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
    created.  Returns bit-identical costs to the incremental evaluator.
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


@dataclass
class ScheduleState:
    """Timeline arrays and per-interval sigma contributions of one candidate.

    ``durations``/``currents`` are per-position arrays in sequence order;
    ``tail[k]`` is the time-to-end of interval ``k`` (suffix sum of the
    durations after it); ``contributions[k]`` is interval ``k``'s share of
    sigma.  For time-insensitive chemistries the contributions never read
    ``tail``, so the evaluator leaves it at its construction-time values
    rather than maintaining it per move.
    """

    sequence: List[str]
    columns: Dict[str, int]
    durations: np.ndarray
    currents: np.ndarray
    tail: np.ndarray
    contributions: np.ndarray
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
    _recompute_hi: int = field(repr=False)
    _contrib_head: np.ndarray = field(repr=False)
    _recompute_lo: int = field(repr=False, default=0)
    _tail_head: Optional[np.ndarray] = field(repr=False, default=None)
    _version: int = field(repr=False, default=0)
    _changed_column: Optional[Tuple[str, int]] = field(repr=False, default=None)
    _move_window: Optional[Tuple[int, int]] = field(repr=False, default=None)


class IncrementalCostEvaluator:
    """Delta-updating battery-cost evaluator over (sequence, assignment) states.

    Parameters
    ----------
    graph:
        The task graph being scheduled.
    sequence, assignment:
        The starting candidate (validated against the graph).
    model:
        Battery model supplying the cost function through its
        ``interval_contributions`` kernel, with the recompute window
        narrowed further for time-insensitive chemistries (see the module
        docstring).
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
        # Chemistry dispatch: time-insensitive kernels (Peukert, ideal) keep
        # contributions valid on both sides of a move.
        self._time_sensitive = model.TIME_SENSITIVE
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
        durations = self._durations_by_task[name]
        if not (0 <= column < len(durations)):
            raise ScheduleError(
                f"column {column} out of range for task {name!r} "
                f"({len(durations)} design points)"
            )
        candidate = self.state.durations.tolist()
        candidate[position] = durations[column]
        return math.fsum(candidate)

    def evaluate_full(self) -> float:
        """Full from-scratch evaluation of the current state (testing hook)."""
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
        """Cost the move "run ``name`` at design-point ``column``" without committing.

        Only intervals at or before ``name``'s position are re-evaluated:
        later intervals keep their time-to-end (the changed duration is not
        part of their suffix), so their contributions are reused bit-for-bit.
        """
        position = self.position(name)
        durations = self._durations_by_task[name]
        if not (0 <= column < len(durations)):
            raise ScheduleError(
                f"column {column} out of range for task {name!r} "
                f"({len(durations)} design points)"
            )
        if column == self.state.columns[name]:
            raise ScheduleError(
                f"task {name!r} already runs at design-point column {column}"
            )
        new_durations = self.state.durations.copy()
        new_currents = self.state.currents.copy()
        new_durations[position] = durations[column]
        new_currents[position] = self._currents_by_task[name][column]
        makespan = math.fsum(new_durations.tolist())
        rest = _resolve_rest(makespan, self.deadline, self.evaluate_at)
        return self._cost_candidate(
            kind="design_point",
            sequence=tuple(self.state.sequence),
            new_durations=new_durations,
            new_currents=new_currents,
            lo=position,
            hi=position,
            makespan=makespan,
            rest=rest,
            changed_column=(name, column),
        )

    def propose_relocate(self, name: str, position: int) -> MoveProposal:
        """Cost the move "place ``name`` at sequence ``position``" without committing.

        The target position must lie within the window allowed by ``name``'s
        predecessors and successors (validity by construction).  Intervals
        after ``max(old, new)`` position are reused bit-for-bit; the makespan
        is exactly unchanged (same duration multiset, exact fsum).
        """
        index = self.position(name)
        n = len(self.state.sequence)
        if not (0 <= position < n):
            raise ScheduleError(f"target position {position} out of range [0, {n})")
        if position == index:
            raise ScheduleError(f"task {name!r} is already at position {position}")
        lower = max(
            (self._positions[p] for p in self.graph.predecessors(name)), default=-1
        ) + 1
        upper = min(
            (self._positions[s] for s in self.graph.successors(name)), default=n
        ) - 1
        if not (lower <= position <= upper):
            raise ScheduleError(
                f"moving task {name!r} to position {position} violates precedence "
                f"(legal window [{lower}, {upper}])"
            )
        new_sequence = list(self.state.sequence)
        new_sequence.pop(index)
        new_sequence.insert(position, name)
        lo, hi = (index, position) if index < position else (position, index)
        new_durations = self.state.durations.copy()
        new_currents = self.state.currents.copy()
        segment = [
            (
                self._durations_by_task[task][self.state.columns[task]],
                self._currents_by_task[task][self.state.columns[task]],
            )
            for task in new_sequence[lo : hi + 1]
        ]
        new_durations[lo : hi + 1] = [duration for duration, _ in segment]
        new_currents[lo : hi + 1] = [current for _, current in segment]
        # Same duration multiset => exactly the same fsum makespan and rest.
        return self._cost_candidate(
            kind="relocate",
            sequence=tuple(new_sequence),
            new_durations=new_durations,
            new_currents=new_currents,
            lo=lo,
            hi=hi,
            makespan=self.state.makespan,
            rest=self.state.rest,
            changed_column=None,
            move_window=(lo, hi),
        )

    def _cost_candidate(
        self,
        kind: str,
        sequence: Tuple[str, ...],
        new_durations: np.ndarray,
        new_currents: np.ndarray,
        lo: int,
        hi: int,
        makespan: float,
        rest: float,
        changed_column: Optional[Tuple[str, int]],
        move_window: Optional[Tuple[int, int]] = None,
    ) -> MoveProposal:
        """Evaluate a candidate's cost, reusing unaffected contributions."""
        recompute_lo = 0
        recompute_hi = hi
        if not self._time_sensitive:
            # Contributions ignore time-to-end: both sides of the changed
            # segment are reused, and a moved evaluation point (deadline
            # mode) invalidates nothing.
            recompute_lo = lo
        elif rest != self.state.rest:
            # The evaluation point moved (deadline mode): every interval's
            # time-to-evaluation changes, so nothing can be reused.
            recompute_hi = len(sequence) - 1
        if _OBS.enabled:
            _OBS.count(f"eval.propose.{kind}")
            _OBS.observe("eval.recompute_window", recompute_hi - recompute_lo + 1)
        tail_head, contrib_head = self._recompute_window(
            new_durations, new_currents, recompute_lo, recompute_hi, rest
        )
        # fsum over plain floats (tolist) — exact, order-independent, and
        # much faster than iterating the boxed numpy elements.
        values = (
            contrib_head.tolist()
            + self.state.contributions[recompute_hi + 1 :].tolist()
        )
        if recompute_lo:
            values += self.state.contributions[:recompute_lo].tolist()
        cost = float(math.fsum(values))
        return MoveProposal(
            kind=kind,
            cost=cost,
            makespan=makespan,
            rest=rest,
            sequence=sequence,
            _durations=new_durations,
            _currents=new_currents,
            _recompute_hi=recompute_hi,
            _recompute_lo=recompute_lo,
            _tail_head=tail_head,
            _contrib_head=contrib_head,
            _version=self._version,
            _changed_column=changed_column,
            _move_window=move_window,
        )

    def _recompute_window(
        self,
        durations: np.ndarray,
        currents: np.ndarray,
        lo: int,
        hi: int,
        rest: float,
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Recompute the contributions of window ``[lo, hi]`` for a candidate.

        Time-sensitive chemistries always pass ``lo == 0`` (the whole prefix
        changed time-to-end): ``tail[hi]`` is unchanged by construction
        (only durations at or before ``hi`` differ), so the suffix-sum chain
        is re-extended from it downwards with exactly the additions a full
        back-to-front cumsum would perform — the root of the
        full/incremental bit-identity — and the refreshed ``tail[0:hi]`` is
        returned alongside the contributions.

        Time-insensitive chemistries re-cost only ``[lo, hi]``; the kernel
        ignores time-to-end, so no tail maintenance is needed (``None``).
        """
        if not self._time_sensitive:
            contrib = self.model.interval_contributions(
                durations[lo : hi + 1],
                currents[lo : hi + 1],
                np.zeros(hi - lo + 1),
            )
            return None, contrib
        n = durations.shape[0]
        if hi >= n - 1:
            tail_all = suffix_durations(durations)
            tail_head = tail_all[:-1]
            time_to_end = tail_all + rest
        else:
            # Re-extend the back-to-front suffix-sum chain from the unchanged
            # anchor tail[hi], with exactly the additions a full cumsum would
            # perform (in-place, no intermediate concatenations).
            anchor = self.state.tail[hi]
            chain = np.empty(hi + 1)
            chain[0] = anchor
            chain[1:] = durations[hi:0:-1]
            np.cumsum(chain, out=chain)
            tail_head = chain[1:][::-1]
            time_to_end = np.empty(hi + 1)
            time_to_end[:hi] = tail_head
            time_to_end[hi] = anchor
            time_to_end += rest
        contrib_head = self.model.interval_contributions(
            durations[: hi + 1], currents[: hi + 1], time_to_end[: hi + 1]
        )
        return tail_head, contrib_head

    # ------------------------------------------------------------------
    # state transitions
    # ------------------------------------------------------------------
    def apply(self, proposal: MoveProposal) -> None:
        """Commit a proposal produced from the *current* state.

        Applies state deltas only: the per-interval contributions (and tail)
        are patched in place over the recompute window, and position/column
        bookkeeping is touched only where the move kind actually changes it.
        """
        if proposal._version != self._version:
            raise ScheduleError(
                "stale proposal: it was produced from a different evaluator state"
            )
        state = self.state
        hi = proposal._recompute_hi
        state.contributions[proposal._recompute_lo : hi + 1] = proposal._contrib_head
        if proposal._tail_head is not None and hi > 0:
            state.tail[:hi] = proposal._tail_head
        state.durations = proposal._durations
        state.currents = proposal._currents
        if proposal._changed_column is not None:
            name, column = proposal._changed_column
            state.columns[name] = column
        else:
            # Relocation: columns untouched, but order and positions change —
            # only inside the move window.  Patch a copy: the ``positions``
            # view handed out before this move is replaced, never mutated.
            state.sequence = list(proposal.sequence)
            positions = self._positions.copy()
            move_lo, move_hi = proposal._move_window
            for index in range(move_lo, move_hi + 1):
                positions[state.sequence[index]] = index
            self._positions = positions
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
        tail = suffix_durations(durations)
        contributions = self.model.interval_contributions(durations, currents, tail + rest)
        cost = float(math.fsum(contributions))
        return ScheduleState(
            sequence=sequence,
            columns=columns,
            durations=durations,
            currents=currents,
            tail=tail,
            contributions=contributions,
            makespan=makespan,
            rest=rest,
            cost=cost,
        )

    def __repr__(self) -> str:
        return (
            f"IncrementalCostEvaluator({len(self.state.sequence)} tasks, "
            f"cost={self.state.cost:g}, makespan={self.state.makespan:g})"
        )
