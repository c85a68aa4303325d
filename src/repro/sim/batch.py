"""Batched Monte Carlo simulation: one cell's replications, columnar.

:class:`BatchSimulator` runs the replications of one (scenario, policy)
cell.  :meth:`~BatchSimulator.run` returns, per lane, a
:class:`LaneSummary` — the six scalars a store row keeps — and
:meth:`~BatchSimulator.results` the full
:class:`~repro.sim.SimulationResult` timeline.  Either equals, bitwise,
what the scalar :class:`~repro.sim.Simulator` returns for the same
``(seed, replication)`` stream.

A replication's task order does not depend on its draws (static replay
follows its sequence; an online policy pops a ``(-weight, rank)`` heap
keyed by the graph and the belief tables; a failed attempt reruns at
once), only its design-point columns do, and the draws do not depend on
decisions.  So each lane's attempts are drawn up front, in scalar order,
and the cell runs as ``(lanes, attempt slots)`` arrays: the order is
computed once through the policy's ordering step, and an online policy's
``choose_columns`` rule takes one vector step per task position.  A
lane's spare slots (where another lane retried) are zero-length,
zero-current intervals, which change no clock, charge or sigma.  One
``schedule_charge_batch`` call with per-lane rests costs every lane, and
a summary is read straight off those arrays; only :meth:`results` builds
per-interval objects.

A cell is columnar when the battery has no finite capacity, no trace is
sampled, all lanes run one built-in policy type (exactly: a subclass may
override anything) with equal parameters, and no lane exhausts its retry
budget.  Every other cell falls back to one scalar
:class:`~repro.sim.Simulator` per lane; a lane that fails yields its
exception while its siblings complete.  A columnar cell cannot fail per
lane: a set-up error, such as an invalid replay sequence, is the error
each lane's scalar run raises, and every lane gets it.
"""

from __future__ import annotations

import math
import time as _time
from itertools import compress, repeat
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..battery import BatteryModel
from ..errors import SimulationError
from ..obs import RECORDER as _OBS
from ..scheduling import SchedulingProblem
from ..scheduling.evaluator import _resolve_rest
from .imode import resolve_beliefs
from .livestate import ExactSum
from .perturbation import PerturbationModel
from .result import SimulatedInterval, SimulationResult
from .runtime import _EPS, Simulator, _checked_column, _graph_tables, _stream
from .schedulers import (
    BatteryReactiveScheduler,
    DeadlineSlackScheduler,
    GreedyEnergyScheduler,
    StaticReplayScheduler,
)

__all__ = ["BatchSimulator", "LaneOutcome", "LaneSummary"]


class LaneSummary(NamedTuple):
    """One completed lane as a store row reads it: six scalars, no timeline."""

    cost: float
    makespan: float
    feasible: bool
    retries: int
    events: int
    depletion_time: Optional[float]

    @classmethod
    def of(cls, result: SimulationResult) -> "LaneSummary":
        """The summary of a full :class:`~repro.sim.SimulationResult`."""
        return cls(
            result.cost,
            result.makespan,
            result.feasible,
            result.retries,
            result.events,
            result.depletion_time,
        )


#: One lane's :meth:`BatchSimulator.run` outcome: its summary, or the
#: exception that aborted it.
LaneOutcome = Union[LaneSummary, Exception]


class _Plan(NamedTuple):
    """Task position ``p`` owns ``widths[p]`` attempt slots; ``present`` marks
    a lane's attempts, ``factors`` their duration factors (``0.0`` if spare)."""

    widths: List[int]
    factors: np.ndarray
    present: np.ndarray


class _Cell(NamedTuple):
    """A columnar cell's outcome as arrays, one row (or entry) per lane."""

    order: Tuple[str, ...]
    columns: np.ndarray
    durations: np.ndarray
    currents: np.ndarray
    events: List[int]
    retries: List[int]
    makespans: List[float]
    feasible: List[bool]
    rests: List[float]
    costs: List[float]


_COLUMNAR_POLICIES = (
    StaticReplayScheduler,
    GreedyEnergyScheduler,
    DeadlineSlackScheduler,
    BatteryReactiveScheduler,
)


class BatchSimulator:
    """Run many replications of one problem/policy cell.

    Parameters
    ----------
    problem:
        The shared scheduling problem (graph + deadline + battery).
    schedulers:
        One policy instance **per replication** — policy instances carry
        per-run state, so lanes cannot share one.  (For ``static-replay``,
        resolve the offline schedule once and construct one cheap replayer
        per lane from it; the engine's batch executor does exactly that.)
    rngs:
        One seed or :class:`numpy.random.Generator` per replication —
        the scalar path's ``rng_for_seed(seed, replication)`` streams.
        ``None`` entries (or a ``None`` sequence) are only valid with a
        null perturbation.
    perturbation, model, evaluate_at, trace_samples, imode:
        As on :class:`~repro.sim.Simulator`, shared by every lane (the
        belief tables of an information mode are per-graph, so all lanes
        share one resolved :class:`~repro.sim.imode.GraphBeliefs`).

    :meth:`run` returns one :data:`LaneOutcome` per replication, in order:
    the lane's :class:`LaneSummary`, or the exception that aborted that
    lane.  :meth:`results` returns the full timelines instead, one
    :class:`~repro.sim.SimulationResult` (or exception) per lane.  A batch
    runs once, through either.  ``columnar`` tells which path the cell
    takes; a columnar cell draws its attempt plans on construction.
    """

    def __init__(
        self,
        problem: SchedulingProblem,
        schedulers: Sequence,
        rngs: Optional[Sequence] = None,
        perturbation: Optional[PerturbationModel] = None,
        model: Optional[BatteryModel] = None,
        evaluate_at: str = "completion",
        trace_samples: int = 0,
        imode=None,
    ) -> None:
        schedulers = list(schedulers)
        if not schedulers:
            raise SimulationError("a batch needs at least one replication")
        if len(set(map(id, schedulers))) != len(schedulers):
            raise SimulationError(
                "batch lanes cannot share scheduler instances (policies carry "
                "per-run state); build one per replication"
            )
        if rngs is None:
            rngs = [None] * len(schedulers)
        rngs = list(rngs)
        if len(rngs) != len(schedulers):
            raise SimulationError(
                f"got {len(schedulers)} schedulers but {len(rngs)} rngs; "
                "each replication lane needs its own stream"
            )
        _resolve_rest(0.0, problem.deadline, evaluate_at)  # validate the mode
        self.problem = problem
        self.model = model if model is not None else problem.model()
        self.perturbation = perturbation = perturbation or PerturbationModel()
        self.evaluate_at = evaluate_at
        self._schedulers = schedulers
        self._ran = False
        first = schedulers[0]
        self._obs_label = getattr(first, "name", type(first).__name__)
        self._plan: Optional[_Plan] = None
        if (
            not problem.battery.has_finite_capacity
            and int(trace_samples) <= 0
            and type(first) in _COLUMNAR_POLICIES
            and all(
                type(lane) is type(first) and vars(lane) == vars(first)
                for lane in schedulers
            )
        ):
            rngs = [_stream(perturbation, rng) for rng in rngs]
            self._plan = _draw_plan(perturbation, rngs, problem.graph.num_tasks)
        self.columnar = self._plan is not None
        if self.columnar:
            self._tables = _graph_tables(problem.graph)
            self._beliefs = resolve_beliefs(problem.graph, imode)
        else:
            self._lanes = [
                Simulator(
                    problem,
                    scheduler,
                    perturbation=perturbation,
                    rng=rng,
                    model=self.model,
                    evaluate_at=evaluate_at,
                    trace_samples=trace_samples,
                    imode=imode,
                )
                for scheduler, rng in zip(schedulers, rngs)
            ]

    def __len__(self) -> int:
        return len(self._schedulers)

    def run(self) -> Tuple[LaneOutcome, ...]:
        """Run every lane to completion; one summary (or exception) per lane."""
        return self._execute(timelines=False)

    def results(self) -> Tuple[Union[SimulationResult, Exception], ...]:
        """Run every lane to completion; one full result (or exception) per lane."""
        return self._execute(timelines=True)

    def _execute(self, timelines: bool) -> tuple:
        if self._ran:
            raise SimulationError("a BatchSimulator instance runs exactly once")
        self._ran = True
        started = _time.perf_counter()
        with _OBS.span("sim.batch.run", label=self._obs_label):
            if self.columnar:
                try:
                    cell = self._run_columnar()
                    outcomes = self._results(cell) if timelines else self._summaries(cell)
                except Exception as exc:  # noqa: BLE001 - every lane's set-up error
                    outcomes = (exc,) * len(self)
            else:
                outcomes = tuple(map(_run_lane, self._lanes))
                if not timelines:
                    outcomes = tuple(
                        outcome if isinstance(outcome, Exception) else LaneSummary.of(outcome)
                        for outcome in outcomes
                    )
            if _OBS.enabled:
                _OBS.count("sim.batch.lanes", len(self), label=self._obs_label)
                _OBS.observe(
                    "rt.sim.batch.run_s",
                    _time.perf_counter() - started,
                    label=self._obs_label,
                )
        return outcomes

    def _run_columnar(self) -> _Cell:
        scheduler = self._schedulers[0]
        tables = self._tables
        plan = self._plan
        lanes = len(self)
        view = _Lanes(self)
        scheduler.init(view)
        if type(scheduler) is StaticReplayScheduler:
            decisions = scheduler.schedule((), ())
            order = [name for name, _ in decisions]
            picked = [
                _checked_column(name, column, tables.points[name])
                for name, column in decisions
            ]
            rows = np.array(
                [tables.attempt_rows[name][column] for name, column in zip(order, picked)]
            ).reshape(len(order), 2)[np.repeat(np.arange(len(order)), plan.widths)]
            durations = rows[:, 0] * plan.factors
            currents = rows[:, 1] * plan.present
            columns = np.broadcast_to(np.array(picked, dtype=int), (lanes, len(order)))
            wakeups = 1
        else:
            order, picked = [], []
            unfinished = dict(tables.num_inputs)
            ready = tables.initial_ready
            slot = 0
            while True:
                started = _time.perf_counter()
                name = scheduler._next_task(ready)
                if name is None:
                    break
                column = scheduler.choose_columns(name)
                if _OBS.enabled:
                    _OBS.observe(
                        "rt.sim.decision_s",
                        _time.perf_counter() - started,
                        label=self._obs_label,
                    )
                attempt = np.array(tables.attempt_rows[name])[column]
                # Every attempt at this position; a retry keeps its column.
                first, slot = slot, slot + plan.widths[len(order)]
                view.record(
                    name,
                    attempt[:, :1] * plan.factors[:, first:slot],
                    attempt[:, 1:] * plan.present[:, first:slot],
                )
                order.append(name)
                picked.append(column)
                ready = []
                for child in tables.successors[name]:
                    unfinished[child] -= 1
                    if unfinished[child] == 0:
                        ready.append(child)
            durations, currents = (
                np.array(values).reshape(-1, lanes).T
                for values in (view.durations, view.currents)
            )
            columns = np.array(picked).reshape(len(order), lanes).T
            wakeups = len(order)
        attempts = plan.present.sum(axis=1)
        made = int(attempts.sum())
        if _OBS.enabled:
            label = self._obs_label
            decisions = lanes * len(order)
            _OBS.count("sim.event.wakeup", lanes * wakeups, label=label)
            _OBS.count("sim.decisions", decisions, label=label)
            mode = self._beliefs.mode
            if not mode.is_exact:
                _OBS.count("sim.imode.decisions", decisions, label=f"{label}|{mode.label}")
            _OBS.count("sim.event.task-end", made, label=label)
            if made > decisions:
                _OBS.count("sim.retries", made - decisions, label=label)
        deadline = float(self.problem.deadline)
        makespans = [math.fsum(row) for row in durations.tolist()]
        feasible = [span <= deadline + _EPS for span in makespans]
        rests = [_resolve_rest(span, deadline, self.evaluate_at) for span in makespans]
        costs = self.model.schedule_charge_batch(
            np.ascontiguousarray(durations), np.ascontiguousarray(currents), np.array(rests)
        ).tolist()
        return _Cell(
            tuple(order), columns, durations, currents, (wakeups + attempts).tolist(),
            (attempts - len(order)).tolist(), makespans, feasible, rests, costs,
        )

    def _summaries(self, cell: _Cell) -> Tuple[LaneSummary, ...]:
        """Every lane's :class:`LaneSummary`, read off the cell's arrays."""
        return tuple(
            map(LaneSummary, cell.costs, cell.makespans, cell.feasible, cell.retries,
                cell.events, repeat(None))
        )

    def _results(self, cell: _Cell) -> Tuple[SimulationResult, ...]:
        """Every lane's :class:`SimulationResult`, built from the cell's arrays."""
        deadline = float(self.problem.deadline)
        order, durations, present = cell.order, cell.durations, self._plan.present
        # The clock: each start is the sum of the durations before it.
        starts = np.zeros_like(durations)
        np.cumsum(durations[:, :-1], axis=1, out=starts[:, 1:])
        positions = np.repeat(np.arange(len(order)), self._plan.widths)
        slot_tasks = [order[index] for index in positions.tolist()]
        attempts = [k for width in self._plan.widths for k in range(1, width + 1)]
        # An attempt failed when its lane makes a next one at its position.
        failed = np.zeros_like(present)
        failed[:, :-1] = present[:, 1:] & (np.array(attempts[1:]) > 1)
        position = {name: index for index, name in enumerate(order)}
        names = self.problem.graph.task_names()
        lanes = zip(
            self._schedulers, cell.costs, cell.makespans, cell.feasible, cell.rests,
            cell.retries, cell.events, cell.columns.tolist(),
            cell.columns[:, positions].tolist(), starts.tolist(), durations.tolist(),
            cell.currents.tolist(), failed.tolist(), present.tolist(),
        )
        return tuple(
            SimulationResult(
                policy=getattr(scheduler, "name", type(scheduler).__name__),
                cost=cost,
                makespan=makespan,
                rest=rest,
                feasible=feasible,
                deadline=deadline,
                sequence=order,
                columns={name: picked[position[name]] for name in names},
                intervals=tuple(
                    compress(
                        map(SimulatedInterval, slot_tasks, slot_columns, begins,
                            lengths, amps, attempts, failures),
                        made,
                    )
                ),
                retries=retries,
                events=events,
                evaluate_at=self.evaluate_at,
            )
            for (scheduler, cost, makespan, feasible, rest, retries, events, picked,
                 slot_columns, begins, lengths, amps, failures, made) in lanes
        )

    def __repr__(self) -> str:
        return (
            f"BatchSimulator({len(self)} lanes, policy={self._obs_label!r}, "
            f"columnar={self.columnar})"
        )


class _Lanes:
    """A columnar cell as the runtime-info surface an online policy binds to.

    It answers what a scalar :class:`~repro.sim.Simulator` answers, one
    value per lane where lanes differ (``now``, delivered charge, sigma)
    and one float for the remaining-work bound (every lane has finished
    the same tasks).  Each query counts its ``sim.query.*`` counter once
    per asking lane, and each value equals the scalar one bitwise.
    """

    def __init__(self, batch: BatchSimulator) -> None:
        beliefs = batch._beliefs
        self.graph = batch.problem.graph
        self.deadline = float(batch.problem.deadline)
        self.beliefs = beliefs
        self.min_times = beliefs.min_times
        self._tables = batch._tables
        self._rank = batch._tables.rank
        self._model = batch.model
        self._label = batch._obs_label
        self._lanes = len(batch)
        self.now = np.zeros(self._lanes)
        self._remaining = (
            None if beliefs.blind else ExactSum.from_partials(beliefs.remaining_partials)
        )
        #: Per executed attempt slot, every lane's duration and current.
        self.durations: List[np.ndarray] = []
        self.currents: List[np.ndarray] = []
        self._charges: List[np.ndarray] = []

    def record(self, name: str, durations: np.ndarray, currents: np.ndarray) -> None:
        """Run ``name`` on every lane, as the next position (one column per attempt)."""
        for spent, amps in zip(durations.T, currents.T):
            self.durations.append(spent)
            self.currents.append(amps)
            self._charges.append(spent * amps)
            self.now = self.now + spent
        if self._remaining is not None:
            self._remaining.add(-self.min_times[name])

    def _count(self, name: str, asking: int) -> None:
        if _OBS.enabled and asking:
            _OBS.count(name, asking, label=self._label)

    def remaining_min_time(self) -> float:
        self._count("sim.query.remaining_min_time", self._lanes)
        return math.inf if self._remaining is None else self._remaining.value()

    def delivered_charge(self) -> np.ndarray:
        self._count("sim.query.delivered_charge", self._lanes)
        return _lane_fsums(self._charges, self._lanes)

    def apparent_charge(self, asking: np.ndarray) -> np.ndarray:
        """Every lane's sigma at its ``now``; ``asking`` masks the lanes that ask.

        One ``schedule_charge_batch`` row per lane: the scalar kernel call
        on time-sensitive chemistries, and on the others the ``fsum`` of
        the same per-interval contributions the scalar running total adds.
        """
        self._count("sim.query.apparent_charge", int(asking.sum()))
        return self._model.schedule_charge_batch(
            np.array(self.durations).T, np.array(self.currents).T, 0.0
        )

    def state_of_charge(self) -> None:
        """``None``: a columnar cell's battery has no finite capacity."""
        self._count("sim.query.state_of_charge", self._lanes)
        return None


def _draw_plan(
    perturbation: PerturbationModel, rngs: List, positions: int
) -> Optional[_Plan]:
    """Every lane's attempts at ``positions`` tasks, drawn like the scalar
    run draws them (a factor, then a failure flag, per attempt); ``None``,
    with every stream restored, when a lane exhausts its retry budget."""
    if perturbation.failure_rate == 0.0:
        factors = np.array(
            [perturbation.duration_factors(rng, positions) for rng in rngs]
        ).reshape(len(rngs), positions)
        return _Plan([1] * positions, factors, np.ones(factors.shape, dtype=bool))
    states = [rng.bit_generator.state for rng in rngs]
    plans = [[] for _ in rngs]
    for rng, plan in zip(rngs, plans):
        for _ in range(positions):
            plan.append([perturbation.duration_factor(rng)])
            while perturbation.draw_failure(rng):
                if len(plan[-1]) > perturbation.max_retries:
                    for stream, state in zip(rngs, states):
                        stream.bit_generator.state = state
                    return None
                plan[-1].append(perturbation.duration_factor(rng))
    counts = np.array([list(map(len, plan)) for plan in plans])
    widths = counts.max(axis=0).tolist()
    # Slot s runs attempt s - first[p] of its position p: made below the count.
    slots = np.repeat(np.arange(positions), widths)
    present = np.arange(len(slots)) - np.cumsum([0] + widths[:-1])[slots] < counts[:, slots]
    factors = np.zeros(present.shape)
    factors[present] = [factor for plan in plans for attempts in plan for factor in attempts]
    return _Plan(widths, factors, present)


def _lane_fsums(columns: List[np.ndarray], lanes: int) -> np.ndarray:
    """Each lane's exact sum over per-position ``(lanes,)`` columns."""
    if not columns:
        return np.zeros(lanes)
    return np.array([math.fsum(row) for row in np.array(columns).T.tolist()])


def _run_lane(lane: Simulator) -> Union[SimulationResult, Exception]:
    try:
        return lane.run()
    except Exception as exc:  # noqa: BLE001 - per-lane isolation
        return exc
    finally:
        # The lane and its policy refer to each other; unlinking the spent
        # lane frees it with its batch instead of at a later gc pass.
        lane.scheduler = None
