"""The Monte Carlo simulator: one cell's replications, columnar.

:class:`BatchSimulator` executes one :class:`~repro.scheduling.
SchedulingProblem` forward in virtual time on the paper's single
processing element, once per replication lane, under one scheduling
policy (:mod:`repro.sim.schedulers`) and an optional
:class:`~repro.sim.perturbation.PerturbationModel`.
:meth:`~BatchSimulator.run` returns, per lane, a :class:`LaneSummary` —
the six scalars a store row keeps — and :meth:`~BatchSimulator.results`
the full :class:`~repro.sim.SimulationResult` timeline;
:class:`~repro.sim.Simulator` is its one-lane front.

The platform runs one task at a time, so a replication's task order does
not depend on its draws (static replay follows its sequence; an online
policy pops a ``(-weight, rank)`` heap keyed by the graph and the belief
tables; a failed attempt reruns at once with its column), only its
design-point columns do, and the draws do not depend on decisions.  So
each lane's attempts are drawn up front, in event order (a factor, then a
failure flag, per attempt), and the cell runs as ``(lanes, attempt
slots)`` arrays: the order is computed once through the policy's ordering
step, and an online policy's ``choose_columns`` rule takes one vector step
per task position, reading every lane's live state (clock, delivered
charge, sigma, state of charge) through :class:`_Lanes`.  A lane's spare
slots (where another lane retried) are zero-length, zero-current
intervals, which change no clock, charge or sigma.  One
``schedule_charge_batch`` call with per-lane rests costs every lane, and a
summary is read straight off those arrays; a finite battery's depletion
time and a sampled trace come from each lane's own attempts, and only
:meth:`~BatchSimulator.results` builds per-interval objects.

A lane whose attempt fails past the retry budget stops there and fails
alone with a :class:`~repro.errors.SimulationError` naming the task; its
siblings complete.  A set-up error, such as an invalid replay sequence,
fails every lane.

The realised timeline is reduced to its cost the way the offline evaluator
reduces a candidate: ``model.schedule_charge`` arithmetic, an fsum
makespan and the same deadline-clamped rest.  So a zero-perturbation
static replay costs exactly the offline sigma, on every chemistry.
"""

from __future__ import annotations

import math
import time as _time
from itertools import compress, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union
from weakref import WeakKeyDictionary

import numpy as np

from ..battery import BatteryModel, LoadProfile, simulate_discharge
from ..errors import SimulationError
from ..obs import RECORDER as _OBS
from ..scheduling import SchedulingProblem
from ..scheduling.evaluator import _resolve_rest
from .imode import GraphBeliefs, resolve_beliefs
from .livestate import ExactSum
from .perturbation import PerturbationModel, rng_for_seed
from .result import SimulatedInterval, SimulationResult
from .schedulers import StaticReplayScheduler, _OnlineScheduler

__all__ = ["BatchSimulator", "LaneOutcome", "LaneSummary"]

#: Feasibility slack, matching the offline schedule/deadline comparisons.
_EPS = 1e-9


class _GraphTables:
    """Per-graph lookup tables every simulator over that graph shares.

    All of these are pure functions of the task graph, built once and
    shared by every replication, batch cell and policy bind over it.  This
    is the only per-graph memo of :mod:`repro.sim`; besides the driver's
    tables it holds

    ``beliefs``
        mode token -> :class:`~repro.sim.imode.GraphBeliefs` (filled by
        :func:`~repro.sim.imode.resolve_beliefs`; each entry carries the
        graph-pure policy weights of its mode);
    ``validated``
        the static-replay sequences already validated against the graph.

    The memo is rebuilt when ``num_tasks`` changes, so a graph that grows
    after a run never serves stale tables.
    """

    __slots__ = (
        "num_tasks",
        "rank",
        "successors",
        "min_times",
        "points",
        "attempt_rows",
        "num_inputs",
        "initial_ready",
        "remaining_partials",
        "beliefs",
        "validated",
    )

    def __init__(self, graph) -> None:
        names = graph.task_names()
        self.num_tasks = graph.num_tasks
        self.rank = {name: index for index, name in enumerate(names)}
        self.successors: Dict[str, Tuple[str, ...]] = {
            name: tuple(sorted(graph.successors(name), key=self.rank.__getitem__))
            for name in names
        }
        self.min_times = {
            name: graph.task(name).min_execution_time for name in names
        }
        self.points: Dict[str, Tuple] = {
            name: graph.task(name).ordered_design_points() for name in names
        }
        #: ``points`` flattened to (execution time, current) rows — the two
        #: fields an attempt reads, without attribute dispatch.
        self.attempt_rows: Dict[str, Tuple[Tuple[float, float], ...]] = {
            name: tuple(
                (point.execution_time, point.current) for point in points
            )
            for name, points in self.points.items()
        }
        self.num_inputs = {
            name: len(graph.predecessors(name)) for name in names
        }
        self.initial_ready = tuple(
            name for name in names if self.num_inputs[name] == 0
        )
        #: Exact partials of summing every min-time — the starting state of
        #: the remaining-min-time accumulator (see ``ExactSum.from_partials``).
        self.remaining_partials = ExactSum(self.min_times.values()).partials
        self.beliefs: Dict[Tuple, GraphBeliefs] = {}
        self.validated: Set[Tuple[str, ...]] = set()


_GRAPH_TABLES: "WeakKeyDictionary" = WeakKeyDictionary()


def _graph_tables(graph) -> _GraphTables:
    try:
        tables = _GRAPH_TABLES.get(graph)
    except TypeError:  # unhashable/unweakrefable graph stand-in: no memo
        return _GraphTables(graph)
    # ``num_tasks`` guards against a graph grown after memoisation.
    if tables is None or tables.num_tasks != graph.num_tasks:
        tables = _GraphTables(graph)
        try:
            _GRAPH_TABLES[graph] = tables
        except TypeError:  # pragma: no cover - get() above already filtered
            pass
    return tables


def _stream(perturbation: PerturbationModel, rng) -> Optional[np.random.Generator]:
    """One lane's perturbation stream (a seed becomes its generator)."""
    if rng is not None and not isinstance(rng, np.random.Generator):
        rng = rng_for_seed(int(rng))
    if rng is None and not perturbation.is_null:
        raise SimulationError(
            "a stochastic perturbation needs an rng (seed or Generator)"
        )
    return rng


def _checked_column(name: str, column, points: Tuple) -> int:
    """``column`` as an int, if ``name`` has that design point."""
    if not (0 <= int(column) < len(points)):
        raise SimulationError(
            f"column {column!r} out of range for task {name!r} "
            f"({len(points)} design points)"
        )
    return int(column)


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
    a lane's attempts, ``factors`` their duration factors (``0.0`` if spare).
    ``ends[lane]`` counts the positions a lane completes: all of them, or the
    position where its retry budget ran out."""

    widths: List[int]
    factors: np.ndarray
    present: np.ndarray
    ends: np.ndarray


class _Cell(NamedTuple):
    """A cell's outcome as arrays, one row (or entry) per lane; ``errors``
    maps each lane that stopped early to its exception."""

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
    errors: Dict[int, Exception]


class BatchSimulator:
    """Run many replications of one problem/policy cell.

    Parameters
    ----------
    problem:
        The shared scheduling problem (graph + deadline + battery).
    schedulers:
        One policy instance **per replication**, all of one type with equal
        parameters: a :class:`~repro.sim.StaticReplayScheduler` or an online
        policy (``task_weights`` + ``choose_columns``, see
        :mod:`repro.sim.schedulers`).  Other lanes raise
        :class:`~repro.errors.SimulationError` here.  (For
        ``static-replay``, resolve the offline schedule once and construct
        one cheap replayer per lane from it; the engine's batch executor
        does exactly that.)
    rngs:
        One seed or :class:`numpy.random.Generator` per replication (the
        engine's are ``rng_for_seed(seed, replication)``).  ``None`` entries
        (or a ``None`` sequence) are only valid with a null perturbation.
    perturbation:
        Runtime deviations; ``None`` (or a null model) makes every lane
        deterministic and draw-free.
    model:
        Battery model override; defaults to the problem's own chemistry
        model.
    evaluate_at:
        Where sigma is evaluated — ``"completion"`` or ``"deadline"``,
        with the offline stack's clamping semantics.
    trace_samples:
        When > 0, each result of :meth:`results` carries a sampled
        :class:`~repro.battery.DischargeTrace` of its lane's realised
        profile.
    imode:
        The :class:`~repro.sim.InformationMode` mediating every duration
        estimate the policy sees (``None`` means ``exact``).  Belief tables
        are resolved once per (graph, mode) and shared by every lane; the
        realised timeline always draws from the *modeled* times, so
        beliefs change decisions, never physics.

    :meth:`run` returns one :data:`LaneOutcome` per replication, in order:
    the lane's :class:`LaneSummary`, or the exception that aborted that
    lane.  :meth:`results` returns the full timelines instead, one
    :class:`~repro.sim.SimulationResult` (or exception) per lane.  A batch
    runs once, through either; it draws its attempt plans on construction.
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
        first = schedulers[0]
        if not isinstance(first, (StaticReplayScheduler, _OnlineScheduler)):
            raise SimulationError(
                f"{type(first).__name__} is neither a static replay nor an "
                "online policy (task_weights + choose_columns)"
            )
        if not all(
            type(lane) is type(first) and vars(lane) == vars(first)
            for lane in schedulers
        ):
            raise SimulationError(
                "batch lanes must run one policy type with equal parameters"
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
        self.trace_samples = int(trace_samples)
        self._schedulers = schedulers
        self._ran = False
        self._obs_label = first.name
        self._tables = _graph_tables(problem.graph)
        self._beliefs = resolve_beliefs(problem.graph, imode)
        self._plan = _draw_plan(
            perturbation,
            [_stream(perturbation, rng) for rng in rngs],
            problem.graph.num_tasks,
        )

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
            try:
                cell = self._run_cell()
                outcomes = self._results(cell) if timelines else self._summaries(cell)
            except Exception as exc:  # noqa: BLE001 - every lane's set-up error
                outcomes = (exc,) * len(self)
            if _OBS.enabled:
                _OBS.count("sim.batch.lanes", len(self), label=self._obs_label)
                _OBS.observe(
                    "rt.sim.batch.run_s",
                    _time.perf_counter() - started,
                    label=self._obs_label,
                )
        return outcomes

    def _run_cell(self) -> _Cell:
        scheduler = self._schedulers[0]
        tables = self._tables
        plan = self._plan
        lanes = len(self)
        view = _Lanes(self)
        scheduler.init(view)
        if isinstance(scheduler, StaticReplayScheduler):
            order = list(scheduler.sequence)
            picked = [
                _checked_column(name, scheduler.columns[name], tables.points[name])
                for name in order
            ]
            rows = np.array(
                [tables.attempt_rows[name][column] for name, column in zip(order, picked)]
            ).reshape(len(order), 2)[np.repeat(np.arange(len(order)), plan.widths)]
            durations = rows[:, 0] * plan.factors
            currents = rows[:, 1] * plan.present
            columns = np.broadcast_to(np.array(picked, dtype=int), (lanes, len(order)))
            # The whole sequence is decided at the first wakeup.
            wakeups = np.ones(lanes, dtype=int)
            decisions = np.full(lanes, len(order))
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
                view.position = len(order)
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
            # One wakeup and decision per position, up to the one a lane stopped at.
            wakeups = decisions = np.minimum(plan.ends + 1, len(order))
        attempts = plan.present.sum(axis=1)
        if _OBS.enabled:
            self._count_events(wakeups, decisions, attempts)
        deadline = float(self.problem.deadline)
        makespans = [math.fsum(row) for row in durations.tolist()]
        feasible = [span <= deadline + _EPS for span in makespans]
        rests = [_resolve_rest(span, deadline, self.evaluate_at) for span in makespans]
        costs = self.model.schedule_charge_batch(
            np.ascontiguousarray(durations), np.ascontiguousarray(currents), np.array(rests)
        ).tolist()
        errors = {
            lane: _exhausted(order[end], self.perturbation.max_retries)
            for lane, end in enumerate(plan.ends.tolist())
            if end < len(order)
        }
        return _Cell(
            tuple(order), columns, durations, currents, (wakeups + attempts).tolist(),
            (attempts - len(order)).tolist(), makespans, feasible, rests, costs, errors,
        )

    def _count_events(self, wakeups, decisions, attempts) -> None:
        """The ``sim.*`` event counters, summed over the lanes."""
        label = self._obs_label
        made = int(decisions.sum())
        _OBS.count("sim.event.wakeup", int(wakeups.sum()), label=label)
        _OBS.count("sim.decisions", made, label=label)
        mode = self._beliefs.mode
        if not mode.is_exact:
            _OBS.count("sim.imode.decisions", made, label=f"{label}|{mode.label}")
        ran = int(attempts.sum())
        if ran:
            _OBS.count("sim.event.task-end", ran, label=label)
        # Every attempt but a completed position's last one failed.
        retries = ran - int(self._plan.ends.sum())
        if retries:
            _OBS.count("sim.retries", retries, label=label)

    def _battery(self, cell: _Cell, traces: bool) -> Tuple[Sequence, Sequence]:
        """Each lane's depletion time, and its trace when ``traces`` is set
        (``None`` where there is none), from its own attempts only."""
        battery = self.problem.battery
        capacity = battery.capacity if battery.has_finite_capacity else None
        traces = traces and self.trace_samples > 0
        if capacity is None and not traces:
            return repeat(None), repeat(None)
        depletions, samples = [], []
        lanes = zip(cell.durations.tolist(), cell.currents.tolist(), self._plan.present.tolist())
        for lane, (lengths, amps, made) in enumerate(lanes):
            if lane in cell.errors:
                depletions.append(None)
                samples.append(None)
                continue
            profile = LoadProfile.from_back_to_back(
                durations=list(compress(lengths, made)), currents=list(compress(amps, made))
            )
            depletions.append(
                None if capacity is None else self.model.lifetime(profile, capacity)
            )
            samples.append(
                simulate_discharge(
                    self.model, profile, capacity=capacity,
                    num_samples=max(2, self.trace_samples),
                )
                if traces
                else None
            )
        return depletions, samples

    def _summaries(self, cell: _Cell) -> Tuple[LaneOutcome, ...]:
        """Every lane's :class:`LaneSummary`, read off the cell's arrays."""
        depletions, _ = self._battery(cell, traces=False)
        return _with_errors(
            tuple(
                map(LaneSummary, cell.costs, cell.makespans, cell.feasible, cell.retries,
                    cell.events, depletions)
            ),
            cell.errors,
        )

    def _results(self, cell: _Cell) -> Tuple[Union[SimulationResult, Exception], ...]:
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
        depletions, traces = self._battery(cell, traces=True)
        lanes = zip(
            self._schedulers, cell.costs, cell.makespans, cell.feasible, cell.rests,
            cell.retries, cell.events, cell.columns.tolist(),
            cell.columns[:, positions].tolist(), starts.tolist(), durations.tolist(),
            cell.currents.tolist(), failed.tolist(), present.tolist(), depletions, traces,
        )
        return _with_errors(
            tuple(
                SimulationResult(
                    policy=scheduler.name,
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
                    depletion_time=depletion,
                    trace=trace,
                )
                for (scheduler, cost, makespan, feasible, rest, retries, events, picked,
                     slot_columns, begins, lengths, amps, failures, made, depletion,
                     trace) in lanes
            ),
            cell.errors,
        )

    def __repr__(self) -> str:
        return f"BatchSimulator({len(self)} lanes, policy={self._obs_label!r})"


class _Lanes:
    """A cell's live state, as the surface its policy binds to.

    One value per lane where lanes differ (``now``, delivered charge,
    sigma, state of charge) and one float for the remaining-work bound
    (every lane has finished the same tasks).  Each query counts its
    ``sim.query.*`` counter once per asking lane, among the lanes still
    running at ``position``.
    """

    def __init__(self, batch: BatchSimulator) -> None:
        beliefs = batch._beliefs
        battery = batch.problem.battery
        self.graph = batch.problem.graph
        self.deadline = float(batch.problem.deadline)
        self.beliefs = beliefs
        self.min_times = beliefs.min_times
        self._tables = batch._tables
        self._rank = batch._tables.rank
        self._model = batch.model
        self._capacity = battery.capacity if battery.has_finite_capacity else None
        self._label = batch._obs_label
        self._lanes = len(batch)
        self._ends = batch._plan.ends
        #: The task position being decided; a lane whose retry budget ran
        #: out at an earlier one no longer asks.
        self.position = 0
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

    def _count(self, name: str, asking: Optional[np.ndarray] = None) -> None:
        if _OBS.enabled:
            running = self._ends >= self.position
            count = int((running if asking is None else running & asking).sum())
            if count:
                _OBS.count(name, count, label=self._label)

    def remaining_min_time(self) -> float:
        self._count("sim.query.remaining_min_time")
        return math.inf if self._remaining is None else self._remaining.value()

    def delivered_charge(self) -> np.ndarray:
        self._count("sim.query.delivered_charge")
        return _lane_fsums(self._charges, self._lanes)

    def apparent_charge(self, asking: Optional[np.ndarray] = None) -> np.ndarray:
        """Every lane's sigma at its ``now``; ``asking`` masks the lanes that ask.

        One ``schedule_charge_batch`` row per lane: the ``fsum`` of the
        lane's per-interval contributions at zero rest, which is what the
        offline evaluator computes for the same intervals.
        """
        self._count("sim.query.apparent_charge", asking)
        if not self.durations:
            return np.zeros(self._lanes)
        return self._model.schedule_charge_batch(
            np.array(self.durations).T, np.array(self.currents).T, 0.0
        )

    def state_of_charge(self) -> Optional[np.ndarray]:
        """Every lane's remaining capacity fraction, ``max(0, 1 - sigma /
        capacity)``; ``None`` on a battery with no finite capacity."""
        self._count("sim.query.state_of_charge")
        if self._capacity is None:
            return None
        return np.maximum(0.0, 1.0 - self.apparent_charge() / self._capacity)


def _draw_lane(
    perturbation: PerturbationModel, rng, positions: int
) -> Tuple[List[List[float]], int]:
    """One lane's attempt factors per position, drawn like the event order
    draws them (a factor, then a failure flag, per attempt), and how many
    positions it completes: an attempt that fails past ``max_retries``
    retries ends the lane, unmade."""
    plan = []
    for position in range(positions):
        attempts = [perturbation.duration_factor(rng)]
        plan.append(attempts)
        while perturbation.draw_failure(rng):
            if len(attempts) > perturbation.max_retries:
                attempts.pop()
                return plan, position
            attempts.append(perturbation.duration_factor(rng))
    return plan, positions


def _draw_plan(perturbation: PerturbationModel, rngs: List, positions: int) -> _Plan:
    """Every lane's attempts at ``positions`` tasks (see :func:`_draw_lane`)."""
    lanes = len(rngs)
    if perturbation.failure_rate == 0.0:
        factors = np.array(
            [perturbation.duration_factors(rng, positions) for rng in rngs]
        ).reshape(lanes, positions)
        return _Plan(
            [1] * positions, factors, np.ones(factors.shape, dtype=bool),
            np.full(lanes, positions),
        )
    drawn = [_draw_lane(perturbation, rng, positions) for rng in rngs]
    counts = np.zeros((lanes, positions), dtype=int)
    for lane, (plan, _) in enumerate(drawn):
        counts[lane, : len(plan)] = [len(attempts) for attempts in plan]
    widths = counts.max(axis=0).tolist()
    # Slot s runs attempt s - first[p] of its position p: made below the count.
    slots = np.repeat(np.arange(positions), widths)
    present = np.arange(len(slots)) - np.cumsum([0] + widths[:-1])[slots] < counts[:, slots]
    factors = np.zeros(present.shape)
    factors[present] = [
        factor for plan, _ in drawn for attempts in plan for factor in attempts
    ]
    return _Plan(widths, factors, present, np.array([end for _, end in drawn]))


def _exhausted(task: str, retries: int) -> SimulationError:
    """The error a lane stops with at ``task``, raised here so that it
    carries a traceback like every other lane error."""
    try:
        raise SimulationError(
            f"task {task!r} exhausted its retry budget ({retries} retries)"
        )
    except SimulationError as error:
        return error


def _lane_fsums(columns: List[np.ndarray], lanes: int) -> np.ndarray:
    """Each lane's exact sum over per-position ``(lanes,)`` columns."""
    if not columns:
        return np.zeros(lanes)
    return np.array([math.fsum(row) for row in np.array(columns).T.tolist()])


def _with_errors(outcomes: tuple, errors: Dict[int, Exception]) -> tuple:
    """``outcomes`` with each stopped lane's entry replaced by its exception."""
    if not errors:
        return outcomes
    return tuple(errors.get(lane, outcome) for lane, outcome in enumerate(outcomes))
