"""The discrete-event simulator: a task graph executed forward in time.

:class:`Simulator` runs one :class:`~repro.scheduling.SchedulingProblem`
on the paper's single-processing-element platform under a pluggable
:class:`~repro.sim.schedulers.Scheduler` policy and an optional
:class:`~repro.sim.perturbation.PerturbationModel`.  The loop follows
estee's shape — per-task runtime info, a ready set, and a scheduler
*wakeup protocol*:

1. whenever the processing element is idle and the scheduler's decision
   queue is empty, the scheduler is woken with the tasks that became ready
   and finished since the last wakeup, and returns ``(task, column)``
   decisions (a static policy may return the whole run upfront; online
   policies typically return one decision per wakeup);
2. the next queued decision starts on the PE: the attempt's realised
   duration is the modeled design-point time times a seeded jitter factor,
   and a ``task-end`` event is scheduled (the single-PE platform holds at
   most one in-flight event, so a plain slot replaces the event heap);
3. popping the event advances the :class:`~repro.sim.events.VirtualClock`.
   A successful attempt finishes the task and releases its successors; a
   failed attempt (its time and current were still spent) is retried at
   the front of the queue with the same design point and fresh draws.

Bit-level conformance
---------------------
The realised timeline is reduced to its cost exactly the way the offline
evaluator reduces a candidate: realised duration/current arrays into
``model.schedule_charge`` with an fsum makespan and the same
deadline-clamped rest rule.  With a zero perturbation and a
:class:`~repro.sim.schedulers.StaticReplayScheduler`, the realised arrays
*are* the offline arrays, so the simulated sigma equals the offline sigma
bit for bit — for every chemistry.  The golden-fixture conformance tests
pin exactly this.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple, Union
from weakref import WeakKeyDictionary

import numpy as np

from ..battery import BatteryModel
from ..errors import SimulationError
from ..obs import RECORDER as _OBS
from ..scheduling import SchedulingProblem
from ..scheduling.evaluator import _resolve_rest
import time as _time

from .events import TaskRuntimeInfo, TaskState, VirtualClock
from .imode import GraphBeliefs, InformationMode, resolve_beliefs
from .livestate import ExactSum, LiveRuntimeState
from .perturbation import PerturbationModel, rng_for_seed
from .result import SimulatedInterval, SimulationResult

__all__ = ["Simulator"]

#: Feasibility slack, matching the offline schedule/deadline comparisons.
_EPS = 1e-9


class _GraphTables:
    """Per-graph lookup tables every simulator over that graph shares.

    All of these are pure functions of the task graph, built once and
    shared by every replication, batch cell and policy bind over it.  This
    is the only per-graph memo of :mod:`repro.sim`; besides the event
    loop's tables it holds

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
        #: fields the attempt hot path reads, without attribute dispatch.
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
    """One run's perturbation stream (a seed becomes its generator)."""
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


class Simulator:
    """Event-driven execution of one problem under a scheduling policy.

    Parameters
    ----------
    problem:
        The scheduling problem (graph + deadline + battery).
    scheduler:
        Policy driving the run (see :mod:`repro.sim.schedulers`).
    perturbation:
        Runtime deviations; ``None`` (or a null model) makes the run
        deterministic and draw-free.
    rng:
        Seed or :class:`numpy.random.Generator` for the perturbation
        draws.  Required only when the perturbation actually draws.
    model:
        Battery model override; defaults to the problem's own chemistry
        model.
    clock:
        Virtual clock override (testing/instrumentation hook).
    evaluate_at:
        Where sigma is evaluated — ``"completion"`` or ``"deadline"``,
        with the offline stack's clamping semantics.
    trace_samples:
        When > 0, the result carries a sampled
        :class:`~repro.battery.DischargeTrace` of the realised profile.
    imode:
        The :class:`~repro.sim.InformationMode` mediating every duration
        estimate the policy sees (``None`` means ``exact``: policies read
        the modeled tables through the same :class:`~repro.sim.imode.
        GraphBeliefs` every other mode fills).  Belief tables are resolved
        once per (graph, mode) and shared across replications; the
        realised timeline always draws from the *modeled* times, so
        beliefs change decisions, never physics.
    """

    def __init__(
        self,
        problem: SchedulingProblem,
        scheduler,
        perturbation: Optional[PerturbationModel] = None,
        rng: Union[None, int, np.random.Generator] = None,
        model: Optional[BatteryModel] = None,
        clock: Optional[VirtualClock] = None,
        evaluate_at: str = "completion",
        trace_samples: int = 0,
        imode: Optional[InformationMode] = None,
    ) -> None:
        _resolve_rest(0.0, problem.deadline, evaluate_at)  # validate the mode
        self.problem = problem
        self.graph = problem.graph
        self.deadline = float(problem.deadline)
        self.scheduler = scheduler
        self.perturbation = perturbation or PerturbationModel()
        self.model = model if model is not None else problem.model()
        self.clock = clock if clock is not None else VirtualClock()
        self.evaluate_at = evaluate_at
        self.trace_samples = int(trace_samples)
        self.rng = _stream(self.perturbation, rng)
        #: Resolved once: ``is_null`` is a property, and the loop asks per attempt.
        self._perturb_active = not self.perturbation.is_null
        # Deterministic per-task tables and insertion-ordered successor
        # lists — pure functions of the graph, shared through a per-graph
        # memo across replications and batch cells.
        tables = _graph_tables(self.graph)
        self._tables = tables
        self._rank = tables.rank
        self._successors = tables.successors
        #: Believed-duration tables (the modeled ones under exact/unset).
        self.imode = imode
        self.beliefs = beliefs = resolve_beliefs(self.graph, imode)
        #: Public per-task min-time table (policies consult it per decision).
        #: This is the *believed* table; the event loop itself always runs
        #: on the modeled times.
        self.min_times = beliefs.min_times
        # Canonical design-point rows, resolved once: the event loop and the
        # online policies index these every attempt/decision.
        self._points = tables.points
        self._attempt_rows = tables.attempt_rows
        # Run state (created fresh per run()).
        self._infos: Dict[str, TaskRuntimeInfo] = {}
        #: The one in-flight task-end event as ``(time, task)`` (the
        #: single-PE platform never holds more than one, so a heap of event
        #: objects would be pure overhead).
        self._pending_event: Optional[Tuple[float, str]] = None
        # Decision FIFO: popleft/appendleft are O(1) where the previous
        # list-based pop(0)/insert(0) shifted the whole queue (the static
        # replay policy enqueues every decision up front, so a plain list
        # made each task start O(n)).  Same elements, same order.
        self._queue: Deque[Tuple[str, int]] = deque()
        self._running: Optional[Tuple[str, int, float, bool, float]] = None
        self._new_ready: List[str] = []
        self._new_finished: List[str] = []
        #: Ready tasks as (graph rank, name), kept sorted — ready_tasks()
        #: reads it directly instead of scanning every task in the graph.
        self._ready_set: List[Tuple[int, str]] = []
        self._durations: List[float] = []
        self._currents: List[float] = []
        self._intervals: List[SimulatedInterval] = []
        self._completion_order: List[str] = []
        self._finished_count = 0
        self._retries = 0
        self._events = 0
        self._ran = False
        #: Incremental live-state totals backing the policy queries.  The
        #: charge side is always *measured* (realised durations/currents);
        #: only the remaining-min-time bound follows the beliefs: believed
        #: min-times for mean/noisy, the modeled table for exact, and a
        #: flat ``inf`` answer for blind (see :meth:`remaining_min_time`),
        #: whose all-``inf`` table the exact accumulator cannot hold.
        bound = tables if beliefs.blind else beliefs
        self._live = LiveRuntimeState(
            self.model, bound.min_times, bound.remaining_partials
        )
        # Observability: per-policy labels keep the counter catalogue
        # separable across the policies of one run (`sim.*[policy]`).
        self._obs_label = getattr(scheduler, "name", type(scheduler).__name__)

    # ------------------------------------------------------------------
    # queries offered to scheduling policies (the "runtime info" surface)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock.now

    def info(self, name: str) -> TaskRuntimeInfo:
        """Runtime info of one task (state, attempts, times)."""
        return self._infos[name]

    def ready_tasks(self) -> Tuple[str, ...]:
        """All currently ready tasks, in graph insertion order.

        Served from the insertion-ordered ready set maintained on state
        transitions (tasks enter on becoming READY, leave on starting), so
        the query costs O(ready) instead of scanning every task in the
        graph.  The order is pinned by a regression test against the
        original full-scan implementation.
        """
        return tuple(name for _, name in self._ready_set)

    def remaining_min_time(self) -> float:
        """Lower bound on the time still needed: sum of unfinished tasks'
        fastest design-point times (the running attempt counts in full —
        on failure it must rerun, and the bound must stay a bound).

        Answered from an exact running total (bit-identical to the fsum
        over unfinished tasks it replaces — see
        :mod:`repro.sim.livestate`).  Under a non-exact information mode
        the bound is computed over the *believed* min-times; under
        ``blind`` it is ``inf`` (no duration information exists, and the
        exact accumulator cannot hold infinities)."""
        if _OBS.enabled:
            _OBS.count("sim.query.remaining_min_time", label=self._obs_label)
        if self.beliefs.blind:
            return math.inf
        return self._live.remaining_min_time()

    def delivered_charge(self) -> float:
        """Plain coulomb count of everything executed so far (mA·min)."""
        if _OBS.enabled:
            _OBS.count("sim.query.delivered_charge", label=self._obs_label)
        return self._live.delivered_charge()

    def apparent_charge(self) -> float:
        """Live sigma of the executed timeline, evaluated at the current time.

        Policies call this between attempts (the PE is idle at wakeup
        time), when the executed intervals end exactly at ``now`` — so the
        canonical back-to-back ``schedule_charge`` applies with zero rest.
        Time-insensitive chemistries answer from an exact running total;
        time-sensitive ones evaluate the vectorized kernel.
        """
        if _OBS.enabled:
            # Counted even via state_of_charge (which delegates here): the
            # counter tracks sigma evaluations actually requested.
            _OBS.count("sim.query.apparent_charge", label=self._obs_label)
        return self._live.apparent_charge(self._durations, self._currents)

    def state_of_charge(self) -> Optional[float]:
        """Remaining capacity fraction, or ``None`` on an unbounded battery."""
        if _OBS.enabled:
            _OBS.count("sim.query.state_of_charge", label=self._obs_label)
        battery = self.problem.battery
        if not battery.has_finite_capacity:
            return None
        return max(0.0, 1.0 - self.apparent_charge() / battery.capacity)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the whole graph and return the realised-timeline result.

        A simulator instance is single-shot: the run mutates per-task
        runtime state, so call sites wanting replications build one
        simulator per run (they are cheap).
        """
        with _OBS.span("sim.run", label=self._obs_label):
            self._begin()
            total = self.graph.num_tasks
            while self._finished_count < total:
                if self._running is None:
                    if not self._queue:
                        self._wakeup_scheduler()
                    self._start_next()
                else:
                    self._process_next_event()
            return self._finalize()

    def _begin(self) -> None:
        """Install the initial runtime state and bind the scheduler."""
        if self._ran:
            raise SimulationError("a Simulator instance runs exactly once")
        self._ran = True
        tables = self._tables
        for name in self.graph.task_names():
            self._infos[name] = TaskRuntimeInfo(
                unfinished_inputs=tables.num_inputs[name]
            )
        for name in tables.initial_ready:
            info = self._infos[name]
            info.state = TaskState.READY
            info.ready_time = 0.0
            self._new_ready.append(name)
            self._ready_set.append((self._rank[name], name))
        self.scheduler.init(self)

    def _finalize(self) -> SimulationResult:
        """Reduce the realised timeline to its :class:`SimulationResult`."""
        makespan = math.fsum(self._durations)
        rest = _resolve_rest(makespan, self.deadline, self.evaluate_at)
        cost = self.model.schedule_charge(self._durations, self._currents, rest)
        depletion: Optional[float] = None
        trace = None
        battery = self.problem.battery
        if battery.has_finite_capacity or self.trace_samples > 0:
            profile = None
            if battery.has_finite_capacity:
                profile = self._profile()
                depletion = self.model.lifetime(profile, battery.capacity)
            if self.trace_samples > 0:
                from ..battery import simulate_discharge

                profile = profile if profile is not None else self._profile()
                trace = simulate_discharge(
                    self.model,
                    profile,
                    capacity=battery.capacity
                    if battery.has_finite_capacity
                    else None,
                    num_samples=max(2, self.trace_samples),
                )
        return SimulationResult(
            policy=getattr(self.scheduler, "name", type(self.scheduler).__name__),
            cost=cost,
            makespan=makespan,
            rest=rest,
            feasible=makespan <= self.deadline + _EPS,
            deadline=self.deadline,
            sequence=tuple(self._completion_order),
            columns={
                name: info.column
                for name, info in self._infos.items()
                if info.column is not None
            },
            intervals=tuple(self._intervals),
            retries=self._retries,
            events=self._events,
            evaluate_at=self.evaluate_at,
            depletion_time=depletion,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _profile(self):
        from ..battery import LoadProfile

        return LoadProfile.from_back_to_back(
            durations=list(self._durations), currents=list(self._currents)
        )

    def _wakeup_scheduler(self) -> None:
        new_ready = tuple(self._new_ready)
        new_finished = tuple(self._new_finished)
        self._new_ready = []
        self._new_finished = []
        self._events += 1
        if _OBS.enabled:
            _OBS.count("sim.event.wakeup", label=self._obs_label)
            started = _time.perf_counter()
            decisions = self.scheduler.schedule(new_ready, new_finished)
            _OBS.observe(
                "rt.sim.decision_s",
                _time.perf_counter() - started,
                label=self._obs_label,
            )
            _OBS.count("sim.decisions", len(decisions or ()), label=self._obs_label)
            if not self.beliefs.mode.is_exact:
                # Per-mode decision accounting.  Only belief modes add the
                # counter, so the exact-mode (and unset) counter catalogue
                # carries no imode counter.
                _OBS.count(
                    "sim.imode.decisions",
                    len(decisions or ()),
                    label=f"{self._obs_label}|{self.beliefs.mode.label}",
                )
        else:
            decisions = self.scheduler.schedule(new_ready, new_finished)
        for decision in decisions or ():
            self._enqueue(decision)
        if not self._queue:
            raise SimulationError(
                f"scheduler {getattr(self.scheduler, 'name', '?')!r} stalled: "
                f"no decision while {self.ready_tasks()} are ready"
            )

    def _enqueue(self, decision: Iterable) -> None:
        try:
            name, column = decision
        except (TypeError, ValueError):
            raise SimulationError(
                f"scheduler decisions must be (task, column) pairs, got {decision!r}"
            ) from None
        info = self._infos.get(name)
        if info is None:
            raise SimulationError(f"scheduler assigned unknown task {name!r}")
        if info.state is TaskState.FINISHED:
            raise SimulationError(
                f"scheduler tried to assign finished task {name!r}"
            )
        self._queue.append((name, _checked_column(name, column, self._points[name])))

    def _start_next(self) -> None:
        name, column = self._queue.popleft()
        info = self._infos[name]
        if info.state is not TaskState.READY:
            raise SimulationError(
                f"task {name!r} started while {info.state.value} "
                "(predecessors unfinished, or assigned twice)"
            )
        execution_time, current = self._attempt_rows[name][column]
        factor = 1.0
        failed = False
        if self._perturb_active:
            factor = self.perturbation.duration_factor(self.rng)
            failed = self.perturbation.draw_failure(self.rng)
        duration = execution_time * factor
        info.state = TaskState.RUNNING
        self._ready_set.remove((self._rank[name], name))
        info.column = column
        info.start_time = self.clock.now
        info.attempts += 1
        if failed and info.attempts > self.perturbation.max_retries:
            raise SimulationError(
                f"task {name!r} exhausted its retry budget "
                f"({self.perturbation.max_retries} retries)"
            )
        self._running = (name, column, current, failed, duration)
        self._pending_event = (self.clock.now + duration, name)

    def _process_next_event(self) -> None:
        event_time, event_task = self._pending_event
        self._pending_event = None
        self.clock.advance_to(event_time)
        self._events += 1
        if _OBS.enabled:
            _OBS.count("sim.event.task-end", label=self._obs_label)
        # The drawn duration is carried through (not recovered as
        # ``event time - start``): float subtraction would lose ulps, and the
        # realised durations must reproduce the offline arrays bit for bit
        # in the deterministic case.
        name, column, current, failed, duration = self._running
        if event_task != name:  # pragma: no cover - single-PE invariant
            raise SimulationError(
                f"event for {event_task!r} fired while {name!r} was running"
            )
        info = self._infos[name]
        self._durations.append(duration)
        self._currents.append(current)
        self._live.record_interval(duration, current)
        self._intervals.append(
            SimulatedInterval(
                task=name,
                column=column,
                start=info.start_time,
                duration=duration,
                current=current,
                attempt=info.attempts,
                failed=failed,
            )
        )
        self._running = None
        if failed:
            # The attempt's time and current are spent; the task re-enters
            # the PE at the front of the queue with the same design point
            # (fresh draws), preserving precedence order for every policy.
            self._retries += 1
            if _OBS.enabled:
                _OBS.count("sim.retries", label=self._obs_label)
            info.state = TaskState.READY
            bisect.insort(self._ready_set, (self._rank[name], name))
            self._queue.appendleft((name, column))
            return
        info.state = TaskState.FINISHED
        info.end_time = event_time
        self._finished_count += 1
        self._live.finish_task(name)
        self._completion_order.append(name)
        self._new_finished.append(name)
        for child in self._successors[name]:
            child_info = self._infos[child]
            child_info.unfinished_inputs -= 1
            if child_info.unfinished_inputs == 0:
                child_info.state = TaskState.READY
                child_info.ready_time = event_time
                self._new_ready.append(child)
                bisect.insort(self._ready_set, (self._rank[child], child))
            elif child_info.unfinished_inputs < 0:  # pragma: no cover
                raise SimulationError(
                    f"task {child!r} finished more inputs than it has"
                )

    def __repr__(self) -> str:
        return (
            f"Simulator({self.graph.name or 'graph'}: {self.graph.num_tasks} "
            f"tasks, policy={getattr(self.scheduler, 'name', '?')!r}, "
            f"now={self.clock.now:g})"
        )
