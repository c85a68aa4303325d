"""Scheduling policies driving the runtime simulator.

A :class:`Scheduler` receives wakeups from the
:class:`~repro.sim.Simulator` — ``schedule(new_ready, new_finished)`` is
called whenever the processing element is idle and no decision is queued —
and answers with ``(task, design-point column)`` decisions.  Four policies
ship with the library, spanning the offline/online axis the simulator
exists to study:

* :class:`StaticReplayScheduler` — replays a precomputed offline schedule
  verbatim.  This is the bridge to every existing result: with zero
  perturbation it reproduces the offline evaluator's sigma bitwise, and
  under perturbation it shows how brittle the offline plan is.
* :class:`GreedyEnergyScheduler` — an online list scheduler: the ready
  task with the largest average energy first (the paper's
  ``SequenceDecEnergy`` weight, shared with
  :mod:`repro.scheduling.list_scheduler`), at the lowest-energy design
  point the deadline guard allows.
* :class:`DeadlineSlackScheduler` — orders ready tasks by downstream
  min-time pressure and spends the *live* slack proportionally: each task
  gets a slack share proportional to its fastest execution time and runs
  at the slowest design point fitting that allowance.
* :class:`BatteryReactiveScheduler` — queries the simulator's live
  battery state (state-of-charge on bounded batteries, the
  recoverable-charge ratio otherwise) and switches between low-current
  recovery mode and low-energy cruise mode per decision.

Policies are registered by name (:data:`POLICIES`) so
:class:`~repro.engine.SimulationJob` and the CLI can name them as data;
:func:`make_policy` builds instances, resolving ``static-replay``'s
offline schedule through the engine's algorithm registry.

Every duration estimate the online policies consult — ``sim.min_times``,
``remaining_min_time()``, the per-task execution-time rows, the energy
priorities — flows through the simulator's information mode
(:mod:`repro.sim.imode`): under ``exact`` (or no mode) the literal
pre-imode code paths run, under ``blind``/``mean``/``noisy`` the believed
tables replace them.  ``static-replay`` is imode-invariant by
construction: its offline plan is computed from the modeled times before
the run starts, exactly like a plan deployed to a device.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from ..errors import ConfigurationError, SimulationError
from ..scheduling import SchedulingProblem
from ..taskgraph import validate_sequence

__all__ = [
    "Scheduler",
    "StaticReplayScheduler",
    "GreedyEnergyScheduler",
    "DeadlineSlackScheduler",
    "BatteryReactiveScheduler",
    "POLICIES",
    "register_policy",
    "policy_names",
    "make_policy",
]

#: Feasibility slack shared with the offline deadline comparisons.
_EPS = 1e-9


class Scheduler:
    """Base class: the wakeup protocol plus shared deadline arithmetic."""

    #: Registry/display name; instances may override per construction.
    name: str = "scheduler"

    def init(self, simulator) -> None:
        """Bind to the simulator before the run starts (estee-style)."""
        self.simulator = simulator

    def schedule(
        self, new_ready: Tuple[str, ...], new_finished: Tuple[str, ...]
    ) -> Sequence[Tuple[str, int]]:
        """Return decisions for the idle processing element.

        ``new_ready``/``new_finished`` list the tasks that changed state
        since the previous wakeup.  Returning an empty sequence while
        tasks are ready is a protocol violation (the simulator raises).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers for online policies
    # ------------------------------------------------------------------
    def _deadline_allowance(
        self, name: str, remaining: Optional[float] = None
    ) -> float:
        """Longest execution time ``name`` may take while the rest of the
        graph can still finish by the deadline at full speed.

        ``remaining`` lets a caller that already queried
        ``remaining_min_time()`` this decision pass the value through —
        the state cannot change between queries of one decision, so the
        reuse is bit-identical to asking again.  Under a ``blind``
        information mode the believed bound is infinite, and so is the
        allowance: with no duration information, no column can be ruled
        out (``inf - inf`` must never reach the arithmetic below).
        """
        sim = self.simulator
        min_time = sim.min_times[name]
        if remaining is None:
            remaining = sim.remaining_min_time()
        if not (math.isfinite(remaining) and math.isfinite(min_time)):
            return math.inf
        others = remaining - min_time
        return sim.deadline - sim.now - others

    def _feasible_columns(
        self,
        name: str,
        times: Optional[Sequence[float]] = None,
        remaining: Optional[float] = None,
    ) -> List[int]:
        """Design-point columns whose execution time fits the allowance.

        Falls back to the fastest column when nothing fits (the deadline
        is already compromised; run flat out and record the miss).
        ``times``/``remaining`` are pass-throughs for values the caller
        already holds (same floats, fewer lookups per decision).
        """
        allowance = self._deadline_allowance(name, remaining)
        if times is None:
            times = self.simulator.graph.task(name).execution_times()
        feasible = [
            column
            for column, time in enumerate(times)
            if time <= allowance + _EPS
        ]
        return feasible or [0]


#: Graph -> set of (num_tasks, sequence) pairs already validated.  Replaying
#: the same schedule on the same graph across replications (the batch
#: simulator's entire workload, and any replication loop) re-validates a
#: pure function of unchanged inputs; this memo makes the repeat binds O(1).
#: Weakly keyed so graphs die normally; ``num_tasks`` in the entry guards
#: against a graph growing after validation.
_VALIDATED_SEQUENCES: "WeakKeyDictionary" = WeakKeyDictionary()


def _validate_sequence_once(graph, sequence: Tuple[str, ...]) -> None:
    try:
        seen = _VALIDATED_SEQUENCES.setdefault(graph, set())
    except TypeError:  # unhashable/unweakrefable graph stand-in: no memo
        validate_sequence(graph, sequence)
        return
    entry = (graph.num_tasks, sequence)
    if entry not in seen:
        validate_sequence(graph, sequence)
        seen.add(entry)


class StaticReplayScheduler(Scheduler):
    """Replay a precomputed (sequence, assignment) offline schedule.

    The whole run is handed to the simulator at the first wakeup —
    exactly how an offline plan is deployed on a device — so perturbations
    change *when* things happen but never *what* runs where.
    """

    name = "static-replay"

    def __init__(
        self,
        sequence: Sequence[str],
        columns: Mapping[str, int],
        name: Optional[str] = None,
    ) -> None:
        self.sequence = tuple(sequence)
        missing = [task for task in self.sequence if task not in columns]
        if missing:
            raise ConfigurationError(
                f"static replay is missing design-point columns for {missing}"
            )
        self.columns = {str(task): int(columns[task]) for task in self.sequence}
        if name is not None:
            self.name = name
        self._dispatched = False

    def init(self, simulator) -> None:
        super().init(simulator)
        _validate_sequence_once(simulator.graph, self.sequence)
        self._dispatched = False

    def schedule(self, new_ready, new_finished):
        if self._dispatched:  # only the first wakeup carries decisions
            return ()
        self._dispatched = True
        return [(task, self.columns[task]) for task in self.sequence]


#: Graph -> {policy class name: (weights, sort order)} for policies whose
#: weights are a pure function of the graph.  Replications (and every
#: batch-simulator lane) re-bind fresh policy instances to the same graph;
#: without the memo each bind recomputes an O(graph) — for deadline-slack
#: O(graph^2) — priority table that never changes.
_WEIGHTS_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()

#: Graph -> {task name: execution-time tuple}.  Policy-independent and
#: read-only, so every bind on the same graph shares one dict.
_TIMES_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()


class _OnlineScheduler(Scheduler):
    """Shared machinery of the online policies: one decision per wakeup.

    Maintains the ready pool from the wakeup deltas and picks the
    highest-weight task (ties broken by graph insertion order, matching
    :func:`repro.scheduling.list_scheduler.sequence_by_weights`), then
    delegates the design-point choice to :meth:`choose_column`.
    """

    #: Whether :meth:`task_weights` depends only on the graph (True for all
    #: built-in policies), making the per-graph weights memo safe.
    #: Subclasses whose weights read instance parameters or live simulator
    #: state must leave this False.
    WEIGHTS_GRAPH_PURE = False

    def init(self, simulator) -> None:
        super().init(simulator)
        #: Min-heap of ``self._order`` sort keys for the ready tasks.
        self._ready: List[tuple] = []
        rank = getattr(simulator, "_rank", None)
        self._rank = (
            rank
            if rank is not None
            else {
                name: index
                for index, name in enumerate(simulator.graph.task_names())
            }
        )
        #: rank -> name, to translate popped heap keys back to tasks.
        self._rank_name = {index: name for name, index in self._rank.items()}
        #: Believed-duration tables (``None`` for exact/unset — the
        #: original modeled-times code paths below then run unchanged).
        self._beliefs = getattr(simulator, "beliefs", None)
        #: ``self._order`` is the precomputed sort key per task —
        #: ``sort(key=self._order.__getitem__)`` orders exactly like
        #: sorting on ``(-weight, rank)`` tuples built per wakeup, without
        #: rebuilding them.  Memoised with the weights (both are shared
        #: read-only across binds to the same graph).
        self._weights, self._order = self._resolve_weights()
        if self._beliefs is not None:
            #: Every execution-time row a policy consults is believed.
            self._times = self._beliefs.times
            return
        #: Per-task design-point rows, shared per graph across binds.
        graph = simulator.graph
        try:
            times = _TIMES_MEMO.get(graph)
        except TypeError:  # unweakrefable graph stand-in: no memo
            times = None
        if times is None:
            times = {task.name: task.execution_times() for task in graph}
            try:
                _TIMES_MEMO[graph] = times
            except TypeError:
                pass
        self._times = times

    def _build_order(self, weights: Dict[str, float]) -> Dict[str, tuple]:
        rank = self._rank
        return {name: (-weight, rank[name]) for name, weight in weights.items()}

    def _resolve_weights(self):
        if not self.WEIGHTS_GRAPH_PURE:
            weights = self.task_weights()
            return weights, self._build_order(weights)
        graph = self.simulator.graph
        try:
            per_graph = _WEIGHTS_MEMO.setdefault(graph, {})
        except TypeError:  # unweakrefable graph stand-in: no memo
            weights = self.task_weights()
            return weights, self._build_order(weights)
        # Belief-mode weights are a pure function of (graph, mode), so the
        # memo key grows the mode token; the exact-mode key stays the bare
        # qualname, preserving (and sharing) every pre-imode entry.
        key = type(self).__qualname__
        if self._beliefs is not None:
            key = (key, self._beliefs.mode.token)
        entry = per_graph.get(key)
        if entry is None:
            weights = self.task_weights()
            entry = per_graph[key] = (weights, self._build_order(weights))
        return entry

    def task_weights(self) -> Dict[str, float]:
        """Per-task priority (higher runs first); computed once at init."""
        raise NotImplementedError

    def choose_column(self, name: str) -> int:
        """Design-point column for the chosen task (live-state dependent)."""
        raise NotImplementedError

    def schedule(self, new_ready, new_finished):
        # ``self._ready`` is a min-heap of ``(-weight, rank)`` sort keys
        # (``rank`` is unique, so the key is a total order and the heap
        # minimum equals the head of the old sort-then-pop(0) list —
        # identical decisions, without the O(n log n) re-sort per wakeup).
        ready = self._ready
        order = self._order
        for name in new_ready:
            heapq.heappush(ready, order[name])
        if not ready:
            return ()
        chosen = self._rank_name[heapq.heappop(ready)[1]]
        return [(chosen, self.choose_column(chosen))]


class GreedyEnergyScheduler(_OnlineScheduler):
    """Online greedy: biggest average energy first, cheapest feasible point.

    The task order reuses the ``SequenceDecEnergy`` weight of the offline
    list scheduler; the design point is the feasible column with the
    lowest energy (ties to the slower implementation).
    """

    name = "greedy-energy"
    WEIGHTS_GRAPH_PURE = True

    def task_weights(self) -> Dict[str, float]:
        if self._beliefs is not None:
            return self._beliefs.average_energy
        return {
            task.name: task.average_energy for task in self.simulator.graph
        }

    def choose_column(self, name: str) -> int:
        beliefs = self._beliefs
        if beliefs is not None:
            energies = beliefs.energies[name]
        else:
            energies = self.simulator.graph.task(name).energies()
        return min(
            self._feasible_columns(name, times=self._times[name]),
            key=lambda column: (energies[column], -column),
        )


class DeadlineSlackScheduler(_OnlineScheduler):
    """Spend live slack proportionally to each task's share of the work.

    Tasks are ordered by the min-time of the subgraph they root (critical
    downstream pressure first).  The chosen task receives a slack share
    proportional to its own fastest time relative to all remaining work,
    and runs at the slowest design point fitting that allowance — a
    self-correcting policy: jitter that eats slack automatically pushes
    later tasks to faster design points.
    """

    name = "deadline-slack"
    WEIGHTS_GRAPH_PURE = True

    def task_weights(self) -> Dict[str, float]:
        graph = self.simulator.graph
        if self._beliefs is not None:
            min_times = self._beliefs.min_times
            return {
                task.name: math.fsum(
                    min_times[member]
                    for member in graph.subgraph_rooted_at(task.name)
                )
                for task in graph
            }
        return {
            task.name: math.fsum(
                graph.task(member).min_execution_time
                for member in graph.subgraph_rooted_at(task.name)
            )
            for task in graph
        }

    def choose_column(self, name: str) -> int:
        sim = self.simulator
        min_time = sim.min_times[name]
        remaining = sim.remaining_min_time()
        if not (math.isfinite(remaining) and math.isfinite(min_time)):
            # Blind: no believed durations to apportion slack over — run
            # the fastest point, and never observe a finite time estimate.
            return 0
        now = sim.now
        deadline = sim.deadline
        slack = deadline - now - remaining
        share = slack * (min_time / remaining) if remaining > 0 else 0.0
        # One fused pass over the design points, replacing the
        # _feasible_columns + fitting-filter + max(key=...) pipeline: the
        # limits are the same floats the helper would compare against, and
        # ">=" on the running maxima reproduces the (time, column)
        # tie-break (later equal column wins).  Slowest fitting
        # implementation (largest execution time) wins; without a fitting
        # column, the slowest feasible one; without a feasible column, the
        # fastest point (the deadline is already compromised).
        share_limit = min_time + max(share, 0.0) + _EPS
        deadline_limit = deadline - now - (remaining - min_time) + _EPS
        times = self._times[name]
        best_feasible = -1
        best_feasible_time = -1.0
        best_fitting = -1
        best_fitting_time = -1.0
        for column, time in enumerate(times):
            if time <= deadline_limit:
                if time >= best_feasible_time:
                    best_feasible, best_feasible_time = column, time
                if time <= share_limit and time >= best_fitting_time:
                    best_fitting, best_fitting_time = column, time
        if best_fitting >= 0:
            return best_fitting
        if best_feasible >= 0:
            return best_feasible
        return 0


class BatteryReactiveScheduler(_OnlineScheduler):
    """React to the live battery state when picking design points.

    Between attempts the policy asks the simulator for the battery's
    state of charge (bounded batteries) or the recoverable-charge ratio
    ``(sigma - delivered) / delivered`` (the unbounded paper setting).
    Under stress — state of charge below ``soc_reserve``, or recoverable
    ratio above ``stress_threshold`` — it runs the chosen task at the
    lowest-*current* feasible design point, giving the cell time to
    recover (the rate-capacity lever the paper's offline heuristic pulls
    statically); otherwise it sprints at the *fastest* feasible point,
    banking slack while the battery is fresh so the recovery mode has
    room to fire later.  Task order is energy-greedy, isolating the
    battery reaction as the only difference from
    :class:`GreedyEnergyScheduler`.
    """

    name = "battery-reactive"
    WEIGHTS_GRAPH_PURE = True

    #: Battery telemetry (state of charge, delivered/apparent charge) is
    #: *measured*, never believed: an information mode degrades the
    #: policy's duration estimates while its stress sensing stays real.

    def __init__(
        self, stress_threshold: float = 0.25, soc_reserve: float = 0.25
    ) -> None:
        if stress_threshold < 0:
            raise ConfigurationError(
                f"stress_threshold must be >= 0, got {stress_threshold!r}"
            )
        if not (0.0 <= soc_reserve <= 1.0):
            raise ConfigurationError(
                f"soc_reserve must be within [0, 1], got {soc_reserve!r}"
            )
        self.stress_threshold = float(stress_threshold)
        self.soc_reserve = float(soc_reserve)

    def task_weights(self) -> Dict[str, float]:
        if self._beliefs is not None:
            return self._beliefs.average_energy
        return {
            task.name: task.average_energy for task in self.simulator.graph
        }

    def _stressed(self) -> bool:
        sim = self.simulator
        soc = sim.state_of_charge()
        if soc is not None:
            return soc < self.soc_reserve
        delivered = sim.delivered_charge()
        if delivered <= 0.0:
            return False
        unavailable = sim.apparent_charge() - delivered
        return unavailable / delivered > self.stress_threshold

    def choose_column(self, name: str) -> int:
        times = self._times[name]
        feasible = self._feasible_columns(name, times=times)
        if self._stressed():
            currents = self.simulator.graph.task(name).currents()
            return min(feasible, key=lambda column: (currents[column], -column))
        return min(feasible, key=lambda column: (times[column], column))


# ----------------------------------------------------------------------
# the policy registry
# ----------------------------------------------------------------------
#: ``factory(problem, params, model) -> Scheduler`` — ``model`` is an
#: optional battery-model override forwarded to offline runs.
PolicyFactory = Callable[..., Scheduler]

POLICIES: Dict[str, PolicyFactory] = {}


def register_policy(name: str, factory: PolicyFactory) -> None:
    """Register a policy factory ``factory(problem, params) -> Scheduler``."""
    POLICIES[name] = factory


def policy_names() -> Tuple[str, ...]:
    """All registered policy names, sorted."""
    return tuple(sorted(POLICIES))


def make_policy(
    name: str,
    problem: SchedulingProblem,
    params: Optional[Mapping[str, Any]] = None,
    model=None,
) -> Scheduler:
    """Build a policy instance by registry name.

    ``static-replay`` needs an offline schedule: either an explicit
    ``sequence``/``columns`` pair in ``params``, or the name of a
    registered offline ``algorithm`` (default ``"iterative"``) that is run
    on ``problem`` first — through the engine's algorithm registry, with
    ``model`` forwarded to it.
    """
    if name not in POLICIES:
        raise ConfigurationError(
            f"unknown simulation policy {name!r}; choose from {list(policy_names())}"
        )
    return POLICIES[name](problem, dict(params or {}), model)


def _make_static_replay(
    problem: SchedulingProblem, params: Dict[str, Any], model=None
) -> StaticReplayScheduler:
    if "sequence" in params or "columns" in params:
        if not ("sequence" in params and "columns" in params):
            raise ConfigurationError(
                "static-replay needs both 'sequence' and 'columns' when "
                "either is given explicitly"
            )
        return StaticReplayScheduler(params["sequence"], params["columns"])
    from ..engine.jobs import get_algorithm, resolve_algorithm_name

    algorithm = resolve_algorithm_name(str(params.get("algorithm", "iterative")))
    runner = get_algorithm(algorithm)
    outcome = runner(problem, model, dict(params.get("algorithm_params", {})))
    return StaticReplayScheduler(
        outcome.sequence,
        {task: int(column) for task, column in outcome.assignment.items()},
    )


def _simple_factory(cls: type, allowed: Tuple[str, ...] = ()) -> PolicyFactory:
    def build(problem: SchedulingProblem, params: Dict[str, Any], model=None):
        unknown = set(params) - set(allowed)
        if unknown:
            raise ConfigurationError(
                f"policy {cls.name!r} does not accept parameters {sorted(unknown)}"
            )
        return cls(**params)

    return build


register_policy("static-replay", _make_static_replay)
register_policy("greedy-energy", _simple_factory(GreedyEnergyScheduler))
register_policy("deadline-slack", _simple_factory(DeadlineSlackScheduler))
register_policy(
    "battery-reactive",
    _simple_factory(
        BatteryReactiveScheduler, allowed=("stress_threshold", "soc_reserve")
    ),
)
