"""Scheduling policies driving the Monte Carlo simulator.

A policy binds to a :class:`~repro.sim.BatchSimulator` cell through
:meth:`Scheduler.init` and decides, for every replication lane at once,
which task runs next and at which design-point column.  Four policies
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
* :class:`BatteryReactiveScheduler` — queries the live battery state
  (state of charge on bounded batteries, the recoverable-charge ratio
  otherwise) and switches between low-current recovery mode and fast
  cruise mode per decision.

An online policy is an :class:`_OnlineScheduler`: ``task_weights`` orders
the ready tasks (the order is the same for every lane, because the
platform runs one task at a time), and ``choose_columns`` picks one column
per lane from that lane's live state.

Policies are registered by name (:data:`POLICIES`) so
:class:`~repro.engine.SimulationJob` and the CLI can name them as data;
:func:`make_policy` builds instances, resolving ``static-replay``'s
offline schedule through the engine's algorithm registry.

Every duration estimate the online policies consult — ``sim.min_times``,
``remaining_min_time()``, the per-task execution-time rows, the energy
priorities — is read from the cell's
:class:`~repro.sim.imode.GraphBeliefs`: the modeled tables themselves
under ``exact`` (or no mode), the believed ones under
``blind``/``mean``/``noisy``.  ``static-replay`` is imode-invariant by
construction: its offline plan is computed from the modeled times before
the run starts, exactly like a plan deployed to a device.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
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
    """Base class of the policies: a name and the binding to a cell."""

    #: Registry/display name; instances may override per construction.
    name: str = "scheduler"

    def init(self, simulator) -> None:
        """Bind to the cell's live state before the run starts."""
        self.simulator = simulator


class StaticReplayScheduler(Scheduler):
    """Replay a precomputed (sequence, assignment) offline schedule.

    The whole run is decided before the first attempt — exactly how an
    offline plan is deployed on a device — so perturbations change *when*
    things happen but never *what* runs where.
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

    def init(self, simulator) -> None:
        super().init(simulator)
        # Replications re-bind the same sequence to the same graph; the
        # per-graph tables remember which sequences were validated.
        validated = simulator._tables.validated
        if self.sequence not in validated:
            validate_sequence(simulator.graph, self.sequence)
            validated.add(self.sequence)


class _OnlineScheduler(Scheduler):
    """Shared machinery of the online policies: one decision per position.

    Maintains the ready pool and picks the highest-weight task (ties
    broken by graph insertion order, matching
    :func:`repro.scheduling.list_scheduler.sequence_by_weights`), then
    delegates the design-point choice to :meth:`choose_columns`, which
    answers for every lane of the cell at once (see
    :meth:`_choose_per_lane`).
    """

    #: Whether :meth:`task_weights` depends only on (graph, mode) (True for
    #: all built-in policies), making the weights memo of each
    #: :class:`~repro.sim.imode.GraphBeliefs` safe.
    #: Subclasses whose weights read instance parameters or live simulator
    #: state must leave this False.
    WEIGHTS_GRAPH_PURE = False

    def init(self, simulator) -> None:
        super().init(simulator)
        #: Min-heap of ``self._order`` sort keys for the ready tasks.
        self._ready: List[tuple] = []
        self._rank = simulator._rank
        #: rank -> name, to translate popped heap keys back to tasks.
        self._rank_name = {index: name for name, index in self._rank.items()}
        #: Believed-duration tables (the modeled ones under exact mode).
        self._beliefs = simulator.beliefs
        #: Every execution-time row a policy consults is believed.
        self._times = self._beliefs.times
        #: ``self._order`` is the precomputed sort key per task —
        #: ``sort(key=self._order.__getitem__)`` orders exactly like
        #: sorting on ``(-weight, rank)`` tuples built per decision, without
        #: rebuilding them.  Memoised with the weights (both are shared
        #: read-only across binds to the same graph and mode).
        self._weights, self._order = self._resolve_weights()

    def _build_order(self, weights: Dict[str, float]) -> Dict[str, tuple]:
        rank = self._rank
        return {name: (-weight, rank[name]) for name, weight in weights.items()}

    def _resolve_weights(self):
        if not self.WEIGHTS_GRAPH_PURE:
            weights = self.task_weights()
            return weights, self._build_order(weights)
        # Replications and batch cells re-bind fresh policies to the same
        # (graph, mode); the memo spares each bind an O(graph) — for
        # deadline-slack O(graph^2) — priority table that never changes.
        memo = self._beliefs.weights
        key = type(self).__qualname__
        entry = memo.get(key)
        if entry is None:
            weights = self.task_weights()
            entry = memo[key] = (weights, self._build_order(weights))
        return entry

    def task_weights(self) -> Dict[str, float]:
        """Per-task priority (higher runs first); computed once at init."""
        raise NotImplementedError

    def choose_columns(self, name: str) -> np.ndarray:
        """Design-point column of the chosen task, one per lane."""
        raise NotImplementedError

    def _next_task(self, new_ready: Sequence[str]) -> Optional[str]:
        """The ordering rule: admit ``new_ready``, pop the head (or ``None``).

        ``self._ready`` is a min-heap of ``(-weight, rank)`` sort keys;
        ``rank`` is unique, so the key is a total order.
        """
        ready = self._ready
        order = self._order
        for name in new_ready:
            heapq.heappush(ready, order[name])
        if not ready:
            return None
        return self._rank_name[heapq.heappop(ready)[1]]

    def _deadline_allowance(self, name: str):
        """Longest execution time ``name`` may take, per lane, while the
        rest of the graph can still finish by the deadline at full speed.

        Under a ``blind`` information mode the believed bound is infinite,
        and so is the allowance: with no duration information, no column
        can be ruled out (``inf - inf`` must never reach the arithmetic
        below).
        """
        sim = self.simulator
        min_time = sim.min_times[name]
        remaining = sim.remaining_min_time()
        if not (math.isfinite(remaining) and math.isfinite(min_time)):
            return math.inf
        others = remaining - min_time
        return sim.deadline - sim.now - others

    def _choose_per_lane(self, name: str, pick: Callable, *limits) -> np.ndarray:
        """``pick(name, columns)`` per lane, over the columns whose believed
        times are within every (per-lane) limit, ``[0]`` when none is.

        Those column sets are nested, so a lane's set is named by how many
        believed times fit, and ``pick`` runs once per distinct set.
        """
        times = self._times[name]
        bounds = sorted(times)
        fits = np.ones((len(self.simulator.now), len(bounds)), dtype=bool)
        for limit in limits:
            fits &= np.array(bounds) <= np.reshape(limit, (-1, 1))
        levels = fits.sum(axis=1).tolist()
        picks = {
            level: pick(
                name,
                [column for column, time in enumerate(times) if time <= bounds[level - 1]]
                if level
                else [0],
            )
            for level in set(levels)
        }
        return np.array([picks[level] for level in levels])


class GreedyEnergyScheduler(_OnlineScheduler):
    """Online greedy: biggest average energy first, cheapest feasible point.

    The task order reuses the ``SequenceDecEnergy`` weight of the offline
    list scheduler; the design point is the feasible column with the
    lowest energy (ties to the slower implementation).
    """

    name = "greedy-energy"
    WEIGHTS_GRAPH_PURE = True

    def task_weights(self) -> Dict[str, float]:
        return self._beliefs.average_energy

    def choose_columns(self, name: str) -> np.ndarray:
        limit = self._deadline_allowance(name) + _EPS
        return self._choose_per_lane(name, self._cheapest, limit)

    def _cheapest(self, name: str, columns: List[int]) -> int:
        energies = self._beliefs.energies[name]
        return min(columns, key=lambda column: (energies[column], -column))


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
        min_times = self._beliefs.min_times
        return {
            task.name: math.fsum(
                min_times[member] for member in graph.subgraph_rooted_at(task.name)
            )
            for task in graph
        }

    def choose_columns(self, name: str) -> np.ndarray:
        limits = self._limits(name)
        if limits is None:
            return np.zeros(len(self.simulator.now), dtype=int)
        return self._choose_per_lane(name, self._slowest, *limits)

    def _limits(self, name: str):
        """The (deadline, share) limits of a fitting column's believed time.

        ``None`` under ``blind``: with no believed durations to apportion
        slack over, run the fastest point.  The fastest column fits
        whenever any column meets the deadline limit, so a "slowest
        feasible" fallback would never fire.
        """
        sim = self.simulator
        min_time = sim.min_times[name]
        remaining = sim.remaining_min_time()
        if not (math.isfinite(remaining) and math.isfinite(min_time)):
            return None
        now = sim.now
        deadline = sim.deadline
        slack = deadline - now - remaining
        share = slack * (min_time / remaining) if remaining > 0 else 0.0
        share_limit = min_time + np.maximum(share, 0.0) + _EPS
        deadline_limit = deadline - now - (remaining - min_time) + _EPS
        return deadline_limit, share_limit

    def _slowest(self, name: str, columns: List[int]) -> int:
        """Largest believed time; the later column wins a tie."""
        times = self._times[name]
        return max(columns, key=lambda column: (times[column], column))


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
        return self._beliefs.average_energy

    def choose_columns(self, name: str) -> np.ndarray:
        limit = self._deadline_allowance(name) + _EPS
        sim = self.simulator
        soc = sim.state_of_charge()
        if soc is not None:
            stressed = soc < self.soc_reserve
        else:
            # Lanes with no delivered charge are not stressed and never
            # ask for sigma.
            delivered = sim.delivered_charge()
            charged = ~(delivered <= 0.0)
            stressed = np.zeros(len(delivered), dtype=bool)
            if charged.any():
                unavailable = sim.apparent_charge(charged)[charged] - delivered[charged]
                stressed[charged] = unavailable / delivered[charged] > self.stress_threshold
        picks = self._choose_per_lane(name, self._fastest, limit)
        if stressed.any():
            lowest = self._choose_per_lane(name, self._lowest_current, limit)
            picks = np.where(stressed, lowest, picks)
        return picks

    def _lowest_current(self, name: str, columns: List[int]) -> int:
        currents = self.simulator.graph.task(name).currents()
        return min(columns, key=lambda column: (currents[column], -column))

    def _fastest(self, name: str, columns: List[int]) -> int:
        times = self._times[name]
        return min(columns, key=lambda column: (times[column], column))


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
