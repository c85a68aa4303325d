"""The scalar event loop: the differential oracle of the columnar simulator.

:func:`oracle_run` executes one replication one event at a time, the way
an event-driven simulator does: a ready pool, a decision queue filled at
each wakeup of the policy, one attempt in flight on the single processing
element, and a failed attempt re-queued at the front with its column and
fresh draws.  The policies' rules are restated here per task and per
timeline, and every live quantity a rule reads — the remaining-work bound,
the delivered charge, sigma, the state of charge — is recomputed from
scratch at each query.  The oracle shares with :mod:`repro.sim` only what
both are defined on: the problem, the perturbation model and its draws,
the belief tables of an information mode and the battery kernels.

It counts the ``sim.*`` events and queries a run emits (wakeups,
decisions, task ends, retries and each live query), so a cell's counter
totals can be checked against one oracle run per lane.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.battery import LoadProfile, simulate_discharge
from repro.errors import SimulationError
from repro.obs import RECORDER
from repro.scheduling.evaluator import _resolve_rest
from repro.sim import (
    BatteryReactiveScheduler,
    DeadlineSlackScheduler,
    GreedyEnergyScheduler,
    PerturbationModel,
    SimulatedInterval,
    SimulationResult,
    StaticReplayScheduler,
    resolve_beliefs,
    rng_for_seed,
)
from repro.taskgraph import validate_sequence

_EPS = 1e-9


def oracle_run(
    problem,
    policy,
    perturbation=None,
    rng=None,
    model=None,
    evaluate_at="completion",
    trace_samples=0,
    imode=None,
) -> SimulationResult:
    """One replication of ``policy`` on ``problem``, event by event.

    ``policy`` is a built-in policy instance; only its type and parameters
    are read.  Raises what the run ends with, as the simulator's lanes do.
    """
    return _EventLoop(
        problem, policy, perturbation, rng, model, evaluate_at, trace_samples, imode
    ).run()


class _EventLoop:
    def __init__(self, problem, policy, perturbation, rng, model, evaluate_at,
                 trace_samples, imode):
        _resolve_rest(0.0, problem.deadline, evaluate_at)
        self.problem = problem
        self.graph = problem.graph
        self.deadline = float(problem.deadline)
        self.policy = policy
        self.label = policy.name
        self.perturbation = perturbation or PerturbationModel()
        if rng is not None and not isinstance(rng, np.random.Generator):
            rng = rng_for_seed(int(rng))
        if rng is None and not self.perturbation.is_null:
            raise SimulationError("a stochastic perturbation needs an rng (seed or Generator)")
        self.rng = rng
        self.model = model if model is not None else problem.model()
        self.evaluate_at = evaluate_at
        self.trace_samples = int(trace_samples)
        self.beliefs = resolve_beliefs(self.graph, imode)
        self.names = self.graph.task_names()
        self.rank = {name: index for index, name in enumerate(self.names)}
        self.now = 0.0
        self.finished = []
        self.durations = []
        self.currents = []

    # -- counters ---------------------------------------------------------
    def _count(self, name, n=1):
        if RECORDER.enabled and n:
            RECORDER.count(name, n, label=self.label)

    # -- live queries, recomputed per call ----------------------------------
    def remaining_min_time(self):
        self._count("sim.query.remaining_min_time")
        if self.beliefs.blind:
            return math.inf
        done = set(self.finished)
        min_times = self.beliefs.min_times
        return math.fsum(min_times[name] for name in self.names if name not in done)

    def delivered_charge(self):
        self._count("sim.query.delivered_charge")
        return math.fsum(d * c for d, c in zip(self.durations, self.currents))

    def apparent_charge(self):
        self._count("sim.query.apparent_charge")
        if not self.durations:
            return 0.0
        return self.model.schedule_charge(self.durations, self.currents, 0.0)

    def state_of_charge(self):
        self._count("sim.query.state_of_charge")
        battery = self.problem.battery
        if not battery.has_finite_capacity:
            return None
        return max(0.0, 1.0 - self.apparent_charge() / battery.capacity)

    # -- the policies' rules --------------------------------------------------
    def _weights(self):
        beliefs = self.beliefs
        if isinstance(self.policy, DeadlineSlackScheduler):
            return {
                name: math.fsum(
                    beliefs.min_times[member]
                    for member in self.graph.subgraph_rooted_at(name)
                )
                for name in self.names
            }
        return beliefs.average_energy

    def _allowance(self, name):
        min_time = self.beliefs.min_times[name]
        remaining = self.remaining_min_time()
        if not (math.isfinite(remaining) and math.isfinite(min_time)):
            return math.inf
        return self.deadline - self.now - (remaining - min_time)

    def _feasible(self, name):
        allowance = self._allowance(name)
        times = self.beliefs.times[name]
        return [c for c, t in enumerate(times) if t <= allowance + _EPS] or [0]

    def _column(self, name):
        policy = self.policy
        times = self.beliefs.times[name]
        if isinstance(policy, GreedyEnergyScheduler):
            energies = self.beliefs.energies[name]
            return min(self._feasible(name), key=lambda c: (energies[c], -c))
        if isinstance(policy, DeadlineSlackScheduler):
            min_time = self.beliefs.min_times[name]
            remaining = self.remaining_min_time()
            if not (math.isfinite(remaining) and math.isfinite(min_time)):
                return 0
            slack = self.deadline - self.now - remaining
            share = slack * (min_time / remaining) if remaining > 0 else 0.0
            share_limit = min_time + max(share, 0.0) + _EPS
            deadline_limit = self.deadline - self.now - (remaining - min_time) + _EPS
            fitting = [
                c for c, t in enumerate(times) if t <= deadline_limit and t <= share_limit
            ]
            return max(fitting or [0], key=lambda c: (times[c], c))
        if isinstance(policy, BatteryReactiveScheduler):
            feasible = self._feasible(name)
            if self._stressed():
                currents = self.graph.task(name).currents()
                return min(feasible, key=lambda c: (currents[c], -c))
            return min(feasible, key=lambda c: (times[c], c))
        raise TypeError(f"the oracle has no rule for {type(policy).__name__}")

    def _stressed(self):
        soc = self.state_of_charge()
        if soc is not None:
            return soc < self.policy.soc_reserve
        delivered = self.delivered_charge()
        if delivered <= 0.0:
            return False
        return (self.apparent_charge() - delivered) / delivered > self.policy.stress_threshold

    def _decide(self, pool, new_ready):
        """One wakeup's decisions: the whole replay (its only wakeup), or
        the next online task."""
        if isinstance(self.policy, StaticReplayScheduler):
            return [(name, self.policy.columns[name]) for name in self.policy.sequence]
        pool.extend(new_ready)
        if not pool:
            return []
        name = min(pool, key=lambda task: (-self.weights[task], self.rank[task]))
        pool.remove(name)
        return [(name, self._column(name))]

    # -- the event loop -------------------------------------------------------
    def run(self):
        graph = self.graph
        if isinstance(self.policy, StaticReplayScheduler):
            validate_sequence(graph, self.policy.sequence)
        else:
            self.weights = self._weights()
        waiting = {name: len(graph.predecessors(name)) for name in self.names}
        new_ready = [name for name in self.names if waiting[name] == 0]
        pool = []
        queue = deque()
        columns = {}
        intervals = []
        self.attempts = dict.fromkeys(self.names, 0)
        retries = events = 0
        while len(self.finished) < len(self.names):
            if not queue:
                events += 1
                self._count("sim.event.wakeup")
                decisions = self._decide(pool, new_ready)
                new_ready = []
                self._count("sim.decisions", len(decisions))
                if not self.beliefs.mode.is_exact and decisions:
                    RECORDER.count(
                        "sim.imode.decisions", len(decisions),
                        label=f"{self.label}|{self.beliefs.mode.label}",
                    )
                for name, column in decisions:
                    points = graph.task(name).ordered_design_points()
                    if not 0 <= int(column) < len(points):
                        raise SimulationError(
                            f"column {column!r} out of range for task {name!r} "
                            f"({len(points)} design points)"
                        )
                    queue.append((name, int(column)))
                if not queue:
                    raise SimulationError("the policy stalled")
            name, column = queue.popleft()
            point = graph.task(name).ordered_design_points()[column]
            factor, failed = 1.0, False
            if not self.perturbation.is_null:
                factor = self.perturbation.duration_factor(self.rng)
                failed = self.perturbation.draw_failure(self.rng)
            duration = point.execution_time * factor
            self.attempts[name] += 1
            if failed and self.attempts[name] > self.perturbation.max_retries:
                raise SimulationError(
                    f"task {name!r} exhausted its retry budget "
                    f"({self.perturbation.max_retries} retries)"
                )
            columns[name] = column
            start = self.now
            self.now = start + duration
            events += 1
            self._count("sim.event.task-end")
            self.durations.append(duration)
            self.currents.append(point.current)
            intervals.append(
                SimulatedInterval(
                    name, column, start, duration, point.current, self.attempts[name], failed
                )
            )
            if failed:
                retries += 1
                self._count("sim.retries")
                queue.appendleft((name, column))
                continue
            self.finished.append(name)
            for child in sorted(graph.successors(name), key=self.rank.__getitem__):
                waiting[child] -= 1
                if waiting[child] == 0:
                    new_ready.append(child)
        return self._result(columns, intervals, retries, events)

    def _result(self, columns, intervals, retries, events):
        makespan = math.fsum(self.durations)
        rest = _resolve_rest(makespan, self.deadline, self.evaluate_at)
        battery = self.problem.battery
        capacity = battery.capacity if battery.has_finite_capacity else None
        profile = LoadProfile.from_back_to_back(
            durations=list(self.durations), currents=list(self.currents)
        )
        return SimulationResult(
            policy=self.label,
            cost=self.model.schedule_charge(self.durations, self.currents, rest),
            makespan=makespan,
            rest=rest,
            feasible=makespan <= self.deadline + _EPS,
            deadline=self.deadline,
            sequence=tuple(self.finished),
            columns={name: columns[name] for name in self.names},
            intervals=tuple(intervals),
            retries=retries,
            events=events,
            evaluate_at=self.evaluate_at,
            depletion_time=None if capacity is None else self.model.lifetime(profile, capacity),
            trace=simulate_discharge(
                self.model, profile, capacity=capacity,
                num_samples=max(2, self.trace_samples),
            )
            if self.trace_samples > 0
            else None,
        )
