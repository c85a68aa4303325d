"""Incremental live-state bookkeeping == full recomputation, bitwise.

Two layers of pinning:

* :class:`~repro.sim.livestate.ExactSum` must agree with ``math.fsum``
  over the same multiset — including removals (added negations) and
  pathological cancellation — because the simulator's running totals
  replaced per-query ``fsum`` passes and the replacement must be invisible
  at the bit level.
* A probing policy re-derives every policy-visible quantity
  (``remaining_min_time``, ``delivered_charge``, ``apparent_charge``,
  ``state_of_charge``) from scratch, per lane, at every decision of a
  live cell and requires bit equality with the running answers, across
  time-sensitive and time-insensitive chemistries.
"""

import math

import numpy as np
import pytest

from repro.battery import BatterySpec
from repro.scheduling import SchedulingProblem
from repro.sim import BatchSimulator, PerturbationModel, rng_for_seed
from repro.sim.livestate import ExactSum
from repro.sim.schedulers import GreedyEnergyScheduler
from repro.taskgraph import build_g3


class TestExactSum:
    def test_matches_fsum_on_random_values(self):
        rng = np.random.default_rng(5)
        values = list(rng.normal(scale=1e6, size=200)) + list(
            rng.normal(scale=1e-6, size=200)
        )
        running = ExactSum()
        for value in values:
            running.add(value)
        assert running.value() == math.fsum(values)

    def test_matches_fsum_under_cancellation(self):
        values = [1e16, 1.0, -1e16, 1e-8, 3.14159, -1.0]
        running = ExactSum(values)
        assert running.value() == math.fsum(values)

    def test_removal_is_adding_the_negation(self):
        rng = np.random.default_rng(11)
        values = list(rng.lognormal(mean=2.0, sigma=3.0, size=64))
        running = ExactSum(values)
        removed = values[::3]
        for value in removed:
            running.add(-value)
        expected = math.fsum(values + [-value for value in removed])
        assert running.value() == expected
        # The partials represent the exact sum, so the running difference
        # also equals the fsum over the values that are still "in".
        kept = [value for index, value in enumerate(values) if index % 3]
        assert running.value() == math.fsum(kept)

    def test_from_partials_clones_independent_state(self):
        base = ExactSum([0.1, 0.2, 0.3, 1e-17])
        clone = ExactSum.from_partials(base.partials)
        assert clone.value() == base.value()
        clone.add(7.0)
        assert clone.value() != base.value()
        assert base.value() == math.fsum([0.1, 0.2, 0.3, 1e-17])

    def test_empty_sum_is_zero(self):
        assert ExactSum().value() == 0.0


class _ProbingScheduler(GreedyEnergyScheduler):
    """Greedy policy that audits every live query against a recomputation."""

    name = "probing-greedy"

    def __init__(self, model, capacity):
        self.model = model
        self.capacity = capacity
        self.probes = 0
        self.decided = []

    def choose_columns(self, name):
        self._audit()
        self.decided.append(name)
        return super().choose_columns(name)

    def _audit(self):
        sim = self.simulator
        unfinished = [
            sim.min_times[task]
            for task in sim.graph.task_names()
            if task not in self.decided
        ]
        assert sim.remaining_min_time() == math.fsum(unfinished)
        delivered = sim.delivered_charge()
        sigma = sim.apparent_charge()
        soc = sim.state_of_charge()
        lanes = len(sim.now)
        rows = zip(*(np.array(values).T.tolist() for values in (sim.durations, sim.currents)))
        for lane, (durations, currents) in enumerate(rows if sim.durations else [([], [])] * lanes):
            # A lane's own attempts: its spare slots have zero length.
            made = [(d, c) for d, c in zip(durations, currents) if d > 0.0]
            assert delivered[lane] == math.fsum(d * c for d, c in made)
            expected = (
                self.model.schedule_charge([d for d, _ in made], [c for _, c in made], 0.0)
                if made
                else 0.0
            )
            assert sigma[lane] == expected
            assert soc[lane] == max(0.0, 1.0 - expected / self.capacity)
        self.probes += 1


CHEMISTRY_SPECS = {
    "rakhmatov": BatterySpec(beta=0.273),
    "peukert": BatterySpec(chemistry="peukert", chemistry_params={"exponent": 1.3}),
    "kibam": BatterySpec(chemistry="kibam", chemistry_params={"c": 0.625, "k": 0.05}),
    "ideal": BatterySpec(chemistry="ideal"),
}


class TestLiveStateMatchesRecomputation:
    @pytest.mark.parametrize("chemistry", sorted(CHEMISTRY_SPECS))
    def test_incremental_queries_bitwise_match_recomputed(self, chemistry):
        spec = CHEMISTRY_SPECS[chemistry]
        problem = SchedulingProblem(
            graph=build_g3(),
            deadline=260.0,
            battery=BatterySpec(
                beta=spec.beta,
                capacity=5000.0,
                chemistry=spec.chemistry,
                chemistry_params=dict(spec.chemistry_params),
            ),
        )
        model = problem.model()
        policies = [_ProbingScheduler(model, 5000.0) for _ in range(4)]
        results = BatchSimulator(
            problem,
            policies,
            rngs=[rng_for_seed(13, lane) for lane in range(4)],
            perturbation=PerturbationModel(jitter=0.15, failure_rate=0.1),
            model=model,
        ).results()
        assert len({result.retries for result in results}) > 1
        # One audit per decision, covering empty, partial and full timelines
        # of lanes whose retries leave spare slots.
        assert policies[0].probes == problem.graph.num_tasks
