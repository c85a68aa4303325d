"""Property tests of the information-mode layer (repro.sim.imode).

The contracts under test:

* **belief-stream independence** — belief draws live on their own RNG
  substream: changing the belief seed never changes the perturbation
  draws (realised durations), changing the perturbation stream never
  changes the belief tables, and the two streams share no material;
* **blind means blind** — under a ``blind`` mode a policy can never
  observe a finite duration estimate through any simulator surface
  (``min_times``, ``remaining_min_time()``, believed times/energies, the
  deadline allowance);
* **static-replay is imode-invariant** — an offline plan replayed at
  runtime is unchanged by whatever the online beliefs would have been.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_g3
from repro.scheduling import SchedulingProblem
from repro.sim import (
    GraphBeliefs,
    GreedyEnergyScheduler,
    InformationMode,
    PerturbationModel,
    Simulator,
    StaticReplayScheduler,
    rng_for_seed,
)
from repro.sim.imode import _BELIEF_STREAM

from ..sim.oracle import oracle_run

rel_errors = st.floats(min_value=0.01, max_value=1.5, allow_nan=False)
belief_seeds = st.integers(min_value=0, max_value=2**31 - 1)
sim_seeds = st.integers(min_value=0, max_value=1000)


def _problem() -> SchedulingProblem:
    return SchedulingProblem(graph=build_g3(), deadline=260.0)


def _replay(problem: SchedulingProblem) -> StaticReplayScheduler:
    graph = problem.graph
    m = graph.uniform_design_point_count()
    sequence = graph.topological_order()
    return StaticReplayScheduler(
        sequence, {name: index % m for index, name in enumerate(sequence)}
    )


def _durations(problem, seed, imode):
    """The realised timeline of a replay, equal to the oracle's."""
    perturbation = PerturbationModel(jitter=0.2, failure_rate=0.05)
    result = Simulator(
        problem,
        _replay(problem),
        perturbation=perturbation,
        rng=rng_for_seed(seed, 0),
        imode=imode,
    ).run()
    assert result == oracle_run(
        problem, _replay(problem), perturbation=perturbation,
        rng=rng_for_seed(seed, 0), imode=imode,
    )
    return [
        (interval.task, interval.duration, interval.current)
        for interval in result.intervals
    ]


class TestBeliefStreamIndependence:
    @given(rel_error=rel_errors, seed=belief_seeds, sim_seed=sim_seeds)
    @settings(max_examples=25, deadline=None)
    def test_belief_seed_never_changes_perturbation_draws(
        self, rel_error, seed, sim_seed
    ):
        problem = _problem()
        baseline = _durations(problem, sim_seed, None)
        believed = _durations(
            problem, sim_seed, InformationMode.noisy(rel_error, seed=seed)
        )
        assert believed == baseline  # realised timeline is draw-identical

    @given(rel_error=rel_errors, seed=belief_seeds, sim_seed=sim_seeds)
    @settings(max_examples=25, deadline=None)
    def test_perturbation_stream_never_changes_belief_tables(
        self, rel_error, seed, sim_seed
    ):
        # Belief tables are a pure function of (graph, mode): resolving
        # them before, after, or without any perturbed simulation — or
        # under different simulation seeds — yields identical tables.
        graph = build_g3()
        mode = InformationMode.noisy(rel_error, seed=seed)
        before = GraphBeliefs(graph, mode).times
        _durations(_problem(), sim_seed, mode)
        after = GraphBeliefs(graph, mode).times
        assert after == before

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_belief_substream_shares_no_material_with_replications(self, seed):
        # SeedSequence([seed, _BELIEF_STREAM]) vs. the perturbation
        # streams' SeedSequence([seed, replication]): the stream tag sits
        # far outside any plausible replication index, so the substreams
        # can never collide.
        belief = InformationMode.noisy(0.5, seed=seed).belief_rng().random(4)
        for replication in range(24):
            perturbation = rng_for_seed(seed, replication).random(4)
            assert not np.array_equal(belief, perturbation)

    def test_stream_tag_is_outside_replication_range(self):
        assert _BELIEF_STREAM > 2**40


class _BlindProbeScheduler(GreedyEnergyScheduler):
    """Records every duration estimate reachable through the simulator."""

    name = "blind-probe"

    def init(self, simulator) -> None:
        super().init(simulator)
        self.observed = []

    def choose_columns(self, name):
        sim = self.simulator
        beliefs = sim.beliefs
        self.observed.append(sim.min_times[name])
        self.observed.extend(beliefs.times[name])
        self.observed.extend(beliefs.energies[name])
        self.observed.extend(np.broadcast_to(self._deadline_allowance(name), len(sim.now)))
        self.observed.append(sim.remaining_min_time())
        return np.zeros(len(sim.now), dtype=int)


class TestBlindNeverObservesFiniteEstimate:
    @pytest.mark.parametrize("jitter", (0.0, 0.2))
    def test_every_reachable_estimate_is_infinite(self, jitter):
        problem = _problem()
        probe = _BlindProbeScheduler()
        result = Simulator(
            problem,
            probe,
            perturbation=PerturbationModel(jitter=jitter),
            rng=rng_for_seed(1, 0),
            imode=InformationMode.blind(),
        ).run()
        assert len(result.intervals) == problem.graph.num_tasks
        assert probe.observed, "probe recorded nothing"
        assert all(math.isinf(value) for value in probe.observed)

    def test_exact_probe_sees_finite_estimates(self):
        # Control: the same probe under exact mode (or none) reads the
        # modeled tables through the same surfaces and observes only
        # finite values — the blindness above comes from the mode.
        problem = _problem()
        for imode in (None, InformationMode.exact()):
            for jitter in (0.0, 0.2):
                probe = _BlindProbeScheduler()
                result = Simulator(
                    problem,
                    probe,
                    perturbation=PerturbationModel(jitter=jitter),
                    rng=rng_for_seed(1, 0),
                    imode=imode,
                ).run()
                assert len(result.intervals) == problem.graph.num_tasks
                assert probe.observed, "probe recorded nothing"
                assert all(math.isfinite(value) for value in probe.observed)


class TestStaticReplayImodeInvariance:
    @given(rel_error=rel_errors, seed=belief_seeds)
    @settings(max_examples=20, deadline=None)
    def test_replay_unchanged_by_noisy_beliefs(self, rel_error, seed):
        problem = _problem()
        baseline = Simulator(
            problem,
            _replay(problem),
            perturbation=PerturbationModel(jitter=0.1),
            rng=rng_for_seed(5, 0),
        ).run()
        believed = Simulator(
            problem,
            _replay(problem),
            perturbation=PerturbationModel(jitter=0.1),
            rng=rng_for_seed(5, 0),
            imode=InformationMode.noisy(rel_error, seed=seed),
        ).run()
        assert believed == baseline

    @pytest.mark.parametrize("mode", (InformationMode.blind(), InformationMode.mean()))
    def test_replay_unchanged_by_information_erasure(self, mode):
        problem = _problem()
        baseline = Simulator(
            problem, _replay(problem), rng=rng_for_seed(5, 0)
        ).run()
        believed = Simulator(
            problem, _replay(problem), rng=rng_for_seed(5, 0), imode=mode
        ).run()
        assert believed == baseline
