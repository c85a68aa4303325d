"""Runtime simulation of schedules under uncertainty.

Everything below :mod:`repro.sim` in the stack evaluates **static offline**
schedules: a (sequence, assignment) candidate is costed as if every task
ran for exactly its modeled execution time.  This package asks the
complementary *online* question — what actually happens at runtime when
durations jitter, tasks fail and retry, and the scheduler has to decide
on the fly — by executing a task graph forward in virtual time on the
modeled single-processing-element platform while tracking battery state
through the same chemistry kernels the offline cost stack uses.

The pieces:

* :class:`BatchSimulator` (:mod:`repro.sim.batch`) — the simulator: one
  Monte Carlo cell's replications at once, as ``(lanes, attempt slots)``
  arrays (the platform runs one task at a time, so a replication's task
  order never depends on its draws).  ``run()`` gives each lane's
  :class:`LaneSummary` (the six scalars a store row keeps) or its
  exception (a :data:`LaneOutcome`); ``results()`` gives the full
  :class:`SimulationResult` timelines.  :class:`Simulator`
  (:mod:`repro.sim.runtime`) is its one-lane front.
* :class:`Scheduler` policies (:mod:`repro.sim.schedulers`) —
  :class:`StaticReplayScheduler` (replays an offline schedule: the bridge
  to every existing result), and the online :class:`GreedyEnergyScheduler`,
  :class:`DeadlineSlackScheduler` and :class:`BatteryReactiveScheduler`
  (reads the live state of charge), each of which decides every lane's
  design point at once.
* :class:`PerturbationModel` (:mod:`repro.sim.perturbation`) — seeded
  multiplicative duration jitter (lognormal/uniform) and task
  failure + retry, driven by explicit :class:`numpy.random.Generator`
  streams so every run is reproducible and resumable from the engine's
  result store.
* :class:`InformationMode` (:mod:`repro.sim.imode`) — what an online
  policy believes about durations, against what the simulator draws.
* :class:`SimulationResult` (:mod:`repro.sim.result`) — the executed
  timeline plus the final sigma, computed through the model's
  ``schedule_charge`` so that replaying an offline schedule with zero
  perturbation reproduces the offline evaluator's cost **bitwise** (the
  conformance anchor, gated by the golden-fixture tests).

Orchestration at scale lives in :mod:`repro.engine`
(:class:`~repro.engine.SimulationJob` — content-hashed, parallel,
resumable) and :mod:`repro.experiments.simulate`
(:func:`~repro.experiments.run_simulation_suite`); the CLI entry point is
``python -m repro.cli simulate``.

>>> from repro.sim import Simulator, StaticReplayScheduler
>>> from repro.scheduling import DesignPointAssignment, SchedulingProblem
>>> from repro.taskgraph import build_g3
>>> problem = SchedulingProblem(graph=build_g3(), deadline=230.0)
>>> sequence = problem.graph.topological_order()
>>> columns = {name: 0 for name in sequence}
>>> result = Simulator(problem, StaticReplayScheduler(sequence, columns)).run()
>>> result.feasible and result.retries == 0
True
"""

from .. import _lazy_exports

__all__ = [
    "PerturbationModel",
    "JITTER_MODELS",
    "rng_for_seed",
    "INFORMATION_MODES",
    "InformationMode",
    "GraphBeliefs",
    "resolve_beliefs",
    "SimulatedInterval",
    "SimulationResult",
    "Simulator",
    "BatchSimulator",
    "LaneOutcome",
    "LaneSummary",
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

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".batch": ("BatchSimulator", "LaneOutcome", "LaneSummary"),
        ".imode": (
            "INFORMATION_MODES", "GraphBeliefs", "InformationMode", "resolve_beliefs",
        ),
        ".perturbation": ("JITTER_MODELS", "PerturbationModel", "rng_for_seed"),
        ".result": ("SimulatedInterval", "SimulationResult"),
        ".runtime": ("Simulator",),
        ".schedulers": (
            "POLICIES", "BatteryReactiveScheduler", "DeadlineSlackScheduler",
            "GreedyEnergyScheduler", "Scheduler", "StaticReplayScheduler",
            "make_policy", "policy_names", "register_policy",
        ),
    },
)
