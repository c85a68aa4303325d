"""One replication: the one-lane front of :class:`~repro.sim.BatchSimulator`.

:class:`Simulator` runs one :class:`~repro.scheduling.SchedulingProblem`
on the paper's single-processing-element platform under a scheduling
policy (:mod:`repro.sim.schedulers`) and an optional
:class:`~repro.sim.perturbation.PerturbationModel`, and returns the
realised :class:`~repro.sim.SimulationResult`.  It is a batch of one lane,
so one run and one lane of a Monte Carlo cell on the same stream are the
same computation.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..battery import BatteryModel
from ..obs import RECORDER as _OBS
from ..scheduling import SchedulingProblem
from .batch import BatchSimulator
from .imode import InformationMode
from .perturbation import PerturbationModel
from .result import SimulationResult

__all__ = ["Simulator"]


class Simulator:
    """Execution of one problem under a scheduling policy.

    Parameters
    ----------
    problem, model, evaluate_at, trace_samples, imode:
        As on :class:`~repro.sim.BatchSimulator`.
    scheduler:
        The run's policy (see :mod:`repro.sim.schedulers`).
    perturbation:
        Runtime deviations; ``None`` (or a null model) makes the run
        deterministic and draw-free.
    rng:
        Seed or :class:`numpy.random.Generator` for the perturbation
        draws.  Required only when the perturbation actually draws.

    A simulator runs once; :meth:`run` raises the error a failed run
    ends with (an exhausted retry budget, an invalid replay schedule).
    """

    def __init__(
        self,
        problem: SchedulingProblem,
        scheduler,
        perturbation: Optional[PerturbationModel] = None,
        rng: Union[None, int, np.random.Generator] = None,
        model: Optional[BatteryModel] = None,
        evaluate_at: str = "completion",
        trace_samples: int = 0,
        imode: Optional[InformationMode] = None,
    ) -> None:
        self.imode = imode
        self._batch = BatchSimulator(
            problem,
            [scheduler],
            [rng],
            perturbation=perturbation,
            model=model,
            evaluate_at=evaluate_at,
            trace_samples=trace_samples,
            imode=imode,
        )

    def run(self) -> SimulationResult:
        """Execute the whole graph and return the realised-timeline result."""
        with _OBS.span("sim.run", label=self._batch._obs_label):
            (outcome,) = self._batch.results()
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
