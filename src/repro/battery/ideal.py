"""Ideal (coulomb-counting) battery model.

An ideal battery delivers exactly its rated charge regardless of how fast it
is discharged: the apparent charge lost by time ``T`` is simply the integral
of the current drawn up to ``T``.  It is the ``beta -> infinity`` limit of
the Rakhmatov–Vrudhula model and serves two purposes in this library:

* a lower bound / sanity check on the analytical model (sigma_ideal <=
  sigma_analytical for any profile, with equality only for zero load), and
* a cost function under which task *ordering* is irrelevant, which isolates
  how much of the paper's benefit comes from battery-awareness rather than
  from plain energy minimisation.

Like the Peukert model it is time-**insensitive** in the sense of
:class:`~repro.battery.kernels.ScheduleKernelMixin`: each interval's
contribution is its own coulomb count, independent of when it runs, so the
vectorized schedule kernel ignores time-to-end and the contribution is its
own exact pruning floor.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import BatteryModel
from .kernels import ScheduleKernelMixin
from .profile import LoadProfile

__all__ = ["IdealBatteryModel"]


class IdealBatteryModel(ScheduleKernelMixin, BatteryModel):
    """Coulomb counter: apparent charge equals the nominal charge drawn."""

    #: Contributions ignore time-to-end entirely (pure coulomb counting).
    TIME_SENSITIVE = False

    def apparent_charge(self, profile: LoadProfile, at_time: Optional[float] = None) -> float:
        """Charge drawn before ``at_time`` (defaults to the end of the profile).

        This scalar per-interval loop is the retained reference
        implementation; the scheduling stack evaluates through the
        vectorized :meth:`interval_contributions` kernel instead.
        """
        if at_time is None:
            at_time = profile.end_time
        total = 0.0
        for interval in profile:
            if at_time <= interval.start:
                continue
            effective = min(interval.duration, at_time - interval.start)
            total += interval.current * effective
        return total

    # ------------------------------------------------------------------
    # canonical schedule kernel
    # ------------------------------------------------------------------
    def interval_contributions(
        self,
        durations: np.ndarray,
        currents: np.ndarray,
        time_to_end: np.ndarray,
    ) -> np.ndarray:
        """Per-interval coulomb counts (``time_to_end`` is ignored)."""
        return np.asarray(currents, dtype=float) * np.asarray(durations, dtype=float)

    def __repr__(self) -> str:
        return "IdealBatteryModel()"
