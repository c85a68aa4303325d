"""Common interface for battery models.

Every model answers two questions about a :class:`~repro.battery.LoadProfile`:

* :meth:`BatteryModel.apparent_charge` — how much of the battery's capacity
  has effectively been consumed by time ``T`` (the paper's sigma); and
* :meth:`BatteryModel.lifetime` — the first time at which the apparent
  charge reaches the available capacity ``alpha`` (the battery is then
  considered exhausted).

The scheduling stack costs candidates through the per-interval kernel of
:class:`~repro.battery.kernels.ScheduleKernelMixin`, which this class
derives from.  A custom chemistry subclasses :class:`BatteryModel` and
implements both :meth:`~BatteryModel.apparent_charge` and
``interval_contributions``; it may override ``contribution_floor`` and
``TIME_SENSITIVE``, which tune the exhaustive search's pruning (the ideal
and Peukert models exist precisely to show how the ranking of schedules
changes with the battery abstraction).
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from ..errors import BatteryModelError
from .kernels import ScheduleKernelMixin
from .profile import LoadProfile

__all__ = ["BatteryModel"]


class BatteryModel(ScheduleKernelMixin):
    """Abstract base class for battery charge/lifetime models."""

    #: Number of bisection refinement steps used by the generic lifetime search.
    _BISECTION_STEPS = 80

    @abc.abstractmethod
    def apparent_charge(self, profile: LoadProfile, at_time: Optional[float] = None) -> float:
        """Apparent charge consumed by ``at_time`` (defaults to the profile end).

        For the analytical model this is Equation 1's sigma(T); for the ideal
        model it is the plain coulomb count of the load applied before
        ``at_time``.
        """

    # ------------------------------------------------------------------
    # derived functionality shared by all models
    # ------------------------------------------------------------------
    def apparent_charge_reference(
        self, profile: LoadProfile, at_time: Optional[float] = None
    ) -> float:
        """The scalar conformance oracle for this model's fast paths.

        For models whose ``apparent_charge`` *is* the retained scalar loop
        (Peukert, KiBaM, ideal) this is the same computation; models that
        vectorized ``apparent_charge`` override it with the original
        per-interval implementation (the Rakhmatov–Vrudhula model).
        """
        return self.apparent_charge(profile, at_time)

    def cost(self, profile: LoadProfile) -> float:
        """Scheduling cost of a profile: apparent charge at its completion time."""
        return self.apparent_charge(profile, at_time=profile.end_time)

    def supports(self, profile: LoadProfile, capacity: float) -> bool:
        """True when the battery of capacity ``capacity`` survives the whole profile."""
        return self.lifetime(profile, capacity) is None

    def lifetime(self, profile: LoadProfile, capacity: float) -> Optional[float]:
        """First time at which the apparent charge reaches ``capacity``.

        Returns ``None`` when the battery survives the entire profile (the
        paper's assumption for its examples: "the amount of battery capacity
        available was sufficiently large").  The search exploits the fact
        that the apparent charge can only cross the capacity threshold while
        current is being drawn, i.e. inside a discharge interval, so it scans
        intervals in order and bisects inside the first interval whose end
        value exceeds the capacity.
        """
        if capacity <= 0 or not math.isfinite(capacity):
            raise BatteryModelError(f"capacity must be finite and > 0, got {capacity!r}")
        if profile.is_empty:
            return None
        for interval in profile:
            if self.apparent_charge(profile, at_time=interval.end) >= capacity:
                return self._bisect_crossing(profile, interval.start, interval.end, capacity)
        return None

    def _bisect_crossing(
        self, profile: LoadProfile, low: float, high: float, capacity: float
    ) -> float:
        """Locate the capacity crossing inside ``[low, high]`` by bisection."""
        for _ in range(self._BISECTION_STEPS):
            mid = 0.5 * (low + high)
            if self.apparent_charge(profile, at_time=mid) >= capacity:
                high = mid
            else:
                low = mid
        return high
