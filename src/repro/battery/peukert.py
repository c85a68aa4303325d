"""Peukert's-law battery model.

Peukert's empirical law states that the deliverable capacity of a battery
shrinks as the discharge current grows: a constant current ``I`` exhausts a
battery of rated capacity ``C`` (rated at current ``I_ref``) after

    t = C / I_ref * (I_ref / I) ** k

where ``k >= 1`` is the Peukert exponent (k = 1 is the ideal battery;
lead-acid cells are around 1.2-1.4, lithium-ion closer to 1.05).

For scheduling purposes the law is applied per interval: interval ``k`` with
current ``I_k`` and duration ``Delta_k`` consumes an *effective* charge of
``I_ref * Delta_k * (I_k / I_ref) ** k``, i.e. high-current intervals are
penalised superlinearly.  This is the battery abstraction used by some of
the related work cited in the paper (Luo & Jha; Pedram & Wu) and is provided
here as an alternative cost function and as an ablation anchor.  Unlike the
Rakhmatov–Vrudhula model it has no recovery effect, so idle time never
reduces the apparent charge.

Because each interval's effective charge depends only on its own duration
and current — never on *when* the interval runs — the model is
time-**insensitive** in the sense of
:class:`~repro.battery.kernels.ScheduleKernelMixin`: its vectorized
schedule kernel ignores the time-to-end parameter, and the per-interval
contribution is its own exact pruning floor.  The scalar
per-profile loop in :meth:`PeukertModel.apparent_charge` is retained as the
conformance reference for the vectorized kernel.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import BatteryModelError
from .base import BatteryModel
from .profile import LoadProfile

__all__ = ["PeukertModel"]


class PeukertModel(BatteryModel):
    """Per-interval Peukert's-law effective-charge model.

    Parameters
    ----------
    exponent:
        Peukert exponent ``k`` (>= 1).
    reference_current:
        Current at which the battery capacity is rated (mA).  Effective
        charge equals nominal charge for intervals drawing exactly this
        current.
    """

    def __init__(self, exponent: float = 1.2, reference_current: float = 1.0) -> None:
        if not math.isfinite(exponent) or exponent < 1.0:
            raise BatteryModelError(f"Peukert exponent must be >= 1, got {exponent!r}")
        if not math.isfinite(reference_current) or reference_current <= 0:
            raise BatteryModelError(
                f"reference current must be finite and > 0, got {reference_current!r}"
            )
        self.exponent = float(exponent)
        self.reference_current = float(reference_current)

    #: Contributions ignore time-to-end entirely (no recovery, no history).
    TIME_SENSITIVE = False

    def apparent_charge(self, profile: LoadProfile, at_time: Optional[float] = None) -> float:
        """Sum of per-interval effective charges applied before ``at_time``.

        This scalar per-interval loop is the retained reference
        implementation; the scheduling stack evaluates through the
        vectorized :meth:`interval_contributions` kernel instead.
        """
        if at_time is None:
            at_time = profile.end_time
        total = 0.0
        for interval in profile:
            if at_time <= interval.start or interval.current == 0.0:
                continue
            effective_duration = min(interval.duration, at_time - interval.start)
            ratio = interval.current / self.reference_current
            total += self.reference_current * effective_duration * ratio**self.exponent
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
        """Per-interval effective charges (``time_to_end`` is ignored).

        Elementwise the same arithmetic as the scalar loop in
        :meth:`apparent_charge`, so each contribution is bit-identical to
        the retained reference.
        """
        durations = np.asarray(durations, dtype=float)
        currents = np.asarray(currents, dtype=float)
        ratio = currents / self.reference_current
        return self.reference_current * durations * ratio**self.exponent

    def __repr__(self) -> str:
        return (
            f"PeukertModel(exponent={self.exponent:g}, "
            f"reference_current={self.reference_current:g})"
        )
