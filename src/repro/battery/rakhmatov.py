"""Rakhmatov–Vrudhula analytical battery model (Equation 1 of the paper).

The model, derived from the one-dimensional diffusion of the electro-active
species in the cell, predicts the *apparent charge* sigma(T) lost by time
``T`` under a piecewise-constant load::

    sigma(T) = sum_k I_k * [ Delta_k
               + 2 * sum_{m=1..M} ( exp(-beta^2 m^2 (T - t_k - Delta_k))
                                    - exp(-beta^2 m^2 (T - t_k)) )
                                  / (beta^2 m^2) ]

where interval ``k`` draws current ``I_k`` from ``t_k`` for ``Delta_k`` time
units, and ``beta`` captures how quickly the concentration gradient inside
the cell relaxes (an ideal battery corresponds to ``beta -> infinity``).  The
paper truncates the infinite series at ``M = 10`` terms, which is also the
default here.

Two battery non-idealities fall out of the formula:

* **rate-capacity effect** — while an interval is in progress its term
  exceeds the nominal ``I_k * Delta_k``, so high currents "cost" more than
  their coulomb count; and
* **recovery effect** — after the interval ends (``T`` grows past
  ``t_k + Delta_k``) the bracketed term decays back towards
  ``I_k * Delta_k``, modelling the charge the battery appears to recover
  during rest periods.

The battery lifetime is the first ``T`` with ``sigma(T) = alpha`` where
``alpha`` is the battery's charge capacity.

The value ``sigma`` evaluated at the completion time of a schedule is the
cost the paper's algorithm minimises (``CalculateBatteryCost``).

Evaluation strategies
---------------------
All entry points share one vectorized kernel that evaluates the Equation-1
bracket for many intervals at once (intervals x series terms, a single pair
of ``np.exp`` calls):

* :meth:`RakhmatovVrudhulaModel.apparent_charge` — sigma of an arbitrary
  :class:`~repro.battery.LoadProfile` at an arbitrary time, bit-identical to
  the original per-interval scalar loop (kept as a reference implementation
  for the golden tests);
* :meth:`RakhmatovVrudhulaModel.interval_contributions` — the Equation-1
  bracket parametrised by each interval's **time-to-end** (makespan minus
  interval end), which depends only on the durations *after* the interval —
  the property the incremental evaluator exploits to re-cost single-move
  neighbours without touching unaffected intervals.  The chemistry-generic
  :class:`~repro.battery.kernels.ScheduleKernelMixin` derives the canonical
  schedule path (``schedule_contributions`` / ``schedule_charge`` /
  ``schedule_charge_batch``) from this kernel, exactly as it does for the
  other chemistries.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import BatteryModelError
from .base import BatteryModel
from .kernels import ScheduleKernelMixin, suffix_durations
from .profile import LoadProfile

__all__ = ["RakhmatovVrudhulaModel", "suffix_durations"]

#: Truncation order of the infinite series used by the paper.
DEFAULT_SERIES_TERMS = 10


class RakhmatovVrudhulaModel(ScheduleKernelMixin, BatteryModel):
    """Analytical high-level battery model with rate-capacity and recovery effects.

    Parameters
    ----------
    beta:
        Diffusion parameter in ``1/sqrt(time unit)``.  The paper's G3
        example uses ``beta = 0.273`` with time in minutes; smaller values
        mean a "less ideal" battery with stronger rate/recovery effects.
    series_terms:
        Number of terms ``M`` kept from the infinite series (paper: 10).
    """

    def __init__(self, beta: float, series_terms: int = DEFAULT_SERIES_TERMS) -> None:
        if not math.isfinite(beta) or beta <= 0:
            raise BatteryModelError(f"beta must be finite and > 0, got {beta!r}")
        if series_terms < 1:
            raise BatteryModelError(f"series_terms must be >= 1, got {series_terms!r}")
        self.beta = float(beta)
        self.series_terms = int(series_terms)
        # Precompute beta^2 * m^2 for m = 1..M once; reused for every interval.
        m = np.arange(1, self.series_terms + 1, dtype=float)
        self._beta2m2 = (self.beta**2) * (m**2)

    # ------------------------------------------------------------------
    # the model proper
    # ------------------------------------------------------------------
    def apparent_charge(self, profile: LoadProfile, at_time: Optional[float] = None) -> float:
        """Equation 1: apparent charge sigma(T) lost by ``at_time``.

        Intervals that have not started by ``at_time`` contribute nothing;
        an interval still in progress at ``at_time`` is truncated to the
        portion already executed (equivalently, the running task is assumed
        to keep drawing its current up to ``at_time``).

        The computation is vectorized over (intervals x series terms) but
        returns bit-identical values to the per-interval scalar loop kept in
        :meth:`apparent_charge_reference`.
        """
        if at_time is None:
            at_time = profile.end_time
        if at_time < 0:
            raise BatteryModelError(f"evaluation time must be >= 0, got {at_time!r}")
        if profile.is_empty:
            return 0.0
        starts = np.array([iv.start for iv in profile], dtype=float)
        durations = np.array([iv.duration for iv in profile], dtype=float)
        currents = np.array([iv.current for iv in profile], dtype=float)
        # Clamping elapsed time to zero makes not-yet-started intervals fall
        # out of the bracket exactly (eff = since_end = since_start = 0), so
        # no masking is needed and active intervals see the same arithmetic
        # as the scalar reference.
        time_in = np.maximum(at_time - starts, 0.0)
        effective = np.minimum(durations, time_in)
        factors = self._bracket(since_end=time_in - effective, since_start=time_in)
        contributions = currents * (effective + 2.0 * factors)
        # Sequential accumulation over non-zero-current intervals preserves
        # the reference implementation's rounding exactly.
        total = 0.0
        for index in range(len(contributions)):
            if currents[index] != 0.0:
                total += contributions[index]
        return float(total)

    def apparent_charge_reference(
        self, profile: LoadProfile, at_time: Optional[float] = None
    ) -> float:
        """Scalar per-interval reference implementation of :meth:`apparent_charge`.

        Kept as the oracle for the golden tests pinning the vectorized path;
        it is the original (pre-vectorization) loop, unchanged.
        """
        if at_time is None:
            at_time = profile.end_time
        if at_time < 0:
            raise BatteryModelError(f"evaluation time must be >= 0, got {at_time!r}")
        total = 0.0
        for interval in profile:
            if interval.current == 0.0:
                continue
            total += interval.current * self._interval_factor(
                start=interval.start,
                duration=interval.duration,
                at_time=at_time,
            )
        return total

    def _bracket(self, since_end: np.ndarray, since_start: np.ndarray) -> np.ndarray:
        """Vectorized series sum of Equation 1's bracket for many intervals.

        ``since_end`` / ``since_start`` are per-interval times elapsed between
        the (truncated) interval end / interval start and the evaluation
        time; both must be >= 0.  Returns the per-interval series sums (the
        bracket is ``effective_duration + 2 * bracket``).
        """
        decay_end = np.exp(-self._beta2m2[None, :] * since_end[:, None])
        decay_start = np.exp(-self._beta2m2[None, :] * since_start[:, None])
        return np.sum((decay_end - decay_start) / self._beta2m2[None, :], axis=1)

    def _interval_factor(self, start: float, duration: float, at_time: float) -> float:
        """The bracketed factor of Equation 1 for one interval, truncated at ``at_time``."""
        if at_time <= start:
            return 0.0
        effective_duration = min(duration, at_time - start)
        # exponents are always <= 0: at_time >= start + effective_duration >= start
        since_end = at_time - start - effective_duration
        since_start = at_time - start
        decay_end = np.exp(-self._beta2m2 * since_end)
        decay_start = np.exp(-self._beta2m2 * since_start)
        series = float(np.sum((decay_end - decay_start) / self._beta2m2))
        return effective_duration + 2.0 * series

    # ------------------------------------------------------------------
    # canonical schedule kernel (gap-free back-to-back intervals)
    # ------------------------------------------------------------------
    def interval_contributions(
        self,
        durations: np.ndarray,
        currents: np.ndarray,
        time_to_end: np.ndarray,
    ) -> np.ndarray:
        """Per-interval sigma contributions, parametrised by time-to-end.

        ``time_to_end[k]`` is the time between interval ``k``'s end and the
        evaluation time (>= 0: every interval has completed).  Because it
        depends only on what runs *after* the interval, a contribution is
        unchanged by any edit to the schedule at or before its position —
        the invariant behind the incremental evaluator's partial updates.
        """
        durations = np.asarray(durations, dtype=float)
        currents = np.asarray(currents, dtype=float)
        time_to_end = np.asarray(time_to_end, dtype=float)
        series = self._bracket(since_end=time_to_end, since_start=time_to_end + durations)
        return currents * (durations + 2.0 * series)

    def contribution_floor(
        self, durations: np.ndarray, currents: np.ndarray
    ) -> np.ndarray:
        """Nominal charge ``I * Delta`` per interval.

        A valid pruning floor: the Equation-1 bracket never drops below the
        interval's duration once the interval has completed (the recovery
        decay only sheds the rate-capacity *excess*), so every contribution
        is at least the plain coulomb count.
        """
        return np.asarray(currents, dtype=float) * np.asarray(durations, dtype=float)

    # ------------------------------------------------------------------
    # convenience closed forms
    # ------------------------------------------------------------------
    def constant_load_charge(self, current: float, duration: float) -> float:
        """sigma at the end of a single constant-current discharge of ``duration``.

        Closed form ``I * (Delta + 2 * sum (1 - exp(-beta^2 m^2 Delta)) / (beta^2 m^2))``;
        exceeds ``I * Delta`` (rate-capacity effect) and approaches it as
        ``beta`` grows (ideal battery limit).
        """
        if current < 0 or duration < 0:
            raise BatteryModelError("current and duration must be non-negative")
        if current == 0.0 or duration == 0.0:
            return 0.0
        series = float(np.sum((1.0 - np.exp(-self._beta2m2 * duration)) / self._beta2m2))
        return current * (duration + 2.0 * series)

    def constant_load_lifetime(self, current: float, capacity: float) -> float:
        """Lifetime under a never-ending constant current ``current``.

        Solved numerically from the closed form above (treating the load as
        one interval of growing duration evaluated at its own end time).
        """
        if current <= 0:
            raise BatteryModelError("current must be > 0 for a lifetime estimate")
        if capacity <= 0:
            raise BatteryModelError("capacity must be > 0")
        # The apparent charge at time T of a constant load started at 0 is
        # strictly increasing in T, so exponential search + bisection works.
        low, high = 0.0, 1.0
        while self.constant_load_charge(current, high) < capacity:
            high *= 2.0
            if high > 1e12:
                raise BatteryModelError("constant load never exhausts the battery (numeric overflow)")
        for _ in range(self._BISECTION_STEPS):
            mid = 0.5 * (low + high)
            if self.constant_load_charge(current, mid) >= capacity:
                high = mid
            else:
                low = mid
        return high

    def recovery_gain(self, profile: LoadProfile, rest: float) -> float:
        """Apparent charge recovered by resting ``rest`` time units after the profile.

        Returns ``sigma(end) - sigma(end + rest)``, a non-negative quantity
        quantifying the recovery effect (zero for an ideal battery).
        """
        if rest < 0:
            raise BatteryModelError("rest duration must be non-negative")
        end = profile.end_time
        return self.apparent_charge(profile, end) - self.apparent_charge(profile, end + rest)

    def __repr__(self) -> str:
        return f"RakhmatovVrudhulaModel(beta={self.beta:g}, series_terms={self.series_terms})"
