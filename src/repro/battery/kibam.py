"""Kinetic Battery Model (KiBaM).

The KiBaM of Manwell and McGowan splits the battery charge into an
*available* well (fraction ``c`` of the capacity) that feeds the load
directly and a *bound* well that replenishes the available well at a rate
proportional to the height difference between the two.  It captures the same
two non-idealities as the Rakhmatov–Vrudhula diffusion model — rate-capacity
and recovery — with different mathematics, and the two are known to agree
closely for realistic loads, which makes KiBaM a useful cross-check on the
cost function the scheduler optimises.

To fit the library's :class:`~repro.battery.BatteryModel` interface the
model is expressed through its *apparent charge*: with ``delta(t)`` the
height difference between the bound and available wells,

    sigma_KiBaM(t) = charge delivered by t  +  (1 - c) * delta(t)

The second term is the charge temporarily stranded in the bound well; it
grows while current flows (rate-capacity effect) and decays exponentially
during rest (recovery effect), and the battery is empty exactly when
``sigma_KiBaM`` reaches the capacity — the same convention as Equation 1 of
the paper.  ``delta`` obeys a linear first-order ODE with a closed-form
solution per constant-current interval, so no numerical integration is
needed.

Vectorized schedule kernel (superposition)
------------------------------------------
At first sight the two-well state forces *sequential* evaluation: ``delta``
at interval ``k`` depends on the whole prefix, so an incremental evaluator
would seem to need per-position state checkpoints and a suffix recompute per
move — the opposite of the Rakhmatov–Vrudhula model's suffix-reusing prefix
recompute.  But the ODE ``delta' = I(t)/c - k' delta`` is *linear* with
``delta(0) = 0``, so its solution superposes over the load's intervals::

    delta(T) = sum_k  I_k / (c k') * ( e^{-k' tte_k} - e^{-k' (tte_k + Delta_k)} )

where ``tte_k = T - t_k - Delta_k`` is interval ``k``'s **time-to-end**.
Substituting into sigma gives an exact per-interval decomposition::

    sigma(T) = sum_k  I_k Delta_k
             + (1-c)/(c k') * I_k * ( e^{-k' tte_k} - e^{-k' (tte_k + Delta_k)} )

— structurally the Rakhmatov–Vrudhula bracket with a single exponential
mode.  KiBaM therefore plugs into the chemistry-generic
:class:`~repro.battery.kernels.ScheduleKernelMixin` exactly like the
diffusion model: contributions depend only on ``(Delta_k, I_k, tte_k)``,
moves invalidate only the prefix whose time-to-ends changed, and no state
checkpoints are needed.  The sequential closed-form pass
(:meth:`KineticBatteryModel.apparent_charge`, which also handles idle gaps
and mid-interval truncation) is retained as the conformance reference for
the superposed kernel; the two agree to floating-point roundoff (the
conformance suite pins <= 1e-9).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import BatteryModelError
from .base import BatteryModel
from .profile import LoadProfile

__all__ = ["KineticBatteryModel"]


class KineticBatteryModel(BatteryModel):
    """Two-well kinetic battery model with closed-form per-interval updates.

    Parameters
    ----------
    c:
        Fraction of the capacity held in the available well (0 < c < 1).
        Typical lead-acid and Li-ion fits land between 0.2 and 0.7.
    k:
        Rate constant (1/time unit) governing how quickly charge flows from
        the bound to the available well.  Larger values mean a battery that
        recovers faster and suffers less from high discharge rates.
    """

    def __init__(self, c: float = 0.625, k: float = 0.05) -> None:
        if not (0.0 < c < 1.0):
            raise BatteryModelError(f"c must be strictly between 0 and 1, got {c!r}")
        if k <= 0 or not math.isfinite(k):
            raise BatteryModelError(f"k must be finite and > 0, got {k!r}")
        self.c = float(c)
        self.k = float(k)
        # delta' = I / c - k_prime * delta   with
        self._k_prime = k * (1.0 / c + 1.0 / (1.0 - c))
        # Folded constants of the superposed kernel (hot path).
        self._neg_k_prime = -self._k_prime
        self._stranded_scale = (1.0 - self.c) / (self.c * self._k_prime)

    # ------------------------------------------------------------------
    def apparent_charge(self, profile: LoadProfile, at_time: Optional[float] = None) -> float:
        """Delivered charge plus the charge stranded in the bound well at ``at_time``.

        Sequential closed-form integration of the well dynamics — the
        retained reference implementation the vectorized schedule kernel is
        gated against.
        """
        if at_time is None:
            at_time = profile.end_time
        if at_time < 0:
            raise BatteryModelError(f"evaluation time must be >= 0, got {at_time!r}")
        delivered, delta = self._advance(profile, at_time)
        return delivered + (1.0 - self.c) * delta

    # ------------------------------------------------------------------
    # canonical schedule kernel (superposed closed form)
    # ------------------------------------------------------------------
    def interval_contributions(
        self,
        durations: np.ndarray,
        currents: np.ndarray,
        time_to_end: np.ndarray,
    ) -> np.ndarray:
        """Per-interval sigma contributions, parametrised by time-to-end.

        The superposition decomposition from the module docstring: delivered
        charge ``I_k Delta_k`` plus the stranded-charge mode
        ``(1-c)/(c k') I_k (e^{-k' tte} - e^{-k' (tte + Delta)})``, which is
        >= 0 and decays towards zero as the interval recedes into the past
        (the recovery effect).
        """
        durations = np.asarray(durations, dtype=float)
        currents = np.asarray(currents, dtype=float)
        time_to_end = np.asarray(time_to_end, dtype=float)
        decay_since_end = np.exp(self._neg_k_prime * time_to_end)
        decay_since_start = np.exp(self._neg_k_prime * (time_to_end + durations))
        stranded = (self._stranded_scale * currents) * (
            decay_since_end - decay_since_start
        )
        return currents * durations + stranded

    def contribution_floor(
        self, durations: np.ndarray, currents: np.ndarray
    ) -> np.ndarray:
        """Nominal charge ``I * Delta`` per interval.

        A valid pruning floor: the stranded-charge mode is non-negative for
        every time-to-end, so a contribution never drops below the plain
        coulomb count.
        """
        return np.asarray(currents, dtype=float) * np.asarray(durations, dtype=float)

    def unavailable_charge(self, profile: LoadProfile, at_time: Optional[float] = None) -> float:
        """Only the stranded (recoverable) part of the apparent charge."""
        if at_time is None:
            at_time = profile.end_time
        _, delta = self._advance(profile, at_time)
        return (1.0 - self.c) * delta

    # ------------------------------------------------------------------
    def _advance(self, profile: LoadProfile, at_time: float):
        """Integrate the well dynamics up to ``at_time``.

        Returns ``(delivered_charge, delta)``.  Piecewise-constant loads have
        the closed-form solution
        ``delta(t0 + dt) = delta(t0) e^{-k' dt} + I/(c k') (1 - e^{-k' dt})``.
        """
        delivered = 0.0
        delta = 0.0
        clock = 0.0
        for interval in profile:
            if at_time <= clock:
                break
            # idle gap before this interval
            gap = min(interval.start, at_time) - clock
            if gap > 0:
                delta = self._step(delta, 0.0, gap)
                clock += gap
            if at_time <= interval.start:
                break
            run = min(interval.duration, at_time - interval.start)
            if run > 0:
                delta = self._step(delta, interval.current, run)
                delivered += interval.current * run
                clock = interval.start + run
        if at_time > clock:
            delta = self._step(delta, 0.0, at_time - clock)
        return delivered, delta

    def _step(self, delta: float, current: float, duration: float) -> float:
        decay = math.exp(-self._k_prime * duration)
        steady_state = current / (self.c * self._k_prime)
        return delta * decay + steady_state * (1.0 - decay)

    def __repr__(self) -> str:
        return f"KineticBatteryModel(c={self.c:g}, k={self.k:g})"
