"""Shared vectorized schedule-evaluation kernel for all battery chemistries.

The scheduling stack (:mod:`repro.scheduling.evaluator`) costs candidates as
gap-free back-to-back schedules: ``durations[k]`` at ``currents[k]``
consecutively from time zero, with sigma evaluated ``rest`` time units after
the makespan.  Every chemistry in the library expresses that cost the same
way — as a sum of **per-interval contributions parametrised by time-to-end**
(the time between the interval's end and the evaluation point)::

    sigma = fsum_k  contribution(duration_k, current_k, time_to_end_k)

Because an interval's time-to-end depends only on what runs *after* it, a
contribution is unchanged by any edit at or before its position — the
invariant the incremental evaluator exploits to re-cost single-move
neighbours without touching unaffected intervals, for any chemistry.

:class:`ScheduleKernelMixin` — the base of every
:class:`~repro.battery.BatteryModel` — turns one abstract, model-specific
method (:meth:`~ScheduleKernelMixin.interval_contributions`) into the
complete canonical schedule API:

* :meth:`~ScheduleKernelMixin.schedule_contributions` /
  :meth:`~ScheduleKernelMixin.schedule_charge` — one schedule, exact
  (``math.fsum``) reduction;
* :meth:`~ScheduleKernelMixin.schedule_charge_batch` — many equal-length
  schedules in one vectorized computation, bit-identical to evaluating each
  row individually; and
* :meth:`~ScheduleKernelMixin.contribution_floor` — the per-interval lower
  bound that makes branch-and-bound pruning (the exhaustive baseline's DFS)
  valid for the chemistry.

One class attribute describes the chemistry to the evaluator stack,
``TIME_SENSITIVE``: whether contributions actually depend on time-to-end.
The diffusion-style chemistries (Rakhmatov–Vrudhula, KiBaM) are sensitive:
a move changes the time-to-end — and hence the contribution — of every
interval before it.  Per-interval energy laws (Peukert, ideal) are not: the
incremental evaluator then reuses contributions on *both* sides of a move
and re-costs only the changed segment.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence, Union

import numpy as np

from ..errors import BatteryModelError

__all__ = ["ScheduleKernelMixin", "suffix_durations"]


def suffix_durations(durations: "np.ndarray") -> "np.ndarray":
    """Suffix sums ``tail[k] = sum(durations[k+1:])``, accumulated back-to-front.

    ``tail[k]`` is interval ``k``'s time-to-end when sigma is evaluated at
    the makespan of a back-to-back schedule.  The accumulation order (last
    interval first, one addition per step) is part of the scheduling stack's
    bit-level contract: the incremental evaluator re-extends exactly this
    chain when it recomputes the prefix affected by a move, which keeps
    partial updates bit-identical to a full re-evaluation.
    """
    durations = np.asarray(durations, dtype=float)
    n = durations.shape[0]
    if n == 0:
        return np.zeros(0)
    reverse = np.cumsum(durations[::-1])
    return np.concatenate((reverse[::-1][1:], [0.0]))


class ScheduleKernelMixin(abc.ABC):
    """Canonical schedule-evaluation API derived from ``interval_contributions``.

    :class:`~repro.battery.BatteryModel` derives from this class, so a
    chemistry subclasses ``BatteryModel`` alone.  The one abstract method
    here is :meth:`interval_contributions`; it must be a pure elementwise
    kernel (same-shape array in, array out) so that the single-schedule and
    batch paths reduce the exact same per-interval values.  A model without
    it cannot be instantiated.
    """

    #: Whether per-interval contributions depend on the time-to-end argument.
    #: ``False`` lets the incremental evaluator reuse contributions on both
    #: sides of a move and ignore evaluation-point (rest) changes.
    TIME_SENSITIVE: bool = True

    def _contributions(
        self,
        durations: "np.ndarray",
        currents: "np.ndarray",
        time_to_end: "np.ndarray",
    ) -> "np.ndarray":
        """The elementwise kernel every derived schedule path reduces."""
        return self.interval_contributions(durations, currents, time_to_end)

    @abc.abstractmethod
    def interval_contributions(
        self,
        durations: "np.ndarray",
        currents: "np.ndarray",
        time_to_end: "np.ndarray",
    ) -> "np.ndarray":
        """Per-interval sigma contributions, parametrised by time-to-end.

        ``time_to_end[k]`` is the time between interval ``k``'s end and the
        evaluation time (>= 0: every interval has completed).  Implemented by
        each chemistry; must be elementwise (no cross-interval coupling).
        """

    def contribution_floor(
        self, durations: "np.ndarray", currents: "np.ndarray"
    ) -> "np.ndarray":
        """Per-interval lower bound on the contribution over all time-to-ends.

        Branch-and-bound searches (the exhaustive baseline) prune with
        ``prefix sigma + sum of remaining floors``; the bound is valid
        because no placement can push an interval's contribution below its
        floor.  Time-insensitive chemistries get the exact contribution for
        free.  Time-sensitive ones default to zeros — valid for non-negative
        currents, whose contributions are non-negative — and override with a
        tighter bound to prune harder.
        """
        durations = np.asarray(durations, dtype=float)
        if self.TIME_SENSITIVE:
            return np.zeros(durations.shape)
        return self.interval_contributions(
            durations, currents, np.zeros(durations.shape)
        )

    # ------------------------------------------------------------------
    # derived canonical schedule API
    # ------------------------------------------------------------------
    def schedule_contributions(
        self,
        durations: Sequence[float],
        currents: Sequence[float],
        rest: float = 0.0,
    ) -> "np.ndarray":
        """Per-interval contributions of a back-to-back schedule.

        The schedule runs ``durations[k]`` at ``currents[k]`` consecutively
        from time zero and sigma is evaluated ``rest`` time units after the
        makespan (``rest > 0`` credits post-completion recovery, for
        chemistries that have any).
        """
        if rest < 0:
            raise BatteryModelError(f"rest must be >= 0, got {rest!r}")
        durations = np.asarray(durations, dtype=float)
        currents = np.asarray(currents, dtype=float)
        if durations.shape != currents.shape:
            raise BatteryModelError("durations and currents must have the same shape")
        tail = suffix_durations(durations)
        return self._contributions(durations, currents, tail + rest)

    def schedule_charge(
        self,
        durations: Sequence[float],
        currents: Sequence[float],
        rest: float = 0.0,
    ) -> float:
        """sigma of a back-to-back schedule, evaluated ``rest`` after the makespan.

        This is the canonical cost of the scheduling stack: exact (fsum)
        reduction of :meth:`schedule_contributions`, so full, incremental and
        batch evaluation of the same schedule return bit-identical values.
        """
        return float(math.fsum(self.schedule_contributions(durations, currents, rest)))

    def schedule_charge_batch(
        self,
        durations: Sequence[Sequence[float]],
        currents: Sequence[Sequence[float]],
        rest: Union[float, Sequence[float]] = 0.0,
    ) -> "np.ndarray":
        """sigma of many equal-length back-to-back schedules at once.

        ``durations`` / ``currents`` are (profiles x intervals) arrays; the
        result is one sigma per profile, bit-identical to calling
        :meth:`schedule_charge` per row: the per-row suffix sums accumulate
        back-to-front exactly like the 1-D chain, and the elementwise kernel
        sees the same values whatever the array shape.

        ``rest`` may be a scalar (shared by every profile) or a length-
        ``profiles`` vector giving each row its own post-completion rest —
        the batch simulator's final costing evaluates many realised
        timelines whose makespans (and hence deadline-clamped rests)
        differ.  ``tail + rest[row]`` is the same scalar addition the 1-D
        path performs, so per-row rests keep the bit-identity guarantee.
        """
        durations = np.asarray(durations, dtype=float)
        currents = np.asarray(currents, dtype=float)
        if durations.ndim != 2 or durations.shape != currents.shape:
            raise BatteryModelError(
                "durations and currents must be 2-D arrays of identical shape"
            )
        rest_arr = np.asarray(rest, dtype=float)
        if rest_arr.ndim == 0:
            offset = rest_arr[()]
        elif rest_arr.shape == (durations.shape[0],):
            offset = rest_arr[:, None]
        else:
            raise BatteryModelError(
                "rest must be a scalar or a vector with one entry per profile"
            )
        if np.any(rest_arr < 0):
            raise BatteryModelError(f"rest must be >= 0, got {rest!r}")
        if durations.shape[1] == 0:
            return np.zeros(durations.shape[0])
        reverse = np.cumsum(durations[:, ::-1], axis=1)
        tail = np.concatenate(
            (reverse[:, ::-1][:, 1:], np.zeros((durations.shape[0], 1))), axis=1
        )
        contributions = self._contributions(
            durations.ravel(), currents.ravel(), (tail + offset).ravel()
        ).reshape(durations.shape)
        # fsum over plain floats (tolist) — bit-identical, and much faster
        # than iterating the boxed numpy elements row by row.
        return np.array([math.fsum(row) for row in contributions.tolist()])
