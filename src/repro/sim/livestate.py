"""Incremental live-state accounting for the runtime simulator.

The scheduling policies query three quantities between attempts —
``remaining_min_time``, ``delivered_charge`` and ``apparent_charge`` — and
the original :class:`~repro.sim.Simulator` recomputed each one from scratch
per query: full ``fsum`` passes over every unfinished task or executed
interval, and a full chemistry-kernel evaluation of the entire timeline for
every sigma request.  That made live-state queries O(timeline) and the
state-querying policies several times slower than static replay.

This module replaces the recomputation with *exact* running state:

* :class:`ExactSum` — a Shewchuk-style exact accumulator (the algorithm
  behind :func:`math.fsum`): adding a value keeps the non-overlapping
  partials of the exact sum, and :meth:`ExactSum.value` rounds them once.
  Because the partials represent the exact (error-free) sum, the rounded
  value is **bit-identical** to ``math.fsum`` over the same multiset —
  including removals, which add the negated value.  Sums the simulator used
  to recompute per query become O(1) amortised updates per event.
* :class:`LiveRuntimeState` — the simulator's running totals:
  ``remaining_min_time`` (min-times of unfinished tasks), ``delivered``
  (plain coulomb count) and the live sigma.  For **time-insensitive**
  chemistries (``TIME_SENSITIVE`` is ``False`` — Peukert, ideal) each
  interval's contribution is independent of when it runs, so sigma is an
  exact running total too, updated once per executed interval; live queries
  are O(1) and the chemistry kernel is never re-run.  For time-sensitive
  chemistries (Rakhmatov–Vrudhula, KiBaM) sigma genuinely changes with the
  evaluation time, so each query runs the vectorized schedule kernel over
  the executed timeline (the built-in policies ask at most once per
  decision).

The columnar :class:`~repro.sim.BatchSimulator` answers the same three
queries for all lanes of a cell at once (one ``fsum`` per lane over the
same per-interval values), bit-identical to this class; the scalar
:class:`~repro.sim.Simulator`, which its ineligible cells fall back to,
uses this class directly.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ExactSum", "LiveRuntimeState"]


class ExactSum:
    """Error-free running sum with :func:`math.fsum`-identical rounding.

    Maintains Shewchuk non-overlapping partials (the same invariant
    ``math.fsum`` maintains internally), so :meth:`value` returns the
    correctly-rounded exact sum of everything added so far — bit-identical
    to ``math.fsum`` over the same values in any order.  Removing a value
    is adding its negation: the partials stay exact, so the identity keeps
    holding for running *differences* too (the simulator's shrinking
    remaining-min-time total).
    """

    __slots__ = ("_partials",)

    def __init__(self, values: Sequence[float] = ()) -> None:
        self._partials: List[float] = []
        for value in values:
            self.add(value)

    @classmethod
    def from_partials(cls, partials: Sequence[float]) -> "ExactSum":
        """Rebuild from a previously computed partials list (copied).

        Lets call sites that repeatedly start from the same initial multiset
        (every replication's remaining-min-time total starts from the same
        per-graph values) pay the accumulation once and clone the exact
        state afterwards.
        """
        sum_ = cls()
        sum_._partials = list(partials)
        return sum_

    @property
    def partials(self) -> Tuple[float, ...]:
        """The current non-overlapping partials (for :meth:`from_partials`)."""
        return tuple(self._partials)

    def add(self, value: float) -> None:
        """Fold one float into the exact partials (amortised O(1))."""
        partials = self._partials
        x = float(value)
        count = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            high = x + y
            low = y - (high - x)
            if low != 0.0:
                partials[count] = low
                count += 1
            x = high
        partials[count:] = [x]

    def value(self) -> float:
        """The correctly-rounded sum (bit-identical to ``math.fsum``)."""
        return math.fsum(self._partials)

    def __repr__(self) -> str:
        return f"ExactSum({self.value()!r}, partials={len(self._partials)})"


class LiveRuntimeState:
    """Running live-state totals of one simulated timeline.

    One instance per replication; the owning loop feeds it every executed
    interval (:meth:`record_interval`) and every successful completion
    (:meth:`finish_task`), and serves policy queries from the running
    state.  All values are bit-identical to the full recomputations they
    replace (see the module docstring for why).
    """

    __slots__ = (
        "_model",
        "_time_sensitive",
        "_min_times",
        "_remaining",
        "_pending_remaining",
        "_delivered",
        "_pending_charge",
        "_sigma",
        "_pending_durations",
        "_pending_currents",
    )

    def __init__(
        self,
        model,
        min_times: Mapping[str, float],
        remaining_partials: Optional[Sequence[float]] = None,
    ) -> None:
        self._model = model
        self._time_sensitive = model.TIME_SENSITIVE
        self._min_times = dict(min_times)
        #: ``remaining_partials`` (when given) must be the exact partials of
        #: summing ``min_times.values()`` — the per-graph tables precompute
        #: them once so replications clone instead of re-accumulating.
        self._remaining = (
            ExactSum.from_partials(remaining_partials)
            if remaining_partials is not None
            else ExactSum(self._min_times.values())
        )
        self._delivered = ExactSum()
        #: Exact running sigma (time-insensitive chemistries only).
        self._sigma: Optional[ExactSum] = None if self._time_sensitive else ExactSum()
        #: Updates queued since the last matching query.  Every accumulator
        #: folds lazily — deferral never changes the values (the adds happen
        #: in the same order, just later), and a run that never asks a given
        #: question (static replay asks none) never pays for its accounting.
        self._pending_remaining: List[float] = []
        self._pending_charge: List[float] = []
        self._pending_durations: List[float] = []
        self._pending_currents: List[float] = []

    # ------------------------------------------------------------------
    # updates (called by the event loop)
    # ------------------------------------------------------------------
    def record_interval(self, duration: float, current: float) -> None:
        """Account one executed attempt (successful or failed)."""
        self._pending_charge.append(duration * current)
        if self._sigma is not None:
            self._pending_durations.append(duration)
            self._pending_currents.append(current)

    def _flush_pending(self) -> None:
        """Fold queued intervals into the running sigma (one kernel call).

        Contributions are evaluated through the same elementwise kernel as
        the array paths (time-to-end zero — time-insensitive kernels ignore
        it), so the running total accumulates the exact per-interval values
        a full timeline evaluation would reduce.
        """
        if not self._pending_durations:
            return
        contributions = self._model._contributions(
            np.asarray(self._pending_durations),
            np.asarray(self._pending_currents),
            np.zeros(len(self._pending_durations)),
        )
        sigma = self._sigma
        for contribution in contributions.tolist():
            sigma.add(contribution)
        self._pending_durations.clear()
        self._pending_currents.clear()

    def finish_task(self, name: str) -> None:
        """Remove a completed task from the remaining-min-time bound."""
        self._pending_remaining.append(-self._min_times[name])

    # ------------------------------------------------------------------
    # queries (called by scheduling policies)
    # ------------------------------------------------------------------
    def remaining_min_time(self) -> float:
        """Sum of unfinished tasks' fastest design-point times."""
        pending = self._pending_remaining
        if pending:
            remaining = self._remaining
            for value in pending:
                remaining.add(value)
            pending.clear()
        return self._remaining.value()

    def delivered_charge(self) -> float:
        """Plain coulomb count of everything executed so far."""
        pending = self._pending_charge
        if pending:
            delivered = self._delivered
            for value in pending:
                delivered.add(value)
            pending.clear()
        return self._delivered.value()

    def apparent_charge(
        self, durations: Sequence[float], currents: Sequence[float]
    ) -> float:
        """Live sigma of the executed back-to-back timeline at its end.

        ``durations``/``currents`` are the realised arrays the owning loop
        maintains anyway; time-insensitive chemistries answer from the
        running total without touching them, time-sensitive ones evaluate
        the vectorized schedule kernel.
        """
        if self._sigma is not None:
            self._flush_pending()
            return self._sigma.value()
        if not durations:
            return 0.0
        return self._model.schedule_charge(durations, currents, 0.0)
