"""Exact running sums for the simulator's live state.

:class:`ExactSum` is a Shewchuk-style exact accumulator (the algorithm
behind :func:`math.fsum`): adding a value keeps the non-overlapping
partials of the exact sum, and :meth:`ExactSum.value` rounds them once.
Because the partials represent the exact (error-free) sum, the rounded
value is **bit-identical** to ``math.fsum`` over the same multiset —
including removals, which add the negated value.  The simulator keeps its
remaining-work bound (the min-times of the unfinished tasks) in one, so a
policy query costs one rounding instead of a pass over every unfinished
task, and answers exactly what that pass would.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = ["ExactSum"]


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
