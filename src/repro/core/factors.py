"""The five suitability factors and their combination (Section 4).

The suitability ``B`` of assigning a particular design point to the task
currently under consideration is the sum of five dimensionless factors, each
of which the paper wants to be *small*:

* **SR** (slack ratio) — fraction of the deadline still unused by the tasks
  fixed so far plus the tagged one; small SR means the slack is being spent.
* **CR** (current ratio) — the design point's current normalised over the
  global current range; small CR favours low-current design points.
* **ENR** (energy ratio) — total energy of the tentative assignment
  normalised between the all-minimum and all-maximum energies.
* **CIF** (current increase fraction) — fraction of adjacent positions in
  the sequence whose current increases; the battery model rewards
  non-increasing discharge profiles, so small CIF is better.
* **DPF** (design-point fraction) — penalises how many high-power design
  points the *free* (not yet decided) tasks would be forced into in order to
  still meet the deadline; infinite when the deadline cannot be met at all.

This module implements each factor as a standalone, documented function so
that they can be tested and ablated independently; the in-algorithm
composition lives in :mod:`repro.core.choose`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "FactorValues",
    "FactorWeights",
    "slack_ratio",
    "current_ratio",
    "energy_ratio",
    "current_increase_fraction",
    "design_point_fraction",
    "windowed_design_point_fraction",
    "suitability",
]


@dataclass(frozen=True)
class FactorValues:
    """The five factor values for one candidate design point, plus their sum."""

    slack_ratio: float
    current_ratio: float
    energy_ratio: float
    current_increase_fraction: float
    design_point_fraction: float

    @property
    def suitability(self) -> float:
        """The paper's ``B = SR + CR + ENR + CIF + DPF`` (lower is better)."""
        return suitability(*self._values())

    def weighted(self, weights: "FactorWeights") -> float:
        """Weighted combination used by the ablation experiments."""
        return suitability(*self._values(), weights=weights)

    def _values(self) -> Tuple[float, float, float, float, float]:
        return (
            self.slack_ratio,
            self.current_ratio,
            self.energy_ratio,
            self.current_increase_fraction,
            self.design_point_fraction,
        )


@dataclass(frozen=True)
class FactorWeights:
    """Per-factor multipliers (all 1.0 reproduces the paper's ``B``).

    The ablation experiment (:mod:`repro.experiments.ablation`, the
    ``ablation`` CLI command) zeroes one weight at a time to measure how
    much each factor contributes to solution quality.
    """

    slack_ratio: float = 1.0
    current_ratio: float = 1.0
    energy_ratio: float = 1.0
    current_increase_fraction: float = 1.0
    design_point_fraction: float = 1.0

    @classmethod
    def paper(cls) -> "FactorWeights":
        """The unweighted sum used in the paper."""
        return cls()

    @classmethod
    def without(cls, factor: str) -> "FactorWeights":
        """All-ones weights with one named factor disabled."""
        valid = {
            "slack_ratio",
            "current_ratio",
            "energy_ratio",
            "current_increase_fraction",
            "design_point_fraction",
        }
        if factor not in valid:
            raise ConfigurationError(f"unknown factor {factor!r}; choose from {sorted(valid)}")
        return cls(**{factor: 0.0})


# ---------------------------------------------------------------------------
# individual factors
# ---------------------------------------------------------------------------

def slack_ratio(elapsed_time: float, deadline: float) -> float:
    """``SR = (d - t) / d`` — the fraction of the deadline left unused.

    ``elapsed_time`` is the execution time accounted for so far (fixed tasks
    plus the tagged candidate).  The value may be negative when the deadline
    is already exceeded, which correctly makes such candidates look *better*
    on this factor alone — the DPF factor is responsible for rejecting
    genuinely infeasible choices.
    """
    if deadline <= 0:
        raise ConfigurationError(f"deadline must be > 0, got {deadline!r}")
    return (deadline - elapsed_time) / deadline


def current_ratio(current: float, current_min: float, current_max: float) -> float:
    """``CR = (I - I_min) / (I_max - I_min)``, normalised to [0, 1].

    ``current_min`` / ``current_max`` are the global extremes over every
    design point of every task.  When all currents are identical the ratio is
    defined as 0 (the factor then carries no information).
    """
    spread = current_max - current_min
    if spread <= 0:
        return 0.0
    return (current - current_min) / spread


def energy_ratio(total_energy: float, energy_min: float, energy_max: float) -> float:
    """``ENR = (En - E_min) / (E_max - E_min)``, normalised to [0, 1].

    ``E_min`` / ``E_max`` are the sequence energies with every task at its
    cheapest / most expensive design point.  Degenerates to 0 when the two
    bounds coincide.
    """
    spread = energy_max - energy_min
    if spread <= 0:
        return 0.0
    return (total_energy - energy_min) / spread


def current_increase_fraction(currents: Sequence[float]) -> float:
    """Fraction of adjacent pairs whose current increases (``CIF``).

    A non-increasing discharge profile is optimal for the battery model when
    dependencies are ignored (Section 3), so the factor penalises sequences /
    assignments that create rising current steps.  Sequences with fewer than
    two tasks have no transitions and score 0.
    """
    values = currents if isinstance(currents, np.ndarray) else np.array(list(currents))
    if len(values) < 2:
        return 0.0
    return int(np.count_nonzero(values[:-1] < values[1:])) / (len(values) - 1)


def design_point_fraction(
    selection: Sequence[int],
    num_design_points: int,
    free_positions: Iterable[int],
) -> float:
    """Equation 2/3: penalty for free tasks pushed onto high-power design points.

    ``DPF = sum_k (m - k) * f * F_k`` with ``f = 1/(m-1)`` and
    ``F_k`` the fraction of *free* tasks assigned to column ``k``
    (``k`` is 1-based in the paper; ``selection`` uses 0-based columns here).
    The most power-hungry column is penalised with weight 1, the least
    power-hungry one with weight 0.

    Matches the paper's Figure 4 worked example: with ``m = 4`` and free
    tasks T1 (column 2, i.e. DP2) and T2 (DP4), DPF = 1/3.
    """
    free = list(free_positions)
    if num_design_points < 2:
        return 0.0
    if not free:
        return 0.0
    f = 1.0 / (num_design_points - 1)
    total = 0.0
    for k in range(num_design_points):  # 0-based column
        occupancy = sum(1 for position in free if selection[position] == k)
        fraction = occupancy / len(free)
        weight = (num_design_points - 1 - k) * f
        total += weight * fraction
    return total


def windowed_design_point_fraction(
    selection: Sequence[int],
    num_design_points: int,
    window_start: int,
    free_positions: Iterable[int],
) -> float:
    """The Figure 2 pseudocode's window-relative DPF.

    Only the columns inside the window ``[window_start, m-1]`` can hold
    tasks; the penalty weight decreases linearly from 1 for the window's
    most powerful column to ``1/(m - window_start - 1)`` for its second-least
    powerful column, and 0 for the least powerful column.  With
    ``window_start = 0`` this coincides with :func:`design_point_fraction`.
    """
    free = np.fromiter(free_positions, dtype=np.intp)
    if not len(free):
        return 0.0
    occupancy = np.bincount(np.asarray(selection)[free], minlength=num_design_points)
    weights = _dpf_weights(num_design_points, np.array([window_start]))
    return float(_windowed_dpf(occupancy[None, :num_design_points], weights, len(free))[0])


def _dpf_weights(num_design_points: int, window_start: np.ndarray) -> np.ndarray:
    """Per window start, column ``window_start + k`` weighs ``(steps - k) / steps``
    (``steps = m - window_start - 1`` penalised columns) and others weigh 0."""
    steps = num_design_points - window_start[:, None] - 1
    offsets = np.arange(num_design_points) - window_start[:, None]
    return np.where(
        (offsets >= 0) & (offsets < steps), (steps - offsets) * (1.0 / np.maximum(steps, 1)), 0.0
    )


def _windowed_dpf(occupancy: np.ndarray, weights: np.ndarray, free_count: int) -> np.ndarray:
    """:func:`windowed_design_point_fraction` of many lanes from column counts.

    ``occupancy[lane, k]`` counts the lane's ``free_count`` free tasks on
    column ``k``.  The batched DPF in :mod:`repro.core.choose` calls this
    directly, so both paths share one float expression, summed in column
    order.
    """
    return (weights * occupancy / free_count).cumsum(axis=1)[:, -1]


def suitability(
    slack: float,
    current: float,
    energy: float,
    cif: float,
    dpf: float,
    weights: Optional[FactorWeights] = None,
) -> float:
    """Combine the five factors into the suitability ``B`` (lower is better).

    The one definition of ``B``: :attr:`FactorValues.suitability` and
    :meth:`FactorValues.weighted` delegate here, and the design-point chooser
    calls it directly so the hot loop builds no :class:`FactorValues`.
    """
    if weights is None:
        return slack + current + energy + cif + dpf
    return (
        weights.slack_ratio * slack
        + weights.current_ratio * current
        + weights.energy_ratio * energy
        + weights.current_increase_fraction * cif
        + weights.design_point_fraction * dpf
    )
