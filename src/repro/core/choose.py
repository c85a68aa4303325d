"""Design-point selection for a fixed sequence and window (Figure 1/2).

This module implements the inner pair of routines from the paper's
pseudocode:

* ``ChooseDesignPoints`` (:func:`choose_design_points`) walks the sequence
  *backwards* — the last task is pinned to its lowest-power design point
  (using slack late in the schedule is provably better than using it early,
  Section 3) and every earlier task is then assigned the design point with
  the smallest suitability ``B`` among the columns allowed by the current
  window.

* ``CalculateDPF`` (:func:`calculate_dpf`) evaluates one *tagged* candidate:
  starting from the tentative selection it promotes the cheapest free tasks
  (in energy-vector order) to progressively faster design points until the
  deadline is met, then scores how many high-power design points that forced
  (DPF) and what the resulting assignment's current profile and energy look
  like (CIF, ENR).  If the deadline cannot be met even with every free task
  at the window's fastest column, DPF is infinite, which vetoes the tagged
  candidate whenever any feasible alternative exists.

``CalculateDPF`` runs once per (window, position, candidate column), so its
promotion loop is the algorithm's hot path.  The loop (shared with
:func:`promote_until_feasible`) walks ``E`` once with a cursor and keeps a
running makespan updated by each promotion's delta, jumping a whole row in
one step when even the window's fastest column cannot meet the deadline.
The running total is trusted only while it is more than a rounding-drift
tolerance above ``deadline + eps``; closer than that, the exact full sum
decides whether to stop and resyncs the total.  The loop therefore stops
exactly where a full recompute after every promotion would, at a cost of
O(n + promotions) per call instead of O(n) per promotion.  With the
recorder enabled, ``choose_design_points`` reports the counters
``core.dpf.calls`` and ``core.dpf.promotions`` once per call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import AlgorithmError
from ..obs import RECORDER as _OBS
from .factors import (
    FactorValues,
    FactorWeights,
    current_increase_fraction,
    current_ratio,
    energy_ratio,
    slack_ratio,
    windowed_design_point_fraction,
)
from .matrices import SequencedMatrices

__all__ = [
    "DesignPointEvaluation",
    "ChooseResult",
    "calculate_dpf",
    "choose_design_points",
    "promote_until_feasible",
]

_EPS = 1e-9


@dataclass(frozen=True)
class DesignPointEvaluation:
    """Factor breakdown for one (task position, column) candidate."""

    position: int
    column: int
    factors: FactorValues

    @property
    def suitability(self) -> float:
        """The combined ``B`` value of the candidate."""
        return self.factors.suitability


@dataclass(frozen=True)
class ChooseResult:
    """Output of :func:`choose_design_points`."""

    selection: np.ndarray
    evaluations: Tuple[DesignPointEvaluation, ...]
    makespan: float

    def evaluations_for(self, position: int) -> Tuple[DesignPointEvaluation, ...]:
        """All candidate evaluations recorded for one sequence position."""
        return tuple(e for e in self.evaluations if e.position == position)


def calculate_dpf(
    matrices: SequencedMatrices,
    selection: np.ndarray,
    window_start: int,
    tagged_position: int,
    deadline: float,
) -> Tuple[float, float, float, np.ndarray]:
    """The paper's ``CalculateDPF``: returns ``(ENR, CIF, DPF, promoted_selection)``.

    Parameters
    ----------
    matrices:
        Sequence-ordered matrices for the current iteration.
    selection:
        Tentative selection vector: positions after ``tagged_position`` hold
        their fixed columns, ``tagged_position`` holds the tagged candidate
        column, and earlier (free) positions hold the lowest-power column.
        The array is not modified; a promoted copy is returned.
    window_start:
        First (most powerful) column allowed by the current window, 0-based.
    tagged_position:
        Sequence position of the task whose candidate is being evaluated.
    deadline:
        Task-graph deadline ``d``.
    """
    sel = np.array(selection, dtype=int, copy=True)
    total_time, feasible = _promote(
        matrices, sel, window_start, deadline, free_end=tagged_position
    )
    if not feasible:
        dpf = math.inf
    elif tagged_position == 0:
        # The first task in the sequence has no free tasks above it; the
        # paper replaces DPF by the slack ratio to press the remaining
        # slack into use.
        dpf = slack_ratio(total_time, deadline)
    else:
        dpf = windowed_design_point_fraction(
            sel, matrices.m, window_start, range(tagged_position)
        )

    currents = matrices.selection_currents(sel)
    cif = current_increase_fraction(currents)
    enr = energy_ratio(
        matrices.total_energy(sel), matrices.energy_min, matrices.energy_max
    )
    return enr, cif, dpf, sel


def choose_design_points(
    matrices: SequencedMatrices,
    window_start: int,
    deadline: float,
    weights: Optional[FactorWeights] = None,
    record_evaluations: bool = True,
) -> ChooseResult:
    """The paper's ``ChooseDesignPoints`` for one window.

    Walks the sequence from the last task to the first.  The last task is
    fixed at the lowest-power column; every other task is assigned the
    window column minimising the suitability ``B`` (ties are broken in
    favour of the lower-power column, which is the first one examined).

    Parameters
    ----------
    weights:
        Optional per-factor weights; ``None`` reproduces the paper's plain
        sum.  Used by the ablation experiments.
    record_evaluations:
        When true every candidate's factor breakdown is kept in the result
        (useful for the illustrative example and the documentation); turn it
        off in tight benchmarking loops.
    """
    n, m = matrices.n, matrices.m
    if not (0 <= window_start < m):
        raise AlgorithmError(f"window_start {window_start} out of range for m={m}")

    selection = matrices.lowest_power_selection()
    evaluations: List[DesignPointEvaluation] = []
    observed = _OBS.enabled
    dpf_calls = promotions = 0

    # Fix the last task in the sequence to its lowest-power design point.
    fixed_time = float(matrices.durations[n - 1, m - 1])

    for position in range(n - 2, -1, -1):
        best_column = m - 1
        best_b = math.inf
        for column in range(m - 1, window_start - 1, -1):
            trial = selection.copy()
            trial[position] = column
            elapsed = fixed_time + float(matrices.durations[position, column])
            sr = slack_ratio(elapsed, deadline)
            cr = current_ratio(
                float(matrices.currents[position, column]),
                matrices.current_min,
                matrices.current_max,
            )
            enr, cif, dpf, promoted = calculate_dpf(
                matrices, trial, window_start, position, deadline
            )
            if observed:
                # Each promotion moves one task one column down.
                dpf_calls += 1
                promotions += int(trial.sum() - promoted.sum())
            factors = FactorValues(
                slack_ratio=sr,
                current_ratio=cr,
                energy_ratio=enr,
                current_increase_fraction=cif,
                design_point_fraction=dpf,
            )
            b_value = factors.suitability if weights is None else factors.weighted(weights)
            if record_evaluations:
                evaluations.append(
                    DesignPointEvaluation(position=position, column=column, factors=factors)
                )
            if b_value < best_b:
                best_b = b_value
                best_column = column
        selection[position] = best_column
        fixed_time += float(matrices.durations[position, best_column])

    # Zero counts stay unemitted: pool workers ship only non-zero deltas,
    # so serial and parallel snapshots then hold the same keys.
    if observed and dpf_calls:
        _OBS.count("core.dpf.calls", dpf_calls)
    if observed and promotions:
        _OBS.count("core.dpf.promotions", promotions)
    return ChooseResult(
        selection=selection,
        evaluations=tuple(evaluations),
        makespan=matrices.total_time(selection),
    )


def promote_until_feasible(
    matrices: SequencedMatrices,
    selection: np.ndarray,
    window_start: int,
    deadline: float,
) -> np.ndarray:
    """Repair an assignment that misses the deadline by promoting cheap tasks.

    Applies the same promotion rule as :func:`calculate_dpf` — move the
    free task with the smallest average energy one column towards higher
    power, repeatedly — but over *all* tasks, not just the ones before a
    tagged position.  Returns a new selection vector; raises
    :class:`AlgorithmError` when even the window's fastest column for every
    task cannot meet the deadline.

    The paper asserts that every iteration yields a deadline-respecting
    schedule; this helper is the safety net the library applies (when
    enabled in the configuration) for degenerate instances in which forcing
    the last task to its lowest-power design point makes the greedy
    bottom-up pass overshoot the deadline.
    """
    sel = np.array(selection, dtype=int, copy=True)
    _, feasible = _promote(matrices, sel, window_start, deadline, free_end=matrices.n)
    if not feasible:
        raise AlgorithmError(
            f"cannot meet deadline {deadline:g} within window starting at column "
            f"{window_start + 1}"
        )
    return sel


def _promote(
    matrices: SequencedMatrices,
    sel: np.ndarray,
    window_start: int,
    deadline: float,
    free_end: int,
) -> Tuple[float, bool]:
    """The promotion loop shared by :func:`calculate_dpf` and
    :func:`promote_until_feasible`; modifies ``sel`` in place.

    Positions before ``free_end`` are free.  Until the deadline is met, the
    first free position in ``E`` order that is still above ``window_start``
    moves one column towards higher power.  That position stays first until
    it reaches ``window_start``, so a cursor over ``E`` replaces a rescan.

    Returns ``(total_time, feasible)``.  When feasible, ``total_time`` is
    the exact :meth:`SequencedMatrices.total_time` of the final selection.
    """
    limit = deadline + _EPS
    total = matrices.total_time(sel)
    if total <= limit:
        return total, True

    # ``running`` tracks the makespan by each promotion's delta.  Durations
    # are positive and promotions only shrink the sum, so every rounded
    # value stays below ``scale``; the full sum and at most n*m rounded
    # deltas and updates drift from it by less than ``tol``.  A running
    # total above ``trusted`` therefore proves the exact sum misses the
    # deadline; at or below it the exact sum decides and resyncs.
    scale = max(total, limit)
    tol = 2.0 * (matrices.n * matrices.m + 1) * sys.float_info.epsilon * scale
    trusted = limit + tol
    rows = matrices.duration_rows
    running = total
    for pos in matrices.energy_vector:
        column = int(sel[pos])
        if pos >= free_end or column <= window_start:
            continue
        row = rows[pos]
        fastest = running - (row[column] - row[window_start])
        if fastest > trusted:
            # Rows of D ascend, so no intermediate column can meet the
            # deadline either: take the whole row in one step.
            running = fastest
            sel[pos] = window_start
            continue
        while column > window_start:
            running -= row[column] - row[column - 1]
            column -= 1
            if running <= trusted:
                sel[pos] = column
                running = matrices.total_time(sel)
                if running <= limit:
                    return running, True
        sel[pos] = column
    return running, False
