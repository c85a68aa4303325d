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

``CalculateDPF`` runs once per (window, position, candidate column), so it
is the algorithm's hot path.  Every candidate at one position starts from
the same state — the free tasks before the position sit at the lowest-power
column — and is promoted in the same ``E`` order, so all candidates walk
one shared *promotion path* and differ only in how far along it they go.
:func:`choose_design_points` therefore builds the path once per (window,
position) and scores all candidate columns of the position in one batch:

* The path lists the free rows in ``E`` order with Python-float prefix sums
  of their whole-row gains ``D[row, start] - D[row, window_start]``.  A
  candidate's stopping point is found by ``bisect`` on the prefix sums and a
  scan of at most ``m`` columns of the one partially promoted row.
* The approximate totals (the candidate's exact starting makespan minus the
  path gain) are trusted only while they lie more than a rounding-drift
  tolerance away from ``deadline + eps``.  Within the tolerance, the exact
  :meth:`SequencedMatrices.total_time` of each materialised state decides,
  stepping along the path.  A fixed-order float sum never increases when
  one addend decreases, so the exact totals are monotone along the path and
  the first step at or below the limit is, bit for bit, where recomputing
  the full makespan after every one-column promotion would stop.
* The k promoted selections form one ``(k, n)`` array: one gather and row
  sum give every candidate's total energy (ENR), one gather and row count
  every rising current pair (CIF), and DPF follows from the exact column
  occupancies of the free rows.

:func:`calculate_dpf` and :func:`promote_until_feasible` run the same
helpers with a single lane.  With the recorder enabled,
``choose_design_points`` reports the counters ``core.dpf.calls`` (candidates
scored) and ``core.dpf.promotions`` once per call.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import AlgorithmError
from ..obs import RECORDER as _OBS
from .factors import (
    FactorValues,
    FactorWeights,
    _windowed_dpf,
    current_ratio,
    energy_ratio,
    slack_ratio,
    suitability,
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
    trials = np.array(selection, dtype=int, ndmin=2)
    promoted, totals, feasible = _promote(
        matrices, trials, window_start, deadline, free_end=tagged_position
    )
    ((enr, cif, dpf),) = _score(
        matrices, promoted, totals, feasible, window_start, tagged_position, deadline
    )
    return enr, cif, dpf, promoted[0]


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
    durations = matrices.duration_rows
    # Candidates from the lowest-power column up: one lane each.
    columns = list(range(m - 1, window_start - 1, -1))
    trials = np.empty((len(columns), n), dtype=int)

    # Fix the last task in the sequence to its lowest-power design point.
    fixed_time = durations[n - 1][m - 1]

    for position in range(n - 2, -1, -1):
        trials[:] = selection
        trials[:, position] = columns
        promoted, totals, feasible = _promote(
            matrices, trials, window_start, deadline, free_end=position
        )
        if record_evaluations or any(feasible):
            scores = _score(
                matrices, promoted, totals, feasible, window_start, position, deadline
            )
        else:
            # Every candidate misses the deadline, so each B is infinite or
            # NaN whatever its ENR and CIF are: skip computing them.
            scores = [(0.0, 0.0, math.inf)] * len(columns)
        if observed:
            # Each promotion moves one task one column down.
            dpf_calls += len(columns)
            promotions += int(trials.sum() - promoted.sum())
        currents = matrices.currents[position].tolist()
        best_column = m - 1
        best_b = math.inf
        for column, (enr, cif, dpf) in zip(columns, scores):
            sr = slack_ratio(fixed_time + durations[position][column], deadline)
            cr = current_ratio(currents[column], matrices.current_min, matrices.current_max)
            b_value = suitability(sr, cr, enr, cif, dpf, weights)
            if record_evaluations:
                factors = FactorValues(sr, cr, enr, cif, dpf)
                evaluations.append(
                    DesignPointEvaluation(position=position, column=column, factors=factors)
                )
            if b_value < best_b:
                best_b = b_value
                best_column = column
        selection[position] = best_column
        fixed_time += durations[position][best_column]

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
    trials = np.array(selection, dtype=int, ndmin=2)
    promoted, _, feasible = _promote(
        matrices, trials, window_start, deadline, free_end=matrices.n
    )
    if not feasible[0]:
        raise AlgorithmError(
            f"cannot meet deadline {deadline:g} within window starting at column "
            f"{window_start + 1}"
        )
    return promoted[0]


def _promote(
    matrices: SequencedMatrices,
    trials: np.ndarray,
    window_start: int,
    deadline: float,
    free_end: int,
) -> Tuple[np.ndarray, List[float], List[bool]]:
    """Promote every lane (row) of ``trials`` along one shared path.

    Positions before ``free_end`` are free and must be equal in every lane.
    Until a lane meets the deadline, the first free position in ``E`` order
    that is still above ``window_start`` moves one column towards higher
    power; the free rows in that order, each taken from its starting column
    down to ``window_start``, are the path all lanes share.

    Returns ``(promoted, totals, feasible)``: the promoted ``(k, n)``
    selections, each lane's exact starting makespan, and whether the lane
    met the deadline (an infeasible lane ends with the whole path taken).
    """
    limit = deadline + _EPS
    rows = matrices.duration_rows
    totals = matrices.durations.ravel()[trials + matrices.row_offsets].sum(axis=1).tolist()
    free = trials[0, :free_end].tolist()
    path: List[int] = []
    starts: List[int] = []
    prefix = [0.0]  # gain after each whole path row
    gain = 0.0
    for pos in matrices.energy_vector:
        if pos < free_end and free[pos] > window_start:
            row, start = rows[pos], free[pos]
            gain += row[start] - row[window_start]
            path.append(pos)
            starts.append(start)
            prefix.append(gain)

    # A lane's state after some promotions is approximated by its exact
    # starting total minus the gain along the path.  Durations are positive
    # and promotions only shrink the sum, so every value involved is at most
    # ``scale = max(totals) + |limit|``.  Comparing the gain with
    # ``total - limit`` rounds at most 4n + 2 times (two n-term sums, the
    # path's gains and prefix sums, the partial row and the thresholds),
    # each off by at most eps/2 * scale; ``tol`` doubles that bound.  A gain
    # below ``low`` therefore proves the exact sum misses the deadline and
    # one above ``high`` that it meets it; in between, the exact sum decides.
    tol = (4 * matrices.n + 2) * sys.float_info.epsilon * (max(totals) + abs(limit))
    taken = np.array(path, dtype=np.intp)

    def exact_total(lane: int, row: int, column: int) -> float:
        sel = trials[lane].copy()
        sel[taken[:row]] = window_start
        sel[path[row]] = column
        return matrices.total_time(sel)

    def steps(first: int):
        # Every state along the path from row ``first`` on, with its gain.
        for row in range(first, len(path)):
            durations, start = rows[path[row]], starts[row]
            top, done = durations[start], prefix[row]
            for column in range(start - 1, window_start - 1, -1):
                yield row, column, done + (top - durations[column])

    promoted = trials.copy()
    feasible = []
    for lane, (sel, total) in enumerate(zip(promoted, totals)):
        if total <= limit:
            feasible.append(True)
            continue
        need = total - limit
        low, high = need - tol, need + tol
        # Whole rows whose prefix gain is below ``low`` are certainly taken.
        for row, column, gain in steps(max(bisect_left(prefix, low) - 1, 0)):
            if gain >= low and (gain > high or exact_total(lane, row, column) <= limit):
                sel[taken[:row]] = window_start
                sel[path[row]] = column
                feasible.append(True)
                break
        else:
            sel[taken] = window_start
            feasible.append(False)
    return promoted, totals, feasible


def _score(
    matrices: SequencedMatrices,
    promoted: np.ndarray,
    totals: List[float],
    feasible: List[bool],
    window_start: int,
    tagged_position: int,
    deadline: float,
) -> List[Tuple[float, float, float]]:
    """``(ENR, CIF, DPF)`` for every lane of :func:`_promote`'s output."""
    n, m = matrices.n, matrices.m
    lanes = len(promoted)
    index = promoted + matrices.row_offsets
    energies = matrices.energies.ravel()[index].sum(axis=1).tolist()
    currents = matrices.currents.ravel()[index]
    rises = (currents[:, :-1] < currents[:, 1:]).sum(axis=1).tolist()
    if tagged_position > 0:
        # Per-lane column counts of the free rows, in one bincount.
        free = promoted[:, :tagged_position] + m * np.arange(lanes)[:, None]
        occupancy = np.bincount(free.ravel(), minlength=lanes * m).reshape(lanes, m).tolist()
    scores = []
    for lane in range(lanes):
        if not feasible[lane]:
            dpf = math.inf
        elif tagged_position == 0:
            # The first task in the sequence has no free tasks above it; the
            # paper replaces DPF by the slack ratio to press the remaining
            # slack into use.  With nothing free, the lane was never
            # promoted, so its starting total is its final one.
            dpf = slack_ratio(totals[lane], deadline)
        else:
            dpf = _windowed_dpf(occupancy[lane], m, window_start, tagged_position)
        cif = rises[lane] / (n - 1) if n > 1 else 0.0
        enr = energy_ratio(energies[lane], matrices.energy_min, matrices.energy_max)
        scores.append((enr, cif, dpf))
    return scores
