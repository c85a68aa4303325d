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
one shared *promotion path* and differ only in their window start and in
how far along it they go.  The windows of one sequence are independent, so
:func:`~repro.core.windows.evaluate_windows` searches them all at once: at
each position every window's candidate columns are the *lanes* of one batch.

* The path lists the free rows in ``E`` order; one in-order cumsum gives
  every window's prefix sums of the whole-row gains
  ``D[row, start] - D[row, window_start]``.  A lane's stopping point is
  found by ``bisect`` on its window's prefix sums and a scan of at most
  ``m`` columns of the one partially promoted row.
* The approximate totals (the lane's exact starting makespan minus the path
  gain) are trusted only while they lie more than a rounding-drift
  tolerance away from ``deadline + eps``.  Within the tolerance, the exact
  :meth:`SequencedMatrices.total_time` of each materialised state decides,
  stepping along the path.  A fixed-order float sum never increases when
  one addend decreases, so the exact totals are monotone along the path and
  the first step at or below the limit is, bit for bit, where recomputing
  the full makespan after every one-column promotion would stop.
* The promoted selections form one ``(lanes, n)`` array, built in one step
  from each free row's rank on the path.  One gather and row sum give every
  lane's total energy (ENR), one gather and row count every rising current
  pair (CIF), and DPF follows from the exact column occupancies of the free
  rows.  ``B`` is computed for all lanes at once, and each window then takes
  its own lanes' minimum in column order.

:func:`choose_design_points` is the one-window case of the batch;
:func:`calculate_dpf` and :func:`promote_until_feasible` run the same
helpers with a single lane.  With the recorder enabled, every search
reports the counters ``core.dpf.calls`` (candidates scored) and
``core.dpf.promotions`` once.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AlgorithmError
from ..obs import RECORDER as _OBS
from .factors import (
    FactorValues,
    FactorWeights,
    _dpf_weights,
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
    lanes = _Lanes(matrices, [window_start], trials[0])
    promoted, totals, feasible = _promote(matrices, lanes, trials, deadline, tagged_position)
    scores = _score(matrices, lanes, promoted, totals, feasible, tagged_position, deadline)
    enr, cif, dpf = (float(np.asarray(values).flat[0]) for values in scores)
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
    (result,) = _choose_windows(matrices, [window_start], deadline, weights, record_evaluations)
    return result


def _choose_windows(
    matrices: SequencedMatrices,
    window_starts: Sequence[int],
    deadline: float,
    weights: Optional[FactorWeights],
    record_evaluations: bool,
) -> List[ChooseResult]:
    """:func:`choose_design_points` for several windows of one sequence at once.

    At every position the candidates of all windows (window by window, from
    the lowest-power column up) are promoted and scored as one batch of
    lanes; each window keeps its own selection row and fixed time.
    """
    n, m = matrices.n, matrices.m
    for window_start in window_starts:
        if not (0 <= window_start < m):
            raise AlgorithmError(f"window_start {window_start} out of range for m={m}")

    windows = len(window_starts)
    selections = np.full((windows, n), m - 1, dtype=int)
    evaluations: List[List[DesignPointEvaluation]] = [[] for _ in range(windows)]
    observed = _OBS.enabled
    dpf_calls = promotions = 0
    owners = [w for w, start in enumerate(window_starts) for _ in range(start, m)]
    columns = [c for start in window_starts for c in range(m - 1, start - 1, -1)]
    lane_owners = np.array(owners, dtype=np.intp)
    lane_columns = np.array(columns, dtype=np.intp)
    lanes = _Lanes(
        matrices, [window_starts[w] for w in owners], matrices.lowest_power_selection()
    )
    # Each lane's candidate duration and current ratio at every position
    # (the ratio is one float when every current is the same).
    lane_durations = matrices.durations[:, lane_columns]
    lane_crs = current_ratio(
        matrices.currents[:, lane_columns], matrices.current_min, matrices.current_max
    ) + np.zeros_like(lane_durations)
    # Fix the last task in the sequence to its lowest-power design point.
    fixed_times = np.full(windows, matrices.durations[n - 1, m - 1])

    with np.errstate(invalid="ignore"):  # a zero weight times DPF's inf is NaN
        for position in range(n - 2, -1, -1):
            trials = selections[lane_owners]
            trials[:, position] = lane_columns
            promoted, totals, feasible = _promote(matrices, lanes, trials, deadline, position)
            enr, cif, dpf = _score(
                matrices, lanes, promoted, totals, feasible, position, deadline
            )
            if observed:
                # Each promotion moves one task one column down.
                dpf_calls += len(columns)
                promotions += int(trials.sum() - promoted.sum())
            sr = slack_ratio(fixed_times[lane_owners] + lane_durations[position], deadline)
            cr = lane_crs[position]
            b_values = suitability(sr, cr, enr, cif, dpf, weights).tolist()
            best_columns = [m - 1] * windows
            best_b = [math.inf] * windows
            for w, column, b_value in zip(owners, columns, b_values):
                if b_value < best_b[w]:
                    best_b[w] = b_value
                    best_columns[w] = column
            if record_evaluations:
                factors = np.stack(np.broadcast_arrays(sr, cr, enr, cif, dpf), axis=1)
                for w, column, values in zip(owners, columns, factors.tolist()):
                    evaluations[w].append(
                        DesignPointEvaluation(position, column, FactorValues(*values))
                    )
            selections[:, position] = best_columns
            fixed_times += matrices.durations[position, best_columns]

    # Zero counts stay unemitted: pool workers ship only non-zero deltas,
    # so serial and parallel snapshots then hold the same keys.
    if observed and dpf_calls:
        _OBS.count("core.dpf.calls", dpf_calls)
    if observed and promotions:
        _OBS.count("core.dpf.promotions", promotions)
    return [
        ChooseResult(
            selection=selection,
            evaluations=tuple(recorded),
            makespan=matrices.total_time(selection),
        )
        for selection, recorded in zip(selections, evaluations)
    ]


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
    lanes = _Lanes(matrices, [window_start], trials[0])
    promoted, _, feasible = _promote(matrices, lanes, trials, deadline, matrices.n)
    if not feasible[0]:
        raise AlgorithmError(
            f"cannot meet deadline {deadline:g} within window starting at column "
            f"{window_start + 1}"
        )
    return promoted[0]


class _Lanes:
    """Candidates (lanes) with window starts ``starts`` and, in every lane, the
    free rows at columns ``free``: what a window search needs at any position."""

    def __init__(self, matrices: SequencedMatrices, starts: Sequence[int], free) -> None:
        self.starts = list(starts)
        windows = sorted(set(self.starts))
        self.window_of = [windows.index(start) for start in self.starts]
        self.free = np.asarray(free).tolist()
        # The free rows taken whole: each at its lane's window start, or
        # where it already was above it.
        self.at_start = np.minimum(free, np.array(self.starts)[:, None])
        # Each window's gain from taking a whole row: from its free column
        # down to the window start, or 0 when it is already there.  The
        # extra last column is a zero gain that starts every prefix sum.
        n = matrices.n
        top = matrices.durations[np.arange(n), free]
        self.row_gains = np.zeros((len(windows), n + 1))
        np.maximum(top - matrices.durations[:, windows].T, 0.0, out=self.row_gains[:, :n])
        self.m = matrices.m

    @cached_property  # scoring only: promote_until_feasible never scores
    def dpf_weights(self) -> np.ndarray:
        return _dpf_weights(self.m, np.array(self.starts))

    @cached_property
    def bins(self) -> np.ndarray:
        return self.m * np.arange(len(self.starts))[:, None]


def _promote(
    matrices: SequencedMatrices,
    lanes: _Lanes,
    trials: np.ndarray,
    deadline: float,
    free_end: int,
) -> Tuple[np.ndarray, np.ndarray, List[bool]]:
    """Promote every lane (row) of ``trials`` along one shared path.

    Positions before ``free_end`` are free and hold ``lanes.free`` in every
    lane.  Until a lane meets the deadline, the first free position in
    ``E`` order that is still above the lane's window start moves one
    column towards higher power; the free rows in ``E`` order, each taken
    from its starting column down to the window start (a row already there
    gains nothing), are the path all lanes share.

    Returns ``(promoted, totals, feasible)``: the promoted ``(k, n)``
    selections, each lane's exact starting makespan, and whether the lane
    met the deadline (an infeasible lane ends with the whole path taken).
    """
    limit = deadline + _EPS
    rows = matrices.duration_rows
    totals = matrices.durations.ravel()[trials + matrices.row_offsets].sum(axis=1)
    lane_totals = totals.tolist()
    path = [pos for pos in matrices.energy_vector if pos < free_end]
    # Each window's gain after every whole path row: one in-order cumsum
    # from a zero gain, bitwise a Python running sum.
    gain_columns = np.array([matrices.n, *path], dtype=np.intp)
    prefixes = lanes.row_gains[:, gain_columns].cumsum(axis=1).tolist()
    taken = gain_columns[1:]

    # A lane's state after some promotions is approximated by its exact
    # starting total minus the gain along the path.  Durations are positive
    # and promotions only shrink the sum, so every value involved is at most
    # ``scale = max(totals) + |limit|``.  Comparing the gain with
    # ``total - limit`` rounds at most 4n + 2 times (two n-term sums, the
    # path's gains and prefix sums, the partial row and the thresholds),
    # each off by at most eps/2 * scale; ``tol`` doubles that bound.  A gain
    # below ``low`` therefore proves the exact sum misses the deadline and
    # one above ``high`` that it meets it; in between, the exact sum decides.
    tol = (4 * matrices.n + 2) * sys.float_info.epsilon * (max(lane_totals) + abs(limit))

    def exact_total(lane: int, row: int, column: int) -> float:
        sel = trials[lane].copy()
        sel[taken[:row]] = np.minimum(sel[taken[:row]], lanes.starts[lane])
        sel[path[row]] = column
        return matrices.total_time(sel)

    starts, windows, free = lanes.starts, lanes.window_of, lanes.free
    stops = [0] * len(lane_totals)  # whole path rows each lane takes
    partial: List[Tuple[int, int, int]] = []  # (lane, stop position, column)
    feasible = [True] * len(lane_totals)
    for lane, total in enumerate(lane_totals):
        if total <= limit:
            continue
        start, prefix = starts[lane], prefixes[windows[lane]]
        need = total - limit
        low, high = need - tol, need + tol
        stops[lane] = len(path)
        feasible[lane] = False
        # Whole rows whose prefix gain is below ``low`` are certainly taken.
        for row in range(bisect_left(prefix, low, 1) - 1, len(path)):
            durations, begin = rows[path[row]], free[path[row]]
            top, done = durations[begin], prefix[row]
            for column in range(begin - 1, start - 1, -1):
                gain = done + (top - durations[column])
                if gain >= low and (gain > high or exact_total(lane, row, column) <= limit):
                    break
            else:
                continue  # no step of this row meets the deadline
            stops[lane], feasible[lane] = row, True
            partial.append((lane, path[row], column))
            break

    # Rows ranked before a lane's stop row are taken whole; then each stop
    # row is set.
    rank = np.full(matrices.n, len(path))
    rank[taken] = np.arange(len(path))
    promoted = np.where(rank < np.array(stops)[:, None], lanes.at_start, trials)
    if partial:
        lane_index, positions, columns = zip(*partial)
        promoted[lane_index, positions] = columns
    return promoted, totals, feasible


def _score(
    matrices: SequencedMatrices,
    lanes: _Lanes,
    promoted: np.ndarray,
    totals: np.ndarray,
    feasible: List[bool],
    tagged_position: int,
    deadline: float,
):
    """``(ENR, CIF, DPF)`` of every lane of :func:`_promote`'s output (ENR is
    one float for all lanes when the sequence's energy bounds coincide)."""
    n, m = matrices.n, matrices.m
    index = promoted + matrices.row_offsets
    enr = energy_ratio(
        matrices.energies.ravel()[index].sum(axis=1), matrices.energy_min, matrices.energy_max
    )
    currents = matrices.currents.ravel()[index]
    cif = (currents[:, :-1] < currents[:, 1:]).sum(axis=1) / max(n - 1, 1)
    if tagged_position == 0:
        # The first task in the sequence has no free tasks above it; the
        # paper replaces DPF by the slack ratio to press the remaining
        # slack into use.  With nothing free, the lane was never promoted,
        # so its starting total is its final one.
        dpf = slack_ratio(totals, deadline)
    else:
        # Per-lane column counts of the free rows, in one bincount.
        free = (promoted[:, :tagged_position] + lanes.bins).ravel()
        occupancy = np.bincount(free, minlength=lanes.bins.size * m).reshape(-1, m)
        dpf = _windowed_dpf(occupancy, lanes.dpf_weights, tagged_position)
    return enr, cif, np.where(feasible, dpf, math.inf)
