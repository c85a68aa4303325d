"""Window search over design-point columns (``EvaluateWindows``, Figure 1).

A *window* restricts which design-point columns ``ChooseDesignPoints`` may
consider: window ``k:m`` (1-based, as printed in the paper's Table 3) allows
columns ``k`` through ``m``.  The search first finds the widest window whose
*most powerful allowed column alone* still meets the deadline (or reports the
deadline infeasible if even column 1 cannot), then slides the window start
towards column 1 and keeps the assignment with the smallest battery cost.
The windows do not depend on each other, so the design-point chooser runs
them all in one batched pass over the sequence (see :mod:`repro.core.choose`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..battery import BatteryModel
from ..errors import AlgorithmError, InfeasibleDeadlineError
from ..scheduling import DesignPointAssignment
from ..scheduling.evaluator import _resolve_rest
from .choose import _choose_windows, promote_until_feasible
from .factors import FactorWeights
from .matrices import SequencedMatrices

__all__ = ["WindowRecord", "WindowEvaluation", "initial_window_start", "evaluate_windows"]

_EPS = 1e-9


@dataclass(frozen=True)
class WindowRecord:
    """Result of running the design-point chooser for one window."""

    window_start: int
    """First allowed column, 0-based (``0`` means the full ``1:m`` window)."""

    label: str
    """The paper-style window label, e.g. ``"2:5"``."""

    cost: float
    """Battery cost sigma of the produced assignment (mA·min)."""

    makespan: float
    """Completion time Delta of the produced assignment (time units)."""

    feasible: bool
    """True when the makespan does not exceed the deadline."""

    assignment: DesignPointAssignment
    """Task-keyed design-point assignment produced for this window."""


@dataclass(frozen=True)
class WindowEvaluation:
    """All windows evaluated for one sequence, plus the winning one."""

    records: Tuple[WindowRecord, ...]
    best: WindowRecord

    @property
    def best_cost(self) -> float:
        """Battery cost of the winning window."""
        return self.best.cost

    def record_for(self, label: str) -> Optional[WindowRecord]:
        """Look up a window record by its paper-style label (e.g. ``"3:5"``)."""
        for record in self.records:
            if record.label == label:
                return record
        return None


def initial_window_start(matrices: SequencedMatrices, deadline: float) -> int:
    """The widest valid starting window (0-based column index).

    Mirrors the first loop of ``EvaluateWindows``: start from column ``m-1``
    (1-based) and move towards column 1 until the column's all-tasks
    completion time ``CT(k)`` fits the deadline.  Raises
    :class:`InfeasibleDeadlineError` when even ``CT(1)`` (every task at its
    fastest design point) exceeds the deadline.
    """
    m = matrices.m
    if deadline < matrices.column_time(0) - _EPS:
        raise InfeasibleDeadlineError(
            f"deadline {deadline:g} cannot be met: even the fastest design points "
            f"need {matrices.column_time(0):g}"
        )
    if m == 1:
        return 0
    window_start = m - 2  # 1-based m-1
    while deadline < matrices.column_time(window_start) - _EPS and window_start > 0:
        window_start -= 1
    return window_start


def evaluate_windows(
    matrices: SequencedMatrices,
    deadline: float,
    model: BatteryModel,
    weights: Optional[FactorWeights] = None,
    evaluate_at: str = "completion",
) -> WindowEvaluation:
    """The paper's ``EvaluateWindows`` for one sequence.

    Runs :func:`~repro.core.choose.choose_design_points` for every window
    from the widest valid starting window down to the full ``1:m`` window,
    all windows in one batched pass, and returns every per-window record
    together with the minimum-cost one that meets the deadline, so every
    iteration yields a valid schedule, as the paper claims.  A window that
    misses the deadline is first repaired
    (:func:`~repro.core.choose.promote_until_feasible`); one that stays
    infeasible is still reported in ``records`` with ``feasible=False``.
    Raises :class:`InfeasibleDeadlineError` when no window meets it.

    Parameters
    ----------
    weights:
        Optional factor weights forwarded to the design-point chooser
        (ablation support).
    evaluate_at:
        Sigma evaluation point of every window's cost, with the semantics of
        :func:`repro.scheduling.evaluate_schedule` (``"deadline"`` credits
        the recovery between completion and ``deadline``).
    """
    starts = range(initial_window_start(matrices, deadline), -1, -1)
    choices = _choose_windows(matrices, starts, deadline, weights, record_evaluations=False)
    records = []
    for window_start, result in zip(starts, choices):
        selection = result.selection
        makespan = result.makespan
        if makespan > deadline + _EPS:
            try:
                selection = promote_until_feasible(matrices, selection, window_start, deadline)
                makespan = matrices.total_time(selection)
            except AlgorithmError:
                pass  # keep the unrepaired assignment, marked infeasible below
        cost = _selection_cost(matrices, selection, model, deadline, evaluate_at)
        records.append(
            WindowRecord(
                window_start=window_start,
                label=f"{window_start + 1}:{matrices.m}",
                cost=cost,
                makespan=makespan,
                feasible=makespan <= deadline + _EPS,
                assignment=matrices.to_assignment(selection),
            )
        )

    feasible = [r for r in records if r.feasible]
    if not feasible:
        raise InfeasibleDeadlineError("no window produced a deadline-respecting assignment")
    best = min(feasible, key=lambda r: (r.cost, r.window_start))
    return WindowEvaluation(records=tuple(records), best=best)


def _selection_cost(
    matrices: SequencedMatrices,
    selection: np.ndarray,
    model: BatteryModel,
    deadline: float,
    evaluate_at: str,
) -> float:
    """Battery cost of executing the sequence back-to-back with ``selection``.

    Routed through the model's vectorized schedule path (the same canonical
    computation as :func:`~repro.scheduling.evaluate_schedule`, evaluation
    point included), so the window search never materialises load profiles
    on its hot path.
    """
    durations = matrices.selection_durations(selection)
    rest = _resolve_rest(math.fsum(durations.tolist()), deadline, evaluate_at)
    return model.schedule_charge(
        durations, matrices.selection_currents(selection), rest
    )
