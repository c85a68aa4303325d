"""Battery cost of a schedule (the paper's ``CalculateBatteryCost``).

The cost of a candidate solution is the apparent charge sigma drawn from the
battery by the time the last task completes, computed with the problem's
battery chemistry (the Rakhmatov–Vrudhula model by default) over the
back-to-back discharge profile induced by the task sequence and its
design-point assignment.  An option allows
evaluating sigma at the deadline instead, which credits the recovery that
happens while the platform idles between completion and the deadline.

:func:`battery_cost` is a thin wrapper over the evaluator stack
(:func:`repro.scheduling.evaluator.evaluate_schedule`): validation plus the
vectorized array path of the battery model, with no ``Schedule`` or
``LoadProfile`` objects on the hot path.  It returns values bit-identical to
the evaluator's move proposals for the same candidate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..battery import BatteryModel, LoadProfile
from ..taskgraph import TaskGraph
from .assignment import DesignPointAssignment
from .evaluator import EVALUATION_MODES, evaluate_schedule
from .schedule import Schedule

__all__ = ["battery_cost", "profile_for", "EVALUATION_MODES"]


def profile_for(
    graph: TaskGraph,
    sequence: Sequence[str],
    assignment: DesignPointAssignment,
) -> LoadProfile:
    """Discharge profile of executing ``sequence`` back-to-back with ``assignment``."""
    return Schedule(graph, sequence, assignment).to_profile()


def battery_cost(
    graph: TaskGraph,
    sequence: Sequence[str],
    assignment: DesignPointAssignment,
    model: BatteryModel,
    deadline: Optional[float] = None,
    evaluate_at: str = "completion",
) -> float:
    """Apparent charge consumed by a candidate solution.

    Parameters
    ----------
    graph, sequence, assignment:
        The candidate solution.  The sequence must respect the graph's
        precedence edges and the assignment must cover every task.
    model:
        Battery model used as the cost function (normally a
        :class:`~repro.battery.RakhmatovVrudhulaModel`).
    deadline:
        Required when ``evaluate_at="deadline"``; ignored otherwise.
    evaluate_at:
        ``"completion"`` (default, matches the paper's Table 3, where sigma is
        reported alongside the sequence duration Delta) evaluates sigma at the
        makespan; ``"deadline"`` evaluates it at the deadline, crediting
        post-completion recovery.

    Deadline clamping
    -----------------
    In ``evaluate_at="deadline"`` mode the evaluation time is
    ``max(deadline, makespan)``: a deadline *earlier* than the schedule's
    completion time is silently clamped to the completion time rather than
    rejected.  Two properties follow, both covered by the test-suite:

    * a deadline-missing schedule is *not* an error here — its cost equals
      its ``evaluate_at="completion"`` cost exactly (no recovery credit, and
      never a sigma evaluated mid-schedule); feasibility checking is the
      caller's job (:meth:`repro.scheduling.Schedule.require_deadline`);
    * the deadline-mode cost is always less than or equal to the
      completion-mode cost, since resting past completion can only recover
      charge.
    """
    return evaluate_schedule(
        graph,
        sequence,
        assignment,
        model,
        deadline=deadline,
        evaluate_at=evaluate_at,
    ).cost
