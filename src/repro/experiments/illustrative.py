"""The paper's illustrative example: G3 with a 230-minute deadline.

Tables 2 and 3 of the paper both describe the same run of the algorithm —
the 15-task fork-join graph of Table 1 scheduled against a 230-minute
deadline with ``beta = 0.273`` and an effectively unlimited battery.  This
module performs that run once (with full history recording) so the two
table reproductions, the examples and the tests all share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..battery import BatterySpec
from ..core import SchedulerConfig, SchedulingSolution, battery_aware_schedule
from ..scheduling import SchedulingProblem
from ..taskgraph import G3_BETA, G3_DEADLINE, build_g3

__all__ = ["g3_problem", "run_illustrative_example"]


def g3_problem(
    deadline: float = G3_DEADLINE, beta: float = G3_BETA
) -> SchedulingProblem:
    """The Section 4.2 problem instance: G3, deadline 230 min, beta 0.273."""
    return SchedulingProblem(
        graph=build_g3(),
        deadline=deadline,
        battery=BatterySpec(beta=beta),
        name=f"G3@{deadline:g}",
    )


def run_illustrative_example(
    deadline: float = G3_DEADLINE,
    beta: float = G3_BETA,
    config: Optional[SchedulerConfig] = None,
) -> SchedulingSolution:
    """Run the iterative algorithm on the illustrative example with history."""
    problem = g3_problem(deadline=deadline, beta=beta)
    return battery_aware_schedule(problem, config=config or SchedulerConfig())
