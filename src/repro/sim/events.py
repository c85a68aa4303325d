"""Event-loop primitives of the runtime simulator.

The simulator advances a :class:`VirtualClock` from one task-end event to
the next; each task carries a :class:`TaskRuntimeInfo` whose
:class:`TaskState` walks ``WAITING -> READY -> RUNNING -> FINISHED``
(possibly looping through ``RUNNING`` several times when an attempt fails
and is retried).  The shapes follow estee's simulator — ``TaskState`` /
per-task runtime info / an explicit wakeup event — minus the simpy
dependency: the single-PE loop keeps its one in-flight event in a
``(time, task)`` slot, which keeps the core importable anywhere and the
event order bit-deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..errors import SimulationError

__all__ = ["VirtualClock", "TaskState", "TaskRuntimeInfo"]


class VirtualClock:
    """Monotone virtual time; the simulator's only notion of "now".

    Pluggable so tests (and future co-simulation layers) can observe or
    intercept time advances; the default implementation simply stores the
    time of the last event processed.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock must start at >= 0, got {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance_to(self, time: float) -> float:
        """Move the clock forward to ``time`` (never backwards)."""
        if time < self._now - 1e-12:
            raise SimulationError(
                f"virtual time cannot run backwards: at {self._now!r}, "
                f"event at {time!r}"
            )
        self._now = max(self._now, float(time))
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:g})"


class TaskState(enum.Enum):
    """Lifecycle of one task inside a simulation run."""

    WAITING = "waiting"
    """At least one predecessor has not finished yet."""

    READY = "ready"
    """All predecessors finished; eligible for the scheduler."""

    RUNNING = "running"
    """Currently executing on the processing element."""

    FINISHED = "finished"
    """Completed successfully."""


@dataclass
class TaskRuntimeInfo:
    """Mutable per-task bookkeeping of one simulation run (estee-style)."""

    state: TaskState = TaskState.WAITING
    unfinished_inputs: int = 0
    """Predecessors not yet finished; 0 makes the task ready."""

    column: Optional[int] = None
    """Design-point column the scheduler chose (once assigned)."""

    ready_time: Optional[float] = None
    start_time: Optional[float] = None
    """Start of the most recent attempt."""

    end_time: Optional[float] = None
    """Successful completion time."""

    attempts: int = 0
    """Execution attempts so far (> 1 means the task failed and retried)."""

    @property
    def is_ready(self) -> bool:
        return self.state is TaskState.READY

    @property
    def is_finished(self) -> bool:
        return self.state is TaskState.FINISHED
