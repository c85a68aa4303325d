"""Tasks: nodes of the application task graph.

A task owns an ordered collection of :class:`~repro.taskgraph.DesignPoint`
objects.  The paper's algorithm relies on two canonical orderings of a
task's design points (Section 4):

* the *execution-time matrix* ``D`` stores each task's design points in
  ascending order of execution time, and
* the *current matrix* ``I`` stores them in descending order of current.

For physically sensible design points (faster implies more power hungry)
these two orderings coincide; :meth:`Task.ordered_design_points` produces
that canonical order (fastest / highest-current first) and is what the core
algorithm uses to build its matrices.  The original insertion order is also
preserved for callers that care about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, Tuple

from ..errors import DesignPointError, TaskGraphError
from .designpoint import DesignPoint, _string_keyed

__all__ = ["Task"]


@dataclass(frozen=True)
class Task:
    """A schedulable unit of work with several implementation options.

    Parameters
    ----------
    name:
        Unique identifier within a task graph (e.g. ``"T7"``).
    design_points:
        Non-empty sequence of :class:`DesignPoint` options for this task.
    metadata:
        Free-form caller annotations (not interpreted by the library).
    """

    name: str
    design_points: Tuple[DesignPoint, ...]
    metadata: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __init__(
        self,
        name: str,
        design_points: Iterable[DesignPoint],
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if not name:
            raise TaskGraphError("task name must be a non-empty string")
        points = tuple(design_points)
        if not points:
            raise DesignPointError(f"task {name!r} must have at least one design point")
        for point in points:
            if not isinstance(point, DesignPoint):
                raise DesignPointError(
                    f"task {name!r}: expected DesignPoint, got {type(point).__name__}"
                )
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "design_points", points)
        object.__setattr__(self, "metadata", dict(metadata or {}))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_design_points(self) -> int:
        """Number of design points available for this task."""
        return len(self.design_points)

    def design_point(self, index: int) -> DesignPoint:
        """Return the design point at ``index`` in insertion order."""
        return self.design_points[index]

    # ------------------------------------------------------------------
    # canonical ordering used by the core algorithm
    # ------------------------------------------------------------------
    def ordered_design_points(self) -> Tuple[DesignPoint, ...]:
        """Design points sorted fastest-first (ascending execution time).

        Ties on execution time are broken by descending current so that the
        ordering is deterministic.  This is the ordering used to build the
        paper's ``D`` and ``I`` matrices: column 1 is the fastest and most
        power-hungry implementation, column *m* the slowest and least
        power-hungry one.

        The ordering (and the derived ``D``/``I``/energy rows below) is
        computed once and cached: tasks are immutable, and the runtime
        simulator's policies consult these rows on every decision.
        """
        cached = self.__dict__.get("_ordered_points")
        if cached is None:
            cached = tuple(
                sorted(
                    self.design_points,
                    key=lambda dp: (dp.execution_time, -dp.current),
                )
            )
            object.__setattr__(self, "_ordered_points", cached)
        return cached

    def execution_times(self) -> Tuple[float, ...]:
        """Execution times in canonical (ascending) order — one row of ``D``."""
        cached = self.__dict__.get("_execution_times")
        if cached is None:
            cached = tuple(dp.execution_time for dp in self.ordered_design_points())
            object.__setattr__(self, "_execution_times", cached)
        return cached

    def currents(self) -> Tuple[float, ...]:
        """Currents in canonical order (descending for monotone DPs) — one row of ``I``."""
        cached = self.__dict__.get("_currents")
        if cached is None:
            cached = tuple(dp.current for dp in self.ordered_design_points())
            object.__setattr__(self, "_currents", cached)
        return cached

    def energies(self) -> Tuple[float, ...]:
        """Per-design-point energies in canonical order."""
        cached = self.__dict__.get("_energies")
        if cached is None:
            cached = tuple(dp.energy for dp in self.ordered_design_points())
            object.__setattr__(self, "_energies", cached)
        return cached

    # ------------------------------------------------------------------
    # aggregate statistics used as scheduling priorities
    # ------------------------------------------------------------------
    @property
    def average_energy(self) -> float:
        """Mean energy over all design points.

        ``SequenceDecEnergy`` schedules ready tasks in decreasing order of
        this quantity, and the energy vector ``E`` sorts tasks by increasing
        average energy.
        """
        return sum(dp.energy for dp in self.design_points) / len(self.design_points)

    @property
    def average_current(self) -> float:
        """Mean current over all design points (mA)."""
        return sum(dp.current for dp in self.design_points) / len(self.design_points)

    @property
    def min_energy(self) -> float:
        """Smallest per-execution energy over the design points."""
        return min(dp.energy for dp in self.design_points)

    @property
    def max_energy(self) -> float:
        """Largest per-execution energy over the design points."""
        return max(dp.energy for dp in self.design_points)

    @property
    def min_execution_time(self) -> float:
        """Execution time of the fastest design point."""
        return min(dp.execution_time for dp in self.design_points)

    @property
    def max_execution_time(self) -> float:
        """Execution time of the slowest design point."""
        return max(dp.execution_time for dp in self.design_points)

    @property
    def min_current(self) -> float:
        """Smallest design-point current (mA)."""
        return min(dp.current for dp in self.design_points)

    @property
    def max_current(self) -> float:
        """Largest design-point current (mA)."""
        return max(dp.current for dp in self.design_points)

    def is_power_monotone(self) -> bool:
        """True when faster design points never draw less current.

        The paper's data (and any voltage-scaled processor) satisfies this:
        shrinking the execution time requires a higher voltage/frequency and
        therefore a higher current.  Some algorithms (e.g. the window search)
        do not require monotonicity, but several invariants in the test-suite
        only hold for monotone tasks, so the check is exposed publicly.
        """
        ordered = self.ordered_design_points()
        return all(
            earlier.current >= later.current
            for earlier, later in zip(ordered, ordered[1:])
        )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise to a plain dictionary (JSON-friendly)."""
        data: dict = {
            "name": self.name,
            "design_points": [dp.to_dict() for dp in self.design_points],
        }
        if self.metadata:
            data["metadata"] = _string_keyed(self.metadata)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Task":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            design_points=[DesignPoint.from_dict(d) for d in data["design_points"]],
            metadata=dict(data.get("metadata", {})),
        )

    def __repr__(self) -> str:
        return f"Task({self.name!r}, {len(self.design_points)} design points)"
