"""Sequence-ordered matrices used by the iterative algorithm.

Section 4 of the paper defines the data layout its pseudocode manipulates:

* the execution-time matrix ``D`` (n x m) — row *i* holds the execution
  times of the *i*-th task **in the current sequence**, columns sorted in
  ascending order of execution time (column 1 fastest);
* the current matrix ``I`` (n x m) — same layout, currents in descending
  order (column 1 highest);
* the selection matrix ``S`` — one 1 per row marking the chosen column; the
  library represents it as a *selection vector* ``sel`` with
  ``sel[i] = chosen column`` (0-based), which is equivalent and cheaper;
* the energy vector ``E`` — sequence positions sorted by increasing average
  design-point energy, used as the promotion priority inside the DPF
  calculation.

Because the matrices are keyed by sequence position, they must be rebuilt
whenever the sequence changes (once per iteration of the top-level
algorithm); :class:`SequencedMatrices` does that once and caches every
derived quantity the factor calculations need (global current extremes,
sequence energy bounds, per-column completion times).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..scheduling import DesignPointAssignment
from ..taskgraph import TaskGraph, validate_sequence

__all__ = ["SequencedMatrices"]


class SequencedMatrices:
    """The paper's ``D``/``I``/``E`` data for one task sequence.

    Parameters
    ----------
    graph:
        Task graph; every task must expose the same number of design points.
    sequence:
        Precedence-respecting total order of the graph's tasks.  Row ``i`` of
        every matrix refers to ``sequence[i]``.
    """

    def __init__(self, graph: TaskGraph, sequence: Sequence[str]) -> None:
        validate_sequence(graph, sequence)
        self.graph = graph
        self.sequence: Tuple[str, ...] = tuple(sequence)
        self.n = len(self.sequence)
        self.m = graph.uniform_design_point_count()

        durations = np.empty((self.n, self.m), dtype=float)
        currents = np.empty((self.n, self.m), dtype=float)
        energies = np.empty((self.n, self.m), dtype=float)
        for row, name in enumerate(self.sequence):
            points = graph.task(name).ordered_design_points()
            durations[row, :] = [dp.execution_time for dp in points]
            currents[row, :] = [dp.current for dp in points]
            energies[row, :] = [dp.energy for dp in points]

        #: Execution-time matrix ``D`` (rows ascending by construction).
        self.durations = durations
        #: ``D`` as one Python list per position, for the scalar reads of
        #: the DPF promotion loop (cheaper than indexing numpy element-wise).
        self.duration_rows = durations.tolist()
        #: Current matrix ``I`` (rows descending for power-monotone tasks).
        self.currents = currents
        #: Per-design-point energy matrix (current * voltage * duration).
        self.energies = energies

        #: Global current extremes over every design point of every task,
        #: used by the Current Ratio normalisation.
        self.current_min = float(currents.min())
        self.current_max = float(currents.max())

        #: Sequence energy bounds ``E_min`` / ``E_max`` used by the Energy
        #: Ratio: the total energy when every task uses its cheapest
        #: (respectively most expensive) design point.
        self.energy_min = float(energies.min(axis=1).sum())
        self.energy_max = float(energies.max(axis=1).sum())

        #: Average design-point energy per sequence position (row).
        self.average_energies = energies.mean(axis=1)

        #: The paper's energy vector ``E``: sequence positions sorted by
        #: increasing average energy (ties broken by position for determinism).
        self.energy_vector: Tuple[int, ...] = tuple(
            int(i) for i in np.lexsort((np.arange(self.n), self.average_energies))
        )

        #: Completion time per column: ``CT(k)`` is the makespan when every
        #: task uses column ``k`` (0-based).
        self.column_times = durations.sum(axis=0)

        self._positions = np.arange(self.n)
        #: Offset of each position's row in the ravelled ``(n, m)`` matrices:
        #: ``selection + row_offsets`` indexes them flat, the cheapest gather.
        self.row_offsets = self._positions * self.m

    # ------------------------------------------------------------------
    # selections
    # ------------------------------------------------------------------
    def lowest_power_selection(self) -> np.ndarray:
        """Selection vector assigning every task to the last (lowest-power) column."""
        return np.full(self.n, self.m - 1, dtype=int)

    def column_time(self, column: int) -> float:
        """``CT(column)``: total execution time when all tasks use ``column``."""
        return float(self.column_times[column])

    def selection_durations(self, selection: np.ndarray) -> np.ndarray:
        """Per-position execution times under a selection vector."""
        return self.durations[self._positions, selection]

    def selection_currents(self, selection: np.ndarray) -> np.ndarray:
        """Per-position currents under a selection vector."""
        return self.currents[self._positions, selection]

    def selection_energies(self, selection: np.ndarray) -> np.ndarray:
        """Per-position energies under a selection vector."""
        return self.energies[self._positions, selection]

    def total_time(self, selection: np.ndarray) -> float:
        """Sequential makespan of a selection (sum of chosen execution times)."""
        return float(self.selection_durations(selection).sum())

    def total_energy(self, selection: np.ndarray) -> float:
        """Total energy of a selection (the paper's ``En``)."""
        return float(self.selection_energies(selection).sum())

    # ------------------------------------------------------------------
    # conversions to/from the public assignment type
    # ------------------------------------------------------------------
    def to_assignment(self, selection: np.ndarray) -> DesignPointAssignment:
        """Convert a selection vector (by sequence position) to a task-keyed assignment."""
        if len(selection) != self.n:
            raise ConfigurationError(
                f"selection has {len(selection)} entries for {self.n} tasks"
            )
        return DesignPointAssignment(
            {name: int(selection[row]) for row, name in enumerate(self.sequence)}
        )

    def from_assignment(self, assignment: DesignPointAssignment) -> np.ndarray:
        """Convert a task-keyed assignment to a selection vector for this sequence."""
        assignment.validate(self.graph)
        return np.array([assignment[name] for name in self.sequence], dtype=int)

    def __repr__(self) -> str:
        return f"SequencedMatrices(n={self.n}, m={self.m})"
