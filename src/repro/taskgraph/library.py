"""The paper's evaluation task graphs, transcribed verbatim.

Two workloads drive the paper's evaluation:

* **G3** (Table 1): a 15-task fork-join graph with five design points per
  task, generated by voltage scaling with factors ``1, 0.85, 0.68, 0.51,
  0.33`` relative to DP1.  Used for the illustrative example (Tables 2 and
  3, deadline 230 min, beta = 0.273) and for the comparison in Table 4
  (deadlines 100, 150, 230 min).

* **G2** (Figure 5): the 9-node robotic-arm-controller application of
  Mooney & De Micheli, with four design points per task generated with
  factors ``2.5, 1.66, 1.25, 1`` relative to DP4.  Used in Table 4
  (deadlines 55, 75, 95 min).

The current/duration tables are copied digit-for-digit from the paper; the
:func:`regenerate_g3_design_points` / :func:`regenerate_g2_design_points`
helpers rebuild them from the stated scaling rule so the transcription can
be cross-checked (experiment E7).

.. note::
   The edge set of G2 is not legible from the published figure (the PDF text
   only lists the node labels).  The reconstruction below keeps the fork-join
   character of the application — task 1 fans out into two pipelines that
   re-converge before the two final tasks.  The Table 4 comparison shape does
   not depend on the exact edge choice because all tasks run sequentially on
   one processing element.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .designpoint import DesignPoint
from .graph import TaskGraph
from .scaling import (
    G2_SCALING_FACTORS,
    G3_SCALING_FACTORS,
    scaled_design_points,
)
from .task import Task

__all__ = [
    "G3_TABLE1_DATA",
    "G3_EDGES",
    "G3_DEADLINE",
    "G3_BETA",
    "G3_TABLE4_DEADLINES",
    "G2_FIGURE5_DATA",
    "G2_EDGES",
    "G2_TABLE4_DEADLINES",
    "build_g3",
    "build_g2",
    "regenerate_g3_design_points",
    "regenerate_g2_design_points",
    "paper_graphs",
]

# ---------------------------------------------------------------------------
# G3: Table 1 (current mA, duration min) for design points 1..5
# ---------------------------------------------------------------------------

#: Verbatim transcription of Table 1: task -> tuple of (current, duration).
G3_TABLE1_DATA: Dict[str, Tuple[Tuple[float, float], ...]] = {
    "T1": ((917, 7.3), (563, 11.2), (288, 15.0), (122, 18.7), (33, 22.0)),
    "T2": ((519, 11.2), (319, 17.3), (163, 23.1), (69, 28.9), (19, 34.0)),
    "T3": ((611, 5.9), (375, 9.2), (192, 12.2), (81, 15.3), (22, 18.0)),
    "T4": ((938, 5.3), (576, 8.2), (295, 10.9), (124, 13.6), (34, 16.0)),
    "T5": ((781, 4.0), (480, 6.1), (246, 8.2), (104, 10.2), (28, 12.0)),
    "T6": ((800, 4.6), (491, 7.1), (252, 9.5), (106, 11.9), (29, 14.0)),
    "T7": ((720, 7.3), (442, 11.2), (226, 15.0), (96, 18.7), (26, 22.0)),
    "T8": ((600, 5.3), (368, 8.2), (189, 10.9), (80, 13.6), (22, 16.0)),
    "T9": ((650, 4.6), (399, 7.1), (204, 9.5), (86, 11.9), (23, 14.0)),
    "T10": ((710, 5.9), (436, 9.2), (223, 12.2), (94, 15.3), (26, 18.0)),
    "T11": ((500, 6.6), (307, 10.2), (157, 13.6), (66, 17.0), (18, 20.0)),
    "T12": ((510, 4.6), (313, 7.1), (160, 9.5), (68, 11.9), (18, 14.0)),
    "T13": ((700, 4.0), (430, 6.1), (220, 8.2), (93, 10.2), (25, 12.0)),
    "T14": ((400, 5.3), (246, 8.2), (126, 10.9), (53, 13.6), (14, 16.0)),
    "T15": ((380, 3.3), (233, 5.1), (119, 6.8), (50, 8.5), (14, 10.0)),
}

#: Precedence edges of G3 from the "Parents" column of Table 1.
G3_EDGES: Tuple[Tuple[str, str], ...] = (
    ("T1", "T2"),
    ("T1", "T3"),
    ("T1", "T4"),
    ("T1", "T5"),
    ("T2", "T6"),
    ("T3", "T6"),
    ("T4", "T7"),
    ("T5", "T7"),
    ("T6", "T8"),
    ("T7", "T8"),
    ("T8", "T9"),
    ("T8", "T10"),
    ("T9", "T11"),
    ("T10", "T12"),
    ("T9", "T13"),
    ("T11", "T14"),
    ("T12", "T14"),
    ("T13", "T14"),
    ("T14", "T15"),
)

#: Deadline (minutes) used for the illustrative example (Tables 2 and 3).
G3_DEADLINE: float = 230.0

#: Battery-model parameter used for the illustrative example.
G3_BETA: float = 0.273

#: Deadlines (minutes) used for G3 in the Table 4 comparison.
G3_TABLE4_DEADLINES: Tuple[float, ...] = (100.0, 150.0, 230.0)


# ---------------------------------------------------------------------------
# G2: Figure 5 (current mA, duration min) for design points 1..4
# ---------------------------------------------------------------------------

#: Verbatim transcription of the Figure 5 data table.
G2_FIGURE5_DATA: Dict[str, Tuple[Tuple[float, float], ...]] = {
    "N1": ((938, 8.8), (278, 13.2), (117, 17.6), (60, 22.0)),
    "N2": ((781, 1.2), (231, 1.9), (98, 2.5), (50, 3.1)),
    "N3": ((781, 8.1), (231, 12.1), (98, 16.2), (50, 20.2)),
    "N4": ((656, 3.6), (194, 5.4), (82, 7.2), (42, 9.0)),
    "N5": ((781, 6.5), (231, 9.8), (98, 13.0), (50, 16.3)),
    "N6": ((531, 3.5), (157, 5.3), (66, 7.0), (34, 8.8)),
    "N7": ((531, 3.5), (157, 5.3), (66, 7.0), (34, 8.8)),
    "N8": ((531, 3.5), (157, 5.3), (66, 7.0), (34, 8.8)),
    "N9": ((531, 3.5), (157, 5.3), (66, 7.0), (34, 8.8)),
}

#: Reconstructed precedence edges of G2 (see the module docstring note).
G2_EDGES: Tuple[Tuple[str, str], ...] = (
    ("N1", "N2"),
    ("N1", "N3"),
    ("N2", "N4"),
    ("N3", "N5"),
    ("N4", "N6"),
    ("N5", "N7"),
    ("N6", "N8"),
    ("N7", "N8"),
    ("N8", "N9"),
)

#: Deadlines (minutes) used for G2 in the Table 4 comparison.
G2_TABLE4_DEADLINES: Tuple[float, ...] = (55.0, 75.0, 95.0)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_graph(
    name: str,
    data: Dict[str, Tuple[Tuple[float, float], ...]],
    edges: Sequence[Tuple[str, str]],
) -> TaskGraph:
    graph = TaskGraph(name=name)
    for task_name, rows in data.items():
        points = tuple(
            DesignPoint(execution_time=duration, current=current, name=f"DP{j + 1}")
            for j, (current, duration) in enumerate(rows)
        )
        graph.add_task(Task(task_name, points))
    for parent, child in edges:
        graph.add_edge(parent, child)
    graph.validate()
    return graph


def build_g3() -> TaskGraph:
    """Build the 15-task, 5-design-point fork-join graph of Table 1."""
    return _build_graph("G3", G3_TABLE1_DATA, G3_EDGES)


def build_g2() -> TaskGraph:
    """Build the 9-task, 4-design-point robotic-arm controller graph (Figure 5)."""
    return _build_graph("G2", G2_FIGURE5_DATA, G2_EDGES)


def paper_graphs() -> Dict[str, TaskGraph]:
    """Both evaluation graphs keyed by their paper names."""
    return {"G2": build_g2(), "G3": build_g3()}


# ---------------------------------------------------------------------------
# regeneration from the stated scaling rule (experiment E7)
# ---------------------------------------------------------------------------

def regenerate_g3_design_points(task_name: str) -> Tuple[DesignPoint, ...]:
    """Rebuild a G3 task's design points from the DP1 row and the scaling rule.

    Durations in Table 1 follow the "mirrored" rule and currents the cubic
    rule (see :mod:`repro.taskgraph.scaling`); the regenerated values agree
    with the transcription to within the table's printed precision.
    """
    current_1, duration_1 = G3_TABLE1_DATA[task_name][0]
    return scaled_design_points(
        reference_duration=duration_1,
        reference_current=current_1,
        factors=G3_SCALING_FACTORS,
        duration_rule="mirrored",
    )


def regenerate_g2_design_points(task_name: str) -> Tuple[DesignPoint, ...]:
    """Rebuild a G2 task's design points from the DP4 row and the scaling rule.

    G2 factors are expressed relative to the slowest design point (DP4), and
    durations follow literal inverse proportionality.
    """
    current_4, duration_4 = G2_FIGURE5_DATA[task_name][-1]
    return scaled_design_points(
        reference_duration=duration_4,
        reference_current=current_4,
        factors=G2_SCALING_FACTORS,
        duration_rule="inverse",
    )
