"""Task-graph substrate: tasks, design points, DAGs, paper workloads.

This subpackage models the paper's application specification (Section 1): a
directed acyclic task graph whose nodes carry several *design points*
(implementation alternatives with known execution time and platform
current), plus the voltage-scaling rules used to synthesise design points
and verbatim builders for the paper's two evaluation graphs G2 and G3.
"""

from .. import _lazy_exports

__all__ = [
    "DesignPoint",
    "Task",
    "TaskGraph",
    "save_json",
    "load_json",
    "to_dot",
    "build_g2",
    "build_g3",
    "paper_graphs",
    "regenerate_g2_design_points",
    "regenerate_g3_design_points",
    "G2_EDGES",
    "G2_FIGURE5_DATA",
    "G2_TABLE4_DEADLINES",
    "G2_SCALING_FACTORS",
    "G3_BETA",
    "G3_DEADLINE",
    "G3_EDGES",
    "G3_TABLE1_DATA",
    "G3_TABLE4_DEADLINES",
    "G3_SCALING_FACTORS",
    "cubic_current",
    "scaled_design_points",
    "scaled_task_rows",
    "OPTIMIZE_PASSES",
    "FUSE_SEPARATOR",
    "parse_passes",
    "cull",
    "fuse",
    "optimize_graph",
    "OptimizedGraph",
    "validate_sequence",
    "sequence_positions",
    "require_connected_sinks",
    "require_uniform_design_points",
    "require_power_monotone",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".designpoint": ("DesignPoint",),
        ".graph": ("TaskGraph",),
        ".io": ("load_json", "save_json", "to_dot"),
        ".library": (
            "G2_EDGES", "G2_FIGURE5_DATA", "G2_TABLE4_DEADLINES", "G3_BETA",
            "G3_DEADLINE", "G3_EDGES", "G3_TABLE1_DATA", "G3_TABLE4_DEADLINES",
            "build_g2", "build_g3", "paper_graphs", "regenerate_g2_design_points",
            "regenerate_g3_design_points",
        ),
        ".optimize": (
            "FUSE_SEPARATOR", "OPTIMIZE_PASSES", "OptimizedGraph", "cull", "fuse",
            "optimize_graph", "parse_passes",
        ),
        ".scaling": (
            "G2_SCALING_FACTORS", "G3_SCALING_FACTORS", "cubic_current",
            "scaled_design_points", "scaled_task_rows",
        ),
        ".task": ("Task",),
        ".validation": (
            "require_connected_sinks", "require_power_monotone",
            "require_uniform_design_points", "sequence_positions", "validate_sequence",
        ),
    },
)
