"""Synthetic workload generation: graph shapes, design-point synthesis, suites."""

from .. import _lazy_exports

__all__ = [
    "chain_graph",
    "fork_join_graph",
    "layered_graph",
    "crossbar_graph",
    "map_reduce_graph",
    "series_parallel_graph",
    "erdos_graph",
    "tree_graph",
    "diamond_graph",
    "fft_graph",
    "gaussian_elimination_graph",
    "replicated_graph",
    "DesignPointSynthesis",
    "default_synthesis",
    "SuiteEntry",
    "standard_suite",
    "suite_problems",
    "problem_with_tightness",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".generators": (
            "chain_graph", "crossbar_graph", "diamond_graph", "erdos_graph",
            "fft_graph", "fork_join_graph", "gaussian_elimination_graph",
            "layered_graph", "map_reduce_graph", "replicated_graph",
            "series_parallel_graph", "tree_graph",
        ),
        ".suite": (
            "SuiteEntry", "problem_with_tightness", "standard_suite", "suite_problems",
        ),
        ".synthesis": ("DesignPointSynthesis", "default_synthesis"),
    },
)
