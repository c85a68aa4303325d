"""Experiment harness: one driver per paper table/figure plus extensions.

README.md lists the CLI command behind each driver.  Every driver returns a
structured result object with a ``to_table()`` method, so the benchmarks,
the CLI and the examples share one code path.
"""

from .. import _lazy_exports

__all__ = [
    "g3_problem",
    "run_illustrative_example",
    "run_table2",
    "Table2Result",
    "Table2Row",
    "run_table3",
    "Table3Result",
    "Table3Row",
    "run_table4",
    "Table4Result",
    "Table4Row",
    "PAPER_TABLE4",
    "table4_problems",
    "figure3_windows",
    "figure4_walkthrough",
    "Figure4Walkthrough",
    "figure5_g2_table",
    "table1_g3_table",
    "scaling_regeneration_report",
    "g2_dot",
    "run_ablation",
    "AblationResult",
    "AblationRow",
    "FACTOR_NAMES",
    "run_suite",
    "SuiteRunResult",
    "DEFAULT_SUITE_ALGORITHMS",
    "run_simulation_suite",
    "SimulationSuiteResult",
    "DEFAULT_SIM_POLICIES",
    "run_tournament",
    "TournamentResult",
    "tournament_markdown",
    "deadline_sweep",
    "beta_sweep",
    "SWEEP_ALGORITHMS",
    "SweepResult",
    "SweepPoint",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".ablation": ("FACTOR_NAMES", "AblationResult", "AblationRow", "run_ablation"),
        ".figures": (
            "Figure4Walkthrough", "figure3_windows", "figure4_walkthrough",
            "figure5_g2_table", "g2_dot", "scaling_regeneration_report",
            "table1_g3_table",
        ),
        ".illustrative": ("g3_problem", "run_illustrative_example"),
        ".simulate": (
            "DEFAULT_SIM_POLICIES", "SimulationSuiteResult", "run_simulation_suite",
        ),
        ".suite": ("DEFAULT_SUITE_ALGORITHMS", "SuiteRunResult", "run_suite"),
        ".tournament": ("TournamentResult", "run_tournament", "tournament_markdown"),
        ".sweep": (
            "SWEEP_ALGORITHMS", "SweepPoint", "SweepResult", "beta_sweep",
            "deadline_sweep",
        ),
        ".table2": ("Table2Result", "Table2Row", "run_table2"),
        ".table3": ("Table3Result", "Table3Row", "run_table3"),
        ".table4": (
            "PAPER_TABLE4", "Table4Result", "Table4Row", "run_table4",
            "table4_problems",
        ),
    },
)
