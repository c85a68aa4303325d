"""Analysis helpers: metrics, text tables, leaderboards, visualisation, export."""

from .. import _lazy_exports

__all__ = [
    "ScheduleMetrics",
    "schedule_metrics",
    "percent_difference",
    "percent_saving",
    "TextTable",
    "format_value",
    "LeaderboardEntry",
    "compute_leaderboard",
    "leaderboard_table",
    "RobustnessRow",
    "PolicyStanding",
    "compute_robustness",
    "robustness_table",
    "degradation_leaderboard",
    "degradation_table",
    "TournamentRow",
    "TournamentStanding",
    "compute_tournament",
    "tournament_table",
    "tournament_leaderboard",
    "tournament_standings_table",
    "gantt_chart",
    "current_profile_chart",
    "table_to_csv",
    "save_table_csv",
    "table_to_records",
    "save_json_records",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".export": (
            "save_json_records", "save_table_csv", "table_to_csv", "table_to_records",
        ),
        ".leaderboard": (
            "LeaderboardEntry", "compute_leaderboard", "leaderboard_table",
        ),
        ".robustness": (
            "PolicyStanding", "RobustnessRow", "compute_robustness",
            "degradation_leaderboard", "degradation_table", "robustness_table",
        ),
        ".metrics": (
            "ScheduleMetrics", "percent_difference", "percent_saving",
            "schedule_metrics",
        ),
        ".tournament": (
            "TournamentRow", "TournamentStanding", "compute_tournament",
            "tournament_leaderboard", "tournament_standings_table", "tournament_table",
        ),
        ".tables": ("TextTable", "format_value"),
        ".visualize": ("current_profile_chart", "gantt_chart"),
    },
)
