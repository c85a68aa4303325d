"""Analysis helpers: metrics, text tables, leaderboards, visualisation, export."""

from .export import (
    save_json_records,
    save_table_csv,
    table_to_csv,
    table_to_records,
)
from .leaderboard import LeaderboardEntry, compute_leaderboard, leaderboard_table
from .robustness import (
    PolicyStanding,
    RobustnessRow,
    compute_robustness,
    degradation_leaderboard,
    degradation_table,
    robustness_table,
)
from .metrics import (
    ScheduleMetrics,
    percent_difference,
    percent_saving,
    schedule_metrics,
)
from .tournament import (
    TournamentRow,
    TournamentStanding,
    compute_tournament,
    tournament_leaderboard,
    tournament_standings_table,
    tournament_table,
)
from .tables import TextTable, format_value
from .visualize import current_profile_chart, gantt_chart

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
