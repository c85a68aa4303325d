"""Configuration of the iterative scheduler.

The defaults reproduce the paper's algorithm exactly; the two settings are
the ones callers vary (the evaluation point and the ablation's weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..scheduling.cost import EVALUATION_MODES
from .factors import FactorWeights

__all__ = ["SchedulerConfig"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Settings of :func:`repro.core.battery_aware_schedule`.

    Attributes
    ----------
    evaluate_at:
        Where every battery cost sigma of the search is evaluated, with the
        semantics the evaluator and the simulator share: ``"completion"``
        (the paper's default, at the makespan) or ``"deadline"`` (credits
        recovery during the idle tail before the deadline).
    factor_weights:
        Per-factor weights of the suitability ``B`` that ranks candidate
        design points; ``None`` means the paper's plain sum.  The factor
        ablation sets it, one factor dropped at a time.
    """

    evaluate_at: str = "completion"
    factor_weights: Optional[FactorWeights] = None

    def __post_init__(self) -> None:
        if self.evaluate_at not in EVALUATION_MODES:
            raise ConfigurationError(
                f"evaluate_at must be one of {EVALUATION_MODES}, got {self.evaluate_at!r}"
            )
