"""Battery substrate: discharge profiles and charge/lifetime models.

Implements the paper's cost function — the Rakhmatov–Vrudhula analytical
model of Equation 1, with its rate-capacity and recovery effects — alongside
an ideal coulomb counter, a Peukert's-law model and the kinetic battery
model (KiBaM) as alternative chemistries, plus the :class:`LoadProfile`
structure all of them consume.  Every chemistry shares the vectorized
schedule kernel of :class:`ScheduleKernelMixin` (per-interval contributions
parametrised by time-to-end), so the whole evaluator stack — full,
incremental and batch — is chemistry-generic.
"""

from .base import BatteryModel
from .ideal import IdealBatteryModel
from .kernels import ScheduleKernelMixin, suffix_durations
from .kibam import KineticBatteryModel
from .parameters import (
    BETA_PRESETS,
    CHEMISTRIES,
    PAPER_BETA,
    BatterySpec,
    battery_from_preset,
)
from .peukert import PeukertModel
from .profile import LoadInterval, LoadProfile
from .rakhmatov import DEFAULT_SERIES_TERMS, RakhmatovVrudhulaModel
from .simulate import DischargeTrace, simulate_discharge

__all__ = [
    "BatteryModel",
    "ScheduleKernelMixin",
    "IdealBatteryModel",
    "PeukertModel",
    "KineticBatteryModel",
    "RakhmatovVrudhulaModel",
    "LoadInterval",
    "LoadProfile",
    "BatterySpec",
    "battery_from_preset",
    "BETA_PRESETS",
    "CHEMISTRIES",
    "PAPER_BETA",
    "DEFAULT_SERIES_TERMS",
    "suffix_durations",
    "DischargeTrace",
    "simulate_discharge",
]
