"""Battery substrate: discharge profiles and charge/lifetime models.

Implements the paper's cost function — the Rakhmatov–Vrudhula analytical
model of Equation 1, with its rate-capacity and recovery effects — alongside
an ideal coulomb counter, a Peukert's-law model and the kinetic battery
model (KiBaM) as alternative chemistries, plus the :class:`LoadProfile`
structure all of them consume.  Every :class:`BatteryModel` implements the
vectorized schedule kernel of :mod:`repro.battery.kernels` (per-interval
contributions parametrised by time-to-end), so the whole evaluator stack —
single-schedule, move proposals and batch — is chemistry-generic.
"""

from .. import _lazy_exports

__all__ = [
    "BatteryModel",
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

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".base": ("BatteryModel",),
        ".ideal": ("IdealBatteryModel",),
        ".kernels": ("suffix_durations",),
        ".kibam": ("KineticBatteryModel",),
        ".parameters": (
            "BETA_PRESETS", "CHEMISTRIES", "PAPER_BETA", "BatterySpec",
            "battery_from_preset",
        ),
        ".peukert": ("PeukertModel",),
        ".profile": ("LoadInterval", "LoadProfile"),
        ".rakhmatov": ("DEFAULT_SERIES_TERMS", "RakhmatovVrudhulaModel"),
        ".simulate": ("DischargeTrace", "simulate_discharge"),
    },
)
