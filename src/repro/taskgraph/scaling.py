"""Voltage-scaling based synthesis of design points.

Both evaluation task graphs in the paper were produced from a single
"worst case" implementation per task by applying voltage scaling factors
(Sections 4.2 and 5):

* task currents are *directly proportional to the cube* of the scaling
  factor (power scales roughly with V^2 * f and f scales with V, so the
  drawn current scales with V^3 for a fixed supply-voltage reference), and
* task durations grow as the voltage is lowered.

The two graphs apply the duration rule differently, and the published data
tables make the distinction visible:

``"inverse"``
    ``duration_j = base_duration / factor_j`` — used for **G2** (Figure 5),
    whose factors are expressed relative to the slowest design point
    (``2.5, 1.66, 1.25, 1``).  This is literal inverse proportionality.

``"mirrored"``
    ``duration_j = slowest_duration * factor_{m+1-j}`` — what the **G3**
    numbers in Table 1 actually follow for factors expressed relative to the
    fastest design point (``1, 0.85, 0.68, 0.51, 0.33``): the duration column
    is the factor list applied in reverse order to the slowest duration.
    (Literal inverse proportionality would give duration ratios
    ``1 : 1.18 : 1.47 : 1.96 : 3.03``, which do not match Table 1; the
    mirrored rule reproduces every entry to the table's printed precision.)

Both rules are provided so that the Table 1 / Figure 5 data can be
regenerated and cross-checked against the verbatim transcription in
:mod:`repro.taskgraph.library`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from ..errors import ConfigurationError, DesignPointError
from .designpoint import DesignPoint

__all__ = [
    "G3_SCALING_FACTORS",
    "G2_SCALING_FACTORS",
    "cubic_current",
    "scaled_design_points",
    "scaled_task_rows",
]

#: Scaling factors used for G3 (Table 1), relative to the fastest design point.
G3_SCALING_FACTORS: Tuple[float, ...] = (1.0, 0.85, 0.68, 0.51, 0.33)

#: Scaling factors used for G2 (Figure 5), relative to the slowest design point.
G2_SCALING_FACTORS: Tuple[float, ...] = (2.5, 1.66, 1.25, 1.0)

_DURATION_RULES = ("inverse", "mirrored")


def cubic_current(reference_current: float, factor: float) -> float:
    """Current of a design point whose voltage scaling factor is ``factor``.

    The paper states that "task currents for different design-points were
    made directly proportional to the cube of the scaling factor"; the
    reference current is the current at factor 1.0.
    """
    if reference_current < 0:
        raise DesignPointError("reference current must be non-negative")
    if factor <= 0:
        raise DesignPointError("scaling factor must be positive")
    return reference_current * factor**3


def scaled_design_points(
    reference_duration: float,
    reference_current: float,
    factors: Sequence[float] = G3_SCALING_FACTORS,
    duration_rule: str = "inverse",
    voltages: Optional[Sequence[float]] = None,
    name_prefix: str = "DP",
) -> Tuple[DesignPoint, ...]:
    """Synthesise a family of design points from one reference implementation.

    Parameters
    ----------
    reference_duration:
        Execution time of the reference implementation (the design point
        whose scaling factor is 1.0).
    reference_current:
        Platform current of the reference implementation, in mA.
    factors:
        Voltage scaling factors, one per design point, each relative to the
        reference.  The first factor conventionally belongs to design point 1
        (the paper's fastest / highest-power column).
    duration_rule:
        ``"inverse"`` (duration = reference_duration * f_ref / f_j, i.e.
        inversely proportional to the factor) or ``"mirrored"`` (durations are
        the reversed factor list applied to the slowest duration; see the
        module docstring).  For the ``"mirrored"`` rule the reference duration
        is interpreted as the duration at factor 1.0, exactly as for
        ``"inverse"``; the slowest duration is derived internally.
    voltages:
        Optional explicit supply voltages, one per design point.  When
        omitted the voltage defaults to 1.0 (energy == charge).
    name_prefix:
        Design points are named ``f"{name_prefix}{j}"`` with ``j`` starting
        at 1.

    Returns
    -------
    tuple of :class:`DesignPoint`
        In the given factor order; for descending factors this is the
        paper's canonical "fastest first" column order.
    """
    factor_list = [float(f) for f in factors]
    if not factor_list:
        raise ConfigurationError("at least one scaling factor is required")
    if any(f <= 0 for f in factor_list):
        raise DesignPointError("scaling factors must be strictly positive")
    if duration_rule not in _DURATION_RULES:
        raise ConfigurationError(
            f"duration_rule must be one of {_DURATION_RULES}, got {duration_rule!r}"
        )
    if reference_duration <= 0:
        raise DesignPointError("reference duration must be positive")
    if voltages is not None and len(voltages) != len(factor_list):
        raise ConfigurationError(
            "voltages, when given, must have one entry per scaling factor"
        )

    reference_factor = 1.0
    if 1.0 not in factor_list:
        # Factors may be expressed relative to an implicit unit reference
        # that is not itself in the list; treat the closest-to-one factor
        # as the reference for duration normalisation.
        reference_factor = min(factor_list, key=lambda f: abs(f - 1.0))

    durations = _durations(reference_duration, factor_list, reference_factor, duration_rule)

    points = []
    for index, factor in enumerate(factor_list):
        current = cubic_current(reference_current, factor / reference_factor)
        voltage = float(voltages[index]) if voltages is not None else 1.0
        points.append(
            DesignPoint(
                execution_time=durations[index],
                current=current,
                voltage=voltage,
                name=f"{name_prefix}{index + 1}",
                metadata={"scaling_factor": factor},
            )
        )
    return tuple(points)


def _durations(
    reference_duration: float,
    factors: Sequence[float],
    reference_factor: float,
    duration_rule: str,
) -> Tuple[float, ...]:
    if duration_rule == "inverse":
        return tuple(
            reference_duration * reference_factor / factor for factor in factors
        )
    # "mirrored": the slowest duration corresponds to the smallest factor;
    # durations are the reversed factor list scaled onto it.
    smallest = min(factors)
    slowest_duration = reference_duration * reference_factor / smallest
    reversed_factors = list(reversed(list(factors)))
    largest = max(reversed_factors)
    return tuple(
        slowest_duration * factor / largest for factor in reversed_factors
    )


def scaled_task_rows(
    base_rows: Iterable[Tuple[float, float]],
    factors: Sequence[float] = G3_SCALING_FACTORS,
    duration_rule: str = "inverse",
) -> Tuple[Tuple[DesignPoint, ...], ...]:
    """Apply :func:`scaled_design_points` to many ``(duration, current)`` rows.

    Convenience helper used by the synthetic workload generators: every row
    describes one task's reference implementation and the same factor family
    is applied to all of them (as the paper did for G2 and G3).
    """
    return tuple(
        scaled_design_points(duration, current, factors, duration_rule)
        for duration, current in base_rows
    )
