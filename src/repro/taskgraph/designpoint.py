"""Design points: alternative implementations of a single task.

The paper assumes that every task has *m* design points.  On a voltage- and
frequency-scalable processor a design point is a (voltage, frequency)
operating pair; on an FPGA it is a distinct bitstream.  Either way the
library only needs the two estimates the paper requires for each design
point:

* the execution time of the task when run with that design point, and
* the average *total platform* current drawn while the task runs
  (processor plus memory, display and other peripherals).

Optionally a supply voltage can be attached; when present it participates in
energy calculations (``energy = current * voltage * execution_time``),
matching the ENR definition in Section 4 of the paper.  The published data
tables (Table 1 and Figure 5) only list current and duration, so the voltage
defaults to 1.0 and energy degenerates to charge (mA·min).
"""

from __future__ import annotations

import collections.abc
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..errors import ConfigurationError, DesignPointError

__all__ = ["DesignPoint"]


def _string_keyed(value: Any) -> Any:
    """``value`` with every mapping key a string, nested mappings included.

    What ``to_dict`` emits for free-form metadata, so that any serialised
    graph renders under ``json.dumps(sort_keys=True)`` (which cannot order
    mixed key types) exactly as the content keys' canonicaliser sees it.
    """
    # ``collections.abc``, not the much slower ``typing`` alias: job keys render every node.
    if isinstance(value, collections.abc.Mapping):
        keyed = {str(key): _string_keyed(item) for key, item in value.items()}
        if len(keyed) < len(value):
            raise ConfigurationError(f"metadata keys {list(value)!r} collide as strings")
        return keyed
    if isinstance(value, (list, tuple)):
        return [_string_keyed(item) for item in value]
    return value


@dataclass(frozen=True, order=False)
class DesignPoint:
    """One implementation option for a task.

    Parameters
    ----------
    execution_time:
        Execution time of the task under this design point, in the time unit
        used throughout the problem instance (the paper uses minutes).
        Must be strictly positive.
    current:
        Average total platform current drawn while the task executes, in mA.
        Must be non-negative (an idle/"sleep" pseudo design point may draw
        approximately zero current).
    voltage:
        Supply voltage in volts.  Defaults to 1.0 so that, as in the paper's
        data tables, energy reduces to charge.
    name:
        Optional human-readable label, e.g. ``"DP3"`` or ``"0.85V@600MHz"``.
    metadata:
        Free-form dictionary for caller annotations (frequency, bitstream id,
        scaling factor...).  Not interpreted by the library.
    """

    execution_time: float
    current: float
    voltage: float = 1.0
    name: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.execution_time) or self.execution_time <= 0:
            raise DesignPointError(
                f"design point execution_time must be finite and > 0, "
                f"got {self.execution_time!r}"
            )
        if not math.isfinite(self.current) or self.current < 0:
            raise DesignPointError(
                f"design point current must be finite and >= 0, got {self.current!r}"
            )
        if not math.isfinite(self.voltage) or self.voltage <= 0:
            raise DesignPointError(
                f"design point voltage must be finite and > 0, got {self.voltage!r}"
            )

    @property
    def power(self) -> float:
        """Average power draw, ``current * voltage``.

        With the default voltage of 1.0 this equals the current; it exists so
        that instances carrying real voltages order design points by power
        rather than by raw current.
        """
        return self.current * self.voltage

    @property
    def energy(self) -> float:
        """Energy consumed by one execution, ``current * voltage * time``.

        With the default voltage this is the charge drawn (mA·min), which is
        exactly the quantity the paper's ENR and the battery cost operate on.
        """
        return self.current * self.voltage * self.execution_time

    @property
    def charge(self) -> float:
        """Charge drawn by one execution, ``current * time`` (mA·min)."""
        return self.current * self.execution_time

    def scaled(self, time_factor: float = 1.0, current_factor: float = 1.0) -> "DesignPoint":
        """Return a copy with execution time and current multiplied by factors."""
        return DesignPoint(
            execution_time=self.execution_time * time_factor,
            current=self.current * current_factor,
            voltage=self.voltage,
            name=self.name,
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> dict:
        """Serialise to a plain dictionary (JSON-friendly)."""
        data = {
            "execution_time": self.execution_time,
            "current": self.current,
            "voltage": self.voltage,
        }
        if self.name:
            data["name"] = self.name
        if self.metadata:
            data["metadata"] = _string_keyed(self.metadata)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignPoint":
        """Inverse of :meth:`to_dict`."""
        return cls(
            execution_time=float(data["execution_time"]),
            current=float(data["current"]),
            voltage=float(data.get("voltage", 1.0)),
            name=str(data.get("name", "")),
            metadata=dict(data.get("metadata", {})),
        )

    def __repr__(self) -> str:  # compact, table-friendly
        label = f"{self.name}: " if self.name else ""
        return (
            f"DesignPoint({label}t={self.execution_time:g}, "
            f"I={self.current:g}mA, V={self.voltage:g})"
        )
