"""Canonical JSON for content keys: scenario hashes and engine job keys.

>>> canonical_json({"b": [1.0, float("inf")], 3: 2})
'{"3":2,"b":[1.0,"inf"]}'
"""

from __future__ import annotations

import collections.abc
import json
import math
from typing import Any

from .errors import ConfigurationError

__all__ = ["canonical_json"]


def _canonical(value: Any) -> Any:
    """Normalise a value so that equal contents produce equal JSON.

    Mapping keys become strings, sequences become lists and ``inf``/``-inf``
    become tagged strings.  The one normaliser behind every content key: the
    scenario content hashes and the engine's job keys.
    """
    # The ``collections.abc`` ABC, not the much slower ``typing`` alias: this
    # recursion visits every node of a static-replay job's whole schedule.
    if isinstance(value, collections.abc.Mapping):
        # Unsorted, so mixed key types work: the canonical JSON sorts keys.
        canonical = {str(k): _canonical(v) for k, v in value.items()}
        if len(canonical) < len(value):
            raise ConfigurationError(f"mapping keys {list(value)!r} collide as strings")
        return canonical
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def canonical_json(data: Any) -> str:
    """Deterministic JSON used for content hashing (sorted keys, no spaces)."""
    return json.dumps(_canonical(data), sort_keys=True, separators=(",", ":"))
