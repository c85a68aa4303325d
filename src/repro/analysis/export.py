"""Export of experiment results to CSV and JSON.

The experiment drivers return :class:`~repro.analysis.TextTable` objects and
structured result dataclasses; these helpers turn them into files that
spreadsheets and plotting scripts can consume, so reproduction runs can be
archived and diffed.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Union

from .tables import TextTable

__all__ = [
    "table_to_csv",
    "save_table_csv",
    "table_to_records",
    "save_json_records",
]

_PathLike = Union[str, Path]


def table_to_csv(table: TextTable) -> str:
    """Serialise a :class:`TextTable` to CSV text (headers + raw cell values)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(table.headers))
    for row in table.rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()


def save_table_csv(table: TextTable, path: _PathLike) -> Path:
    """Write a table to ``path`` as CSV; returns the path written."""
    path = Path(path)
    path.write_text(table_to_csv(table), encoding="utf-8")
    return path


def table_to_records(table: TextTable) -> list:
    """A table as a list of per-row dictionaries (JSON-friendly)."""
    headers = [str(header) for header in table.headers]
    return [dict(zip(headers, row)) for row in table.rows]


def save_json_records(records: list, path: _PathLike, indent: int = 2) -> Path:
    """Write a list of records to ``path`` as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(records, indent=indent, default=_jsonify), encoding="utf-8")
    return path


def _jsonify(value):
    """Fallback encoder for numpy scalars and other simple objects."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, float):
        return value
    return str(value)
