"""Append-only JSONL result store with resume support.

Every completed result record (a :class:`~repro.engine.jobs.JobResult` or
a :class:`~repro.engine.simjobs.SimulationRecord`) is appended to a
``*.jsonl`` file as one JSON object per line, flushed immediately.  The
engine appends one call's fresh records only after all of them have run
(``append_many`` after ``dispatch`` in :mod:`repro.engine.api`), so a run
killed half-way leaves the store valid but saves none of that call's work;
in-order commits as jobs finish are ROADMAP item 4.  On the next run the
engine loads the store, skips every job whose key already has a
*successful* result (failed jobs are retried — their error may have been
transient), and only executes the remainder.

Append-only means a key can legitimately appear more than once (a retried
failure, a forced re-run); the last line wins on load.  Lines that fail to
parse — e.g. the torn final line of an interrupted run — are counted and
skipped, never fatal.  Before appending to a file that does not end in a
newline, the store ends the torn line first, so the new record stays a
line of its own.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Set, TextIO, Tuple, Union

from .jobs import JobResult

__all__ = ["ResultStore"]

_PathLike = Union[str, Path]
#: Any job with ``key()`` (Job, SimulationJob) and any record with
#: ``key``/``ok``/``to_dict``/``from_dict`` (JobResult, SimulationRecord).
_Job = Any
_Record = Any


class ResultStore:
    """A durable key -> result-record mapping backed by one JSONL file.

    ``record_type`` is the record class stored in this file —
    :class:`JobResult` (the default) for experiment runs,
    :class:`~repro.engine.simjobs.SimulationRecord` for simulation runs.
    Any class with ``key``/``ok``/``to_dict``/``from_dict`` fits; one store
    file holds exactly one record type.
    """

    def __init__(self, path: _PathLike, record_type: type = JobResult) -> None:
        self.path = Path(path)
        self.record_type = record_type
        self.corrupt_lines = 0

    def exists(self) -> bool:
        """True when the backing file is present on disk."""
        return self.path.exists()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, _Record]:
        """All stored results, last write per key winning."""
        results: Dict[str, _Record] = {}
        self.corrupt_lines = 0
        if not self.path.exists():
            return results
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    result = self.record_type.from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    self.corrupt_lines += 1
                    continue
                results[result.key] = result
        return results

    def completed_keys(self, include_failed: bool = False) -> Set[str]:
        """Keys that already hold a result (successful ones only by default)."""
        return {
            key
            for key, result in self.load().items()
            if include_failed or result.ok
        }

    def split_pending(
        self, jobs: Iterable[_Job]
    ) -> Tuple[List[_Job], Dict[str, _Record]]:
        """Partition ``jobs`` into (still to run, already-done key -> result).

        A job counts as done only when the store holds a *successful* result
        under its key; failed results are returned for inspection but their
        jobs are scheduled again.
        """
        known = self.load()
        pending: List[_Job] = []
        done: Dict[str, _Record] = {}
        for job in jobs:
            key = job.key()
            result = known.get(key)
            if result is not None and result.ok:
                done[key] = result
            else:
                pending.append(job)
        return pending, done

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _open_for_append(self) -> TextIO:
        """Open the file for appending, first ending a torn final line.

        A run killed mid-write leaves a last line with no newline; a record
        appended straight after it would be glued onto the fragment and
        lost with it on load.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        torn = False
        if self.path.exists() and self.path.stat().st_size:
            with self.path.open("rb") as tail:
                tail.seek(-1, os.SEEK_END)
                torn = tail.read(1) != b"\n"
        handle = self.path.open("a", encoding="utf-8")
        if torn:
            handle.write("\n")
        return handle

    def append(self, result: _Record) -> None:
        """Durably append one result (parent directory is created on demand)."""
        with self._open_for_append() as handle:
            handle.write(json.dumps(result.to_dict(), sort_keys=True))
            handle.write("\n")
            handle.flush()

    def append_many(self, results: Iterable[_Record]) -> None:
        """Append several results with a single open/flush cycle."""
        results = list(results)
        if not results:
            return
        with self._open_for_append() as handle:
            for result in results:
                handle.write(json.dumps(result.to_dict(), sort_keys=True))
                handle.write("\n")
            handle.flush()

    def __len__(self) -> int:
        return len(self.load())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r})"
