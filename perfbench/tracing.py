"""Outside-in layer tracing: wrappers around the package's public functions.

Nothing in ``repro`` is edited and ``repro.obs`` stays disabled.  A
:class:`Tracer` replaces selected functions and methods with wrappers that
record one span per call (name, start, end, parent) into in-memory arrays;
a few very hot functions are only counted.  Functions imported by name into
other modules are replaced in every module that binds them, because that is
where callers look them up.  A span's self time is its duration minus the
durations of its direct children; self time rolls up into layers by the
first component of the span name.

Pool workers started with ``fork`` inherit the wrappers.  Each worker keeps
its own aggregates and writes them to a file in the tracer's directory when
it exits; :meth:`Tracer.merged` folds them into the parent's figures.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array
from collections import defaultdict
from multiprocessing import util as mp_util

__all__ = ["Tracer", "layer_of"]

def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to.

    Registry runners (``engine.algo.<name>``) hold the baselines' own work,
    so their self time is its own layer, ``algo``.
    """
    if span_name.startswith("engine.algo."):
        return "algo"
    return span_name.split(".", 1)[0]


class _Stats:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """In-memory span recorder with function-wrapping helpers.

    ``span_dir`` receives the per-worker aggregate files.
    """

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self._patches = []
        self.counts = defaultdict(int)
        self.values = defaultdict(float)
        self.samples = defaultdict(list)
        self._reset()

    def _reset(self) -> None:
        self.names = []
        self._name_ids = {}
        # One row per span: name id, parent row (-1 = root), start, end.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        # Cleared in place: the installed wrappers hold these very objects.
        self.counts.clear()
        self.values.clear()
        self.samples.clear()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def begin(self, name: str) -> int:
        row = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(math.nan)
        self._stack.append(row)
        return row

    def end(self, row: int) -> None:
        self.span_end[row] = time.perf_counter()
        self._stack.pop()

    def traced(self, name, fn, after=None, rows=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` runs after.

        ``name`` is a string or a callable of the call's arguments.
        ``rows(args, kwargs)`` adds an operation count to ``<name>.rows``.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if rows is not None:
                tracer.counts[label + ".rows"] += rows(args, kwargs)
            row = tracer.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(row)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        for attr in ("__module__", "__qualname__", "__name__", "__doc__"):
            try:
                setattr(wrapper, attr, getattr(fn, attr))
            except AttributeError:
                pass
        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped to count calls only (no span: too hot to time)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # installing
    # ------------------------------------------------------------------
    def patch_method(self, owner, attr: str, make) -> bool:
        """Replace ``owner.attr`` with ``make(original)``; False if absent."""
        original = owner.__dict__.get(attr)
        if original is None:
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def patch_function(self, module_name: str, attr: str, make) -> bool:
        """Replace a function in every loaded ``repro`` module that binds it.

        Returns False when the defining module or the function is gone.
        """
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            return False
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapper)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def follow_forks(self) -> None:
        """Make forked pool workers record afresh and report on exit."""
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self._reset()
        mp_util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = os.path.join(self.span_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.summary(), handle)

    # ------------------------------------------------------------------
    # reducing
    # ------------------------------------------------------------------
    def stats(self):
        """Per span name: calls, self seconds and total (inclusive) seconds."""
        out = defaultdict(_Stats)
        child_time = [0.0] * len(self.span_start)
        # Children always follow their parent, so one reverse sweep sees
        # every child's duration before its parent is reduced.
        for row in range(len(self.span_start) - 1, -1, -1):
            duration = self.span_end[row] - self.span_start[row]
            if math.isnan(duration):
                continue
            stats = out[self.names[self.span_name[row]]]
            stats.calls += 1
            stats.total_s += duration
            stats.self_s += duration - child_time[row]
            parent = self.span_parent[row]
            if parent >= 0:
                child_time[parent] += duration
        return out

    def summary(self):
        """JSON-able aggregates: span stats, counters and values."""
        return {
            "spans": {
                name: [s.calls, s.self_s, s.total_s] for name, s in self.stats().items()
            },
            "counts": dict(self.counts),
            "values": dict(self.values),
            "samples": {name: list(v) for name, v in self.samples.items()},
        }

    def merged(self):
        """This process's summary plus every worker file in ``span_dir``."""
        total = self.summary()
        total["workers"] = 0
        for entry in sorted(os.listdir(self.span_dir)):
            if not entry.startswith("worker-"):
                continue
            with open(os.path.join(self.span_dir, entry), encoding="utf-8") as handle:
                worker = json.load(handle)
            total["workers"] += 1
            for name, (calls, self_s, total_s) in worker["spans"].items():
                mine = total["spans"].setdefault(name, [0, 0.0, 0.0])
                mine[0] += calls
                mine[1] += self_s
                mine[2] += total_s
            for key in ("counts", "values"):
                for name, value in worker[key].items():
                    total[key][name] = total[key].get(name, 0) + value
            for name, values in worker["samples"].items():
                total["samples"].setdefault(name, []).extend(values)
        return total

    def write(self, path: str) -> None:
        """Write this process's spans once, as one JSON line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in range(len(self.span_start)):
                handle.write(
                    json.dumps(
                        [
                            self.names[self.span_name[row]],
                            self.span_start[row],
                            self.span_end[row],
                            self.span_parent[row],
                        ]
                    )
                )
                handle.write("\n")
