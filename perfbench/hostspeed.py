"""Host-speed normalisation: a reference probe interleaved with the program.

On a shared machine the same computation can run at half speed for tens of
seconds.  While a pass runs, :class:`Sampler` interrupts the program every
``PERIOD_S`` seconds (``SIGALRM``) to time :func:`probe`, a fixed
pure-Python loop of dictionary, sort and float work that does not depend on
the program.  A slow phase slows the probe too, so the time the program
spends between two probes, multiplied by ``REFERENCE_PROBE_S`` over the
probe times measured around it, is the time the same work takes on a host
where the probe takes ``REFERENCE_PROBE_S``.  Timings reported in "s" and
"ms" are normalised this way; the probe's own time is excluded.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time

__all__ = ["PERIOD_S", "REFERENCE_PROBE_S", "Sampler", "probe"]

#: Seconds between probes.
PERIOD_S = 0.05
#: Probe time that defines the reference host speed (a quiet 3 GHz core).
REFERENCE_PROBE_S = 0.001
#: Probes on each side of a stretch of program time that set its speed.
_WINDOW = 5


def probe() -> float:
    """Run the fixed reference work once; returns its seconds.

    The garbage collector is paused meanwhile, so a collection of the
    program's objects never lands in the probe's time.
    """
    collecting = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    acc = 0.0
    for k in range(40):
        xs = [((i * 7919 + k * 31) % 1000) / 997.0 for i in range(40)]
        table = {f"t{i}": x * 1.5 for i, x in enumerate(xs)}
        acc += math.fsum(sorted(table.values())) + len(str(xs[:5]))
    elapsed = time.perf_counter() - started
    if collecting:
        gc.enable()
    return elapsed


class Sampler:
    """Probe timings taken on a timer signal while the program runs."""

    def __init__(self) -> None:
        self.starts = []
        self.ends = []
        self._factors = []
        self._busy = False
        self._running = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        probe()
        self.starts.append(started)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._on_alarm(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop probing (idempotent); the timeline is final afterwards."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False
        self._on_alarm(signal.SIGALRM, None)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        self._factors = [
            REFERENCE_PROBE_S
            / statistics.median(durations[max(0, i - _WINDOW + 1) : i + _WINDOW + 1])
            for i in range(len(durations))
        ]

    # ------------------------------------------------------------------
    def probe_s(self) -> float:
        """Median probe time of the whole sampling period."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def normalise(self, begin: float, end: float) -> float:
        """Reference-speed seconds of the program time within [begin, end].

        Program time runs from each probe's end to the next probe's start;
        its speed factor comes from the probes on either side of it.
        """
        total = 0.0
        index = max(0, bisect.bisect_right(self.starts, begin) - 1)
        while index < len(self.starts) and self.starts[index] < end:
            gap_end = self.starts[index + 1] if index + 1 < len(self.starts) else end
            lo, hi = max(begin, self.ends[index]), min(end, gap_end)
            if hi > lo:
                total += (hi - lo) * self._factors[index]
            index += 1
        return total
