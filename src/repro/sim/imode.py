"""Information modes: what a scheduling policy *believes* about durations.

The simulator draws realised durations from the perturbation streams; the
online policies, until this module existed, planned against the *exact*
modeled execution times — an online scheduler that is never wrong in
expectation.  The paper's offline-vs-online question needs the missing
axis (estee's ``imode``): what the scheduler believes vs. what the
simulator draws.  An :class:`InformationMode` mediates **every** duration
estimate a policy sees:

* ``exact`` — beliefs are the modeled tables themselves (the default, and
  what ``imode=None`` means: both spellings resolve to one shared
  :class:`GraphBeliefs`, so they are one code path);
* ``blind`` — no duration information: every believed time is ``inf``, so
  policies fall back to their information-free defaults (a blind policy
  never observes a finite duration estimate — a pinned property);
* ``mean`` — per-column means across the whole graph: the speed-ladder
  structure survives, per-task identity is erased;
* ``noisy(rel_error, seed)`` — the modeled times scaled by seeded,
  mean-one lognormal factors per (task, design point): a miscalibrated
  profile, reproducible from ``(graph, rel_error, seed)`` alone.

Belief draws live on their own RNG substream, derived from
``SeedSequence([seed, _BELIEF_STREAM])`` with a constant stream tag —
strictly separate material from the perturbation streams'
``SeedSequence([seed, replication])`` (:func:`~repro.sim.perturbation.
rng_for_seed`) — so changing the information mode never perturbs the
jitter/failure draws, and vice versa.  The belief-independence property
tests pin this contract.

Beliefs are resolved once per (graph, mode) into a :class:`GraphBeliefs`
table (believed times, min-times, energies, priority inputs) shared by
every simulator over that graph — including every batch cell.
The tables are memoised on the simulator's per-graph tables
(:mod:`repro.sim.batch`), so they are rebuilt when the graph grows.

>>> mode = InformationMode.noisy(0.3, seed=7)
>>> mode.is_exact, mode.kind
(False, 'noisy')
>>> InformationMode.exact().is_exact
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["INFORMATION_MODES", "InformationMode", "GraphBeliefs", "resolve_beliefs"]

#: The supported mode kinds (mirrored by ``ScenarioSpec.imode`` validation).
INFORMATION_MODES: Tuple[str, ...] = ("exact", "blind", "mean", "noisy")

#: Stream tag mixed into the belief SeedSequence.  Deliberately far outside
#: any plausible replication index, so ``SeedSequence([seed, _BELIEF_STREAM])``
#: can never collide with a perturbation stream's
#: ``SeedSequence([seed, replication])``.
_BELIEF_STREAM = 0x1BE11EF5EED


@dataclass(frozen=True)
class InformationMode:
    """One policy-side information regime, as pure data.

    Attributes
    ----------
    kind:
        One of :data:`INFORMATION_MODES`.
    rel_error:
        Relative spread of the ``noisy`` mode's mean-one lognormal belief
        factors (must be positive for ``noisy``, zero otherwise).
    seed:
        Belief-stream seed of the ``noisy`` mode (zero otherwise); two
        equal seeds believe identical duration tables on the same graph.
    """

    kind: str = "exact"
    rel_error: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in INFORMATION_MODES:
            raise ConfigurationError(
                f"unknown information mode {self.kind!r}; "
                f"choose from {list(INFORMATION_MODES)}"
            )
        if self.kind == "noisy":
            if not self.rel_error > 0:
                raise ConfigurationError(
                    "a noisy information mode needs rel_error > 0, "
                    f"got {self.rel_error!r}"
                )
        else:
            if self.rel_error != 0.0:
                raise ConfigurationError(
                    f"rel_error only applies to the noisy mode, not {self.kind!r}"
                )
            if self.seed != 0:
                raise ConfigurationError(
                    f"a belief seed only applies to the noisy mode, not {self.kind!r}"
                )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def exact(cls) -> "InformationMode":
        """Full information: believed times are the modeled times."""
        return cls(kind="exact")

    @classmethod
    def blind(cls) -> "InformationMode":
        """No duration information: every believed time is ``inf``."""
        return cls(kind="blind")

    @classmethod
    def mean(cls) -> "InformationMode":
        """Per-column cross-task means: structure without task identity."""
        return cls(kind="mean")

    @classmethod
    def noisy(cls, rel_error: float, seed: int = 0) -> "InformationMode":
        """Modeled times scaled by seeded mean-one lognormal factors."""
        return cls(kind="noisy", rel_error=float(rel_error), seed=int(seed))

    # ------------------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """True for the full-information (conformance-anchor) mode."""
        return self.kind == "exact"

    @property
    def token(self) -> Tuple:
        """Hashable identity keying the per-graph belief tables."""
        return (self.kind, self.rel_error, self.seed)

    @property
    def label(self) -> str:
        """Compact display form (``noisy(0.3,7)``; bare kind otherwise)."""
        if self.kind == "noisy":
            return f"noisy({self.rel_error:g},{self.seed})"
        return self.kind

    def belief_rng(self) -> np.random.Generator:
        """The belief substream: independent of every perturbation stream.

        >>> a = InformationMode.noisy(0.2, seed=3).belief_rng().random(2)
        >>> b = InformationMode.noisy(0.2, seed=3).belief_rng().random(2)
        >>> bool((a == b).all())
        True
        """
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, _BELIEF_STREAM]))
        )


class GraphBeliefs:
    """Resolved believed-duration tables of one (graph, mode) pair.

    Everything a policy may consult about durations, precomputed in
    canonical design-point column order (the order of
    :meth:`~repro.taskgraph.Task.ordered_design_points`, which is also the
    simulator's attempt/column order):

    ``times``
        task -> believed execution time per column.
    ``min_times``
        task -> believed fastest time (``inf`` under ``blind``).
    ``energies``
        task -> believed energy per column (believed time x real current —
        the current is a measured platform property, not an estimate).
    ``average_energy``
        task -> mean believed energy (the greedy/reactive priority input).
    ``remaining_partials``
        exact-sum partials of all believed min-times (``None`` under
        ``blind``, whose remaining-work bound is ``inf`` by definition).
    ``weights``
        policy qualname -> ``(weights, sort order)`` of the policies whose
        priorities are a pure function of (graph, mode), filled on first
        bind.

    Under ``exact`` every table *is* the modeled one: the task's cached
    ``execution_times()``/``energies()`` rows, its ``average_energy``, and
    the simulator's per-graph min-times and partials.  They are shared,
    never recomputed — time x current and an fsum mean do not reproduce
    the modeled floats bitwise.
    """

    __slots__ = (
        "mode",
        "blind",
        "times",
        "min_times",
        "energies",
        "average_energy",
        "remaining_partials",
        "weights",
    )

    def __init__(self, graph, mode: InformationMode) -> None:
        from .livestate import ExactSum
        from .batch import _graph_tables

        self.mode = mode
        self.blind = mode.kind == "blind"
        self.weights: Dict[str, Tuple] = {}
        names = graph.task_names()
        if mode.is_exact:
            tables = _graph_tables(graph)
            tasks = [graph.task(name) for name in names]
            self.times = {task.name: task.execution_times() for task in tasks}
            self.min_times = tables.min_times
            self.energies = {task.name: task.energies() for task in tasks}
            self.average_energy = {task.name: task.average_energy for task in tasks}
            self.remaining_partials = tables.remaining_partials
            return
        modeled: Dict[str, Tuple[float, ...]] = {
            name: graph.task(name).execution_times() for name in names
        }
        if mode.kind == "blind":
            times = {
                name: (math.inf,) * len(row) for name, row in modeled.items()
            }
        elif mode.kind == "mean":
            width = max(len(row) for row in modeled.values())
            column_means = [
                _column_mean(modeled, names, column) for column in range(width)
            ]
            times = {
                name: tuple(column_means[: len(row)])
                for name, row in modeled.items()
            }
        else:
            rng = mode.belief_rng()
            spread = mode.rel_error
            times = {}
            for name in names:  # canonical draw order: task, then column
                times[name] = tuple(
                    time * rng.lognormal(-0.5 * spread * spread, spread)
                    for time in modeled[name]
                )
        self.times = times
        self.min_times = {name: min(row) for name, row in times.items()}
        self.energies = {
            name: tuple(
                time * current
                for time, current in zip(times[name], graph.task(name).currents())
            )
            for name in names
        }
        self.average_energy = {
            name: (
                math.fsum(row) / len(row) if row else 0.0
            )
            for name, row in self.energies.items()
        }
        self.remaining_partials = (
            None if self.blind else ExactSum(self.min_times.values()).partials
        )

    def __repr__(self) -> str:
        return f"GraphBeliefs({self.mode.label}, {len(self.times)} tasks)"


def _column_mean(modeled, names, column: int) -> float:
    """Mean modeled time of one column across the tasks that have it."""
    values = [
        modeled[name][column] for name in names if column < len(modeled[name])
    ]
    return math.fsum(values) / len(values)


_EXACT = InformationMode.exact()


def resolve_beliefs(graph, mode: Optional[InformationMode]) -> GraphBeliefs:
    """The shared belief tables for ``(graph, mode)``; ``None`` means exact.

    Memoised per mode token on the simulator's per-graph tables, so every
    simulator, batch cell and policy over one graph reads one object, and
    ``resolve_beliefs(graph, None) is resolve_beliefs(graph, exact)``.
    """
    from .batch import _graph_tables

    if mode is None:
        mode = _EXACT
    per_graph = _graph_tables(graph).beliefs
    entry = per_graph.get(mode.token)
    if entry is None:
        entry = per_graph[mode.token] = GraphBeliefs(graph, mode)
    return entry
