"""Task-graph rewrite passes: cull and fuse.

A dask-style optimization layer over :class:`~repro.taskgraph.TaskGraph`.
Each pass takes a graph and returns an :class:`OptimizedGraph`: a *new*
graph plus enough bookkeeping to translate schedules back to the original:

* :func:`cull` drops every task with no path to a kept sink, generalising
  :func:`~repro.taskgraph.require_connected_sinks` from a checker into a
  rewrite;
* :func:`fuse` collapses linear chains (single-successor tasks feeding
  single-predecessor tasks) into compound tasks whose per-column design
  points sum the members' durations and charges exactly, and keeps an
  *unfuse* map so a schedule found on the fused graph can be expressed on
  the original one.

Sigma-preservation contract (the conformance anchor of the optimize
layer): for ``cull`` + ``fuse``, the canonical evaluator
(:func:`repro.scheduling.evaluate_schedule`) expands every compound into
its recorded member segments, so any schedule of the optimized graph
costs exactly what its :meth:`OptimizedGraph.expand` translation costs on
the original graph — bitwise, for every chemistry, in both evaluation
modes.  The compound's *single* design point (summed duration,
charge-preserving average current) is only the search-time proxy: exact
for the ideal chemistry, an approximation for super-linear (Peukert) or
history-dependent (Rakhmatov–Vrudhula, KiBaM) ones, which is why the
final schedule is always expressible on the original graph through the
unfuse map.

>>> from repro.workloads import chain_graph
>>> graph = chain_graph(4, seed=1)
>>> result = fuse(graph)
>>> result.graph.num_tasks
1
>>> len(result.expand_sequence(result.graph.task_names())) == 4
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError, UnknownTaskError
from .designpoint import DesignPoint
from .graph import TaskGraph
from .task import Task

__all__ = [
    "OPTIMIZE_PASSES",
    "FUSE_SEPARATOR",
    "parse_passes",
    "cull",
    "fuse",
    "optimize_graph",
    "OptimizedGraph",
]

#: Passes accepted by :func:`optimize_graph` (and the scenario-spec
#: ``optimize`` field) — the sigma-preserving subset, in canonical order.
OPTIMIZE_PASSES: Tuple[str, ...] = ("cull", "fuse")

#: Separator joining member names into a compound (fused) task name.
FUSE_SEPARATOR = "+"


def _check_passes(passes: Sequence[str]) -> Tuple[str, ...]:
    """Reject unknown and repeated passes; return the list as a tuple."""
    for index, name in enumerate(passes):
        if name not in OPTIMIZE_PASSES:
            raise ConfigurationError(
                f"unknown optimize pass {name!r}; choose from {OPTIMIZE_PASSES}"
            )
        if name in passes[:index]:
            raise ConfigurationError(f"duplicate optimize pass {name!r}")
    return tuple(passes)


def parse_passes(text: str) -> Tuple[str, ...]:
    """Parse a pass list like ``"cull+fuse"`` (``+`` or ``,`` separated).

    Order is preserved, duplicates and unknown passes are rejected, and the
    empty string parses to no passes.

    >>> parse_passes("cull+fuse")
    ('cull', 'fuse')
    >>> parse_passes("")
    ()
    """
    return _check_passes(
        [
            token.strip()
            for token in text.replace(",", FUSE_SEPARATOR).split(FUSE_SEPARATOR)
            if token.strip()
        ]
    )


# ----------------------------------------------------------------------
# cull
# ----------------------------------------------------------------------
def cull(graph: TaskGraph, sinks: Optional[Sequence[str]] = None) -> OptimizedGraph:
    """Drop every task with no path to a kept sink.

    ``sinks`` defaults to all of the graph's exit tasks, in which case
    nothing is removed (every task of a DAG reaches some exit).  Naming a
    subset keeps exactly the tasks that are one of the sinks or an ancestor
    of one — the rewrite form of
    :func:`~repro.taskgraph.require_connected_sinks`.

    Insertion order of the kept tasks, and therefore ``edges()`` order and
    topological tie-breaking, is preserved.
    """
    if sinks is None:
        kept_sinks: Tuple[str, ...] = graph.exit_tasks()
    else:
        kept_sinks = tuple(sinks)
        if not kept_sinks:
            raise ConfigurationError("cull requires at least one sink to keep")
    keep: Set[str] = set()
    for sink in kept_sinks:
        if sink not in graph:
            raise UnknownTaskError(f"unknown sink task {sink!r}")
        keep.add(sink)
        keep.update(graph.ancestors(sink))
    culled = TaskGraph(name=graph.name)
    for task in graph:
        if task.name in keep:
            culled.add_task(task)
    for parent, child in graph.edges():
        if parent in keep and child in keep:
            culled.add_edge(parent, child)
    removed = tuple(name for name in graph.task_names() if name not in keep)
    return OptimizedGraph(graph=culled, passes=("cull",), removed=removed)


# ----------------------------------------------------------------------
# fuse
# ----------------------------------------------------------------------
def _linear_chains(graph: TaskGraph) -> List[Tuple[str, ...]]:
    """Maximal linear chains (each link single-successor -> single-predecessor)."""
    chains: List[Tuple[str, ...]] = []
    seen: Set[str] = set()
    for name in graph.topological_order():
        if name in seen:
            continue
        preds = graph.predecessors(name)
        if len(preds) == 1:
            (parent,) = preds
            if len(graph.successors(parent)) == 1:
                continue  # interior node; reached from its chain head
        chain = [name]
        seen.add(name)
        current = name
        while True:
            succs = graph.successors(current)
            if len(succs) != 1:
                break
            (child,) = succs
            if len(graph.predecessors(child)) != 1:
                break
            chain.append(child)
            seen.add(child)
            current = child
        if len(chain) >= 2:
            chains.append(tuple(chain))
    return chains


def _compound_task(graph: TaskGraph, members: Tuple[str, ...], name: str) -> Optional[Task]:
    """Build the compound task for a chain, or ``None`` when it cannot fuse.

    Column ``j`` of the compound runs every member at *its* column ``j``
    (canonical fastest-first order), so durations and charges sum exactly:
    ``T_j = fsum(t_ij)`` and ``I_j = fsum(t_ij * I_ij) / T_j`` — the
    charge-preserving average current.  That single design point is the
    *search-time proxy* (exact for the ideal chemistry, an approximation
    for super-linear or history-dependent ones); the exact per-member
    ``(duration, current)`` rows are kept per column in the task's
    ``fused_segments`` metadata, which the canonical evaluator expands so
    a compound interval costs exactly what its members cost back to back.
    Chains whose members disagree on the design-point count, or whose
    summed columns would not survive the canonical (time, -current)
    re-sort unchanged, are left unfused.
    """
    tasks = [graph.task(member) for member in members]
    counts = {task.num_design_points for task in tasks}
    if len(counts) != 1:
        return None
    columns = counts.pop()
    points: List[DesignPoint] = []
    segments: List[List[List[float]]] = []
    for j in range(columns):
        duration = math.fsum(task.execution_times()[j] for task in tasks)
        charge = math.fsum(
            task.execution_times()[j] * task.currents()[j] for task in tasks
        )
        points.append(
            DesignPoint(execution_time=duration, current=charge / duration)
        )
        segments.append(
            [[task.execution_times()[j], task.currents()[j]] for task in tasks]
        )
    compound = Task(
        name=name,
        design_points=points,
        metadata={"fused": list(members), "fused_segments": segments},
    )
    # Column alignment is load-bearing: assignment columns index the
    # canonical order, so the compound's canonical order must equal its
    # construction order or column j would no longer mean "every member
    # at column j".
    if compound.ordered_design_points() != compound.design_points:
        return None
    return compound


def fuse(graph: TaskGraph) -> OptimizedGraph:
    """Collapse every maximal linear chain into one compound task.

    A chain is fusable when every link is single-successor feeding
    single-predecessor; the compound's design points sum the members'
    durations and charges exactly (see :func:`_compound_task`).  The
    returned :class:`OptimizedGraph` carries the unfuse map so the final
    schedule can always be expressed on the original graph.
    """
    chains: Dict[str, Tuple[str, ...]] = {}
    member_of: Dict[str, str] = {}
    compounds: Dict[str, Task] = {}
    taken = set(graph.task_names())
    for members in _linear_chains(graph):
        name = FUSE_SEPARATOR.join(members)
        while name in taken:  # collision with an unrelated task name
            name += "~"
        compound = _compound_task(graph, members, name)
        if compound is None:
            continue
        taken.add(name)
        chains[name] = members
        compounds[name] = compound
        for member in members:
            member_of[member] = name
    fused = TaskGraph(name=graph.name)
    added: Set[str] = set()
    for task in graph:  # insertion order; compound sits at its head's slot
        home = member_of.get(task.name)
        if home is None:
            fused.add_task(task)
        elif home not in added:
            fused.add_task(compounds[home])
            added.add(home)
    for parent, child in graph.edges():
        new_parent = member_of.get(parent, parent)
        new_child = member_of.get(child, child)
        if new_parent != new_child:
            fused.add_edge(new_parent, new_child)
    return OptimizedGraph(graph=fused, passes=("fuse",), chains=chains)


# ----------------------------------------------------------------------
# pass pipeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OptimizedGraph:
    """Outcome of :func:`optimize_graph` or of one pass: graph plus translations.

    ``expand``/``expand_sequence``/``expand_assignment`` translate a
    schedule of :attr:`graph` back to the *culled* original — culled tasks
    are dead by construction (no path to a kept sink), so they have no
    place in any schedule.
    """

    graph: TaskGraph
    """The graph after all requested passes."""

    passes: Tuple[str, ...]
    """The passes that were applied, in order."""

    removed: Tuple[str, ...] = ()
    """Tasks dropped by ``cull`` (empty when cull kept everything)."""

    chains: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    """Compound task name -> members, from the ``fuse`` pass."""

    def expand_sequence(self, sequence: Sequence[str]) -> Tuple[str, ...]:
        """Translate an optimized-graph sequence to original task names."""
        expanded: List[str] = []
        for name in sequence:
            expanded.extend(self.chains.get(name, (name,)))
        return tuple(expanded)

    def expand_assignment(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        """Translate an optimized-graph column assignment to original tasks.

        Compound column ``j`` maps to column ``j`` for every member (the
        compound's columns were built member-column-aligned).
        """
        expanded: Dict[str, int] = {}
        for name, column in assignment.items():
            for member in self.chains.get(name, (name,)):
                expanded[member] = int(column)
        return expanded

    def expand(
        self, sequence: Sequence[str], assignment: Mapping[str, int]
    ) -> Tuple[Tuple[str, ...], Dict[str, int]]:
        """Translate a full optimized-graph schedule back."""
        return self.expand_sequence(sequence), self.expand_assignment(assignment)


def optimize_graph(
    graph: TaskGraph,
    passes: Sequence[str] = OPTIMIZE_PASSES,
    sinks: Optional[Sequence[str]] = None,
) -> OptimizedGraph:
    """Apply the sigma-preserving passes (``cull``, ``fuse``) in order.

    ``sinks`` feeds the cull pass (default: every exit task, i.e. cull
    removes nothing).  Unknown or repeated passes raise
    :class:`~repro.errors.ConfigurationError`.
    """
    applied = _check_passes(passes)
    removed: Tuple[str, ...] = ()
    chains: Mapping[str, Tuple[str, ...]] = {}
    current = graph
    for name in applied:
        if name == "cull":
            result = cull(current, sinks=sinks)
            removed = result.removed
        else:  # fuse
            result = fuse(current)
            chains = result.chains
        current = result.graph
    return OptimizedGraph(
        graph=current, passes=applied, removed=removed, chains=chains
    )
