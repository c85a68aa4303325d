"""Weighted re-sequencing between iterations (``FindWeightedSequence``, Equation 4).

After a design-point assignment has been chosen, the paper refines the task
*order* for the next iteration: every task ``v`` receives the weight

    w(v) = sum of the chosen design-point currents over the subgraph G_v
           rooted at v (v itself included),

and a list scheduler places ready tasks with larger weights first.  The
intuition follows the property quoted in Section 3: with the
Rakhmatov–Vrudhula model, discharging high currents early (and letting the
battery recover afterwards) costs less apparent charge than the reverse, so
tasks that dominate large high-current subgraphs should be pulled forward.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Tuple

from ..scheduling import DesignPointAssignment, sequence_by_weights
from ..taskgraph import TaskGraph

__all__ = ["equation4_weights", "find_weighted_sequence"]


def equation4_weights(
    graph: TaskGraph, assignment: DesignPointAssignment
) -> Dict[str, float]:
    """Equation 4 weights: total chosen-design-point current of each rooted subgraph.

    Each weight is the correctly rounded ``math.fsum`` of its members'
    currents, so set order (which varies with ``PYTHONHASHSEED``) cannot
    change it.
    """
    assignment.validate(graph)
    chosen_currents = {
        name: assignment.design_point(graph, name).current for name in graph.task_names()
    }
    return {
        name: math.fsum(chosen_currents[member] for member in members)
        for name, members in _rooted_subgraphs(graph).items()
    }


def _rooted_subgraphs(graph: TaskGraph) -> Dict[str, FrozenSet[str]]:
    """Every task's ``G_v`` (itself plus its children's), in one reverse-topological walk."""
    rooted: Dict[str, FrozenSet[str]] = {}
    for name in reversed(graph.topological_order()):
        rooted[name] = frozenset({name}).union(
            *(rooted[child] for child in graph.successors(name))
        )
    return {name: rooted[name] for name in graph.task_names()}


def find_weighted_sequence(
    graph: TaskGraph, assignment: DesignPointAssignment
) -> Tuple[str, ...]:
    """The paper's ``FindWeightedSequence``: list-schedule with Equation 4 weights."""
    return sequence_by_weights(
        graph, equation4_weights(graph, assignment), higher_first=True
    )
