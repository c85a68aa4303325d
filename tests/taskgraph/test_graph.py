"""Unit tests for repro.taskgraph.graph."""

import pytest

from repro.errors import CyclicGraphError, TaskGraphError, UnknownTaskError
from repro.taskgraph import DesignPoint, Task, TaskGraph

from ..conftest import make_simple_task


def simple_graph():
    graph = TaskGraph(name="g")
    for name in ("A", "B", "C", "D"):
        graph.add_task(make_simple_task(name))
    graph.add_edge("A", "B")
    graph.add_edge("A", "C")
    graph.add_edge("B", "D")
    graph.add_edge("C", "D")
    return graph


class TestConstruction:
    def test_add_task_and_contains(self):
        graph = TaskGraph()
        graph.add_task(make_simple_task("A"))
        assert "A" in graph
        assert "B" not in graph

    def test_duplicate_task_rejected(self):
        graph = TaskGraph()
        graph.add_task(make_simple_task("A"))
        with pytest.raises(TaskGraphError):
            graph.add_task(make_simple_task("A"))

    def test_add_task_requires_task_instance(self):
        with pytest.raises(TaskGraphError):
            TaskGraph().add_task("not a task")

    def test_edge_to_unknown_task(self):
        graph = TaskGraph()
        graph.add_task(make_simple_task("A"))
        with pytest.raises(UnknownTaskError):
            graph.add_edge("A", "B")

    def test_self_loop_rejected(self):
        graph = TaskGraph()
        graph.add_task(make_simple_task("A"))
        with pytest.raises(CyclicGraphError):
            graph.add_edge("A", "A")

    def test_cycle_rejected(self):
        graph = TaskGraph()
        for name in ("A", "B", "C"):
            graph.add_task(make_simple_task(name))
        graph.add_edge("A", "B")
        graph.add_edge("B", "C")
        with pytest.raises(CyclicGraphError):
            graph.add_edge("C", "A")

    def test_edge_idempotent(self):
        graph = simple_graph()
        before = graph.num_edges
        graph.add_edge("A", "B")
        assert graph.num_edges == before

    def test_remove_edge(self):
        graph = simple_graph()
        graph.remove_edge("A", "B")
        assert "B" not in graph.successors("A")
        with pytest.raises(TaskGraphError):
            graph.remove_edge("A", "B")

    def test_constructor_with_tasks_and_edges(self):
        tasks = [make_simple_task(n) for n in ("X", "Y")]
        graph = TaskGraph(name="t", tasks=tasks, edges=[("X", "Y")])
        assert graph.num_tasks == 2
        assert graph.num_edges == 1


class TestQueries:
    def test_counts(self):
        graph = simple_graph()
        assert graph.num_tasks == 4
        assert len(graph) == 4
        assert graph.num_edges == 4

    def test_predecessors_successors(self):
        graph = simple_graph()
        assert graph.predecessors("D") == {"B", "C"}
        assert graph.successors("A") == {"B", "C"}

    def test_entry_exit(self):
        graph = simple_graph()
        assert graph.entry_tasks() == ("A",)
        assert graph.exit_tasks() == ("D",)

    def test_edges_deterministic(self):
        graph = simple_graph()
        assert graph.edges() == (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"))

    def test_unknown_task_lookup(self):
        with pytest.raises(UnknownTaskError):
            simple_graph().task("Z")

    def test_iteration_in_insertion_order(self):
        names = [task.name for task in simple_graph()]
        assert names == ["A", "B", "C", "D"]


class TestReachability:
    def test_descendants(self):
        graph = simple_graph()
        assert graph.descendants("A") == {"B", "C", "D"}
        assert graph.descendants("D") == frozenset()

    def test_ancestors(self):
        graph = simple_graph()
        assert graph.ancestors("D") == {"A", "B", "C"}
        assert graph.ancestors("A") == frozenset()

    def test_subgraph_rooted_at_includes_self(self):
        graph = simple_graph()
        assert graph.subgraph_rooted_at("B") == {"B", "D"}


class TestOrderings:
    def test_topological_order_valid(self):
        graph = simple_graph()
        order = graph.topological_order()
        assert graph.is_valid_sequence(order)

    def test_topological_order_deterministic(self):
        graph = simple_graph()
        assert graph.topological_order() == graph.topological_order()

    def test_is_valid_sequence_rejects_violations(self):
        graph = simple_graph()
        assert not graph.is_valid_sequence(("B", "A", "C", "D"))

    def test_is_valid_sequence_rejects_partial(self):
        graph = simple_graph()
        assert not graph.is_valid_sequence(("A", "B", "C"))


class TestAggregates:
    def test_min_max_makespan(self):
        graph = simple_graph()
        assert graph.min_makespan() == pytest.approx(sum(t.min_execution_time for t in graph))
        assert graph.max_makespan() > graph.min_makespan()

    def test_energy_bounds(self):
        graph = simple_graph()
        assert graph.min_total_energy() < graph.max_total_energy()

    def test_uniform_design_point_count(self):
        assert simple_graph().uniform_design_point_count() == 3

    def test_uniform_count_rejects_mixed(self):
        graph = TaskGraph()
        graph.add_task(make_simple_task("A", m=3))
        graph.add_task(Task("B", [DesignPoint(1.0, 1.0)]))
        with pytest.raises(TaskGraphError):
            graph.uniform_design_point_count()

    def test_uniform_count_rejects_empty(self):
        with pytest.raises(TaskGraphError):
            TaskGraph().uniform_design_point_count()


def _reference_edges(graph):
    """The pre-optimization O(V*E) implementation, kept as the oracle."""
    result = []
    for parent in graph._order:
        for child in sorted(graph._successors[parent], key=graph._order.index):
            result.append((parent, child))
    return tuple(result)


def _reference_topological_order(graph):
    """The pre-optimization sort-the-ready-list implementation."""
    indegree = {name: len(graph._predecessors[name]) for name in graph._order}
    ready = [name for name in graph._order if indegree[name] == 0]
    result = []
    while ready:
        node = ready.pop(0)
        result.append(node)
        for child in sorted(graph._successors[node], key=graph._order.index):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
        ready.sort(key=graph._order.index)
    if len(result) != len(graph._order):
        raise CyclicGraphError("task graph contains a cycle")
    return tuple(result)


class TestQuadraticHotPathRegression:
    """The heap/position-map rewrites must be byte-identical to the old code."""

    def test_edges_matches_reference_on_catalogue(self):
        from repro.scenarios import default_registry

        for spec in default_registry():
            graph = spec.build_graph()
            assert graph.edges() == _reference_edges(graph), spec.name

    def test_topological_order_matches_reference_on_catalogue(self):
        from repro.scenarios import default_registry

        for spec in default_registry():
            graph = spec.build_graph()
            assert graph.topological_order() == _reference_topological_order(
                graph
            ), spec.name

    def test_matches_reference_on_random_erdos_graphs(self):
        from repro.workloads import erdos_graph

        for seed in range(5):
            graph = erdos_graph(num_tasks=40, edge_probability=0.2, seed=seed)
            assert graph.edges() == _reference_edges(graph)
            assert graph.topological_order() == _reference_topological_order(graph)

    def test_topological_order_2000_tasks_matches_reference(self):
        # Output identity only: tier-1 makes no wall-clock assertions.
        from repro.workloads import erdos_graph

        graph = erdos_graph(num_tasks=2000, edge_probability=0.002, seed=1)
        assert graph.topological_order() == _reference_topological_order(graph)


class TestValidationAndConversion:
    def test_validate_passes(self):
        simple_graph().validate()

    def test_validate_empty_graph(self):
        with pytest.raises(TaskGraphError):
            TaskGraph().validate()

    def test_copy_is_independent(self):
        graph = simple_graph()
        clone = graph.copy()
        clone.add_task(make_simple_task("E"))
        assert "E" not in graph
        assert clone.num_edges == graph.num_edges

    def test_to_networkx(self):
        nx_graph = simple_graph().to_networkx()
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 4
        assert nx_graph.nodes["A"]["task"].name == "A"

    def test_dict_round_trip(self):
        graph = simple_graph()
        restored = TaskGraph.from_dict(graph.to_dict())
        assert restored.task_names() == graph.task_names()
        assert restored.edges() == graph.edges()
        assert restored.name == graph.name

    def test_repr(self):
        assert "4 tasks" in repr(simple_graph())
