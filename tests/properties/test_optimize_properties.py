"""Property-based tests for the task-graph optimization passes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.taskgraph import cull, fuse, optimize_graph
from repro.taskgraph.io import dumps, loads
from repro.workloads import (
    chain_graph,
    diamond_graph,
    erdos_graph,
    fork_join_graph,
    layered_graph,
    tree_graph,
)

seeds = st.integers(min_value=0, max_value=10_000)


def graph_strategy():
    """Random synthetic graphs across the generator families."""
    return st.one_of(
        st.builds(chain_graph, st.integers(2, 10), seed=seeds),
        st.builds(
            fork_join_graph,
            st.integers(1, 3),
            st.integers(1, 4),
            seed=seeds,
        ),
        st.builds(
            layered_graph,
            st.integers(2, 4),
            st.integers(1, 4),
            st.floats(0.0, 1.0),
            seed=seeds,
        ),
        st.builds(tree_graph, st.integers(1, 3), st.integers(1, 3), st.sampled_from(["in", "out"]), seed=seeds),
        st.builds(diamond_graph, st.integers(1, 3), seed=seeds),
        st.builds(erdos_graph, st.integers(2, 12), st.floats(0.0, 0.6), seed=seeds),
    )


class TestCullProperties:
    @given(graph=graph_strategy(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_never_removes_an_ancestor_of_a_kept_sink(self, graph, data):
        exits = list(graph.exit_tasks())
        sinks = data.draw(
            st.lists(st.sampled_from(exits), min_size=1, unique=True)
        )
        result = cull(graph, sinks=sinks)
        for sink in sinks:
            assert sink in result.graph
            for ancestor in graph.ancestors(sink):
                assert ancestor in result.graph
                assert ancestor not in result.removed

    @given(graph=graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_default_cull_is_identity(self, graph):
        result = cull(graph)
        assert result.removed == ()
        assert result.graph.to_dict() == graph.to_dict()

    @given(graph=graph_strategy(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_removed_tasks_cannot_reach_any_kept_sink(self, graph, data):
        exits = list(graph.exit_tasks())
        sinks = data.draw(
            st.lists(st.sampled_from(exits), min_size=1, unique=True)
        )
        result = cull(graph, sinks=sinks)
        kept = set(sinks)
        for name in result.removed:
            assert not (graph.descendants(name) & kept)

    @given(graph=graph_strategy(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_removed_and_kept_partition_the_graph(self, graph, data):
        exits = list(graph.exit_tasks())
        sinks = data.draw(
            st.lists(st.sampled_from(exits), min_size=1, unique=True)
        )
        result = cull(graph, sinks=sinks)
        kept = set(result.graph.task_names())
        assert kept.isdisjoint(result.removed)
        assert kept | set(result.removed) == set(graph.task_names())


class TestFuseProperties:
    @given(graph=graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_expand_of_fused_order_is_valid_on_original(self, graph):
        result = fuse(graph)
        expanded = result.expand_sequence(result.graph.topological_order())
        assert sorted(expanded) == sorted(graph.task_names())
        assert graph.is_valid_sequence(expanded)

    @given(graph=graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_unfuse_then_refuse_is_identity_on_sequences(self, graph):
        result = fuse(graph)
        fused_order = result.graph.topological_order()
        expanded = result.expand_sequence(fused_order)
        # Collapse members back to their compound: the chain members come
        # out consecutively (expand inserts them as one block), so mapping
        # each name to its compound and dropping repeats restores the
        # fused sequence exactly — fuse o unfuse == id.
        member_of = {
            member: compound
            for compound, members in result.chains.items()
            for member in members
        }
        refused = []
        for name in expanded:
            home = member_of.get(name, name)
            if not refused or refused[-1] != home:
                refused.append(home)
        assert tuple(refused) == fused_order

    @given(graph=graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_totals_preserved(self, graph):
        import math

        result = fuse(graph)
        for column in range(graph.uniform_design_point_count()):
            original = math.fsum(
                task.execution_times()[column] for task in graph
            )
            fused_total = math.fsum(
                task.execution_times()[column] for task in result.graph
            )
            assert abs(fused_total - original) <= 1e-9 * max(1.0, original)

    @given(graph=graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_fused_graph_is_a_valid_dag(self, graph):
        result = fuse(graph)
        result.graph.validate()
        assert result.graph.num_tasks <= graph.num_tasks


class TestPipelineProperties:
    @given(graph=graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_fuse_is_idempotent(self, graph):
        once = fuse(graph).graph
        again = fuse(once)
        assert again.chains == {}
        assert again.graph.to_dict() == once.to_dict()

    @given(graph=graph_strategy(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_pipeline_is_the_composition_of_its_passes(self, graph, data):
        exits = list(graph.exit_tasks())
        sinks = data.draw(
            st.lists(st.sampled_from(exits), min_size=1, unique=True)
        )
        culled = cull(graph, sinks=sinks)
        fused = fuse(culled.graph)
        result = optimize_graph(graph, sinks=sinks)
        assert result.graph.to_dict() == fused.graph.to_dict()
        assert result.removed == culled.removed
        assert dict(result.chains) == dict(fused.chains)

    @given(graph=graph_strategy(), column=st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_expanded_assignment_covers_every_original_task(self, graph, column):
        result = optimize_graph(graph)
        column = min(column, graph.uniform_design_point_count() - 1)
        assignment = result.expand_assignment(
            {name: column for name in result.graph.task_names()}
        )
        assert assignment == {name: column for name in graph.task_names()}


class TestIoProperties:
    @given(graph=graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_dumps_loads_preserves_edge_order(self, graph):
        restored = loads(dumps(graph))
        assert restored.task_names() == graph.task_names()
        assert restored.edges() == graph.edges()
        assert restored.topological_order() == graph.topological_order()
