"""Unit tests for repro.taskgraph.optimize (cull / fuse / pass pipeline)."""

import math

import pytest

from repro.errors import ConfigurationError, UnknownTaskError
from repro.taskgraph import (
    DesignPoint,
    Task,
    TaskGraph,
    cull,
    fuse,
    optimize_graph,
)
from repro.taskgraph.optimize import OPTIMIZE_PASSES, OptimizedGraph, parse_passes
from repro.workloads import chain_graph, fork_join_graph

from ..conftest import make_simple_task


def diamond_with_tail():
    """A -> {B, C} -> D -> E -> F plus a dead side branch X -> Y."""
    graph = TaskGraph(name="dwt")
    for name in ("A", "B", "C", "D", "E", "F", "X", "Y"):
        graph.add_task(make_simple_task(name))
    for parent, child in (
        ("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"),
        ("D", "E"), ("E", "F"), ("X", "Y"),
    ):
        graph.add_edge(parent, child)
    return graph


class TestParsePasses:
    def test_plus_and_comma_separators(self):
        assert parse_passes("cull+fuse") == ("cull", "fuse")
        assert parse_passes("cull,fuse") == ("cull", "fuse")

    def test_order_preserved(self):
        assert parse_passes("fuse+cull") == ("fuse", "cull")

    def test_empty_means_no_passes(self):
        assert parse_passes("") == ()
        assert parse_passes("  ") == ()

    def test_unknown_pass_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown optimize pass"):
            parse_passes("cull+inline")

    def test_duplicate_pass_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_passes("fuse+fuse")


class TestCull:
    def test_default_sinks_remove_nothing(self):
        graph = diamond_with_tail()
        result = cull(graph)
        assert result.removed == ()
        assert result.graph.task_names() == graph.task_names()
        assert result.graph.edges() == graph.edges()

    def test_subset_sink_keeps_ancestor_closure(self):
        result = cull(diamond_with_tail(), sinks=["F"])
        assert set(result.graph.task_names()) == {"A", "B", "C", "D", "E", "F"}
        assert result.removed == ("X", "Y")

    def test_interior_sink(self):
        result = cull(diamond_with_tail(), sinks=["D"])
        assert set(result.graph.task_names()) == {"A", "B", "C", "D"}
        assert result.removed == ("E", "F", "X", "Y")

    def test_insertion_order_preserved(self):
        graph = diamond_with_tail()
        result = cull(graph, sinks=["F"])
        kept = [name for name in graph.task_names() if name not in ("X", "Y")]
        assert list(result.graph.task_names()) == kept

    def test_unknown_sink_rejected(self):
        with pytest.raises(UnknownTaskError):
            cull(diamond_with_tail(), sinks=["nope"])

    def test_empty_sink_list_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one sink"):
            cull(diamond_with_tail(), sinks=[])

    def test_original_untouched(self):
        graph = diamond_with_tail()
        cull(graph, sinks=["D"])
        assert graph.num_tasks == 8


class TestFuse:
    def test_pure_chain_fuses_to_one_compound(self):
        graph = chain_graph(5, seed=3)
        result = fuse(graph)
        assert result.graph.num_tasks == 1
        (compound,) = result.graph.task_names()
        assert result.chains[compound] == graph.task_names()

    def test_compound_columns_sum_durations_and_charges(self):
        graph = chain_graph(4, seed=7)
        result = fuse(graph)
        compound = result.graph.task(result.graph.task_names()[0])
        members = [graph.task(name) for name in graph.task_names()]
        for j, point in enumerate(compound.ordered_design_points()):
            duration = math.fsum(t.execution_times()[j] for t in members)
            charge = math.fsum(
                t.execution_times()[j] * t.currents()[j] for t in members
            )
            assert point.execution_time == duration
            assert point.execution_time * point.current == pytest.approx(
                charge, rel=1e-15
            )

    def test_diamond_tail_fuses_only_the_tail(self):
        graph = diamond_with_tail()
        result = fuse(graph)
        # D -> E -> F: D has two predecessors, so only the D..F tail links
        # where fanin/fanout are 1 fuse: E -> F joins D (D has 1 succ, E has
        # 1 pred -> D+E+F is the maximal chain starting at D? D has preds B,C
        # but chain-head just needs its parent to have >1 succ or >1 pred).
        assert "D+E+F" in result.graph
        assert result.chains["D+E+F"] == ("D", "E", "F")
        assert "X+Y" in result.graph
        assert result.graph.num_tasks == 5  # A, B, C, D+E+F, X+Y

    def test_fused_edges_remapped(self):
        result = fuse(diamond_with_tail())
        assert ("B", "D+E+F") in result.graph.edges()
        assert ("C", "D+E+F") in result.graph.edges()

    def test_fork_join_keeps_branches(self):
        graph = fork_join_graph(num_stages=1, branches_per_stage=3, seed=2)
        result = fuse(graph)
        # Branch tasks have single pred and single succ but their parent
        # forks and their child joins, so each 1-task "chain" stays alone.
        for name, members in result.chains.items():
            assert len(members) >= 2

    def test_expand_sequence_and_assignment(self):
        graph = chain_graph(3, seed=1)
        result = fuse(graph)
        (compound,) = result.graph.task_names()
        sequence, assignment = result.expand([compound], {compound: 2})
        assert sequence == graph.task_names()
        assert assignment == {name: 2 for name in graph.task_names()}

    def test_expand_passes_through_unfused_names(self):
        result = fuse(diamond_with_tail())
        assert result.expand_sequence(["A", "B"]) == ("A", "B")

    def test_compound_name_collision_gets_suffix(self):
        graph = TaskGraph(name="clash")
        graph.add_task(make_simple_task("A"))
        graph.add_task(make_simple_task("B"))
        graph.add_task(make_simple_task("A+B"))  # unrelated task with the name
        graph.add_edge("A", "B")
        result = fuse(graph)
        assert "A+B~" in result.graph
        assert result.chains["A+B~"] == ("A", "B")

    def test_nonuniform_design_point_counts_left_unfused(self):
        graph = TaskGraph(name="mixed")
        graph.add_task(make_simple_task("A", m=3))
        graph.add_task(Task("B", [DesignPoint(1.0, 10.0)]))
        graph.add_edge("A", "B")
        result = fuse(graph)
        assert result.chains == {}
        assert result.graph.task_names() == ("A", "B")

    def test_fused_metadata_records_members(self):
        graph = chain_graph(3, seed=4)
        result = fuse(graph)
        compound = result.graph.task(result.graph.task_names()[0])
        assert tuple(compound.metadata["fused"]) == graph.task_names()

    def test_fused_graph_validates(self):
        result = fuse(diamond_with_tail())
        result.graph.validate()

    def test_graph_without_chains_is_unchanged(self):
        graph = TaskGraph(name="diamond")
        for name in ("A", "B", "C", "D"):
            graph.add_task(make_simple_task(name))
        for parent, child in (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")):
            graph.add_edge(parent, child)
        result = fuse(graph)
        assert result.chains == {}
        assert result.graph.to_dict() == graph.to_dict()


class TestOptimizeGraph:
    def test_default_passes(self):
        result = optimize_graph(diamond_with_tail())
        assert result.passes == OPTIMIZE_PASSES
        assert result.removed == ()
        assert "D+E+F" in result.graph

    def test_cull_then_fuse_with_sinks(self):
        result = optimize_graph(diamond_with_tail(), sinks=["F"])
        assert result.removed == ("X", "Y")
        assert "X+Y" not in result.graph
        assert "D+E+F" in result.graph

    def test_expand_round_trip(self):
        graph = diamond_with_tail()
        result = optimize_graph(graph, passes=("fuse",))
        order = result.graph.topological_order()
        sequence, assignment = result.expand(
            order, {name: 0 for name in order}
        )
        assert graph.is_valid_sequence(sequence)
        assert set(assignment) == set(graph.task_names())

    def test_unknown_pass_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown optimize pass"):
            optimize_graph(diamond_with_tail(), passes=("nope",))

    def test_duplicate_pass_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            optimize_graph(diamond_with_tail(), passes=("fuse", "fuse"))

    def test_no_passes_is_identity(self):
        graph = diamond_with_tail()
        result = optimize_graph(graph, passes=())
        assert result.graph.to_dict() == graph.to_dict()
        assert result.passes == ()


class TestOnePassResultType:
    """``cull`` and ``fuse`` return the same :class:`OptimizedGraph` as the pipeline."""

    def test_cull_returns_an_optimized_graph(self):
        result = cull(diamond_with_tail(), sinks=["F"])
        assert isinstance(result, OptimizedGraph)
        assert result.passes == ("cull",)
        assert result.chains == {}

    def test_fuse_returns_an_optimized_graph(self):
        result = fuse(diamond_with_tail())
        assert isinstance(result, OptimizedGraph)
        assert result.passes == ("fuse",)
        assert result.removed == ()

    def test_cull_expand_is_the_identity(self):
        result = cull(diamond_with_tail(), sinks=["F"])
        order = result.graph.topological_order()
        assignment = {name: index % 3 for index, name in enumerate(order)}
        assert result.expand(order, assignment) == (order, assignment)

    def test_fuse_expand_assignment_fans_compound_columns_out(self):
        result = fuse(diamond_with_tail())
        expanded = result.expand_assignment({"A": 0, "D+E+F": 2, "X+Y": 1})
        assert expanded == {"A": 0, "D": 2, "E": 2, "F": 2, "X": 1, "Y": 1}

    def test_pipeline_is_the_composition_of_its_passes(self):
        graph = diamond_with_tail()
        culled = cull(graph, sinks=["F"])
        fused = fuse(culled.graph)
        result = optimize_graph(graph, sinks=["F"])
        assert result.graph.to_dict() == fused.graph.to_dict()
        assert result.removed == culled.removed
        assert dict(result.chains) == dict(fused.chains)

    def test_fuse_then_cull_names_compound_sinks(self):
        result = optimize_graph(
            diamond_with_tail(), passes=("fuse", "cull"), sinks=["D+E+F"]
        )
        assert result.passes == ("fuse", "cull")
        assert result.removed == ("X+Y",)
        assert result.chains["D+E+F"] == ("D", "E", "F")
        assert result.expand_sequence(["A", "B", "C", "D+E+F"]) == (
            "A", "B", "C", "D", "E", "F",
        )


class TestSharedPassCheck:
    """``parse_passes`` and ``optimize_graph`` refuse the same pass lists."""

    @pytest.mark.parametrize(
        "passes, message",
        [
            (("inline",), "unknown optimize pass 'inline'"),
            (("cull", "canonical"), "unknown optimize pass 'canonical'"),
            (("cull", "cull"), "duplicate optimize pass 'cull'"),
            (("fuse", "cull", "fuse"), "duplicate optimize pass 'fuse'"),
        ],
    )
    def test_both_entry_points_agree(self, passes, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_passes("+".join(passes))
        with pytest.raises(ConfigurationError, match=message):
            optimize_graph(diamond_with_tail(), passes=passes)

    def test_parsed_passes_feed_the_pipeline(self):
        graph = diamond_with_tail()
        parsed = optimize_graph(graph, passes=parse_passes("cull, fuse"))
        default = optimize_graph(graph)
        assert parsed.passes == default.passes == OPTIMIZE_PASSES
        assert parsed.graph.to_dict() == default.graph.to_dict()
