"""Tests for the engine's public API and its integration with the drivers."""

import dataclasses

import pytest

from repro import SchedulingProblem
from repro.engine import (
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    build_jobs,
    run_experiments,
)
from repro.errors import ConfigurationError
from repro.experiments import deadline_sweep, default_algorithms, run_ablation, run_table4
from repro.taskgraph import build_g2
from repro.workloads import suite_problems

ALGORITHMS = ["iterative", "dp-energy+greedy", "all-fastest"]


@pytest.fixture(scope="module")
def problems():
    return suite_problems(tightness_levels=(0.4, 0.8), names=["g2", "chain-10"])


def _comparable(results):
    return [
        result.to_dict() | {"elapsed_s": 0.0, "cache_hits": 0, "cache_misses": 0}
        for result in results
    ]


class TestBuildJobs:
    def test_cross_product_order(self, problems):
        jobs = build_jobs(problems, ALGORITHMS)
        assert len(jobs) == len(problems) * len(ALGORITHMS)
        # problems outer, algorithms inner
        assert jobs[0].algorithm == "iterative"
        assert jobs[1].algorithm == "dp-energy+greedy"
        assert jobs[0].problem is jobs[1].problem

    def test_mapping_carries_params(self, problems):
        jobs = build_jobs(problems[:1], {"annealing": {"seed": 3}})
        assert jobs[0].params == {"seed": 3}

    def test_empty_inputs_rejected(self, problems):
        with pytest.raises(ConfigurationError):
            build_jobs(problems, [])
        with pytest.raises(ConfigurationError):
            build_jobs([], ALGORITHMS)


class TestRunExperiments:
    def test_results_in_job_order(self, problems):
        run = run_experiments(problems, ALGORITHMS)
        assert [r.key for r in run.results] == [j.key() for j in run.jobs]
        assert run.executed == len(run.jobs)
        assert run.skipped == 0
        assert run.ok

    def test_parallel_equals_serial_on_suite(self, problems):
        serial = run_experiments(problems, ALGORITHMS, executor=SerialExecutor())
        parallel = run_experiments(
            problems, ALGORITHMS, executor=ParallelExecutor(max_workers=2)
        )
        assert _comparable(parallel.results) == _comparable(serial.results)

    def test_cache_accounting_is_nonzero(self, problems):
        run = run_experiments(problems, ["iterative"])
        assert run.cache_misses > 0
        assert run.cache_hits > 0
        assert 0.0 < run.cache_hit_rate < 1.0

    def test_resume_skips_completed_jobs(self, problems, tmp_path):
        store = ResultStore(tmp_path / "suite.jsonl")
        first = run_experiments(problems, ALGORITHMS, store=store, resume=True)
        assert first.executed == len(first.jobs)

        second = run_experiments(problems, ALGORITHMS, store=store, resume=True)
        assert second.executed == 0
        assert second.skipped == len(second.jobs)
        assert [r.to_dict() for r in second.results] == [
            r.to_dict() for r in first.results
        ]

    def test_partial_resume_runs_only_new_jobs(self, problems, tmp_path):
        store = ResultStore(tmp_path / "suite.jsonl")
        run_experiments(problems[:2], ALGORITHMS, store=store, resume=True)
        extended = run_experiments(problems, ALGORITHMS, store=store, resume=True)
        assert extended.skipped == 2 * len(ALGORITHMS)
        assert extended.executed == (len(problems) - 2) * len(ALGORITHMS)

    def test_resume_requires_store(self, problems):
        with pytest.raises(ConfigurationError):
            run_experiments(problems, ALGORITHMS, resume=True)

    def test_failed_job_surfaces_without_aborting(self, problems):
        bad = SchedulingProblem(graph=build_g2(), deadline=40.0, name="G2@40")
        run = run_experiments([bad] + problems[:1], ["iterative"])
        assert not run.ok
        assert len(run.failures()) == 1
        assert not run.results[0].ok
        assert run.results[1].ok

    def test_duplicate_key_jobs_run_once(self, problems, tmp_path):
        # The same work under another name: names are excluded from job keys.
        alias = dataclasses.replace(problems[0], name="alias")
        batch = [problems[0], problems[1], alias]
        store = ResultStore(tmp_path / "dup.jsonl")
        run = run_experiments(batch, ALGORITHMS, store=store)
        assert run.executed == 2 * len(ALGORITHMS)
        assert len(store.path.read_text().splitlines()) == 2 * len(ALGORITHMS)

        separate = [run_experiments([problem], ALGORITHMS) for problem in batch]
        # Every duplicate position reports the last duplicate's result, as a
        # merge of separately executed duplicates did.
        expected = separate[2].results + separate[1].results + separate[2].results
        assert _comparable(run.results) == _comparable(expected)
        assert {r.problem_name for r in run.results} == {"alias", problems[1].name}

    def test_by_problem_grouping(self, problems):
        run = run_experiments(problems[:2], ALGORITHMS)
        grouped = run.by_problem()
        assert set(grouped) == {p.name for p in problems[:2]}
        for algorithms in grouped.values():
            assert set(algorithms) == set(ALGORITHMS)

    def test_table_rendering(self, problems):
        text = run_experiments(problems[:1], ["all-fastest"]).to_table().to_text()
        assert "all-fastest" in text
        assert problems[0].name in text


def _relabeled_clone(graph, prefix):
    """Structurally identical graph with different task names."""
    from repro.taskgraph import Task, TaskGraph

    mapping = {name: f"{prefix}{index}" for index, name in enumerate(graph.task_names())}
    clone = TaskGraph(name=f"{graph.name}-{prefix}")
    for task in graph:
        clone.add_task(Task(name=mapping[task.name], design_points=task.design_points))
    for parent, child in graph.edges():
        clone.add_edge(mapping[parent], mapping[child])
    return clone


@pytest.fixture(scope="module")
def isomorphic_problems():
    from repro.workloads import erdos_graph
    from repro.workloads.suite import problem_with_tightness

    graph = erdos_graph(num_tasks=10, edge_probability=0.3, seed=4, name="iso")
    twin = _relabeled_clone(graph, "n")
    return [
        problem_with_tightness(graph, 0.5, name="iso-a"),
        problem_with_tightness(twin, 0.5, name="iso-b"),
    ]


class TestStructuralDedup:
    def test_isomorphic_jobs_share_a_structural_key(self, isomorphic_problems):
        jobs = build_jobs(isomorphic_problems, ["iterative"])
        assert jobs[0].structural_key() == jobs[1].structural_key()
        assert jobs[0].key() != jobs[1].key()

    def test_different_structures_do_not_collide(self, problems):
        jobs = build_jobs(problems, ["iterative"])
        assert len({job.structural_key() for job in jobs}) == len(jobs)

    def test_dedupe_executes_one_representative_per_group(self, isomorphic_problems):
        run = run_experiments(isomorphic_problems, ALGORITHMS, dedupe=True)
        assert run.deduped == len(ALGORITHMS)
        assert run.executed == len(ALGORITHMS)
        assert run.ok

    def test_dedupe_results_match_full_execution(self, isomorphic_problems):
        full = run_experiments(isomorphic_problems, ALGORITHMS)
        deduped = run_experiments(isomorphic_problems, ALGORITHMS, dedupe=True)
        assert [r.key for r in deduped.results] == [r.key for r in full.results]
        for a, b in zip(full.results, deduped.results):
            assert b.cost == a.cost  # bitwise: same structure, same numbers
            assert b.makespan == a.makespan
            assert b.feasible == a.feasible
            assert b.problem_name == a.problem_name

    def test_translated_schedules_are_valid_on_the_member_graph(
        self, isomorphic_problems
    ):
        run = run_experiments(isomorphic_problems, ["iterative"], dedupe=True)
        for problem, result in zip(isomorphic_problems, run.results):
            assert result.sequence is not None
            assert problem.graph.is_valid_sequence(result.sequence)
            assert set(result.assignment) == set(problem.graph.task_names())

    def test_dedupe_off_by_default(self, isomorphic_problems):
        run = run_experiments(isomorphic_problems, ["all-fastest"])
        assert run.deduped == 0
        assert run.executed == len(run.jobs)

    def test_summary_mentions_dedup_only_when_active(self, isomorphic_problems):
        plain = run_experiments(isomorphic_problems, ["all-fastest"])
        assert "deduped" not in plain.summary()
        deduped = run_experiments(isomorphic_problems, ["all-fastest"], dedupe=True)
        assert "1 deduped" in deduped.summary()

    def test_dedupe_with_parallel_executor(self, isomorphic_problems):
        serial = run_experiments(isomorphic_problems, ALGORITHMS, dedupe=True)
        parallel = run_experiments(
            isomorphic_problems,
            ALGORITHMS,
            dedupe=True,
            executor=ParallelExecutor(max_workers=2),
        )
        assert _comparable(parallel.results) == _comparable(serial.results)


class TestDriverIntegration:
    """The rewired experiment drivers stay consistent with their legacy paths."""

    def test_engine_sweep_matches_legacy_callables(self, g2):
        engine = deadline_sweep(g2, num_points=3)
        legacy = deadline_sweep(g2, num_points=3, algorithms=default_algorithms())
        assert engine.algorithms == legacy.algorithms
        for engine_point, legacy_point in zip(engine.points, legacy.points):
            assert engine_point.coordinate == legacy_point.coordinate
            for name in engine.algorithms:
                assert engine_point.costs[name] == pytest.approx(
                    legacy_point.costs[name]
                )

    def test_sweep_parallel_identical_to_serial(self, g2):
        serial = deadline_sweep(g2, num_points=3, executor=SerialExecutor())
        parallel = deadline_sweep(
            g2, num_points=3, executor=ParallelExecutor(max_workers=2)
        )
        assert serial == parallel

    def test_sweep_resume_executes_zero_jobs(self, g2, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        first = deadline_sweep(g2, num_points=3, store=store, resume=True)
        size_after_first = store.path.stat().st_size
        second = deadline_sweep(g2, num_points=3, store=store, resume=True)
        assert first == second
        assert store.path.stat().st_size == size_after_first

    def test_table4_through_engine(self):
        result = run_table4(deadlines={"G2": [75.0], "G3": [230.0]})
        assert {row.graph for row in result.rows} == {"G2", "G3"}
        for row in result.rows:
            assert row.our_cost <= row.baseline_cost * 1.05

    def test_ablation_through_engine_parallel(self, g2):
        from repro.workloads import problem_with_tightness

        problems = [problem_with_tightness(g2, 0.5, name="g2@0.5")]
        serial = run_ablation(problems=problems)
        parallel = run_ablation(problems=problems, executor=ParallelExecutor(max_workers=2))
        assert serial == parallel
        assert serial.rows[0].full_cost > 0
