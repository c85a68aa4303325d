"""Tests for the job specification, its keys, and the algorithm registry."""

import gc
import json
import math
import pickle
import weakref

import pytest

from repro import BatterySpec, SchedulingProblem, simulated_annealing_baseline
from repro.baselines import AnnealingConfig
from repro.battery import CHEMISTRIES
from repro.core import FactorWeights, SchedulerConfig, battery_aware_schedule
from repro.engine import (
    Job,
    JobResult,
    SerialExecutor,
    algorithm_names,
    build_jobs,
    execute_job,
    get_algorithm,
    resolve_algorithm_name,
    scheduler_config_params,
)
from repro.engine.jobs import _content_hash, _problem_text
from repro.errors import ConfigurationError
from repro.experiments.suite import DEFAULT_SUITE_ALGORITHMS
from repro.scenarios import canonical_json, default_registry
from repro.taskgraph import DesignPoint, Task, TaskGraph, build_g2


@pytest.fixture
def problem() -> SchedulingProblem:
    return SchedulingProblem(
        graph=build_g2(), deadline=75.0, battery=BatterySpec(beta=0.273), name="G2@75"
    )


class TestJobKeys:
    def test_key_is_deterministic(self, problem):
        a = Job(problem=problem, algorithm="iterative")
        b = Job(problem=problem, algorithm="iterative")
        assert a.key() == b.key()

    def test_key_ignores_display_name(self, problem):
        renamed = SchedulingProblem(
            graph=problem.graph,
            deadline=problem.deadline,
            battery=problem.battery,
            name="a different label",
        )
        assert Job(problem=problem, algorithm="iterative").key() == Job(
            problem=renamed, algorithm="iterative"
        ).key()

    def test_key_depends_on_deadline(self, problem):
        other = problem.with_deadline(95.0)
        assert Job(problem=problem, algorithm="iterative").key() != Job(
            problem=other, algorithm="iterative"
        ).key()

    def test_key_depends_on_battery(self, problem):
        other = SchedulingProblem(
            graph=problem.graph, deadline=problem.deadline, battery=BatterySpec(beta=0.5)
        )
        assert Job(problem=problem, algorithm="iterative").key() != Job(
            problem=other, algorithm="iterative"
        ).key()

    def test_key_depends_on_algorithm_and_params(self, problem):
        base = Job(problem=problem, algorithm="iterative")
        assert base.key() != Job(problem=problem, algorithm="dp-energy+greedy").key()
        assert base.key() != Job(
            problem=problem, algorithm="iterative", params={"evaluate_at": "deadline"}
        ).key()

    def test_key_distinguishes_chemistries_with_identical_numbers(self, problem):
        """Regression: same beta/capacity/series_terms but different chemistry
        (or different chemistry_params) must never produce colliding keys."""

        def job_for(battery: BatterySpec) -> Job:
            return Job(
                problem=SchedulingProblem(
                    graph=problem.graph, deadline=problem.deadline, battery=battery
                ),
                algorithm="iterative",
            )

        keys = [
            job_for(BatterySpec(beta=0.273)).key(),
            job_for(BatterySpec(beta=0.273, chemistry="peukert")).key(),
            job_for(BatterySpec(beta=0.273, chemistry="kibam")).key(),
            job_for(BatterySpec(beta=0.273, chemistry="ideal")).key(),
            job_for(
                BatterySpec(
                    beta=0.273,
                    chemistry="peukert",
                    chemistry_params={"exponent": 1.3},
                )
            ).key(),
            job_for(
                BatterySpec(
                    beta=0.273, chemistry="kibam", chemistry_params={"c": 0.5}
                )
            ).key(),
        ]
        assert len(set(keys)) == len(keys)

    def test_alias_resolves_to_same_key(self, problem):
        assert Job(problem=problem, algorithm="iterative (ours)").key() == Job(
            problem=problem, algorithm="iterative"
        ).key()

    def test_param_order_does_not_change_key(self, problem):
        a = Job(problem=problem, algorithm="annealing", params={"seed": 1, "iterations": 50})
        b = Job(problem=problem, algorithm="annealing", params={"iterations": 50, "seed": 1})
        assert a.key() == b.key()

    def test_mixed_type_mapping_keys_get_a_key(self, problem):
        # Keys are stringified, not compared: an int beside a str is fine,
        # and the key equals the one of the all-str spelling.
        mixed = Job(problem=problem, algorithm="annealing", params={"by": {"T1": 0, 3: 2}})
        spelled = Job(problem=problem, algorithm="annealing", params={"by": {"3": 2, "T1": 0}})
        assert mixed.key() == spelled.key()

    def test_mapping_keys_colliding_as_strings_are_rejected(self, problem):
        job = Job(problem=problem, algorithm="annealing", params={"by": {1: "a", "1": "b"}})
        with pytest.raises(ConfigurationError, match="collide"):
            job.key()

    def test_infinite_capacity_is_serialisable(self, problem):
        spec = Job(problem=problem, algorithm="iterative").spec()
        assert spec["battery"]["capacity"] == "inf"

    def test_relabelled_isomorphic_problems_get_distinct_keys(self):
        # Keys hash the graph verbatim: the same structure under other task
        # names is different work to the store, never an alias.
        from repro.workloads import erdos_graph
        from repro.workloads.suite import problem_with_tightness

        graph = erdos_graph(num_tasks=10, edge_probability=0.3, seed=4, name="iso")
        twin = _relabeled_clone(graph, "n")
        problems = [
            problem_with_tightness(graph, 0.5, name="iso-a"),
            problem_with_tightness(twin, 0.5, name="iso-b"),
        ]
        jobs = [Job(problem=p, algorithm="iterative") for p in problems]
        assert jobs[0].key() != jobs[1].key()


def _deterministic_problems(optimize=""):
    registry = default_registry()
    if optimize:
        registry = registry.optimized(optimize)
    return [spec.build_problem() for spec in registry.select(stochastic=False)]


def _metadata_problem(task_metadata, point_metadata=None):
    graph = TaskGraph(name="meta")
    graph.add_task(
        Task("T1", [DesignPoint(2.0, 100.0, metadata=point_metadata)], metadata=task_metadata)
    )
    graph.add_task(Task("T2", [DesignPoint(1.0, 50.0), DesignPoint(3.0, 20.0)]))
    graph.add_edge("T1", "T2")
    return SchedulingProblem(graph=graph, deadline=10.0)


class TestRenderedKeys:
    """Job.key() renders each problem's part once and splices the job's own
    algorithm and params around it; it must stay the hash of spec()."""

    def test_rendered_keys_equal_the_hash_of_job_spec(self, problem):
        jobs = [
            job
            for optimize in ("", "fuse", "cull+fuse")
            for job in build_jobs(_deterministic_problems(optimize), DEFAULT_SUITE_ALGORITHMS)
        ]
        assert len(jobs) == 3 * 41 * 4
        odd_params = [
            {"seed": 7},
            {"limits": (math.inf, -math.inf, 1.5)},
            {"outer": {"b": {"z": [1, {"y": -math.inf}], "a": 2}, "a": None}},
            {"by": {"T1": 0, 3: 2}},
        ]
        jobs.extend(
            Job(problem=problem, algorithm="annealing", params=params) for params in odd_params
        )
        jobs.extend(
            Job(
                problem=SchedulingProblem(
                    graph=problem.graph,
                    deadline=problem.deadline,
                    battery=BatterySpec(beta=0.273, capacity=capacity, chemistry=chemistry),
                ),
                algorithm=algorithm,
            )
            for chemistry in CHEMISTRIES
            for capacity in (math.inf, 40000.0)
            for algorithm in ("iterative", "best-uniform")
        )
        for job in jobs:
            assert job.key() == _content_hash(job.spec()), job

    def test_each_problem_is_rendered_once(self, monkeypatch):
        problems = _deterministic_problems()
        renders = []
        to_dict = TaskGraph.to_dict
        monkeypatch.setattr(
            TaskGraph, "to_dict", lambda graph: renders.append(graph) or to_dict(graph)
        )
        jobs = build_jobs(problems, DEFAULT_SUITE_ALGORITHMS)
        assert len(jobs) == 41 * 4
        for job in jobs:
            job.key()
        assert len(renders) == 41
        # Later jobs of the same problems reuse the render.
        for job in build_jobs(problems, {"annealing": {"seed": 3}}):
            job.key()
        assert len(renders) == 41

    def test_a_pickled_job_carries_no_rendered_text(self, problem):
        job = Job(problem=problem, algorithm="iterative")
        key = job.key()
        shipped = pickle.dumps(job)
        assert _problem_text(problem).encode() not in shipped
        assert b'"design_points":' not in shipped
        assert pickle.loads(shipped).key() == key

    def test_the_rendered_text_is_freed_with_its_problem(self):
        problem = SchedulingProblem(graph=build_g2(), deadline=75.0)
        Job(problem=problem, algorithm="iterative").key()
        alive = weakref.ref(problem)
        del problem
        gc.collect()
        assert alive() is None

    def test_a_graph_grown_after_a_render_is_rendered_again(self):
        problem = SchedulingProblem(graph=build_g2(), deadline=75.0)
        before = Job(problem=problem, algorithm="iterative").key()
        problem.graph.add_task(Task("extra", [DesignPoint(1.0, 10.0)]))
        grown = Job(problem=problem, algorithm="iterative")
        assert grown.key() != before
        assert grown.key() == _content_hash(grown.spec())
        problem.graph.add_edge("extra", problem.graph.entry_tasks()[0])
        linked = Job(problem=problem, algorithm="iterative")
        assert linked.key() == _content_hash(linked.spec()) != grown.key()

    def test_mixed_type_metadata_keys_get_a_key(self):
        # Task and design-point metadata keys are stringified by to_dict(),
        # nested mappings too: the key equals the one of the all-str spelling.
        mixed = _metadata_problem({"T1": 0, 3: {1: "a", "b": 2}}, {"f": 1, 2: 3})
        spelled = _metadata_problem({"3": {"1": "a", "b": 2}, "T1": 0}, {"2": 3, "f": 1})
        keys = [Job(problem=p, algorithm="iterative").key() for p in (mixed, spelled)]
        assert keys[0] == keys[1]
        job = Job(problem=mixed, algorithm="iterative")
        assert job.key() == _content_hash(job.spec())

    @pytest.mark.parametrize(
        "task_metadata, point_metadata",
        [({1: "a", "1": "b"}, None), ({}, {"x": {2: 0, "2": 1}})],
    )
    def test_metadata_keys_colliding_as_strings_are_rejected(
        self, task_metadata, point_metadata
    ):
        problem = _metadata_problem(task_metadata, point_metadata)
        with pytest.raises(ConfigurationError, match="collide"):
            Job(problem=problem, algorithm="iterative").key()

    def test_raw_and_canonical_graph_renders_agree_on_the_catalogue(self):
        # The render hashes to_dict() raw (sorted keys, no canonicaliser
        # pass); on every catalogue graph that equals the canonical JSON.
        graphs = 0
        for optimize in ("", "fuse", "cull+fuse"):
            registry = default_registry()
            if optimize:
                registry = registry.optimized(optimize)
            for spec in registry:
                data = spec.build_problem().graph.to_dict()
                raw = json.dumps(data, sort_keys=True, separators=(",", ":"))
                assert raw == canonical_json(data), spec.name
                graphs += 1
        assert graphs == 297


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


class TestWorkItemContract:
    """What the executors and the shared pipeline need from a ``Job``."""

    def test_run_matches_execute_job(self, problem):
        job = Job(problem=problem, algorithm="iterative")
        ran, executed = job.run(), execute_job(job)
        assert ran.ok
        assert ran.to_dict() | {"elapsed_s": 0.0} == executed.to_dict() | {"elapsed_s": 0.0}

    def test_failure_result_names_the_job(self, problem):
        job = Job(problem=problem, algorithm="iterative")
        failed = job.failure_result("boom")
        assert not failed.ok
        assert (failed.key, failed.algorithm, failed.problem_name, failed.error) == (
            job.key(),
            "iterative",
            "G2@75",
            "boom",
        )

    def test_job_type_facts_read_by_the_pipeline(self):
        assert Job.record_type is JobResult
        assert Job.counters == "engine.jobs"
        assert Job.last_duplicate_runs


class TestRegistry:
    def test_known_names(self):
        names = algorithm_names()
        for expected in (
            "iterative",
            "dp-energy+greedy",
            "last-task-first",
            "best-uniform",
            "all-fastest",
            "all-slowest",
            "annealing",
        ):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_algorithm_name("quantum-annealing")

    def test_runner_produces_schedule_shape(self, problem):
        runner = get_algorithm("all-fastest")
        outcome = runner(problem, None, {})
        assert outcome.cost > 0
        assert len(outcome.sequence) == problem.graph.num_tasks


class TestSchedulerConfigParams:
    def test_defaults_collapse_to_empty(self):
        assert scheduler_config_params(None) == {}
        assert scheduler_config_params(SchedulerConfig()) == {}

    def test_non_defaults_survive(self):
        params = scheduler_config_params(
            SchedulerConfig(evaluate_at="deadline", factor_weights=FactorWeights(energy_ratio=0.5))
        )
        assert params == {
            "evaluate_at": "deadline",
            "factor_weights": {
                "slack_ratio": 1.0,
                "current_ratio": 1.0,
                "energy_ratio": 0.5,
                "current_increase_fraction": 1.0,
                "design_point_fraction": 1.0,
            },
        }

    def test_drop_factor_is_added(self):
        params = scheduler_config_params(None, drop_factor="slack_ratio")
        assert params == {"drop_factor": "slack_ratio"}

    def test_params_round_trip_into_the_solver(self, problem):
        config = SchedulerConfig(
            evaluate_at="deadline", factor_weights=FactorWeights(energy_ratio=0.5)
        )
        result = execute_job(
            Job(problem=problem, algorithm="iterative", params=scheduler_config_params(config))
        )
        direct = battery_aware_schedule(problem, config=config)
        assert (result.cost, result.makespan) == (direct.cost, direct.makespan)
        assert result.sequence == direct.sequence

    @pytest.mark.parametrize(
        "removed",
        [
            "max_iterations",
            "require_feasible_windows",
            "repair_infeasible",
            "record_evaluations",
            "improvement_tolerance",
        ],
    )
    def test_an_unread_param_fails_its_job_only(self, problem, removed):
        # A param the solver does not read must not run the defaults under a
        # key that names it; the sibling jobs of the batch still run.
        jobs = [
            Job(problem=problem, algorithm="iterative", params={removed: 3}),
            Job(problem=problem, algorithm="iterative", params={"seed": 7}),
            Job(problem=problem, algorithm="all-fastest"),
        ]
        bad, seeded, other = SerialExecutor().run(jobs)
        assert bad.error.startswith("ConfigurationError: ")
        assert repr(removed) in bad.error
        assert seeded.ok and other.ok
        assert seeded.cost == execute_job(Job(problem=problem, algorithm="iterative")).cost

    @pytest.mark.parametrize(
        "algorithm, unread",
        [
            ("annealing", {"iterationz": 5}),
            ("annealing", {"evaluate_at": "deadline"}),
            ("dp-energy+greedy", {"evaluate_at": "deadline"}),
            ("last-task-first", {"drop_factor": "slack_ratio"}),
            ("best-uniform", {"iterations": 5}),
            ("all-fastest", {"factor_weights": {}}),
            ("all-slowest", {"evaluate_at": "deadline"}),
        ],
    )
    def test_a_param_a_baseline_does_not_read_fails_its_job_only(
        self, problem, algorithm, unread
    ):
        # Annealing reads its iterations and seed, the other baselines read
        # nothing; every one accepts the seed run_suite merges into all jobs.
        read = {"iterations": 50} if algorithm == "annealing" else {}
        jobs = [
            Job(problem=problem, algorithm=algorithm, params={**read, **unread}),
            Job(problem=problem, algorithm=algorithm, params={**read, "seed": 7}),
            Job(problem=problem, algorithm="all-fastest"),
        ]
        bad, seeded, other = SerialExecutor().run(jobs)
        assert bad.error.startswith(f"ConfigurationError: {algorithm} takes no param ")
        assert repr(next(iter(unread))) in bad.error
        assert seeded.ok and other.ok
        if algorithm != "annealing":
            assert seeded.cost == execute_job(Job(problem=problem, algorithm=algorithm)).cost


class TestJobResultRoundTrip:
    def test_success_round_trips(self):
        result = JobResult(
            key="abc",
            algorithm="iterative",
            problem_name="G2@75",
            cost=123.4,
            makespan=70.0,
            feasible=True,
            sequence=("a", "b"),
            assignment={"a": 0, "b": 2},
            elapsed_s=0.5,
        )
        assert JobResult.from_dict(result.to_dict()) == result
        assert result.ok

    def test_failure_round_trips(self):
        result = JobResult(
            key="abc",
            algorithm="iterative",
            problem_name="G2@40",
            error="InfeasibleDeadlineError: too tight",
        )
        assert JobResult.from_dict(result.to_dict()) == result
        assert not result.ok
        assert "ERROR" in result.summary()


    @pytest.mark.parametrize(
        "legacy",
        [
            {"cache_hits": 3, "cache_misses": 7},
            {"cache_hits": 0, "cache_misses": 12, "cache_evictions": 1},
        ],
    )
    def test_rows_with_cache_counters_still_load(self, legacy):
        # Stores written while the engine had a battery-cost cache carry
        # per-job cache counters; they load as the same result.
        result = JobResult(
            key="abc",
            algorithm="iterative",
            problem_name="G2@75",
            cost=123.4,
            makespan=70.0,
            feasible=True,
            sequence=("a", "b"),
            assignment={"a": 0, "b": 2},
            elapsed_s=0.5,
        )
        assert JobResult.from_dict(result.to_dict() | legacy) == result

    def test_rows_carry_no_cache_counters(self):
        row = JobResult(key="abc", algorithm="iterative", problem_name="G2@75").to_dict()
        assert not any(name.startswith("cache") for name in row)


class TestAnnealingSeedPlumbing:
    def test_explicit_seed_is_deterministic(self, problem):
        config = AnnealingConfig(iterations=300)
        a = simulated_annealing_baseline(problem, config=config, seed=7)
        b = simulated_annealing_baseline(problem, config=config, seed=7)
        assert a.cost == b.cost
        assert a.sequence == b.sequence
        assert dict(a.assignment) == dict(b.assignment)

    def test_seed_overrides_config_seed(self, problem):
        import random

        config = AnnealingConfig(iterations=300, seed=2005)
        seeded = simulated_annealing_baseline(problem, config=config, seed=7)
        via_rng = simulated_annealing_baseline(
            problem, config=config, rng=random.Random(7)
        )
        assert seeded.cost == via_rng.cost
        assert seeded.sequence == via_rng.sequence

    def test_engine_annealing_job_is_reproducible(self, problem):
        runner = get_algorithm("annealing")
        a = runner(problem, None, {"seed": 11, "iterations": 300})
        b = runner(problem, None, {"seed": 11, "iterations": 300})
        assert a.cost == b.cost
        assert a.sequence == b.sequence
