"""Tests for the serial and process-parallel executors."""

import dataclasses

import pytest

from repro import BatterySpec, SchedulingProblem
from repro.engine import (
    Job,
    ParallelExecutor,
    SerialExecutor,
    SimulationBatch,
    SimulationJob,
    build_jobs,
    default_executor,
    execute_job,
)
from repro.errors import ConfigurationError
from repro.scenarios import default_registry
from repro.taskgraph import build_g2
from repro.workloads import suite_problems

ALGORITHMS = ["iterative", "dp-energy+greedy", "all-fastest"]


@pytest.fixture(scope="module")
def jobs():
    problems = suite_problems(tightness_levels=(0.3, 0.7), names=["g2", "diamond-3"])
    return build_jobs(problems, ALGORITHMS)


def _comparable(results):
    """Result rows minus the fields that legitimately vary between runs."""
    return [result.to_dict() | {"elapsed_s": 0.0} for result in results]


class TestExecuteJob:
    def test_success_carries_schedule_essentials(self):
        problem = SchedulingProblem(
            graph=build_g2(), deadline=75.0, battery=BatterySpec(), name="G2@75"
        )
        result = execute_job(Job(problem=problem, algorithm="iterative"))
        assert result.ok
        assert result.feasible
        assert result.cost > 0
        assert result.makespan <= 75.0 + 1e-9
        assert len(result.sequence) == 9
        assert set(result.assignment) == set(problem.graph.task_names())

    def test_failure_is_captured_not_raised(self):
        infeasible = SchedulingProblem(
            graph=build_g2(), deadline=40.0, battery=BatterySpec(), name="G2@40"
        )
        result = execute_job(Job(problem=infeasible, algorithm="iterative"))
        assert not result.ok
        assert "InfeasibleDeadlineError" in result.error
        assert result.cost is None


class TestSerialExecutor:
    def test_runs_all_jobs_in_order(self, jobs):
        results = SerialExecutor().run(jobs)
        assert len(results) == len(jobs)
        assert [r.key for r in results] == [job.key() for job in jobs]
        assert all(result.ok for result in results)

    def test_progress_callback_counts_up(self, jobs):
        seen = []
        SerialExecutor().run(jobs, progress=lambda done, total, result: seen.append((done, total)))
        assert seen == [(i + 1, len(jobs)) for i in range(len(jobs))]

    def test_failing_job_does_not_abort_batch(self):
        good = SchedulingProblem(graph=build_g2(), deadline=75.0, name="good")
        bad = SchedulingProblem(graph=build_g2(), deadline=40.0, name="bad")
        results = SerialExecutor().run(build_jobs([bad, good], ["iterative"]))
        assert not results[0].ok
        assert results[1].ok


class TestParallelExecutor:
    def test_matches_serial_results_exactly(self, jobs):
        serial = SerialExecutor().run(jobs)
        parallel = ParallelExecutor(max_workers=2).run(jobs)
        assert _comparable(parallel) == _comparable(serial)

    def test_rows_equal_serial_field_for_field(self, jobs):
        # Worker placement must not leak into any stored field.
        def fields(results):
            return [
                {
                    f.name: getattr(r, f.name)
                    for f in dataclasses.fields(r)
                    if f.name != "elapsed_s"
                }
                for r in results
            ]

        serial = SerialExecutor().run(jobs)
        parallel = ParallelExecutor(max_workers=2).run(jobs)
        assert fields(parallel) == fields(serial)

    def test_single_worker_falls_back_to_serial(self, jobs):
        results = ParallelExecutor(max_workers=1).run(jobs[:2])
        assert len(results) == 2
        assert all(result.ok for result in results)

    def test_empty_batch(self):
        assert ParallelExecutor(max_workers=2).run([]) == []

    def test_error_capture_across_processes(self):
        good = SchedulingProblem(graph=build_g2(), deadline=75.0, name="good")
        bad = SchedulingProblem(graph=build_g2(), deadline=40.0, name="bad")
        jobs = build_jobs([bad, good, good.with_deadline(95.0)], ["iterative"])
        results = ParallelExecutor(max_workers=2).run(jobs)
        assert [result.ok for result in results] == [False, True, True]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(max_workers=0)


def _work_items(kind):
    """Two work items of one kind: (runs cleanly, will be poisoned)."""
    if kind == "job":
        problem = SchedulingProblem(graph=build_g2(), deadline=75.0, name="g2")
        return (
            Job(problem=problem, algorithm="all-fastest"),
            Job(problem=problem, algorithm="all-slowest"),
        )
    spec = default_registry().get("g3-jitter10")
    jobs = [
        SimulationJob(spec=spec, policy="greedy-energy", replication=r) for r in range(4)
    ]
    return SimulationBatch(jobs=tuple(jobs[:2])), SimulationBatch(jobs=tuple(jobs[2:]))


class TestPoolTransportFailure:
    @pytest.mark.parametrize("kind", ["job", "batch"])
    def test_lost_item_yields_its_failure_result(self, kind):
        good, bad = _work_items(kind)
        # An unpicklable attribute makes the pool fail to ship the item:
        # a transport error, not an error inside the item's own run().
        object.__setattr__(bad, "poison", lambda: None)
        results = ParallelExecutor(max_workers=2).run([good, bad])
        assert results[0].ok
        assert not results[1].ok
        message = (
            results[1].records[0].error if kind == "batch" else results[1].error
        )
        assert "pickle" in message
        assert results[1] == bad.failure_result(message)


class TestDefaultExecutor:
    def test_one_means_serial(self):
        assert isinstance(default_executor(1), SerialExecutor)
        assert isinstance(default_executor(None), SerialExecutor)

    def test_many_means_parallel(self):
        executor = default_executor(4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 4
