"""Tests for the serial and process-parallel executors."""

import dataclasses
import pickle
from concurrent import futures

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
from repro.taskgraph import build_g2, build_g3
from repro.workloads import suite_problems

from ..conftest import run_python

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


class _RecordingPool(futures.ProcessPoolExecutor):
    """A process pool that records its initializer arguments and submitted items."""

    initargs = None
    items = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        type(self).initargs = kwargs["initargs"]
        type(self).items = []

    def submit(self, fn, *args, **kwargs):
        type(self).items.append(args[0])
        return super().submit(fn, *args, **kwargs)


class TestSharedProblems:
    @pytest.fixture
    def recorded(self, monkeypatch):
        monkeypatch.setattr(futures, "ProcessPoolExecutor", _RecordingPool)
        return _RecordingPool

    def test_each_problem_ships_once_and_no_item_carries_one(self, recorded):
        small = SchedulingProblem(graph=build_g2(), deadline=75.0, name="small")
        large = SchedulingProblem(graph=build_g3(), deadline=230.0, name="large")
        jobs = build_jobs([small, large], ["all-fastest", "all-slowest"])
        seen = []
        results = ParallelExecutor(max_workers=2).run(
            jobs, progress=lambda done, total, result: seen.append(done)
        )
        assert _comparable(results) == _comparable(SerialExecutor().run(jobs))
        # One future per job, progress once per job.
        assert len(recorded.items) == len(jobs)
        assert sorted(seen) == list(range(1, len(jobs) + 1))
        # Each distinct problem reaches the workers once, through the initializer.
        shared = recorded.initargs[1]
        assert len(shared) == 2
        assert shared[0] is small and shared[1] is large
        # The submitted item keeps every field but its problem, and its
        # pickled size does not grow with the graph.
        for job, item in zip(jobs, recorded.items):
            assert item is not job
            assert item.algorithm == job.algorithm and item.params == job.params
            assert isinstance(item.problem, int)
            assert shared[item.problem] is job.problem
        sizes = [len(pickle.dumps(item)) for item in recorded.items]
        assert sizes[:2] == sizes[2:]
        assert max(sizes) < len(pickle.dumps(small)) / 10

    def test_batches_share_nothing(self, recorded):
        good, other = _work_items("batch")
        ParallelExecutor(max_workers=2).run([good, other])
        assert recorded.initargs[1] == ()
        assert recorded.items[0] is good and recorded.items[1] is other


_SPAWN_SCRIPT = """
import multiprocessing

from repro.engine import ParallelExecutor, SerialExecutor, build_jobs
from repro.workloads import suite_problems

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    problems = suite_problems(tightness_levels=(0.5,), names=["g2", "diamond-3"])
    jobs = build_jobs(problems, ["iterative", "dp-energy+greedy"])
    def rows(results):
        return [result.to_dict() | {"elapsed_s": 0.0} for result in results]
    parallel = rows(ParallelExecutor(max_workers=2).run(jobs))
    assert multiprocessing.get_start_method() == "spawn"
    print("same" if parallel == rows(SerialExecutor().run(jobs)) else parallel)
"""


def test_spawned_workers_receive_the_shared_problems():
    # Nothing is inherited under spawn: the initializer alone ships the problems.
    assert run_python(_SPAWN_SCRIPT).strip() == "same"


_POISON_SCRIPT = """
import multiprocessing

from repro import SchedulingProblem
from repro.engine import ParallelExecutor, SerialExecutor, build_jobs
from repro.taskgraph import build_g2, build_g3

if __name__ == "__main__":
    multiprocessing.set_start_method({method!r})
    good = SchedulingProblem(graph=build_g2(), deadline=75.0, name="good")
    bad = SchedulingProblem(graph=build_g3(), deadline=230.0, name="bad")
    object.__setattr__(bad, "poison", lambda: None)
    jobs = build_jobs([good, bad], ["all-fastest", "all-slowest"])
    results = ParallelExecutor(max_workers=2).run(jobs)
    assert multiprocessing.get_start_method() == {method!r}
    def rows(results):
        return [result.to_dict() | {{"elapsed_s": 0.0}} for result in results]
    assert rows(results[:2]) == rows(SerialExecutor().run(jobs[:2]))
    for job, result in zip(jobs[2:], results[2:]):
        assert result.error.startswith("PicklingError: "), result.error
        assert result == job.failure_result(result.error)
    print("isolated")
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_unpicklable_problem_fails_only_its_own_jobs(method):
    # Workers that do not fork receive the shared problems pickled; one that
    # cannot be pickled fails its jobs, and the other problem's jobs run.
    assert run_python(_POISON_SCRIPT.format(method=method)).strip() == "isolated"


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
