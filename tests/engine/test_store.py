"""Tests for the append-only JSONL result store."""

import json

import pytest

from repro import SchedulingProblem
from repro.engine import (
    Job,
    JobResult,
    ResultStore,
    SimulationJob,
    SimulationRecord,
    build_jobs,
    run_jobs,
    run_simulation_jobs,
)
from repro.scenarios import default_registry
from repro.taskgraph import build_g2


def make_result(key: str, cost: float = 1.0, error: str = None) -> JobResult:
    if error is not None:
        return JobResult(key=key, algorithm="iterative", problem_name="p", error=error)
    return JobResult(
        key=key,
        algorithm="iterative",
        problem_name="p",
        cost=cost,
        makespan=10.0,
        feasible=True,
        sequence=("a",),
        assignment={"a": 0},
    )


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result("k1", cost=1.5))
        store.append(make_result("k2", cost=2.5))
        loaded = store.load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"].cost == 1.5
        assert len(store) == 2

    def test_missing_file_loads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert store.load() == {}
        assert not store.exists()

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result("k", cost=1.0))
        store.append(make_result("k", cost=9.0))
        assert store.load()["k"].cost == 9.0

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.append(make_result("k1"))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn line without a closing brace\n')
            handle.write("not json at all\n")
        store.append(make_result("k2"))
        loaded = store.load()
        assert set(loaded) == {"k1", "k2"}
        assert store.corrupt_lines == 2

    def test_append_many_writes_every_row(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append_many([make_result("a"), make_result("b"), make_result("c")])
        assert len(store.load()) == 3

    def test_parent_directory_created_on_demand(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nested" / "results.jsonl")
        store.append(make_result("k"))
        assert store.exists()

    def test_completed_keys_excludes_failures_by_default(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result("ok"))
        store.append(make_result("bad", error="ValueError: boom"))
        assert store.completed_keys() == {"ok"}
        assert store.completed_keys(include_failed=True) == {"ok", "bad"}

    def test_lines_are_valid_json_objects(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path).append(make_result("k"))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["key"] == "k"


class TestSplitPending:
    def test_partitions_jobs_by_stored_success(self, tmp_path):
        problems = [
            SchedulingProblem(graph=build_g2(), deadline=d, name=f"G2@{d:g}")
            for d in (75.0, 95.0)
        ]
        jobs = build_jobs(problems, ["all-fastest"])
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result(jobs[0].key(), cost=42.0))

        pending, done = store.split_pending(jobs)
        assert [job.key() for job in pending] == [jobs[1].key()]
        assert set(done) == {jobs[0].key()}

    def test_failed_results_are_retried(self, tmp_path):
        problem = SchedulingProblem(graph=build_g2(), deadline=75.0, name="G2@75")
        job = Job(problem=problem, algorithm="all-fastest")
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result(job.key(), error="TimeoutError: flaky"))

        pending, done = store.split_pending([job])
        assert pending == [job]
        assert done == {}


def append_with(store: ResultStore, writer: str, result: JobResult) -> None:
    if writer == "append":
        store.append(result)
    else:
        store.append_many([result])


class TestTornFinalLine:
    """A last line without a newline must not swallow the next record."""

    @pytest.mark.parametrize("writer", ["append", "append_many"])
    def test_record_after_torn_fragment_survives(self, tmp_path, writer):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.append(make_result("k1"))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "half a rec')
        append_with(store, writer, make_result("k2"))
        assert set(store.load()) == {"k1", "k2"}
        assert store.corrupt_lines == 1

    @pytest.mark.parametrize("writer", ["append", "append_many"])
    def test_complete_record_without_newline_keeps_both(self, tmp_path, writer):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps(make_result("k1").to_dict(), sort_keys=True))
        store = ResultStore(path)
        append_with(store, writer, make_result("k2"))
        assert set(store.load()) == {"k1", "k2"}
        assert store.corrupt_lines == 0

    def test_terminated_store_gains_no_blank_line(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("")
        store = ResultStore(path)
        store.append(make_result("k1"))
        store.append_many([make_result("k2")])
        lines = path.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 3 and lines[-1] == ""
        assert all(json.loads(line) for line in lines[:-1])

    def test_resumed_job_run_after_torn_line(self, tmp_path):
        problems = [
            SchedulingProblem(graph=build_g2(), deadline=d, name=f"G2@{d:g}")
            for d in (75.0, 95.0)
        ]
        jobs = build_jobs(problems, ["all-fastest"])
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        run_jobs(jobs[:1], store=store, resume=True)
        whole = path.read_text(encoding="utf-8")
        with path.open("a", encoding="utf-8") as handle:
            handle.write(whole[: len(whole) // 2])

        resumed = run_jobs(jobs, store=store, resume=True)
        assert (resumed.executed, resumed.skipped) == (1, 1)
        assert set(store.load()) == {job.key() for job in jobs}
        assert store.corrupt_lines == 1

    def test_resumed_simulation_run_after_torn_line(self, tmp_path):
        spec = default_registry().get("g3-jitter10")
        jobs = [
            SimulationJob(spec=spec, policy="static-replay", seed=7, replication=r)
            for r in range(2)
        ]
        path = tmp_path / "sim.jsonl"
        store = ResultStore(path, record_type=SimulationRecord)
        run_simulation_jobs(jobs[:1], store=store, resume=True)
        whole = path.read_text(encoding="utf-8")
        with path.open("a", encoding="utf-8") as handle:
            handle.write(whole[: len(whole) // 2])

        resumed = run_simulation_jobs(jobs, store=store, resume=True)
        assert (resumed.executed, resumed.skipped) == (1, 1)
        assert set(store.load()) == {job.key() for job in jobs}
        assert store.corrupt_lines == 1
