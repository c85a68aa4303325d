"""End-to-end instrumentation tests: engine, evaluator, core and simulator layers."""

import dataclasses

import pytest

from repro.engine import (
    ParallelExecutor,
    SerialExecutor,
    SimulationBatch,
    SimulationJob,
    run_simulation_jobs,
)
from repro.obs import RECORDER, recording
from repro.obs.sinks import MemorySink
from repro.scenarios import default_registry


@pytest.fixture(autouse=True)
def clean_recorder():
    RECORDER.enabled = False
    RECORDER.reset()
    yield
    RECORDER.enabled = False
    RECORDER.reset()


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def make_jobs(registry, policies=("static-replay", "deadline-slack")):
    return [
        SimulationJob(spec=registry.get(name), policy=policy, seed=7, replication=r)
        for name in ("g3-jitter10", "g2-jitter10-uniform")
        for policy in policies
        for r in range(2)
    ]


class TestSimulatorCounters:
    def test_events_decisions_and_queries(self, registry):
        with recording() as rec:
            SimulationBatch(
                jobs=(
                    SimulationJob(
                        spec=registry.get("g3-jitter10"), policy="deadline-slack", seed=1
                    ),
                )
            ).run()
        counters = rec.counters_snapshot()["counters"]
        assert counters["sim.event.wakeup[deadline-slack]"] > 0
        assert counters["sim.event.task-end[deadline-slack]"] > 0
        assert counters["sim.decisions[deadline-slack]"] > 0
        # decision latency is runtime-dependent, hence volatile
        hists = rec.counters_snapshot(include_volatile=True)["histograms"]
        assert hists["rt.sim.decision_s[deadline-slack]"]["count"] > 0

    def test_reactive_policy_queries_live_state(self, registry):
        with recording() as rec:
            SimulationBatch(
                jobs=(
                    SimulationJob(
                        spec=registry.get("g3-jitter10"), policy="battery-reactive", seed=1
                    ),
                )
            ).run()
        counters = rec.counters_snapshot()["counters"]
        # the data ROADMAP's policy-cost analysis needs: per-policy live
        # battery-state query counts
        assert counters["sim.query.apparent_charge[battery-reactive]"] > 0
        assert counters["sim.query.state_of_charge[battery-reactive]"] > 0

    def test_query_counts_deterministic_across_runs(self, registry):
        job = SimulationJob(
            spec=registry.get("g3-jitter10"), policy="battery-reactive", seed=5
        )
        snapshots = []
        for _ in range(2):
            with recording() as rec:
                SimulationBatch(jobs=(job,)).run()
            snapshots.append(rec.counters_snapshot())
        assert snapshots[0] == snapshots[1]


class TestEngineCounters:
    def test_serial_run_counts_jobs_and_emits_spans(self, registry):
        jobs = make_jobs(registry)
        cells = len({job.cell_key() for job in jobs})
        with recording() as rec:
            sink = MemorySink()
            rec.add_sink(sink)
            run_simulation_jobs(jobs, executor=SerialExecutor())
        counters = rec.counters_snapshot()["counters"]
        assert counters["engine.simjobs.executed"] == len(jobs)
        # replications batch per cell by default: one span per batch
        assert counters["engine.simjobs.batches"] == cells
        span_names = [span["name"] for span in sink.by_type("span")]
        assert span_names.count("engine.batch") == cells

    def test_serial_run_emits_batch_spans_and_no_job_spans(self, registry):
        # Every simulation job runs as a lane of its cell's batch: one
        # engine.batch span per cell, never a per-job engine.job span.
        jobs = make_jobs(registry)
        cells = len({job.cell_key() for job in jobs})
        with recording() as rec:
            sink = MemorySink()
            rec.add_sink(sink)
            run_simulation_jobs(jobs, executor=SerialExecutor())
        span_names = [span["name"] for span in sink.by_type("span")]
        assert span_names.count("engine.batch") == cells
        assert "engine.job" not in span_names

    def test_parallel_pool_ships_metrics_and_synthesizes_spans(self, registry):
        jobs = make_jobs(registry)
        cells = len({job.cell_key() for job in jobs})
        with recording() as rec:
            sink = MemorySink()
            rec.add_sink(sink)
            run_simulation_jobs(jobs, executor=ParallelExecutor(max_workers=2))
        counters = rec.counters_snapshot()["counters"]
        assert counters["engine.simjobs.executed"] == len(jobs)
        span_names = [span["name"] for span in sink.by_type("span")]
        # parent synthesizes per-batch execution and queue-wait spans,
        # matching the serial span vocabulary
        assert span_names.count("engine.batch") == cells
        assert span_names.count("engine.batch.queue") == cells
        assert rec.gauges.get("rt.engine.pool.utilization", 0.0) > 0.0

    def test_serial_vs_parallel_snapshots_bitwise_identical(self, registry):
        jobs = make_jobs(registry)
        with recording() as rec:
            run_simulation_jobs(jobs, executor=SerialExecutor())
        serial = rec.counters_snapshot()
        with recording() as rec:
            run_simulation_jobs(jobs, executor=ParallelExecutor(max_workers=2))
        parallel = rec.counters_snapshot()
        assert serial == parallel
        assert serial["counters"]  # non-trivial comparison

    def test_resumed_jobs_counted(self, registry, tmp_path):
        from repro.engine import ResultStore, SimulationRecord

        jobs = make_jobs(registry)
        store = ResultStore(tmp_path / "sim.jsonl", record_type=SimulationRecord)
        run_simulation_jobs(jobs, store=store, resume=True)
        with recording() as rec:
            run_simulation_jobs(jobs, store=store, resume=True)
        counters = rec.counters_snapshot()["counters"]
        assert counters["engine.simjobs.resumed"] == len(jobs)
        assert "engine.simjobs.executed" not in counters

    def test_duplicate_keys_counted_under_each_job_types_prefix(self, registry):
        from repro.engine import Job, run_jobs

        spec = registry.get("g3-jitter10")
        alias = dataclasses.replace(spec, name="same-work-alias")
        sim_jobs = [SimulationJob(spec=s, policy="greedy-energy") for s in (spec, alias)]
        problems = [s.build_problem() for s in (spec, alias)]
        offline_jobs = [Job(problem=p, algorithm="all-fastest") for p in problems]
        with recording() as rec:
            run_simulation_jobs(sim_jobs)
            run_jobs(offline_jobs)
        counters = rec.counters_snapshot()["counters"]
        assert counters["engine.simjobs.duplicates"] == 1
        assert counters["engine.simjobs.executed"] == 1
        assert counters["engine.jobs.duplicates"] == 1
        assert counters["engine.jobs.executed"] == 1


class TestCoreCounters:
    def _suite_counters(self, *extra):
        from repro.cli import main

        RECORDER.reset()
        argv = ["suite", "--run", "--scenarios", "g3", "g3-tight",
                "--algorithms", "iterative", "--metrics", *extra]
        assert main(argv) == 0
        return RECORDER.counters_snapshot()

    def test_dpf_counters_identical_serial_and_parallel(self):
        serial = self._suite_counters()
        parallel = self._suite_counters("--jobs", "2")
        assert serial["counters"]["core.dpf.calls"] > 0
        assert serial["counters"]["core.dpf.promotions"] > 0
        assert serial == parallel

    def test_dpf_counters_match_the_candidates_examined(self, registry):
        from repro.core import BatteryAwareScheduler

        problem = registry.get("g3").build_problem()
        with recording() as rec:
            solution = BatteryAwareScheduler().solve(problem)
        m = problem.graph.uniform_design_point_count()
        # Each window offers m - window_start columns to each of the n - 1
        # tasks before the last one.
        candidates = sum(
            (len(solution.sequence) - 1) * (m - record.window_start)
            for iteration in solution.iterations
            for record in iteration.windows.records
        )
        assert rec.counters_snapshot()["counters"]["core.dpf.calls"] == candidates


class TestNoCacheMetrics:
    def test_runs_emit_no_cache_metrics(self, registry):
        from repro.engine import run_experiments
        from repro.scheduling import SchedulingProblem
        from repro.taskgraph import build_g3

        problem = SchedulingProblem(graph=build_g3(), deadline=230.0, name="g3")
        with recording() as rec:
            run_simulation_jobs(make_jobs(registry), executor=SerialExecutor())
            run_experiments([problem], ["iterative", "annealing"])
        snapshot = rec.counters_snapshot(include_volatile=True)
        names = [*snapshot["counters"], *snapshot["histograms"]]
        assert names
        assert not [name for name in names if "cache" in name]


class TestTracebackCapture:
    def test_failed_simulation_records_traceback(self, registry):
        doomed = dataclasses.replace(
            registry.get("g3-jitter10"), name="doomed", failure_rate=0.97
        )
        record = SimulationBatch(
            jobs=(SimulationJob(spec=doomed, policy="greedy-energy", seed=0),)
        ).run().records[0]
        assert not record.ok
        assert record.traceback is not None
        assert record.traceback.startswith("Traceback")
        assert "SimulationError" in record.traceback
        # traceback survives the store round trip
        from repro.engine import SimulationRecord

        assert SimulationRecord.from_dict(record.to_dict()).traceback == record.traceback

    def test_successful_record_has_no_traceback(self, registry):
        record = SimulationBatch(
            jobs=(SimulationJob(spec=registry.get("g3"), policy="greedy-energy"),)
        ).run().records[0]
        assert record.ok and record.traceback is None

    def test_failed_experiment_job_records_traceback(self):
        from repro import BatterySpec, SchedulingProblem
        from repro.engine import Job, JobResult, execute_job
        from repro.taskgraph import build_g2

        infeasible = SchedulingProblem(
            graph=build_g2(), deadline=40.0, battery=BatterySpec(), name="G2@40"
        )
        result = execute_job(Job(problem=infeasible, algorithm="iterative"))
        assert not result.ok
        assert result.traceback is not None and "Traceback" in result.traceback
        assert "InfeasibleDeadlineError" in result.traceback
        assert JobResult.from_dict(result.to_dict()).traceback == result.traceback


class TestEvaluatorCounters:
    def test_annealing_drives_proposal_counters(self):
        from repro.cli import main

        argv = ["suite", "--run", "--scenarios", "g3",
                "--algorithms", "annealing", "--seed", "11", "--metrics"]
        assert main(argv) == 0
        counters = RECORDER.counters_snapshot()["counters"]
        assert counters["eval.propose.design_point"] > 0
        assert counters["eval.propose.relocate"] > 0
        assert counters["eval.apply"] > 0
        hists = RECORDER.counters_snapshot()["histograms"]
        window = hists["eval.recompute_window"]
        assert window["count"] > 0 and window["buckets"]
