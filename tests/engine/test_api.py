"""Tests for the engine's public API and its integration with the drivers."""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro import BatterySpec, SchedulingProblem
from repro.baselines import (
    all_fastest_baseline,
    best_uniform_baseline,
    chowdhury_baseline,
    rakhmatov_baseline,
)
from repro.core import battery_aware_schedule
from repro.engine import (
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    build_jobs,
    run_experiments,
    run_jobs,
)
from repro.errors import ConfigurationError
from repro.experiments import (
    deadline_sweep,
    run_ablation,
    run_suite,
    run_table4,
)
from repro.taskgraph import build_g2
from repro.workloads import suite_problems

ALGORITHMS = ["iterative", "dp-energy+greedy", "all-fastest"]


@pytest.fixture(scope="module")
def problems():
    return suite_problems(tightness_levels=(0.4, 0.8), names=["g2", "chain-10"])


def _comparable(results):
    return [result.to_dict() | {"elapsed_s": 0.0} for result in results]


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

    def test_parallel_suite_rows_equal_serial_field_for_field(self):
        # Every result field but the wall time must be independent of which
        # worker ran the job, since the store rows are written from them.
        def rows(results):
            return [
                {
                    f.name: getattr(r, f.name)
                    for f in dataclasses.fields(r)
                    if f.name != "elapsed_s"
                }
                for r in results
            ]

        serial = run_suite()
        parallel = run_suite(executor=ParallelExecutor(max_workers=2))
        assert rows(parallel.run.results) == rows(serial.run.results)

    def test_cache_counters_read_zero(self, problems):
        run = run_experiments(problems, ALGORITHMS)
        assert (run.cache_hits, run.cache_misses) == (0, 0)
        assert "cache" not in run.summary()

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

    def test_resume_over_rows_with_cache_counters(self, problems, tmp_path):
        # Stores written before the battery-cost cache was removed carry
        # per-job cache_hits/cache_misses keys; they must still resume.
        fresh = run_experiments(problems, ALGORITHMS)
        path = tmp_path / "old.jsonl"
        path.write_text(
            "".join(
                json.dumps(r.to_dict() | {"cache_hits": 4, "cache_misses": 9}, sort_keys=True)
                + "\n"
                for r in fresh.results
            )
        )
        resumed = run_experiments(problems, ALGORITHMS, store=ResultStore(path), resume=True)
        assert resumed.executed == 0
        assert resumed.skipped == len(fresh.jobs)
        assert resumed.results == fresh.results

    def test_store_of_an_earlier_commit_resumes_with_nothing_to_run(self, tmp_path):
        # The golden store was written by an earlier commit's run_suite with
        # these arguments, unoptimized and then with cull+fuse (whose keys
        # carry the fused graphs).  Today's keys must find every row, and
        # today's rows must equal the stored ones apart from timing.
        golden = Path(__file__).with_name("golden_offline_store.jsonl")
        stored = [json.loads(line) for line in golden.read_text().splitlines()]
        path = tmp_path / "suite.jsonl"
        shutil.copy(golden, path)
        arguments = dict(scenarios=["g2", "g3", "chain-25"], seed=0)
        fresh = []
        for optimize in ("", "cull+fuse"):
            resumed = run_suite(
                store=ResultStore(path), resume=True, optimize=optimize, **arguments
            ).run
            assert (resumed.executed, resumed.skipped) == (0, 12)
            fresh.extend(run_suite(optimize=optimize, **arguments).run.results)
        assert path.read_bytes() == golden.read_bytes()
        assert _comparable(fresh) == [row | {"elapsed_s": 0.0} for row in stored]

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

    def test_duplicate_keys_collapse_under_parallel_executor(self, problems):
        alias = dataclasses.replace(problems[0], name="alias")
        batch = [problems[0], problems[1], alias]
        serial = run_experiments(batch, ALGORITHMS)
        parallel = run_experiments(
            batch, ALGORITHMS, executor=ParallelExecutor(max_workers=2)
        )
        assert parallel.executed == serial.executed == 2 * len(ALGORITHMS)
        assert _comparable(parallel.results) == _comparable(serial.results)

    def test_resumed_duplicates_fan_back_without_executing(self, problems, tmp_path):
        alias = dataclasses.replace(problems[0], name="alias")
        batch = [problems[0], problems[1], alias]
        store = ResultStore(tmp_path / "dup.jsonl")
        first = run_experiments(batch, ALGORITHMS, store=store)
        rows = store.path.read_text()
        resumed = run_experiments(batch, ALGORITHMS, store=store, resume=True)
        assert (resumed.executed, resumed.skipped) == (0, 2 * len(ALGORITHMS))
        assert _comparable(resumed.results) == _comparable(first.results)
        assert store.path.read_text() == rows

    def test_store_of_another_record_type_is_refused(self, problems, tmp_path):
        # An offline row in a SimulationRecord store would load as a corrupt
        # line, so every later resume would silently run the job again.
        from repro.engine import SimulationJob, SimulationRecord, run_simulation_jobs
        from repro.scenarios import default_registry

        path = tmp_path / "sim.jsonl"
        store = ResultStore(path, record_type=SimulationRecord)
        spec = default_registry().get("g3")
        run_simulation_jobs([SimulationJob(spec=spec, policy="greedy-energy")], store=store)
        before = path.read_bytes()
        with pytest.raises(ConfigurationError, match="record_type=JobResult"):
            run_jobs(build_jobs(problems[:1], ["all-fastest"]), store=store, resume=True)
        assert path.read_bytes() == before

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


class TestComparingAlgorithms:
    """Comparing schedulers on one problem set goes through ``run_experiments``."""

    COMPARED = ["iterative", "dp-energy+greedy", "all-fastest"]

    @pytest.fixture(scope="class")
    def g2_problems(self):
        from repro.battery import BatterySpec

        battery = BatterySpec(beta=0.273)
        return [
            SchedulingProblem(graph=build_g2(), deadline=75.0, battery=battery, name="G2@75"),
            SchedulingProblem(graph=build_g2(), deadline=95.0, battery=battery, name="G2@95"),
        ]

    @pytest.fixture(scope="class")
    def run(self, g2_problems):
        return run_experiments(g2_problems, self.COMPARED)

    def test_cells_cover_problems_and_algorithms(self, run):
        grouped = run.by_problem()
        assert set(grouped) == {"G2@75", "G2@95"}
        for cells in grouped.values():
            assert set(cells) == set(self.COMPARED)
            assert all(cell.ok and cell.cost > 0 for cell in cells.values())

    def test_result_lookup(self, run):
        assert run.result_for("G2@75", "iterative").feasible
        with pytest.raises(KeyError, match="nope"):
            run.result_for("G2@75", "nope")
        with pytest.raises(KeyError):
            run.result_for("G2@60", "iterative")

    def test_iterative_never_loses_to_the_dp_baseline_on_g2(self, run):
        for cells in run.by_problem().values():
            ours = cells["iterative"].cost
            baseline = cells["dp-energy+greedy"].cost
            assert 100.0 * (baseline - ours) / baseline >= -1e-6

    def test_looser_deadline_never_costs_more(self, run):
        tight = run.result_for("G2@75", "iterative").cost
        loose = run.result_for("G2@95", "iterative").cost
        assert loose <= tight + 1e-9

    def test_failing_algorithm_recorded_as_error(self, g2_problems, monkeypatch):
        from repro.engine import jobs as engine_jobs

        def broken(problem, model, params):
            raise RuntimeError("boom")

        monkeypatch.setitem(engine_jobs._REGISTRY, "broken", broken)
        run = run_experiments(g2_problems[:1], ["all-fastest", "broken"])
        ok, failed = run.results
        assert ok.ok and ok.cost > 0
        assert failed.error == "RuntimeError: boom"
        assert failed.cost is None and failed.feasible is None
        assert run.failures() == (failed,)
        assert run.summary() == "2 jobs (2 executed, 0 resumed), 1 failed"

    def test_table_has_one_row_per_cell(self, run):
        table = run.to_table()
        assert table.headers == ("problem", "algorithm", "sigma", "makespan", "status")
        assert len(table.rows) == 2 * len(self.COMPARED)
        assert [row[:2] for row in table.rows[:3]] == [
            ("G2@75", name) for name in self.COMPARED
        ]

    def test_table_status_carries_the_error(self, g2_problems):
        too_tight = dataclasses.replace(g2_problems[0], deadline=40.0, name="G2@40")
        table = run_experiments([too_tight], ["iterative"]).to_table()
        (row,) = table.rows
        assert row[2] is None
        assert row[4].startswith("InfeasibleDeadlineError")


class TestDriverIntegration:
    """The engine-driven experiment drivers agree with the algorithms run directly."""

    def test_engine_sweep_matches_direct_calls(self, g2):
        direct = {
            "iterative (ours)": battery_aware_schedule,
            "dp-energy+greedy": rakhmatov_baseline,
            "last-task-first": chowdhury_baseline,
            "best-uniform": best_uniform_baseline,
            "all-fastest": all_fastest_baseline,
        }
        sweep = deadline_sweep(g2, num_points=3)
        assert sweep.algorithms == tuple(direct)
        battery = BatterySpec()
        for point in sweep.points:
            problem = SchedulingProblem(graph=g2, deadline=point.coordinate, battery=battery)
            for name, algorithm in direct.items():
                assert point.costs[name] == algorithm(problem).cost, (point.coordinate, name)

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
