"""Tests for simulation jobs: keys, execution, parallelism and resume."""

import dataclasses
import hashlib
import json
import math
import shutil
from pathlib import Path

import pytest

from repro.engine import (
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    SimulationBatch,
    SimulationJob,
    SimulationRecord,
    execute_simulation_batch,
    run_simulation_jobs,
)
from repro.errors import ConfigurationError
from repro.experiments.simulate import DEFAULT_SIM_POLICIES, run_simulation_suite
from repro.scenarios import ScenarioSpec, default_registry
from repro.sim import make_policy, rng_for_seed

from ..sim.oracle import oracle_run


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture
def stochastic_spec(registry):
    return registry.get("g3-jitter10")


def strip_timing(records):
    """Record dicts minus wall-clock fields (the only non-deterministic part)."""
    return [
        {key: value for key, value in record.to_dict().items() if key != "elapsed_s"}
        for record in records
    ]


def _reference_records(jobs):
    """Each job's record built from a run of the event-loop oracle.

    The reference every engine run must equal: no batch, no lanes, no
    pipeline — the job's own perturbation stream, perturbation model and
    information mode handed straight to :func:`tests.sim.oracle.oracle_run`.
    """
    records = []
    for job in jobs:
        problem = job.spec.build_problem()
        try:
            result = oracle_run(
                problem,
                make_policy(job.policy, problem, job.params),
                perturbation=job.spec.perturbation(),
                rng=rng_for_seed(job.seed, job.replication),
                evaluate_at=job.evaluate_at,
                imode=job.spec.information_mode(),
            )
        except Exception as exc:  # noqa: BLE001 - the engine records it too
            records.append(job.failure_result(f"{type(exc).__name__}: {exc}"))
            continue
        records.append(
            SimulationRecord(
                key=job.key(),
                scenario=job.spec.name,
                policy=job.policy,
                seed=job.seed,
                replication=job.replication,
                cost=result.cost,
                makespan=result.makespan,
                feasible=result.feasible,
                retries=result.retries,
                events=result.events,
                depletion_time=result.depletion_time,
            )
        )
    return records


def run_one(job):
    """One job's record, run as the single lane of its own batch."""
    return SimulationBatch(jobs=(job,)).run().records[0]


class TestSimulationJob:
    def test_unknown_policy_rejected(self, stochastic_spec):
        with pytest.raises(ConfigurationError):
            SimulationJob(spec=stochastic_spec, policy="fifo")

    def test_key_is_stable_and_content_based(self, stochastic_spec):
        job = SimulationJob(spec=stochastic_spec, policy="greedy-energy", seed=3)
        same = SimulationJob(spec=stochastic_spec, policy="greedy-energy", seed=3)
        assert job.key() == same.key()
        assert job.key() != SimulationJob(
            spec=stochastic_spec, policy="greedy-energy", seed=4
        ).key()
        assert job.key() != SimulationJob(
            spec=stochastic_spec, policy="greedy-energy", seed=3, replication=1
        ).key()
        assert job.key() != SimulationJob(
            spec=stochastic_spec, policy="deadline-slack", seed=3
        ).key()

    def test_key_ignores_presentational_fields(self, stochastic_spec):
        renamed = dataclasses.replace(
            stochastic_spec, name="other-name", description="different words"
        )
        assert (
            SimulationJob(spec=stochastic_spec, policy="greedy-energy").key()
            == SimulationJob(spec=renamed, policy="greedy-energy").key()
        )

    def test_mixed_type_param_keys_hash_like_their_string_spelling(self, stochastic_spec):
        mixed = SimulationJob(
            spec=stochastic_spec, policy="static-replay", params={"columns": {"T1": 0, 3: 2}}
        )
        spelled = SimulationJob(
            spec=stochastic_spec, policy="static-replay", params={"columns": {"3": 2, "T1": 0}}
        )
        assert mixed.key() == spelled.key()
        assert mixed.cell_key() == spelled.cell_key()
        (cell_job,) = SimulationJob.cell(
            stochastic_spec, "static-replay", 1, params={"columns": {"T1": 0, 3: 2}}
        )
        assert cell_job.key() == mixed.key()

    def test_param_keys_colliding_as_strings_are_rejected(self, stochastic_spec):
        job = SimulationJob(
            spec=stochastic_spec, policy="static-replay", params={"columns": {1: 0, "1": 1}}
        )
        with pytest.raises(ConfigurationError, match="collide"):
            job.key()
        with pytest.raises(ConfigurationError, match="collide"):
            SimulationJob.cell(
                stochastic_spec, "static-replay", 2, params={"columns": {1: 0, "1": 1}}
            )

    def test_key_covers_perturbation_tier(self, registry):
        base = registry.get("g3-jitter10")
        hotter = dataclasses.replace(base, jitter=0.3)
        assert (
            SimulationJob(spec=base, policy="greedy-energy").key()
            != SimulationJob(spec=hotter, policy="greedy-energy").key()
        )

    @staticmethod
    def _catalogue_jobs(registry, params, seed, evaluate_ats, one_by_one):
        """The stochastic catalogue's jobs, 3 replications per cell, built
        one ``SimulationJob`` at a time or one :meth:`SimulationJob.cell`
        at a time."""
        jobs = []
        for spec in registry.select(stochastic=True):
            for policy in DEFAULT_SIM_POLICIES:
                for evaluate_at in evaluate_ats:
                    cell_params = params if policy == "static-replay" else {}
                    if one_by_one:
                        jobs.extend(
                            SimulationJob(
                                spec=spec,
                                policy=policy,
                                params=cell_params,
                                seed=seed,
                                replication=replication,
                                evaluate_at=evaluate_at,
                            )
                            for replication in range(3)
                        )
                    else:
                        jobs.extend(
                            SimulationJob.cell(
                                spec, policy, 3, params=cell_params, seed=seed,
                                evaluate_at=evaluate_at,
                            )
                        )
        return jobs

    @staticmethod
    def _key_digest(jobs):
        digest = hashlib.sha256()
        for job in jobs:
            digest.update(job.key().encode())
            digest.update(job.cell_key().encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("one_by_one", (True, False), ids=("jobs", "cells"))
    def test_keys_of_the_stochastic_catalogue_are_pinned(self, registry, one_by_one):
        # Every stored simulation record is addressed by these keys, so their
        # bytes must never drift, whichever way the jobs are built; the
        # digest was recorded before key and cell key started sharing one
        # job_spec() and a memoised scenario payload.  The static-replay
        # params exercise nested mappings, tuples and infinities in the
        # canonicalisation.
        params = {
            "sequence": ["T1", "T2"],
            "columns": {"T2": 1, "T1": 0},
            "limits": (1.5, float("inf")),
        }
        jobs = self._catalogue_jobs(registry, params, 7, ("completion",), one_by_one)
        assert self._key_digest(jobs) == (
            "8d6d3611421a2eb91451b220588f26155516b194f9dd4ce6d2fa32bec950e38f"
        )

    @pytest.mark.parametrize("one_by_one", (True, False), ids=("jobs", "cells"))
    def test_odd_params_and_evaluation_points_are_pinned(self, registry, one_by_one):
        # Recorded with jobs built one by one, before cells rendered their
        # key head once: nested lists and tuples, non-str mapping keys,
        # both infinities and both evaluation points.
        params = {
            "sequence": ["T1", ("T2", ["T3", ("T4",)])],
            "columns": {"T2": 1, "T1": 0},
            "by_index": {10: (0, 1), 9: [2, {1.5: -1, 0.5: None}]},
            "limits": (1.5, math.inf, -math.inf, [math.inf, (-math.inf,)]),
        }
        jobs = self._catalogue_jobs(
            registry, params, 11, ("completion", "deadline"), one_by_one
        )
        assert self._key_digest(jobs) == (
            "f1b0da2f9033bda57fc470830b8f56a3cbd621b66b53dc3204db85e174f083e1"
        )

    def test_cell_jobs_equal_jobs_built_one_by_one(self, registry):
        # Twelve replications, so that the rendered indices reach two digits.
        spec = registry.get("g3-jitter10")
        for policy in DEFAULT_SIM_POLICIES:
            params = (
                {"sequence": ["T1"], "columns": {"T1": 0}}
                if policy == "static-replay" else {}
            )
            cell = SimulationJob.cell(
                spec, policy, 12, params=params, seed=5, evaluate_at="deadline"
            )
            alone = [
                SimulationJob(
                    spec=spec, policy=policy, params=params, seed=5,
                    replication=replication, evaluate_at="deadline",
                )
                for replication in range(12)
            ]
            assert list(cell) == alone
            keys = [job.key() for job in cell]
            assert keys == [job.key() for job in alone]
            assert len(set(keys)) == 12
            assert {job.cell_key() for job in cell} == {alone[0].cell_key()}
        assert SimulationJob.cell(spec, "greedy-energy", 0) == ()
        with pytest.raises(ConfigurationError, match="unknown simulation policy"):
            SimulationJob.cell(spec, "no-such-policy", 2)

    def test_rendered_keys_equal_the_hash_of_job_spec(self, registry):
        # The keys are rendered from a hand-built sorted top level and a
        # per-spec scenario JSON; they must stay the hash of the canonical
        # JSON of job_spec() (the cell key: without the replication).  The
        # jobs are the default suite's, with each static-replay job carrying
        # a whole schedule as the suite's do, plus params holding
        # infinities and nested mappings.
        from repro.engine.jobs import _content_hash

        jobs = []
        for spec in registry.select(stochastic=True):
            sequence = spec.build_graph().topological_order()
            schedule = {
                "sequence": list(sequence),
                "columns": {name: index % 2 for index, name in enumerate(sequence)},
            }
            jobs.extend(
                SimulationJob(
                    spec=spec,
                    policy=policy,
                    params=schedule if policy == "static-replay" else {},
                    replication=replication,
                )
                for policy in DEFAULT_SIM_POLICIES
                for replication in range(2)
            )
        assert len(jobs) == 58 * 4 * 2
        odd_params = [
            {"limits": (float("inf"), float("-inf"), 1.5)},
            {"outer": {"b": {"z": [1, {"y": -math.inf}], "a": 2}, "a": None}},
        ]
        jobs.extend(
            SimulationJob(
                spec=registry.get("g2-jitter10-uniform"),
                policy="static-replay",
                params=params,
                seed=-4,
                replication=replication,
                evaluate_at=evaluate_at,
            )
            for params in odd_params
            for replication in (0, 11)
            for evaluate_at in ("completion", "deadline")
        )
        for job in jobs:
            whole = job.job_spec()
            assert job.key() == _content_hash(whole)
            cell = {name: value for name, value in whole.items() if name != "replication"}
            assert job.cell_key() == _content_hash(cell)

    def test_label(self, stochastic_spec):
        job = SimulationJob(spec=stochastic_spec, policy="greedy-energy", replication=2)
        assert job.label == "g3-jitter10/greedy-energy#2"


class TestOneLaneBatch:
    def test_successful_record(self, stochastic_spec):
        record = run_one(
            SimulationJob(spec=stochastic_spec, policy="deadline-slack", seed=1)
        )
        assert record.ok
        assert record.cost > 0 and record.makespan > 0
        assert record.scenario == "g3-jitter10"
        assert record.events > 0

    def test_failure_captured_not_raised(self, stochastic_spec):
        # An impossible retry budget forces a SimulationError inside the run.
        doomed = dataclasses.replace(stochastic_spec, failure_rate=0.97)
        record = run_one(
            SimulationJob(spec=doomed, policy="greedy-energy", seed=0)
        )
        assert not record.ok
        assert "SimulationError" in record.error

    def test_record_round_trip(self, stochastic_spec):
        record = run_one(
            SimulationJob(spec=stochastic_spec, policy="static-replay", seed=2)
        )
        assert SimulationRecord.from_dict(record.to_dict()) == record

    def test_record_with_cache_counters_still_loads(self, stochastic_spec):
        record = run_one(
            SimulationJob(spec=stochastic_spec, policy="static-replay", seed=2)
        )
        legacy = record.to_dict() | {"cache_hits": 5, "cache_misses": 11}
        assert SimulationRecord.from_dict(legacy) == record

    def test_deterministic_scenario_needs_no_seed_variation(self, registry):
        spec = registry.get("g3")
        records = [
            run_one(
                SimulationJob(spec=spec, policy="greedy-energy", seed=seed)
            )
            for seed in (0, 99)
        ]
        # Null perturbation: the seed stream is never consulted.
        assert records[0].cost == records[1].cost


class TestWorkItemContract:
    """What the executors and the shared pipeline need from simulation items."""

    def test_batch_run_matches_execute_simulation_batch(self, stochastic_spec):
        batch = SimulationBatch(
            jobs=tuple(
                SimulationJob(spec=stochastic_spec, policy="greedy-energy", replication=r)
                for r in range(3)
            )
        )
        ran = batch.run()
        assert ran.ok
        assert strip_timing(ran.records) == strip_timing(
            execute_simulation_batch(batch).records
        )

    def test_failure_result_names_the_job(self, stochastic_spec):
        job = SimulationJob(spec=stochastic_spec, policy="static-replay", seed=3, replication=2)
        failed = job.failure_result("boom")
        assert not failed.ok
        assert (failed.key, failed.scenario, failed.policy, failed.seed, failed.replication) == (
            job.key(),
            "g3-jitter10",
            "static-replay",
            3,
            2,
        )
        assert failed.error == "boom"

    def test_batch_failure_result_has_a_record_per_member_in_order(self, stochastic_spec):
        jobs = tuple(
            SimulationJob(spec=stochastic_spec, policy="greedy-energy", replication=r)
            for r in range(3)
        )
        failed = SimulationBatch(jobs=jobs).failure_result("lost")
        assert not failed.ok
        assert failed.records == tuple(job.failure_result("lost") for job in jobs)

    def test_job_type_facts_read_by_the_pipeline(self):
        assert SimulationJob.record_type is SimulationRecord
        assert SimulationJob.counters == "engine.simjobs"
        assert not SimulationJob.last_duplicate_runs

class TestRunSimulationJobs:
    def make_jobs(self, registry, replications=2):
        return [
            SimulationJob(spec=registry.get(name), policy=policy, seed=7, replication=r)
            for name in ("g3-jitter10", "g2-jitter10-uniform")
            for policy in ("static-replay", "deadline-slack")
            for r in range(replications)
        ]

    def test_serial_parallel_byte_identical(self, registry):
        jobs = self.make_jobs(registry)
        serial = run_simulation_jobs(jobs, executor=SerialExecutor())
        parallel = run_simulation_jobs(jobs, executor=ParallelExecutor(max_workers=2))
        assert strip_timing(serial.records) == strip_timing(parallel.records)
        assert serial.ok

    def test_resume_skips_and_reproduces(self, registry, tmp_path):
        jobs = self.make_jobs(registry)
        store = ResultStore(tmp_path / "sim.jsonl", record_type=SimulationRecord)
        first = run_simulation_jobs(jobs[:4], store=store, resume=True)
        assert (first.executed, first.skipped) == (4, 0)
        second = run_simulation_jobs(jobs, store=store, resume=True)
        assert (second.executed, second.skipped) == (len(jobs) - 4, 4)
        fresh = run_simulation_jobs(jobs)
        assert strip_timing(second.records) == strip_timing(fresh.records)

    def test_resume_over_rows_with_cache_counters(self, registry, tmp_path):
        # Stores written before the battery-cost cache was removed carry
        # per-record cache_hits/cache_misses keys; they must still resume.
        jobs = self.make_jobs(registry, replications=1)
        fresh = run_simulation_jobs(jobs)
        path = tmp_path / "old.jsonl"
        path.write_text(
            "".join(
                json.dumps(r.to_dict() | {"cache_hits": 2, "cache_misses": 3}, sort_keys=True)
                + "\n"
                for r in fresh.records
            )
        )
        store = ResultStore(path, record_type=SimulationRecord)
        resumed = run_simulation_jobs(jobs, store=store, resume=True)
        assert (resumed.executed, resumed.skipped) == (0, len(jobs))
        assert resumed.records == fresh.records

    def test_store_of_an_earlier_commit_resumes_with_nothing_to_run(self, tmp_path):
        # The golden store was written by an earlier commit's
        # run_simulation_suite with these arguments: two replications of a
        # static-replay cell (its key carries the offline schedule), a
        # battery-reactive cell, and the same on a -fail5 scenario, whose
        # lanes retry.  Today's keys must find every row, and today's rows
        # must equal the stored ones apart from timing.
        golden = Path(__file__).with_name("golden_sim_store.jsonl")
        stored = [json.loads(line) for line in golden.read_text().splitlines()]
        assert any(row["retries"] for row in stored)
        path = tmp_path / "sim.jsonl"
        shutil.copy(golden, path)
        store = ResultStore(path, record_type=SimulationRecord)
        arguments = dict(
            scenarios=["g3-jitter10", "g3-jitter10-fail5"],
            policies=["static-replay", "battery-reactive"],
            replications=2,
            seed=0,
        )
        resumed = run_simulation_suite(store=store, resume=True, **arguments).run
        assert (resumed.executed, resumed.skipped) == (0, len(stored))
        assert path.read_bytes() == golden.read_bytes()
        fresh = run_simulation_suite(**arguments).run
        assert strip_timing(fresh.records) == [
            {key: value for key, value in row.items() if key != "elapsed_s"}
            for row in stored
        ]

    def test_resume_requires_store(self, registry):
        with pytest.raises(ConfigurationError):
            run_simulation_jobs(self.make_jobs(registry), resume=True)

    def test_store_record_type_enforced(self, registry, tmp_path):
        store = ResultStore(tmp_path / "wrong.jsonl")  # JobResult store
        with pytest.raises(ConfigurationError):
            run_simulation_jobs(self.make_jobs(registry), store=store)

    def test_by_cell_groups_replications(self, registry):
        run = run_simulation_jobs(self.make_jobs(registry))
        cells = run.by_cell()
        assert ("g3-jitter10", "static-replay") in cells
        group = cells[("g3-jitter10", "static-replay")]
        assert [record.replication for record in group] == [0, 1]

    def test_failures_isolated(self, registry):
        doomed = dataclasses.replace(
            registry.get("g3-jitter10"), name="doomed", failure_rate=0.97
        )
        jobs = [
            SimulationJob(spec=doomed, policy="greedy-energy"),
            SimulationJob(spec=registry.get("g3"), policy="greedy-energy"),
        ]
        run = run_simulation_jobs(jobs)
        assert not run.ok
        assert len(run.failures()) == 1
        assert run.records[1].ok

    def test_summary_accounting(self, registry):
        run = run_simulation_jobs(self.make_jobs(registry, replications=1))
        assert run.summary() == "4 simulations (4 executed, 0 resumed), 0 failed"

    def test_cache_counters_read_zero(self, registry):
        run = run_simulation_jobs(
            self.make_jobs(registry, replications=2), executor=ParallelExecutor(max_workers=2)
        )
        assert (run.cache_hits, run.cache_misses) == (0, 0)


class TestJobKeyDedupe:
    """Key-based dedupe: across store writers on resume, and in-call."""

    def make_jobs(self, registry, replications=3):
        return [
            SimulationJob(spec=registry.get(name), policy=policy, seed=7, replication=r)
            for name in ("g3-jitter10", "g3-jitter10-fail5")
            for policy in ("static-replay", "greedy-energy")
            for r in range(replications)
        ]

    def test_scalar_written_store_resumes_without_recomputing(self, registry, tmp_path):
        # Resume dedupes on job *keys*, which never encode how a record
        # was computed: a store of one-job-at-a-time scalar records, as
        # older releases wrote them, resumes with every job skipped and
        # no row appended.
        jobs = self.make_jobs(registry)
        reference = _reference_records(jobs)
        path = tmp_path / "sim.jsonl"
        store = ResultStore(path, record_type=SimulationRecord)
        store.append_many(reference)
        rows_before = path.read_text()
        resumed = run_simulation_jobs(jobs, store=store, resume=True)
        assert (resumed.executed, resumed.skipped) == (0, len(jobs))
        assert path.read_text() == rows_before
        assert strip_timing(resumed.records) == strip_timing(reference)

    def test_duplicate_key_jobs_execute_once_and_fan_back(self, registry, tmp_path):
        # Two differently named specs describing identical work share a
        # key (names are presentational): the work runs once, the store
        # gains one row, and the record is fanned back to both positions.
        spec = registry.get("g3-jitter10")
        alias = dataclasses.replace(
            spec, name="same-work-alias", description="different words"
        )
        jobs = [
            SimulationJob(spec=spec, policy="greedy-energy", seed=7),
            SimulationJob(spec=alias, policy="greedy-energy", seed=7),
            SimulationJob(spec=spec, policy="deadline-slack", seed=7),
        ]
        path = tmp_path / "sim.jsonl"
        store = ResultStore(path, record_type=SimulationRecord)
        run = run_simulation_jobs(jobs, store=store, resume=True)
        assert run.executed == 2  # one per unique key
        assert len(run.records) == len(jobs)
        assert run.records[0] == run.records[1]
        assert len(path.read_text().splitlines()) == 2
        # The *first* duplicate runs (offline jobs run the last), so its
        # scenario name is stamped on the alias's record and stored row.
        assert run.records[1].scenario == spec.name
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["key"] == jobs[1].key()
        assert rows[0]["scenario"] == spec.name

    def test_duplicate_key_jobs_dedupe_in_batched_mode_too(self, registry):
        spec = registry.get("g3-jitter10")
        alias = dataclasses.replace(spec, name="same-work-alias")
        jobs = [
            SimulationJob(spec=spec, policy="greedy-energy", replication=r)
            for r in range(3)
        ] + [
            SimulationJob(spec=alias, policy="greedy-energy", replication=r)
            for r in range(3)
        ]
        run = run_simulation_jobs(jobs)
        assert run.executed == 3
        assert strip_timing(run.records[:3]) == strip_timing(run.records[3:])

    def test_information_mode_enters_job_key(self, registry):
        # The exact-mode tournament twin of a base scenario is the *same
        # work* (exact mode is bitwise-invisible), so it shares the job
        # key; any belief mode is different work and must not.
        base = registry.get("g3-jitter10")
        exact_twin = registry.get("tour-g3-rakhmatov-j10-exact")
        blind_twin = registry.get("tour-g3-rakhmatov-j10-blind")
        key = SimulationJob(spec=base, policy="greedy-energy", seed=7).key()
        assert SimulationJob(
            spec=exact_twin, policy="greedy-energy", seed=7
        ).key() == key
        assert SimulationJob(
            spec=blind_twin, policy="greedy-energy", seed=7
        ).key() != key
        noisy = registry.get("tour-g3-rakhmatov-j10-noisy")
        reseeded = dataclasses.replace(noisy, imode_seed=noisy.imode_seed + 1)
        assert SimulationJob(spec=noisy, policy="greedy-energy").key() != SimulationJob(
            spec=reseeded, policy="greedy-energy"
        ).key()


class TestSimulationBatching:
    """Monte Carlo batching: batched cells, bit-identical to the event-loop oracle."""

    def make_jobs(self, registry, replications=3):
        return [
            SimulationJob(spec=registry.get(name), policy=policy, seed=7, replication=r)
            for name in ("g3-jitter10", "g3-jitter10-fail5")
            for policy in ("static-replay", "greedy-energy", "battery-reactive")
            for r in range(replications)
        ]

    def test_cell_key_groups_replications_only(self, registry):
        spec = registry.get("g3-jitter10")
        a = SimulationJob(spec=spec, policy="greedy-energy", seed=1, replication=0)
        b = SimulationJob(spec=spec, policy="greedy-energy", seed=1, replication=5)
        assert a.cell_key() == b.cell_key()
        assert a.key() != b.key()
        assert a.cell_key() != SimulationJob(
            spec=spec, policy="greedy-energy", seed=2
        ).cell_key()
        assert a.cell_key() != SimulationJob(
            spec=spec, policy="deadline-slack", seed=1
        ).cell_key()

    def test_batch_requires_one_cell(self, registry):
        spec = registry.get("g3-jitter10")
        replications = SimulationBatch(
            jobs=(
                SimulationJob(spec=spec, policy="greedy-energy", replication=0),
                SimulationJob(spec=spec, policy="greedy-energy", replication=1),
            )
        )
        assert len(replications.jobs) == 2
        with pytest.raises(ConfigurationError):
            SimulationBatch(jobs=())
        with pytest.raises(ConfigurationError):
            SimulationBatch(
                jobs=(
                    SimulationJob(spec=spec, policy="greedy-energy"),
                    SimulationJob(spec=spec, policy="deadline-slack"),
                )
            )

    @pytest.mark.parametrize("policy", DEFAULT_SIM_POLICIES)
    def test_batched_records_equal_scalar_records(self, registry, policy):
        jobs = [
            SimulationJob(spec=registry.get(name), policy=policy, seed=7, replication=r)
            for name in ("g3-jitter10", "g3-jitter10-fail5")
            for r in range(3)
        ]
        batched = run_simulation_jobs(jobs)
        assert strip_timing(batched.records) == strip_timing(_reference_records(jobs))
        assert batched.ok

    def test_execute_simulation_batch_directly(self, registry):
        spec = registry.get("g3-jitter10")
        jobs = tuple(
            SimulationJob(spec=spec, policy="deadline-slack", replication=r)
            for r in range(3)
        )
        outcome = execute_simulation_batch(SimulationBatch(jobs=jobs))
        assert outcome.ok
        assert [record.replication for record in outcome.records] == [0, 1, 2]
        assert strip_timing(outcome.records) == strip_timing(_reference_records(jobs))

    def test_chunked_batches_preserve_order(self, registry, monkeypatch):
        # Two lanes per batch split every 5-replication cell into 2+2+1.
        monkeypatch.setattr("repro.engine.simjobs.DEFAULT_BATCH_SIZE", 2)
        jobs = self.make_jobs(registry, replications=5)
        reference = strip_timing(_reference_records(jobs))
        cells = len({job.cell_key() for job in jobs})
        for executor in (SerialExecutor(), ParallelExecutor(max_workers=2)):
            batches = []
            chunked = run_simulation_jobs(
                jobs,
                executor=executor,
                progress=lambda done, total, outcome: batches.append(outcome),
            )
            assert len(batches) == 3 * cells
            assert max(len(outcome.records) for outcome in batches) == 2
            assert [record.key for record in chunked.records] == [job.key() for job in jobs]
            assert strip_timing(chunked.records) == reference

    def test_parallel_batched_identical_to_serial_batched(self, registry):
        jobs = self.make_jobs(registry)
        serial = run_simulation_jobs(jobs, executor=SerialExecutor())
        parallel = run_simulation_jobs(jobs, executor=ParallelExecutor(max_workers=2))
        assert strip_timing(serial.records) == strip_timing(parallel.records)

    def test_resume_mixes_store_hits_with_batched_fresh(self, registry, tmp_path):
        jobs = self.make_jobs(registry)
        store = ResultStore(tmp_path / "sim.jsonl", record_type=SimulationRecord)
        first = run_simulation_jobs(jobs[:5], store=store, resume=True)
        assert first.executed == 5
        second = run_simulation_jobs(jobs, store=store, resume=True)
        assert second.skipped == 5
        assert second.executed == len(jobs) - 5
        assert strip_timing(second.records) == strip_timing(_reference_records(jobs))

    def test_lane_failures_stay_isolated_in_batches(self, registry):
        # 0.8 per-attempt failure: some seeded lanes exhaust the retry
        # budget while others complete (the split is seed-deterministic).
        doomed = dataclasses.replace(
            registry.get("g3-jitter10"), name="doomed", failure_rate=0.8
        )
        jobs = [
            SimulationJob(spec=doomed, policy="greedy-energy", replication=r)
            for r in range(8)
        ]
        reference = _reference_records(jobs)
        batched = run_simulation_jobs(jobs)
        assert [r.ok for r in batched.records] == [r.ok for r in reference]
        assert [r.error for r in batched.records] == [r.error for r in reference]
        assert [r.cost for r in batched.records] == [r.cost for r in reference]
        assert any(not record.ok for record in batched.records)
        assert any(record.ok for record in batched.records)

    def test_setup_failure_fails_every_member(self, registry):
        spec = registry.get("g3-jitter10")
        jobs = tuple(
            SimulationJob(
                spec=spec,
                policy="battery-reactive",
                params={"soc_reserve": 5.0},  # invalid: must be within [0, 1]
                replication=r,
            )
            for r in range(3)
        )
        outcome = execute_simulation_batch(SimulationBatch(jobs=jobs))
        assert not outcome.ok
        assert all(not record.ok for record in outcome.records)
        assert len({record.error for record in outcome.records}) == 1
