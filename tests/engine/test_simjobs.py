"""Tests for simulation jobs: keys, execution, parallelism and resume."""

import dataclasses
import hashlib
import json

import pytest

from repro.engine import (
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    SimulationBatch,
    SimulationJob,
    SimulationRecord,
    execute_simulation_batch,
    execute_simulation_job,
    run_simulation_jobs,
)
from repro.errors import ConfigurationError
from repro.scenarios import ScenarioSpec, default_registry


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

    def test_key_covers_perturbation_tier(self, registry):
        base = registry.get("g3-jitter10")
        hotter = dataclasses.replace(base, jitter=0.3)
        assert (
            SimulationJob(spec=base, policy="greedy-energy").key()
            != SimulationJob(spec=hotter, policy="greedy-energy").key()
        )

    def test_keys_of_the_stochastic_catalogue_are_pinned(self, registry):
        # Every stored simulation record is addressed by these keys, so their
        # bytes must never drift; the digest was recorded before key and
        # cell key started sharing one job_spec() and a memoised scenario
        # payload.  The static-replay params exercise nested mappings,
        # tuples and infinities in the canonicalisation.
        from repro.experiments.simulate import DEFAULT_SIM_POLICIES

        params = {
            "sequence": ["T1", "T2"],
            "columns": {"T2": 1, "T1": 0},
            "limits": (1.5, float("inf")),
        }
        digest = hashlib.sha256()
        for spec in registry.select(stochastic=True):
            for policy in DEFAULT_SIM_POLICIES:
                for replication in range(3):
                    job = SimulationJob(
                        spec=spec,
                        policy=policy,
                        params=params if policy == "static-replay" else {},
                        seed=7,
                        replication=replication,
                    )
                    digest.update(job.key().encode())
                    digest.update(job.cell_key().encode())
        assert digest.hexdigest() == (
            "8d6d3611421a2eb91451b220588f26155516b194f9dd4ce6d2fa32bec950e38f"
        )

    def test_label(self, stochastic_spec):
        job = SimulationJob(spec=stochastic_spec, policy="greedy-energy", replication=2)
        assert job.label == "g3-jitter10/greedy-energy#2"


class TestExecuteSimulationJob:
    def test_successful_record(self, stochastic_spec):
        record = execute_simulation_job(
            SimulationJob(spec=stochastic_spec, policy="deadline-slack", seed=1)
        )
        assert record.ok
        assert record.cost > 0 and record.makespan > 0
        assert record.scenario == "g3-jitter10"
        assert record.events > 0

    def test_failure_captured_not_raised(self, stochastic_spec):
        # An impossible retry budget forces a SimulationError inside the run.
        doomed = dataclasses.replace(stochastic_spec, failure_rate=0.97)
        record = execute_simulation_job(
            SimulationJob(spec=doomed, policy="greedy-energy", seed=0)
        )
        assert not record.ok
        assert "SimulationError" in record.error

    def test_record_round_trip(self, stochastic_spec):
        record = execute_simulation_job(
            SimulationJob(spec=stochastic_spec, policy="static-replay", seed=2)
        )
        assert SimulationRecord.from_dict(record.to_dict()) == record

    def test_record_with_cache_counters_still_loads(self, stochastic_spec):
        record = execute_simulation_job(
            SimulationJob(spec=stochastic_spec, policy="static-replay", seed=2)
        )
        legacy = record.to_dict() | {"cache_hits": 5, "cache_misses": 11}
        assert SimulationRecord.from_dict(legacy) == record

    def test_deterministic_scenario_needs_no_seed_variation(self, registry):
        spec = registry.get("g3")
        records = [
            execute_simulation_job(
                SimulationJob(spec=spec, policy="greedy-energy", seed=seed)
            )
            for seed in (0, 99)
        ]
        # Null perturbation: the seed stream is never consulted.
        assert records[0].cost == records[1].cost


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
    """Key-based dedupe: across batch settings on resume, and in-call."""

    def make_jobs(self, registry, replications=3):
        return [
            SimulationJob(spec=registry.get(name), policy=policy, seed=7, replication=r)
            for name in ("g3-jitter10", "g3-jitter10-fail5")
            for policy in ("static-replay", "greedy-energy")
            for r in range(replications)
        ]

    @pytest.mark.parametrize(
        "write_batch,resume_batch", [(False, "auto"), ("auto", False)]
    )
    def test_opposite_batch_resume_recomputes_nothing(
        self, registry, tmp_path, write_batch, resume_batch
    ):
        # Resume dedupes on job *keys*, which never encode how a record
        # was computed: a scalar-written store resumed with batching (and
        # vice versa) skips every job and appends no duplicate rows.
        jobs = self.make_jobs(registry)
        path = tmp_path / "sim.jsonl"
        store = ResultStore(path, record_type=SimulationRecord)
        first = run_simulation_jobs(jobs, store=store, resume=True, batch=write_batch)
        assert (first.executed, first.skipped) == (len(jobs), 0)
        rows_after_first = len(path.read_text().splitlines())
        second = run_simulation_jobs(jobs, store=store, resume=True, batch=resume_batch)
        assert (second.executed, second.skipped) == (0, len(jobs))
        assert len(path.read_text().splitlines()) == rows_after_first
        assert strip_timing(second.records) == strip_timing(first.records)

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
        run = run_simulation_jobs(jobs, batch="auto")
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
    """Monte Carlo batching: lockstep cells, bit-identical to scalar."""

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

    def test_batched_records_equal_scalar_records(self, registry):
        jobs = self.make_jobs(registry)
        scalar = run_simulation_jobs(jobs, batch=False)
        batched = run_simulation_jobs(jobs, batch="auto")
        assert strip_timing(batched.records) == strip_timing(scalar.records)
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
        scalar = [execute_simulation_job(job) for job in jobs]
        assert strip_timing(outcome.records) == strip_timing(scalar)

    def test_chunked_batches_preserve_order(self, registry):
        jobs = self.make_jobs(registry, replications=5)
        scalar = run_simulation_jobs(jobs, batch=False)
        chunked = run_simulation_jobs(jobs, batch=2)
        assert strip_timing(chunked.records) == strip_timing(scalar.records)

    def test_parallel_batched_identical_to_serial_batched(self, registry):
        jobs = self.make_jobs(registry)
        serial = run_simulation_jobs(jobs, executor=SerialExecutor(), batch="auto")
        parallel = run_simulation_jobs(
            jobs, executor=ParallelExecutor(max_workers=2), batch="auto"
        )
        assert strip_timing(serial.records) == strip_timing(parallel.records)

    def test_resume_mixes_store_hits_with_batched_fresh(self, registry, tmp_path):
        jobs = self.make_jobs(registry)
        store = ResultStore(tmp_path / "sim.jsonl", record_type=SimulationRecord)
        first = run_simulation_jobs(jobs[:5], store=store, resume=True, batch="auto")
        assert first.executed == 5
        second = run_simulation_jobs(jobs, store=store, resume=True, batch="auto")
        assert second.skipped == 5
        assert second.executed == len(jobs) - 5
        scalar = run_simulation_jobs(jobs, batch=False)
        assert strip_timing(second.records) == strip_timing(scalar.records)

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
        scalar = run_simulation_jobs(jobs, batch=False)
        batched = run_simulation_jobs(jobs, batch="auto")
        assert [r.ok for r in batched.records] == [r.ok for r in scalar.records]
        assert [r.error for r in batched.records] == [r.error for r in scalar.records]
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

    def test_invalid_batch_argument_rejected(self, registry):
        jobs = self.make_jobs(registry, replications=1)
        with pytest.raises(ConfigurationError):
            run_simulation_jobs(jobs, batch=-2)
        with pytest.raises(ConfigurationError):
            run_simulation_jobs(jobs, batch="bogus")
