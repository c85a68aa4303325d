"""Tests for the job specification, its keys, and the algorithm registry."""

import pytest

from repro import BatterySpec, SchedulingProblem, simulated_annealing_baseline
from repro.baselines import AnnealingConfig
from repro.core import SchedulerConfig
from repro.engine import (
    Job,
    JobResult,
    algorithm_names,
    get_algorithm,
    resolve_algorithm_name,
    scheduler_config_params,
)
from repro.errors import ConfigurationError
from repro.taskgraph import build_g2


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
            problem=problem, algorithm="iterative", params={"max_iterations": 3}
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

    def test_infinite_capacity_is_serialisable(self, problem):
        spec = Job(problem=problem, algorithm="iterative").spec()
        assert spec["battery"]["capacity"] == "inf"


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
            SchedulerConfig(max_iterations=3, evaluate_at="deadline")
        )
        assert params == {"max_iterations": 3, "evaluate_at": "deadline"}

    def test_drop_factor_is_added(self):
        params = scheduler_config_params(None, drop_factor="slack_ratio")
        assert params == {"drop_factor": "slack_ratio"}

    def test_record_evaluations_never_leaks_into_key(self):
        assert scheduler_config_params(SchedulerConfig(record_evaluations=True)) == {}


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
