"""Tests for the simulation-suite driver and the robustness analysis."""

from collections import Counter

import pytest

from repro.analysis import (
    compute_robustness,
    degradation_leaderboard,
    degradation_table,
    robustness_table,
)
from repro.engine import ParallelExecutor, ResultStore, SimulationRecord, simjobs
from repro.errors import ConfigurationError
from repro.experiments import DEFAULT_SIM_POLICIES, run_simulation_suite, simulate
from repro.obs import RECORDER, recording
from repro.scenarios import ScenarioSpec, default_registry


@pytest.fixture(scope="module")
def small_suite():
    return run_simulation_suite(
        scenarios=["g3-jitter10", "g3-jitter10-fail5"],
        replications=2,
        seed=5,
    )


class TestRunSimulationSuite:
    def test_grid_shape(self, small_suite):
        assert len(small_suite.specs) == 2
        assert small_suite.policies == DEFAULT_SIM_POLICIES
        assert len(small_suite.run.records) == 2 * len(DEFAULT_SIM_POLICIES) * 2
        assert small_suite.run.ok

    def test_offline_anchor_per_scenario(self, small_suite):
        # Both scenarios share one offline problem (they differ only in the
        # stochastic tier), yet each must get its own anchor entry.
        assert set(small_suite.offline_costs) == {"g3-jitter10", "g3-jitter10-fail5"}
        costs = list(small_suite.offline_costs.values())
        assert costs[0] == costs[1] > 0

    def test_default_selection_is_stochastic_tier(self):
        result = run_simulation_suite(
            policies=["static-replay"], replications=1, seed=0
        )
        assert all(spec.has_perturbation for spec in result.specs)
        assert len(result.specs) >= 10

    def test_replications_validated(self):
        with pytest.raises(ConfigurationError):
            run_simulation_suite(scenarios=["g3-jitter10"], replications=0)

    def test_parallel_resume_byte_identical(self, small_suite, tmp_path):
        store = ResultStore(tmp_path / "sim.jsonl", record_type=SimulationRecord)
        parallel = run_simulation_suite(
            scenarios=["g3-jitter10", "g3-jitter10-fail5"],
            replications=2,
            seed=5,
            executor=ParallelExecutor(max_workers=2),
            store=store,
            resume=True,
        )
        resumed = run_simulation_suite(
            scenarios=["g3-jitter10", "g3-jitter10-fail5"],
            replications=2,
            seed=5,
            store=store,
            resume=True,
        )
        assert resumed.run.executed == 0
        assert resumed.run.skipped == len(resumed.run.records)
        reference = small_suite.robustness_table().to_text()
        assert parallel.robustness_table().to_text() == reference
        assert resumed.robustness_table().to_text() == reference
        assert resumed.leaderboard_table().to_text() == (
            small_suite.leaderboard_table().to_text()
        )

    def test_deterministic_scenario_replay_matches_offline(self):
        result = run_simulation_suite(
            scenarios=["g3"], policies=["static-replay"], replications=1
        )
        row = result.robustness_rows()[0]
        # Conformance through the whole driver stack: zero perturbation,
        # replayed offline schedule, bitwise-equal sigma.
        assert row.mean_cost == row.offline_cost
        assert row.degradation_percent == 0.0


#: Scenarios that build one problem under three graph names.
TWINS = (
    "tour-erdos-18-rakhmatov-j10-exact",
    "tour-erdos-18-rakhmatov-j25-blind",
    "erdos-18-jitter25-fail5",
)


def _replay_params(result):
    """Scenario name -> its static-replay params."""
    return {job.spec.name: job.params for job in result.run.jobs if job.policy == "static-replay"}


def _traced_suite(scenarios, **kwargs):
    """``run_simulation_suite`` (static replay, one replication) and its counters."""
    try:
        with recording() as recorder:
            result = run_simulation_suite(
                scenarios=scenarios, policies=["static-replay"], replications=1, **kwargs
            )
        counters = recorder.counters_snapshot()["counters"]
    finally:
        RECORDER.reset()
    return result, counters


class TestOfflineAnchors:
    """One offline run per distinct problem, fanned back to every spec."""

    def test_named_twins_share_one_offline_run(self):
        graphs = {default_registry().get(name).build_graph().name for name in TWINS}
        assert len(graphs) == len(TWINS), "twins should differ in graph name"
        result, counters = _traced_suite([*TWINS, "g3-jitter10"])
        assert counters["engine.jobs.executed"] == 2
        assert "engine.jobs.duplicates" not in counters
        costs = [result.offline_costs[name] for name in TWINS]
        assert costs == [costs[0]] * len(TWINS)
        assert result.offline_costs["g3-jitter10"] != costs[0]
        params = _replay_params(result)
        assert [params[name] for name in TWINS] == [params[TWINS[0]]] * len(TWINS)
        assert params["g3-jitter10"] != params[TWINS[0]]

    def test_each_spec_gets_the_anchor_it_would_get_alone(self):
        together = run_simulation_suite(
            scenarios=["g3-jitter10", *TWINS], policies=["static-replay"], replications=1
        )
        for name in ("g3-jitter10", *TWINS):
            alone = run_simulation_suite(
                scenarios=[name], policies=["static-replay"], replications=1
            )
            assert together.offline_costs[name] == alone.offline_costs[name]
            assert _replay_params(together)[name] == _replay_params(alone)[name]

    def test_a_failed_anchor_falls_back_to_the_algorithm(self, monkeypatch):
        from repro.engine import jobs as engine_jobs

        def broken(problem, model, params):
            raise RuntimeError("boom")

        monkeypatch.setitem(engine_jobs._REGISTRY, "broken", broken)
        result, counters = _traced_suite(TWINS, offline_algorithm="broken")
        assert counters["engine.jobs.failed"] == 1
        assert "engine.jobs.executed" not in counters
        assert result.offline_costs == {}
        assert _replay_params(result) == {name: {"algorithm": "broken"} for name in TWINS}
        assert {record.error for record in result.run.records} == {"RuntimeError: boom"}


def _timeless_rows(result, name):
    """The records of scenario ``name`` as dicts, without ``elapsed_s``."""
    return [
        {key: value for key, value in record.to_dict().items() if key != "elapsed_s"}
        for record in result.run.records
        if record.scenario == name
    ]


class TestOneProblemPerBuildInput:
    """Named twins share one built problem, and the sharing shows in no row."""

    def test_named_twins_share_one_built_problem(self, monkeypatch):
        monkeypatch.setattr(simjobs, "_PROBLEMS", {})
        registry = default_registry()
        problems = [simjobs._problem(registry.get(name)) for name in TWINS]
        assert all(problem is problems[0] for problem in problems)
        assert problems[0].graph.name == TWINS[0]
        other = registry.get("g3-jitter10")
        assert simjobs._problem(other) is not problems[0]
        tighter = ScenarioSpec.from_dict({**other.to_dict(), "tightness": 0.25})
        assert simjobs._problem(tighter) is not simjobs._problem(other)
        assert simjobs._problem(tighter).deadline < simjobs._problem(other).deadline

    def test_default_suite_builds_and_fingerprints_each_problem_once(self, monkeypatch):
        # The 58 default stochastic specs hold 10 distinct problems.
        calls = Counter()
        build, fingerprint = ScenarioSpec.build_problem, simulate.problem_fingerprint

        def counted_build(spec):
            calls["build_problem"] += 1
            return build(spec)

        def counted_fingerprint(problem):
            calls["problem_fingerprint"] += 1
            return fingerprint(problem)

        monkeypatch.setattr(simjobs, "_PROBLEMS", {})
        monkeypatch.setattr(ScenarioSpec, "build_problem", counted_build)
        monkeypatch.setattr(simulate, "problem_fingerprint", counted_fingerprint)
        result = run_simulation_suite(replications=1)
        assert result.run.ok
        assert calls["build_problem"] == 10
        assert calls["problem_fingerprint"] <= 10

    def test_a_twin_after_its_twins_gets_the_rows_it_gets_alone(self, monkeypatch):
        for name in TWINS:
            others = [twin for twin in TWINS if twin != name]
            monkeypatch.setattr(simjobs, "_PROBLEMS", {})
            alone = run_simulation_suite(scenarios=[name], replications=2, seed=3)
            monkeypatch.setattr(simjobs, "_PROBLEMS", {})
            run_simulation_suite(scenarios=others, replications=2, seed=3)
            after = run_simulation_suite(scenarios=[name], replications=2, seed=3)
            # The second run replayed the problem its twin built.
            spec = default_registry().get(name)
            assert simjobs._problem(spec).graph.name in others
            rows = _timeless_rows(after, name)
            assert len(rows) == 2 * len(DEFAULT_SIM_POLICIES)
            assert rows == _timeless_rows(alone, name)
            assert after.offline_costs == alone.offline_costs


class TestRobustnessAnalysis:
    def test_rows_and_degradation(self, small_suite):
        rows = small_suite.robustness_rows()
        cells = {(row.scenario, row.policy) for row in rows}
        assert len(cells) == len(rows) == 8
        for row in rows:
            assert row.replications == 2
            assert row.min_cost <= row.mean_cost <= row.max_cost
            assert 0.0 <= row.feasible_rate <= 1.0
        failing = [r for r in rows if r.scenario == "g3-jitter10-fail5"]
        assert all(row.mean_retries > 0 for row in failing)

    def test_leaderboard_ranks_all_policies(self, small_suite):
        standings = small_suite.leaderboard()
        assert len(standings) == len(DEFAULT_SIM_POLICIES)
        assert {s.policy for s in standings} == set(DEFAULT_SIM_POLICIES)
        degradations = [s.mean_degradation_percent for s in standings]
        assert degradations == sorted(degradations)

    def test_tables_render(self, small_suite):
        text = small_suite.robustness_table().to_text()
        assert "g3-jitter10" in text and "degr %" in text
        board = small_suite.leaderboard_table().to_text()
        assert "rank" in board and "static-replay" in board

    def test_missing_anchor_surfaces_not_fake_perfect(self):
        records = [
            SimulationRecord(
                key="a", scenario="anchored", policy="p", cost=12.0, feasible=True
            ),
            SimulationRecord(
                key="b", scenario="orphan", policy="p", cost=10.0, feasible=True
            ),
        ]
        rows = compute_robustness(records, {"anchored": 10.0})
        by_scenario = {row.scenario: row for row in rows}
        assert by_scenario["orphan"].offline_cost is None
        assert by_scenario["orphan"].degradation_percent is None
        assert "-" in robustness_table([by_scenario["orphan"]]).to_text()
        # The leaderboard only counts anchored rows.
        standings = degradation_leaderboard(rows)
        assert standings[0].scenarios == 1
        assert standings[0].mean_degradation_percent == pytest.approx(20.0)
        # A policy with no anchored rows at all is omitted entirely.
        assert degradation_leaderboard([by_scenario["orphan"]]) == []

    def test_static_replay_jobs_carry_explicit_schedule(self, small_suite):
        replay_jobs = [
            job for job in small_suite.run.jobs if job.policy == "static-replay"
        ]
        assert replay_jobs
        for job in replay_jobs:
            assert "sequence" in job.params and "columns" in job.params

    def test_failed_records_excluded(self):
        records = [
            SimulationRecord(
                key="a", scenario="s", policy="p", cost=10.0, feasible=True
            ),
            SimulationRecord(key="b", scenario="s", policy="p", error="boom"),
        ]
        rows = compute_robustness(records, {"s": 8.0})
        assert rows[0].replications == 1
        assert rows[0].degradation_percent == pytest.approx(25.0)

    def test_empty_input(self):
        assert compute_robustness([], {}) == []
        assert degradation_leaderboard([]) == []
        assert "rank" in degradation_table([]).to_text()
        assert "scenario" in robustness_table([]).to_text()
