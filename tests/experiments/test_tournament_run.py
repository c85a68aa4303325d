"""End-to-end tests of run_tournament, its report page, and the CLI gate."""

import dataclasses
import math

import pytest

from repro.cli import main
from repro.experiments import run_tournament, tournament_markdown
from repro.scenarios import default_registry
from repro.sim import make_policy, rng_for_seed

from ..sim.oracle import oracle_run

SMALL = [
    "tour-g3-rakhmatov-j10-exact",
    "tour-g3-rakhmatov-j10-blind",
    "tour-g3-rakhmatov-j10-noisy",
]


@pytest.fixture(scope="module")
def small_result():
    return run_tournament(
        scenarios=SMALL, policies=["greedy-energy"], replications=2
    )


class TestRunTournament:
    def test_small_selection(self, small_result):
        assert small_result.run.ok
        rows = small_result.rows()
        assert [(row.scenario, row.imode) for row in rows] == [
            ("tour-g3-rakhmatov-j10-exact", "exact"),
            ("tour-g3-rakhmatov-j10-noisy", "noisy(0.3,101)"),
            ("tour-g3-rakhmatov-j10-blind", "blind"),
        ]
        assert all(row.replications == 2 for row in rows)
        standings = small_result.standings()
        assert [s.imode for s in standings] == ["exact", "noisy(0.3,101)", "blind"]

    def test_default_selection_is_the_tour_grid(self):
        # Without an explicit scenario list the tournament covers every
        # tour-* catalogue cell (the ISSUE's >= 100-cell grid: 48 specs
        # x 4 policies).  Selection only — running it is the CLI's job.
        registry = default_registry()
        expected = [n for n in registry.names() if n.startswith("tour-")]
        assert len(expected) == 48
        # The default path resolves scenarios=None to exactly this list;
        # pin the resolution by running one replication of a single
        # policy over the full grid and checking the spec set.
        result = run_tournament(policies=["static-replay"], replications=1)
        assert sorted(spec.name for spec in result.specs) == sorted(expected)
        assert result.run.ok
        # static-replay plans offline: its decisions cannot depend on the
        # information mode, so every mode shows the same degradation.
        standings = result.standings()
        degradations = {s.mean_degradation_percent for s in standings}
        assert len(degradations) == 1

    def test_deterministic_report(self, small_result):
        again = run_tournament(
            scenarios=SMALL, policies=["greedy-energy"], replications=2
        )
        assert tournament_markdown(again) == tournament_markdown(small_result)

    def test_markdown_structure(self, small_result):
        page = tournament_markdown(small_result)
        assert page.startswith("# Information-mode tournament")
        assert "do not edit by hand" in page
        assert "3 scenarios x 1 policies" in page
        assert "python -m repro.cli tournament --report" in page
        assert "| blind" in page  # tables render in markdown mode


class TestTournamentCli:
    def test_small_run_prints_standings(self, capsys):
        assert main(
            ["tournament", "--scenarios", *SMALL,
             "--policies", "greedy-energy", "--replications", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Tournament leaderboard per information mode" in out
        assert "0 failed" in out

    def test_report_written(self, tmp_path, capsys):
        target = tmp_path / "tournament.md"
        assert main(
            ["tournament", "--scenarios", *SMALL,
             "--policies", "greedy-energy", "--replications", "1",
             "--report", str(target)]
        ) == 0
        assert target.exists()
        assert target.read_text().startswith("# Information-mode tournament")
        assert f"wrote {target}" in capsys.readouterr().out

    def test_smoke_gate_passes(self, capsys):
        # The CI conformance gate: every engine record of every information
        # mode bitwise-equal to a direct simulator run.
        assert main(
            ["tournament", "--smoke",
             "--policies", "static-replay", "--replications", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "tournament smoke OK: 48 records" in out
        assert "bitwise-equal" in out
        assert "(12 exact-mode records imode-free)" in out

    @pytest.mark.parametrize("mode", ("exact", "noisy"))
    def test_smoke_gate_fails_on_divergence(self, capsys, monkeypatch, mode):
        # A reference simulator one ulp off in cost, in exact mode or in a
        # belief mode, must trip the gate on exactly that mode's records.
        import repro.sim

        class NudgedSimulator(repro.sim.Simulator):
            def run(self):
                result = super().run()
                if (self.imode.kind if self.imode else "exact") != mode:
                    return result
                return dataclasses.replace(
                    result, cost=math.nextafter(result.cost, math.inf)
                )

        monkeypatch.setattr(repro.sim, "Simulator", NudgedSimulator)
        assert main(
            ["tournament", "--smoke",
             "--policies", "greedy-energy", "--replications", "1"]
        ) == 1
        captured = capsys.readouterr()
        failures = [
            line for line in captured.err.splitlines()
            if line.startswith("tournament smoke FAILED")
        ]
        assert len(failures) == 12
        assert all(f"-{mode}/" in line for line in failures)
        assert "tournament smoke OK" not in captured.out


class TestSmokeTwin:
    """``tournament --smoke`` checks the engine's records against the
    one-lane :class:`~repro.sim.Simulator` front; this twin checks the same
    records against the event-loop oracle, which shares no simulator code."""

    FIELDS = ("cost", "makespan", "feasible", "retries", "events", "depletion_time")

    def test_every_smoke_record_equals_the_oracle(self):
        run = run_tournament(replications=2, seed=0).run
        mismatches = []
        for job, record in zip(run.jobs, run.records):
            problem = job.spec.build_problem()
            try:
                reference = oracle_run(
                    problem,
                    make_policy(job.policy, problem, job.params),
                    perturbation=job.spec.perturbation(),
                    rng=rng_for_seed(job.seed, job.replication),
                    evaluate_at=job.evaluate_at,
                    imode=job.spec.information_mode(),
                )
            except Exception as exc:  # noqa: BLE001 - the engine records it too
                expected = f"{type(exc).__name__}: {exc}"
                actual = record.error
            else:
                expected = tuple(getattr(reference, name) for name in self.FIELDS)
                actual = record.error or tuple(getattr(record, name) for name in self.FIELDS)
            if actual != expected:
                mismatches.append((job.label, actual, expected))
        assert len(run.records) == 48 * 4 * 2
        assert mismatches == []
