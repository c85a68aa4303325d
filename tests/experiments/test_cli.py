"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.taskgraph import build_g2, save_json


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("table2", "table3", "table4", "figures", "ablation"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_schedule_arguments(self):
        args = build_parser().parse_args(["schedule", "g.json", "--deadline", "120"])
        assert args.graph == "g.json"
        assert args.deadline == 120.0
        assert args.beta == pytest.approx(0.273)


class TestMain:
    def test_table2_output(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_table4_without_paper_columns(self, capsys):
        assert main(["table4", "--no-paper"]) == 0
        out = capsys.readouterr().out
        assert "baseline sigma" in out
        assert "paper ours" not in out

    def test_figures_output(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "DPF" in out
        assert "Table 1" in out

    def test_sweep_output(self, capsys):
        assert main(["sweep", "--graph", "g2", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "deadline sweep" in out

    def test_schedule_command(self, tmp_path, capsys):
        path = tmp_path / "g2.json"
        save_json(build_g2(), path)
        assert main(["schedule", str(path), "--deadline", "75"]) == 0
        out = capsys.readouterr().out
        assert "sequence:" in out
        assert "design points:" in out

    def test_schedule_command_json(self, tmp_path, capsys):
        path = tmp_path / "g2.json"
        save_json(build_g2(), path)
        assert main(["schedule", str(path), "--deadline", "75", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["deadline"] == 75.0
        assert len(data["sequence"]) == 9

    def test_schedule_command_refine_and_gantt(self, tmp_path, capsys):
        path = tmp_path / "g2.json"
        save_json(build_g2(), path)
        assert main(["schedule", str(path), "--deadline", "75", "--refine", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "deadline" in out
        assert "[" in out and "]" in out  # Gantt bars present


class TestSuiteCommand:
    def test_suite_list_enumerates_catalogue(self, capsys):
        assert main(["suite", "--list"]) == 0
        out = capsys.readouterr().out
        from repro.scenarios import default_registry

        registry = default_registry()
        for name in registry.names():
            assert name in out
        assert f"{len(registry)} scenarios" in out

    def test_suite_list_filters_scenarios(self, capsys):
        assert main(["suite", "--list", "--scenarios", "g3", "diamond-3"]) == 0
        out = capsys.readouterr().out
        assert "diamond-3" in out
        assert "2 scenarios" in out
        assert "erdos-18" not in out

    def test_suite_run_small_selection(self, capsys):
        assert main([
            "suite", "--run",
            "--scenarios", "g3", "g3-ideal",
            "--algorithms", "all-fastest", "all-slowest",
        ]) == 0
        out = capsys.readouterr().out
        assert "Suite leaderboard" in out
        assert "g3-ideal" in out
        assert "0 failed" in out

    def test_suite_run_parallel_resume_byte_identical(self, tmp_path, capsys):
        argv = ["suite", "--run", "--scenarios", "g3", "crossbar-4x3",
                "--algorithms", "all-fastest", "iterative"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        store = ["--results-dir", str(tmp_path), "--resume"]
        assert main(argv + ["--jobs", "2"] + store) == 0
        parallel = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"] + store) == 0
        resumed = capsys.readouterr().out

        def results_only(text):
            # Drop the accounting line: executed/resumed counts legitimately
            # differ between fresh and resumed runs.
            return [line for line in text.splitlines() if "resumed)" not in line]

        assert results_only(serial) == results_only(parallel)
        assert results_only(serial) == results_only(resumed)
        assert "4 executed" in parallel
        assert "4 resumed" in resumed


class TestSeedFlag:
    def test_seed_accepted_by_batch_commands(self):
        parser = build_parser()
        for argv in (
            ["sweep", "--seed", "7"],
            ["ablation", "--seed", "7"],
            ["suite", "--seed", "7"],
            ["simulate", "--seed", "7"],
        ):
            assert parser.parse_args(argv).seed == 7

    def test_same_seed_suite_runs_byte_identical(self, capsys):
        # The annealing baseline is the stochastic consumer of the seed.
        argv = ["suite", "--run", "--scenarios", "g3",
                "--algorithms", "annealing", "--seed", "11"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_same_seed_sweep_runs_byte_identical(self, capsys):
        argv = ["sweep", "--graph", "g2", "--points", "3", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_seed_enters_job_keys(self, tmp_path, capsys):
        # Two different seeds through the same store must not collide:
        # the second run executes fresh jobs instead of resuming the first.
        store = ["--results-dir", str(tmp_path), "--resume"]
        assert main(["suite", "--run", "--scenarios", "g3",
                     "--algorithms", "annealing", "--seed", "1"] + store) == 0
        capsys.readouterr()
        assert main(["suite", "--run", "--scenarios", "g3",
                     "--algorithms", "annealing", "--seed", "2"] + store) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 resumed" in out


class TestSimulateCommand:
    def test_simulate_small_run(self, capsys):
        assert main([
            "simulate", "--scenarios", "g3-jitter10",
            "--policies", "static-replay", "deadline-slack",
            "--replications", "2", "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Simulated robustness" in out
        assert "degradation leaderboard" in out
        assert "g3-jitter10" in out
        assert "0 failed" in out

    def test_simulate_same_seed_byte_identical(self, capsys):
        argv = ["simulate", "--scenarios", "g3-jitter10-fail5",
                "--replications", "2", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_simulate_parallel_resume_byte_identical(self, tmp_path, capsys):
        argv = ["simulate", "--scenarios", "g3-jitter10", "g2-jitter10-uniform",
                "--replications", "2", "--seed", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        store = ["--results-dir", str(tmp_path), "--resume"]
        assert main(argv + ["--jobs", "2"] + store) == 0
        parallel = capsys.readouterr().out
        assert main(argv + store) == 0
        resumed = capsys.readouterr().out

        def results_only(text):
            return [line for line in text.splitlines() if "resumed)" not in line]

        assert results_only(serial) == results_only(parallel)
        assert results_only(serial) == results_only(resumed)
        assert "16 executed" in parallel
        assert "16 resumed" in resumed


class TestOptimizeCommand:
    def test_scenario_chain_fuses_to_one_task(self, capsys):
        assert main(["optimize", "--scenario", "chain-25"]) == 0
        out = capsys.readouterr().out
        assert "25 tasks / 24 edges -> 1 tasks / 0 edges" in out
        assert "fused " in out

    def test_report_has_no_signature_lines(self, capsys):
        # The structure-only graph signature was deleted with the dedupe
        # machinery; the report keeps the shape, pass and chain lines.
        assert main(["optimize", "--scenario", "chain-25"]) == 0
        out = capsys.readouterr().out
        assert "signature" not in out
        assert "25 tasks / 24 edges" in out

    def test_graph_file_source_and_outputs(self, tmp_path, capsys):
        graph_path = tmp_path / "g2.json"
        save_json(build_g2(), graph_path)
        json_out = tmp_path / "optimized.json"
        dot_out = tmp_path / "optimized.dot"
        assert main([
            "optimize", "--graph", str(graph_path),
            "--out", str(json_out), "--dot", str(dot_out),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote {json_out}" in out
        assert f"wrote {dot_out}" in out
        from repro.taskgraph import load_json

        optimized = load_json(json_out)
        assert optimized.num_tasks <= build_g2().num_tasks
        assert dot_out.read_text().startswith("digraph")

    def test_sinks_cull_dead_branches(self, tmp_path, capsys):
        from repro.workloads import fork_join_graph

        graph_path = tmp_path / "fj.json"
        save_json(fork_join_graph(num_stages=1, branches_per_stage=2, seed=1), graph_path)
        # Keeping only branch T2 as sink culls the other branch and the join.
        assert main([
            "optimize", "--graph", str(graph_path),
            "--passes", "cull", "--sinks", "T2",
        ]) == 0
        assert "culled" in capsys.readouterr().out

    def test_unknown_pass_is_a_cli_error(self, tmp_path):
        from repro.errors import ConfigurationError

        graph_path = tmp_path / "g2.json"
        save_json(build_g2(), graph_path)
        with pytest.raises(ConfigurationError, match="unknown optimize pass"):
            main(["optimize", "--graph", str(graph_path), "--passes", "explode"])

    def test_duplicate_pass_is_a_cli_error(self, tmp_path):
        from repro.errors import ConfigurationError

        graph_path = tmp_path / "g2.json"
        save_json(build_g2(), graph_path)
        with pytest.raises(ConfigurationError, match="duplicate optimize pass 'fuse'"):
            main(["optimize", "--graph", str(graph_path), "--passes", "fuse+cull+fuse"])

    def test_graph_and_scenario_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "--graph", "x.json", "--scenario", "g3"])


class TestSuiteOptimizeFlags:
    def test_suite_optimize_runs_on_fused_problems(self, capsys):
        argv = ["suite", "--run", "--scenarios", "chain-25",
                "--algorithms", "all-fastest", "all-slowest"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--optimize", "fuse"]) == 0
        fused = capsys.readouterr().out
        assert "0 failed" in fused
        # The fixed-column baselines are sigma-exact under fuse: the
        # canonical evaluator expands compounds into member segments.
        def sigma_cells(text):
            return [
                line.split()[2]
                for line in text.splitlines()
                if line.strip().startswith("chain-25")
            ]

        assert sigma_cells(fused) == sigma_cells(plain)

    def test_suite_optimize_and_plain_never_collide_in_a_store(self, tmp_path, capsys):
        store = ["--results-dir", str(tmp_path), "--resume"]
        argv = ["suite", "--run", "--scenarios", "g3",
                "--algorithms", "all-fastest"]
        assert main(argv + store) == 0
        capsys.readouterr()
        assert main(argv + ["--optimize", "cull+fuse"] + store) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 resumed" in out


class TestDocsCommand:
    def test_docs_writes_and_checks(self, tmp_path, capsys):
        out_dir = tmp_path / "docs"
        assert main(["docs", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert (out_dir / "scenarios.md").exists()
        assert (out_dir / "leaderboard.md").exists()
        assert main(["docs", "--check", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "docs check OK" in out

    def test_docs_check_fails_on_drift(self, tmp_path, capsys):
        out_dir = tmp_path / "docs"
        assert main(["docs", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        page = (out_dir / "scenarios.md").read_text()
        (out_dir / "scenarios.md").write_text(page + "\ndrift\n")
        assert main(["docs", "--check", "--out", str(out_dir)]) == 1

    def test_docs_check_fails_when_missing(self, tmp_path):
        assert main(["docs", "--check", "--out", str(tmp_path / "empty")]) == 1

    def test_committed_catalogue_matches_registry(self):
        """The repo's own docs/scenarios.md must never drift (CI gate)."""
        from pathlib import Path

        from repro.scenarios import catalogue_markdown

        committed = Path(__file__).resolve().parents[2] / "docs" / "scenarios.md"
        assert committed.exists()
        assert committed.read_text(encoding="utf-8") == catalogue_markdown()
