"""Command-line interface for the reproduction.

Examples
--------
Regenerate the paper's tables::

    python -m repro.cli table2
    python -m repro.cli table3
    python -m repro.cli table4

Regenerate the figure artefacts and the scaling check::

    python -m repro.cli figures

Schedule an arbitrary task graph stored as JSON::

    python -m repro.cli schedule my_graph.json --deadline 120 --beta 0.273

Run the extension experiments (optionally fanned out over worker processes
through the experiment engine, with a resumable result store)::

    python -m repro.cli ablation
    python -m repro.cli sweep --graph g3 --points 6
    python -m repro.cli sweep --jobs 4 --results-dir results
    python -m repro.cli sweep --jobs 4 --results-dir results --resume

Browse and run the scenario catalogue (DAG families x chemistries x
platforms x deadline tiers), and regenerate the docs pages from it::

    python -m repro.cli suite --list
    python -m repro.cli suite --run --jobs 4 --resume
    python -m repro.cli suite --run --scenarios g3 g3-kibam --algorithms iterative
    python -m repro.cli docs              # rewrite docs/scenarios.md
    python -m repro.cli docs --check      # fail if the committed page drifted

Run the information-mode robustness tournament (what online policies
believe about durations vs. what the simulator draws)::

    python -m repro.cli tournament --report       # full grid + docs/tournament.md
    python -m repro.cli tournament --smoke        # bitwise conformance gate

Trace and profile a run (repro.obs), then inspect the trace::

    python -m repro.cli suite --run --trace suite.jsonl --metrics
    python -m repro.cli stats suite.jsonl
    python -m repro.cli stats suite.jsonl --chrome suite-chrome.json --check

Diff two traces (determinism/overhead evidence)::

    python -m repro.cli obs diff serial.jsonl parallel.jsonl --strict
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

# Each command imports what it runs inside its own branch of _dispatch, so a
# process loads only the layers of the command it was started for.

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="batsched",
        description="Battery-aware task sequencing and design-point assignment (DATE 2005 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_engine_arguments(subparser: argparse.ArgumentParser) -> None:
        """Experiment-engine controls shared by the batch commands."""
        subparser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for the experiment engine (1 = in-process)")
        subparser.add_argument(
            "--resume", action="store_true",
            help="skip jobs whose results are already in the result store")
        subparser.add_argument(
            "--results-dir", default=None, metavar="DIR",
            help="directory for the append-only JSONL result store "
                 "(default: %(default)s; --resume alone implies .repro-results)")

    def add_seed_argument(subparser: argparse.ArgumentParser) -> None:
        """--seed for commands whose jobs can carry a seed parameter."""
        subparser.add_argument(
            "--seed", type=int, default=None, metavar="N",
            help="seed recorded in every engine job (stochastic algorithms "
                 "consume it; two same-seed runs are byte-identical)")

    def add_obs_arguments(subparser: argparse.ArgumentParser) -> None:
        """Observability controls (repro.obs) for the batch commands."""
        subparser.add_argument(
            "--trace", default=None, metavar="FILE",
            help="record a JSONL event trace of the run (summarize or export "
                 "it later with the stats subcommand)")
        subparser.add_argument(
            "--trace-sync", action="store_true",
            help="fsync the trace after every line so a crashed run leaves a "
                 "salvageable file (see stats --salvage); slower")
        subparser.add_argument(
            "--metrics", action="store_true",
            help="print the recorded counter/timing summary after the run")

    subparsers.add_parser("table2", help="reproduce Table 2 (sequences per iteration)")
    subparsers.add_parser("table3", help="reproduce Table 3 (sigma/Delta per window)")
    table4 = subparsers.add_parser("table4", help="reproduce Table 4 (comparison with the [1]-style baseline)")
    table4.add_argument("--no-paper", action="store_true", help="omit the published reference columns")
    add_engine_arguments(table4)
    subparsers.add_parser("figures", help="reproduce Figures 3-5 and the Table 1 scaling check")
    ablation = subparsers.add_parser("ablation", help="factor ablation over the Table 4 instances")
    add_engine_arguments(ablation)
    add_seed_argument(ablation)
    add_obs_arguments(ablation)

    sweep = subparsers.add_parser("sweep", help="deadline sweep of ours vs. baselines")
    sweep.add_argument("--graph", choices=("g2", "g3"), default="g3")
    sweep.add_argument("--points", type=int, default=6)
    add_engine_arguments(sweep)
    add_seed_argument(sweep)
    add_obs_arguments(sweep)

    suite = subparsers.add_parser(
        "suite", help="list or run the scenario catalogue (repro.scenarios)"
    )
    suite_mode = suite.add_mutually_exclusive_group()
    suite_mode.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="enumerate the catalogue without running anything (default)")
    suite_mode.add_argument(
        "--run", action="store_true", dest="run_suite",
        help="run the selected scenarios and print the grid + leaderboard")
    suite.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="restrict to these catalogue scenarios (default: all)")
    suite.add_argument(
        "--algorithms", nargs="+", default=None, metavar="ALGO",
        help="algorithms to run (default: iterative + deterministic baselines)")
    suite.add_argument(
        "--optimize", default="", metavar="PASSES",
        help="apply the sigma-preserving optimize passes (e.g. fuse or "
             "cull+fuse; see repro.taskgraph.optimize) to every selected "
             "scenario before scheduling — job keys grow the pass list, so "
             "optimized and plain results never collide in a store")
    add_engine_arguments(suite)
    add_seed_argument(suite)
    add_obs_arguments(suite)

    simulate = subparsers.add_parser(
        "simulate",
        help="event-driven runtime simulation of policies under uncertainty",
    )
    simulate.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="catalogue scenarios to simulate (default: the stochastic tier)")
    simulate.add_argument(
        "--policies", nargs="+", default=None, metavar="POLICY",
        help="simulation policies (default: static-replay + the online "
             "schedulers; see repro.sim.policy_names())")
    simulate.add_argument(
        "--replications", type=int, default=3, metavar="N",
        help="seeded perturbation replications per scenario/policy cell "
             "(default: %(default)s)")
    add_engine_arguments(simulate)
    add_seed_argument(simulate)
    add_obs_arguments(simulate)

    tournament = subparsers.add_parser(
        "tournament",
        help="information-mode robustness tournament over the tour-* grid",
    )
    tournament.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="catalogue scenarios to enter (default: the whole tour-* grid)")
    tournament.add_argument(
        "--policies", nargs="+", default=None, metavar="POLICY",
        help="simulation policies (default: static-replay + the online "
             "schedulers)")
    tournament.add_argument(
        "--replications", type=int, default=3, metavar="N",
        help="seeded perturbation replications per scenario/policy cell "
             "(default: %(default)s)")
    tournament.add_argument(
        "--smoke", action="store_true",
        help="conformance gate instead of a full run: simulate every "
             "tournament scenario through the engine and fail unless every "
             "record equals a direct simulator run with the scenario's "
             "information mode (exact mode: without one), bitwise "
             "(ignores the engine/store flags)")
    tournament.add_argument(
        "--report", nargs="?", const="docs/tournament.md", default=None,
        metavar="FILE",
        help="also write the markdown tournament report "
             "(default target: %(const)s)")
    add_engine_arguments(tournament)
    add_seed_argument(tournament)
    add_obs_arguments(tournament)

    optimize = subparsers.add_parser(
        "optimize",
        help="apply task-graph rewrite passes (cull/fuse) to a graph "
             "and report what they changed",
    )
    optimize_source = optimize.add_mutually_exclusive_group(required=True)
    optimize_source.add_argument(
        "--graph", metavar="FILE",
        help="task-graph JSON file (see repro.taskgraph.io)")
    optimize_source.add_argument(
        "--scenario", metavar="NAME",
        help="catalogue scenario whose graph to build and optimize")
    optimize.add_argument(
        "--passes", default="cull+fuse", metavar="PASSES",
        help="pass list to apply, in order (default: %(default)s)")
    optimize.add_argument(
        "--sinks", nargs="+", default=None, metavar="TASK",
        help="sinks the cull pass keeps (default: every exit task)")
    optimize.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the optimized graph as JSON")
    optimize.add_argument(
        "--dot", default=None, metavar="FILE",
        help="write the optimized graph as Graphviz DOT")

    docs = subparsers.add_parser(
        "docs", help="regenerate docs/scenarios.md from the scenario registry"
    )
    docs.add_argument(
        "--check", action="store_true",
        help="verify the committed page matches the registry instead of writing")
    docs.add_argument(
        "--out", default="docs", metavar="DIR",
        help="docs directory to write to / check against (default: %(default)s)")

    stats = subparsers.add_parser(
        "stats", help="summarize or export a JSONL trace recorded with --trace"
    )
    stats.add_argument("trace_file", metavar="TRACE",
                       help="path to a JSONL trace written by --trace")
    stats.add_argument(
        "--chrome", default=None, metavar="FILE",
        help="also export the trace as Chrome-trace/Perfetto JSON "
             "(open in chrome://tracing or ui.perfetto.dev)")
    stats.add_argument(
        "--check", action="store_true",
        help="validate the trace file against the event schema "
             "(nonzero exit on any malformed line)")
    stats.add_argument(
        "--salvage", action="store_true",
        help="tolerate a truncated/corrupt tail (e.g. from a crashed run): "
             "summarize everything up to the first bad line")

    obs = subparsers.add_parser(
        "obs", help="trace tooling beyond stats (currently: diff)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_diff = obs_sub.add_parser(
        "diff", help="compare two JSONL traces: counter drift, histogram "
                     "shifts, span aggregates")
    obs_diff.add_argument("trace_a", metavar="A", help="baseline trace")
    obs_diff.add_argument("trace_b", metavar="B", help="candidate trace")
    obs_diff.add_argument(
        "--all", action="store_true", dest="show_all",
        help="show unchanged counters/histograms too")
    obs_diff.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when any deterministic (non-rt.) counter drifts")
    obs_diff.add_argument(
        "--salvage", action="store_true",
        help="tolerate truncated/corrupt trace tails on either side")

    schedule = subparsers.add_parser("schedule", help="schedule a task graph stored as JSON")
    schedule.add_argument("graph", help="path to a task-graph JSON file (see repro.taskgraph.io)")
    schedule.add_argument("--deadline", type=float, required=True)
    schedule.add_argument("--beta", type=float, default=0.273)
    schedule.add_argument("--json", action="store_true", help="emit the solution as JSON")
    schedule.add_argument("--refine", action="store_true",
                          help="polish the result with the local-search refinement pass")
    schedule.add_argument("--gantt", action="store_true",
                          help="also print an ASCII Gantt chart of the schedule")

    return parser


def _tournament_smoke(args: argparse.Namespace, out: List[str]) -> int:
    """The conformance gate behind ``tournament --smoke``.

    One engine run of every tournament scenario, all four information
    modes, must agree **bitwise**, record for record, with a direct
    one-lane :class:`Simulator` built with the spec's own information
    mode, and the exact-mode records with one built without an ``imode``
    argument (which resolves to the same exact belief tables): ``cost``,
    ``makespan``, ``feasible``, ``retries``, ``events`` and
    ``depletion_time``, or the error a failed record carries.  So neither
    the engine's job, batch and scenario plumbing nor the way it chunks a
    cell into lanes can shift a result.  Any divergence exits nonzero for
    CI.
    """
    from .experiments import run_tournament
    from .scenarios import default_registry
    from .sim import Simulator, make_policy, rng_for_seed

    registry = default_registry()
    names = [name for name in registry.names() if name.startswith("tour-")]
    seed = args.seed if getattr(args, "seed", None) is not None else 0
    run = run_tournament(
        scenarios=names, policies=args.policies,
        replications=min(args.replications, 2), seed=seed,
    ).run
    fields = ("cost", "makespan", "feasible", "retries", "events", "depletion_time")
    mismatches = 0
    exact = 0
    for job, record in zip(run.jobs, run.records):
        problem = job.spec.build_problem()
        imode = job.spec.information_mode()
        if imode.is_exact:
            exact += 1
            imode = None
        try:
            bare = Simulator(
                problem,
                make_policy(job.policy, problem, job.params),
                perturbation=job.spec.perturbation(),
                rng=rng_for_seed(job.seed, job.replication),
                evaluate_at=job.evaluate_at,
                imode=imode,
            ).run()
        except Exception as exc:  # noqa: BLE001 - the engine records it too
            expected = f"{type(exc).__name__}: {exc}"
            actual = record.error
        else:
            expected = tuple(getattr(bare, name) for name in fields)
            actual = record.error or tuple(getattr(record, name) for name in fields)
        if actual != expected:
            mismatches += 1
            print(
                f"tournament smoke FAILED: {job.label} diverges from the "
                f"direct simulator ({actual!r} vs {expected!r})",
                file=sys.stderr,
            )
    if mismatches:
        return 1
    out.append(
        f"tournament smoke OK: {len(run.records)} records bitwise-equal to the "
        f"direct simulator ({exact} exact-mode records imode-free)"
    )
    return 0


def _engine_options(args: argparse.Namespace, record_type=None) -> dict:
    """Executor/store/resume keyword arguments from the engine CLI flags."""
    from .engine import ResultStore, default_executor

    results_dir = args.results_dir
    if results_dir is None and args.resume:
        results_dir = ".repro-results"
    store = None
    if results_dir is not None:
        path = Path(results_dir) / f"{args.command}.jsonl"
        store = (
            ResultStore(path, record_type=record_type)
            if record_type is not None
            else ResultStore(path)
        )
    options = {
        "executor": default_executor(args.jobs),
        "store": store,
        "resume": args.resume,
    }
    if getattr(args, "seed", None) is not None:
        options["seed"] = args.seed
    return options


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    ``--trace``/``--metrics`` wrap the whole command in a
    :func:`repro.obs.recording` session: spans and counters stream to the
    JSONL sink while the run itself stays byte-identical (instrumentation
    never reaches job keys or result stores).
    """
    args = build_parser().parse_args(argv)
    out: List[str] = []

    trace_path = getattr(args, "trace", None)
    show_metrics = bool(getattr(args, "metrics", False))
    session = None
    if trace_path is not None or show_metrics:
        from .obs import recording

        session = recording(
            trace=trace_path, fsync=bool(getattr(args, "trace_sync", False))
        )
        session.__enter__()
    try:
        code = _dispatch(args, out)
    except BaseException:
        if session is not None:
            session.__exit__(*sys.exc_info())
        raise
    if session is not None:
        from .obs import RECORDER

        if show_metrics and code == 0:
            out.append("")
            out.extend(RECORDER.summary_lines())
        session.__exit__(None, None, None)
        if trace_path is not None and code == 0:
            out.append(f"wrote trace {trace_path}")
    if code != 0:
        return code
    print("\n".join(out))
    return 0


def _dispatch(args: argparse.Namespace, out: List[str]) -> int:
    """Run one parsed command, appending its report lines to ``out``."""
    if args.command == "table2":
        from .experiments import run_table2

        out.append(run_table2().to_table().to_text())
    elif args.command == "table3":
        from .experiments import run_table3

        out.append(run_table3().to_table().to_text())
    elif args.command == "table4":
        from .experiments import run_table4

        result = run_table4(**_engine_options(args))
        out.append(result.to_table(include_paper=not args.no_paper).to_text())
    elif args.command == "figures":
        from .experiments import (
            figure3_windows,
            figure4_walkthrough,
            figure5_g2_table,
            scaling_regeneration_report,
            table1_g3_table,
        )

        out.append(figure3_windows().to_text())
        out.append("")
        walkthrough = figure4_walkthrough()
        out.append(walkthrough.to_table().to_text())
        out.append(walkthrough.summary())
        out.append("")
        out.append(figure5_g2_table().to_text())
        out.append("")
        out.append(table1_g3_table().to_text())
        out.append("")
        out.append(scaling_regeneration_report().to_text())
    elif args.command == "ablation":
        from .experiments import run_ablation

        result = run_ablation(**_engine_options(args))
        out.append(result.to_table().to_text())
        out.append("")
        out.append("mean cost change when dropping each factor (%):")
        for factor, change in result.mean_degradation().items():
            out.append(f"  {factor}: {change:+.2f}")
    elif args.command == "sweep":
        from .experiments import deadline_sweep
        from .taskgraph import build_g2, build_g3

        graph = build_g3() if args.graph == "g3" else build_g2()
        sweep_result = deadline_sweep(
            graph, num_points=args.points, **_engine_options(args)
        )
        out.append(sweep_result.to_table().to_text())
    elif args.command == "suite":
        if args.run_suite:
            from .experiments import run_suite

            suite_result = run_suite(
                scenarios=args.scenarios,
                algorithms=args.algorithms,
                optimize=args.optimize,
                **_engine_options(args),
            )
            out.append(suite_result.to_table().to_text())
            out.append("")
            out.append(suite_result.leaderboard_table().to_text())
            out.append("")
            out.append(suite_result.summary())
        else:
            from .scenarios import ScenarioRegistry, catalogue_table, default_registry

            registry = default_registry()
            if args.scenarios is not None:
                registry = ScenarioRegistry(registry.select(names=args.scenarios))
            out.append(catalogue_table(registry).to_text())
            out.append("")
            out.append(
                f"{len(registry)} scenarios, "
                f"{len(registry.families())} DAG families, "
                f"{len(registry.chemistries())} chemistries, "
                f"{len(registry.platforms())} platform models"
            )
    elif args.command == "simulate":
        from .engine import SimulationRecord
        from .experiments import run_simulation_suite

        options = _engine_options(args, record_type=SimulationRecord)
        seed = options.pop("seed", 0)
        simulation = run_simulation_suite(
            scenarios=args.scenarios,
            policies=args.policies,
            replications=args.replications,
            seed=seed,
            **options,
        )
        out.append(simulation.robustness_table().to_text())
        out.append("")
        out.append(simulation.leaderboard_table().to_text())
        out.append("")
        out.append(simulation.summary())
    elif args.command == "tournament":
        from .engine import SimulationRecord
        from .experiments import run_tournament, tournament_markdown

        if args.smoke:
            return _tournament_smoke(args, out)
        options = _engine_options(args, record_type=SimulationRecord)
        seed = options.pop("seed", 0)
        tournament_result = run_tournament(
            scenarios=args.scenarios,
            policies=args.policies,
            replications=args.replications,
            seed=seed,
            **options,
        )
        out.append(tournament_result.standings_table().to_text())
        out.append("")
        out.append(tournament_result.summary())
        if args.report:
            target = Path(args.report)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(
                tournament_markdown(tournament_result), encoding="utf-8"
            )
            out.append(f"wrote {target}")
    elif args.command == "optimize":
        from .taskgraph import load_json, optimize_graph, parse_passes, save_json, to_dot

        if args.scenario:
            from .scenarios import default_registry

            graph = default_registry().get(args.scenario).build_graph()
        else:
            graph = load_json(args.graph)
        result = optimize_graph(graph, parse_passes(args.passes), sinks=args.sinks)
        optimized = result.graph
        out.append(
            f"passes {'+'.join(result.passes) or '(none)'}: "
            f"{graph.num_tasks} tasks / {graph.num_edges} edges -> "
            f"{optimized.num_tasks} tasks / {optimized.num_edges} edges"
        )
        if result.removed:
            out.append(f"culled {len(result.removed)}: {', '.join(result.removed)}")
        for compound, members in result.chains.items():
            out.append(f"fused {compound} <- {', '.join(members)}")
        if args.out:
            save_json(optimized, args.out)
            out.append(f"wrote {args.out}")
        if args.dot:
            Path(args.dot).write_text(to_dot(optimized), encoding="utf-8")
            out.append(f"wrote {args.dot}")
    elif args.command == "docs":
        from .scenarios import catalogue_markdown, leaderboard_markdown

        pages = {
            Path(args.out) / "scenarios.md": catalogue_markdown(),
            Path(args.out) / "leaderboard.md": leaderboard_markdown(),
        }
        if args.check:
            for target, page in pages.items():
                if not target.exists():
                    print(f"docs check FAILED: {target} does not exist "
                          "(run `python -m repro.cli docs`)", file=sys.stderr)
                    return 1
                if target.read_text(encoding="utf-8") != page:
                    print(f"docs check FAILED: {target} has drifted from the "
                          "scenario registry (run `python -m repro.cli docs`)",
                          file=sys.stderr)
                    return 1
                out.append(f"docs check OK: {target} matches the registry")
        else:
            for target, page in pages.items():
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(page, encoding="utf-8")
                out.append(f"wrote {target}")
    elif args.command == "stats":
        from .obs import report

        if args.check:
            problems = report.validate_trace(args.trace_file)
            if problems:
                for problem in problems:
                    print(f"trace check FAILED: {problem}", file=sys.stderr)
                return 1
            out.append(f"trace check OK: {args.trace_file}")
        trace = report.load_trace(args.trace_file, salvage=args.salvage)
        if args.chrome:
            report.write_chrome_trace(trace, args.chrome)
            out.append(f"wrote {args.chrome}")
        out.extend(report.trace_summary_lines(trace))
    elif args.command == "obs":
        from .obs import report
        from .obs.diff import diff_summary_lines, diff_traces

        trace_a = report.load_trace(args.trace_a, salvage=args.salvage)
        trace_b = report.load_trace(args.trace_b, salvage=args.salvage)
        diff = diff_traces(
            trace_a, trace_b, a_label=args.trace_a, b_label=args.trace_b
        )
        out.extend(diff_summary_lines(diff, changed_only=not args.show_all))
        if args.strict and not diff.deterministic_match:
            print(
                f"obs diff FAILED: {len(diff.drift)} deterministic counter(s) "
                "drifted between the two traces",
                file=sys.stderr,
            )
            return 1
    elif args.command == "schedule":
        from .analysis import gantt_chart
        from .battery import BatterySpec
        from .core import SchedulerConfig, battery_aware_schedule, refine_solution
        from .scheduling import SchedulingProblem
        from .taskgraph import load_json

        graph = load_json(args.graph)
        problem = SchedulingProblem(
            graph=graph, deadline=args.deadline, battery=BatterySpec(beta=args.beta)
        )
        solution = battery_aware_schedule(problem, config=SchedulerConfig())
        if args.refine:
            solution = refine_solution(problem, solution)
        if args.json:
            out.append(json.dumps(solution.to_dict(), indent=2))
        else:
            out.append(solution.summary())
            out.append("sequence: " + ",".join(solution.sequence))
            out.append("design points: " + ",".join(solution.design_point_labels()))
            if args.gantt:
                out.append("")
                out.append(gantt_chart(solution.schedule(), deadline=problem.deadline))
    else:  # pragma: no cover - argparse enforces the choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
