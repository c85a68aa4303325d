"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload drives a public entry point of ``repro`` with its default
arguments.  ``setup`` builds the inputs, ``run`` is the timed pass and
``check`` verifies the outputs afterwards, outside every timer.  The seed
reaches the program only through the generated inputs and the ``seed=``
argument of the suite drivers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

__all__ = ["WORKLOADS", "Outcome", "Workload", "scaling_exponent"]

#: solve-scaling: (tasks n, graphs per pass).  Solve times vary by about 20 %
#: between seeded graphs of one size, so many small graphs and few large
#: ones keep a pass's total steady across seeds, and a pass stays short
#: enough to be repeated within one run.
SOLVE_SIZES: Tuple[Tuple[int, int], ...] = ((20, 24), (40, 8), (80, 2))
LAYER_WIDTH = 5
#: simulate-mc replications per (scenario, policy) cell.
REPLICATIONS = 30
#: suite-parallel pool size: at most two workers, never more than the host has.
POOL_WORKERS = max(1, min(2, os.cpu_count() or 1))


@dataclass
class Outcome:
    """What one timed pass produced and what the checks found.

    Times are ``time.perf_counter`` stamps; the worker turns them into
    host-speed-normalised durations.
    """

    started: float
    ended: float
    #: (begin, end) stamps of each operation of the pass.
    op_spans: List[Tuple[float, float]]
    #: Problem size n of each operation, for the scaling fit.
    op_n: List[int] = field(default_factory=list)
    #: True when repeated passes list the same operations in the same order,
    #: so samples can be matched across passes.
    op_aligned: bool = True
    #: (n, ms) per operation when ``op_spans`` cannot be tied to operations.
    sized_ms: List[Tuple[int, float]] = field(default_factory=list)
    #: Group label per operation: the scaling fit sums each group's times,
    #: giving one steadier point per group instead of one per operation.
    op_group: List[str] = field(default_factory=list)
    #: Fit the scaling exponent through per-size medians (see
    #: :func:`scaling_exponent`).
    fit_by_size: bool = False
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    results: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], object]
    run: Callable[[object], Outcome]
    check: Callable[[object, Outcome], None]


def scaling_exponent(points, by_size: bool) -> float:
    """Least-squares slope of log(op ms) against log(n).

    With ``by_size`` the fit runs through the median op time at each n
    (every size counts once); otherwise through every operation, so sizes
    that only a few operations have cannot swing the slope.
    """
    by_n: Dict[int, List[float]] = {}
    for n, ms in points:
        if n > 0 and ms > 0:  # failed jobs have no size
            by_n.setdefault(n, []).append(ms)
    if by_size:
        points = [(n, statistics.median(ms)) for n, ms in by_n.items()]
    else:
        points = [(n, ms) for n, samples in by_n.items() for ms in samples]
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(ms) for _, ms in points]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx if sxx else math.nan


def digest(rows) -> str:
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _gaps(stamps: List[float]) -> List[Tuple[float, float]]:
    """Spans between successive completion stamps."""
    return list(zip(stamps, stamps[1:]))


# ----------------------------------------------------------------------
# solve-scaling: the paper algorithm alone, n in {20, 40, 80}
# ----------------------------------------------------------------------
def _solve_setup(seed: int, workdir: str):
    from repro import ScenarioSpec

    problems = []
    for n, count in SOLVE_SIZES:
        for index in range(count):
            spec = ScenarioSpec(
                name=f"crossbar-{n // LAYER_WIDTH}x{LAYER_WIDTH}-{index}",
                family="crossbar",
                seed=seed * 100_003 + n * 101 + index,
                family_params={"num_layers": n // LAYER_WIDTH, "layer_width": LAYER_WIDTH},
                tightness=0.5,
                chemistry="rakhmatov",
            )
            problems.append(spec.build_problem())
    return problems


def _solve_run(problems) -> Outcome:
    from repro import battery_aware_schedule

    spans, solutions = [], []
    started = time.perf_counter()
    for problem in problems:
        begin = time.perf_counter()
        solutions.append(battery_aware_schedule(problem))
        spans.append((begin, time.perf_counter()))
    return Outcome(
        started=started,
        ended=time.perf_counter(),
        op_spans=spans,
        op_n=[problem.graph.num_tasks for problem in problems],
        fit_by_size=True,
        results=solutions,
    )


def _solve_check(problems, outcome: Outcome) -> None:
    from repro.scheduling import evaluate_schedule

    rows = []
    for problem, solution in zip(problems, outcome.results):
        outcome.attempted += 1
        recost = evaluate_schedule(
            problem.graph,
            solution.sequence,
            solution.assignment,
            problem.model(),
            deadline=problem.deadline,
        ).cost
        if not solution.feasible:
            outcome.failed += 1
            outcome.problems.append(f"{problem.name}: infeasible")
        elif recost != solution.cost:
            outcome.failed += 1
            outcome.problems.append(
                f"{problem.name}: re-costed sigma {recost!r} != {solution.cost!r}"
            )
        rows.append(
            [
                problem.name,
                problem.graph.num_tasks,
                solution.cost,
                solution.makespan,
                list(solution.sequence),
                sorted((task, int(col)) for task, col in solution.assignment.items()),
            ]
        )
    outcome.digest = digest(rows)


# ----------------------------------------------------------------------
# suite-catalogue / suite-parallel: run_suite() over the catalogue
# ----------------------------------------------------------------------
def _suite_setup(seed: int, workdir: str):
    from repro.scenarios import default_registry

    default_registry()  # the scenario specs: the catalogue's inputs
    store = os.path.join(workdir, "suite.jsonl")
    if os.path.exists(store):  # left by a pass that failed: start empty
        os.remove(store)
    return {"seed": seed, "store": store}


def _job_rows(results) -> list:
    """Non-volatile fields of engine job results (no key, timing or cache)."""
    return [
        [
            r.problem_name,
            r.algorithm,
            r.cost,
            r.makespan,
            r.feasible,
            list(r.sequence) if r.sequence is not None else None,
            sorted(r.assignment.items()) if r.assignment is not None else None,
            r.error,
        ]
        for r in results
    ]


def _catalogue_run(inputs) -> Outcome:
    from repro.engine import ResultStore
    from repro.experiments import run_suite

    stamps, finished = [], []

    def progress(done, total, result):
        stamps.append(time.perf_counter())
        finished.append(result)

    started = time.perf_counter()
    first = run_suite(
        store=ResultStore(inputs["store"]), seed=inputs["seed"], progress=progress
    )
    again = run_suite(store=ResultStore(inputs["store"]), resume=True, seed=inputs["seed"])
    return Outcome(
        started=started,
        ended=time.perf_counter(),
        op_spans=_gaps(stamps),
        op_n=[len(r.sequence or ()) for r in finished[1:]],
        extra={"store_bytes": float(os.path.getsize(inputs["store"]))},
        results=(first, again),
    )


def _check_jobs(results, outcome: Outcome) -> None:
    for r in results:
        outcome.attempted += 1
        if not r.ok or not r.feasible:
            outcome.failed += 1
            outcome.problems.append(f"{r.problem_name}/{r.algorithm}: {r.error or 'infeasible'}")


def _catalogue_check(inputs, outcome: Outcome) -> None:
    first, again = outcome.results
    _check_jobs(first.run.results, outcome)
    if again.run.executed != 0:
        outcome.problems.append(f"resume pass executed {again.run.executed} jobs, not 0")
        outcome.failed += again.run.executed
    if _job_rows(again.run.results) != _job_rows(first.run.results):
        outcome.problems.append("resume pass returned different results")
        outcome.failed += 1
    outcome.digest = digest(_job_rows(first.run.results))
    os.remove(inputs["store"])


def _parallel_run(inputs) -> Outcome:
    from repro.engine import default_executor
    from repro.experiments import run_suite

    stamps = []

    def progress(done, total, result):
        stamps.append(time.perf_counter())

    started = time.perf_counter()
    suite = run_suite(
        executor=default_executor(POOL_WORKERS), seed=inputs["seed"], progress=progress
    )
    return Outcome(
        started=started,
        ended=time.perf_counter(),
        op_spans=_gaps(stamps),
        op_aligned=False,
        # Completion order hides each job's own time; the engine reports it.
        sized_ms=[(len(r.sequence or ()), r.elapsed_s * 1e3) for r in suite.run.results],
        results=suite,
    )


def _parallel_check(inputs, outcome: Outcome) -> None:
    _check_jobs(outcome.results.run.results, outcome)
    outcome.digest = digest(_job_rows(outcome.results.run.results))


# ----------------------------------------------------------------------
# simulate-mc: run_simulation_suite(replications=30)
# ----------------------------------------------------------------------
def _sim_setup(seed: int, workdir: str):
    from repro.scenarios import default_registry

    default_registry()
    return {"seed": seed}


def _sim_run(inputs) -> Outcome:
    from repro.experiments import run_simulation_suite

    done_per_cell: Dict[Tuple[str, str], int] = {}
    cell_done: List[Tuple[float, str]] = []

    def progress(done, total, result):
        now = time.perf_counter()
        for record in getattr(result, "records", (result,)):
            cell = (record.scenario, record.policy)
            done_per_cell[cell] = done_per_cell.get(cell, 0) + 1
            if done_per_cell[cell] == REPLICATIONS:
                cell_done.append((now, record.scenario))

    started = time.perf_counter()
    suite = run_simulation_suite(
        replications=REPLICATIONS, seed=inputs["seed"], progress=progress
    )
    return Outcome(
        started=started,
        ended=time.perf_counter(),
        op_spans=_gaps([stamp for stamp, _ in cell_done]),
        # A scenario's policies differ sixfold in cost; summing its cells
        # leaves task count as the only difference between fit points.
        op_group=[scenario for _, scenario in cell_done[1:]],
        results=suite,
    )


def _sim_check(inputs, outcome: Outcome) -> None:
    suite = outcome.results
    tasks = {spec.name: spec.build_graph().num_tasks for spec in suite.specs}
    outcome.op_n = [tasks[scenario] for scenario in outcome.op_group]
    for spec in suite.specs:
        outcome.attempted += 1
        if spec.name not in suite.offline_costs:
            outcome.failed += 1
            outcome.problems.append(f"{spec.name}: no offline anchor")
    rows = [sorted(suite.offline_costs.items())]
    for record in suite.run.records:
        outcome.attempted += 1
        if not record.ok:
            outcome.failed += 1
            outcome.problems.append(f"{record.scenario}/{record.policy}: {record.error}")
        rows.append(
            [
                record.scenario,
                record.policy,
                record.seed,
                record.replication,
                record.cost,
                record.makespan,
                record.feasible,
                record.retries,
                record.events,
                record.depletion_time,
                record.error,
            ]
        )
    executed = {r.key: r for r in suite.run.records}.values()
    outcome.extra["sim_reps"] = float(len(executed))
    outcome.extra["sim_events"] = float(sum(record.events for record in executed))
    outcome.digest = digest(rows)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("solve-scaling", _solve_setup, _solve_run, _solve_check),
        Workload("suite-catalogue", _suite_setup, _catalogue_run, _catalogue_check),
        Workload("simulate-mc", _sim_setup, _sim_run, _sim_check),
        Workload("suite-parallel", _suite_setup, _parallel_run, _parallel_check),
    )
}
