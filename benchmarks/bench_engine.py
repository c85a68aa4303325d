"""Benchmark of the experiment-execution engine.

Runs the standard workload suite times the sweep algorithm set through the
engine twice — serially and across a 4-worker process pool — and reports the
wall-time ratio.  The parallel
run must reproduce the serial result rows exactly (determinism is part of
the executor contract), so the speedup is free of correctness caveats.

On a single-core container the pool cannot beat the serial run; the speedup
assertion is therefore gated on the machine actually having the cores.
"""

from __future__ import annotations

import os
import time

from repro.engine import (
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    build_jobs,
    run_experiments,
)
from repro.experiments import SWEEP_ALGORITHMS
from repro.workloads import suite_problems

ALGORITHMS = [engine for _, engine in SWEEP_ALGORITHMS]


def _suite_jobs():
    return build_jobs(
        suite_problems(tightness_levels=(0.2, 0.4, 0.6, 0.8)), ALGORITHMS
    )


def _comparable(results):
    return [result.to_dict() | {"elapsed_s": 0.0} for result in results]


def test_engine_serial_vs_parallel(benchmark):
    """Serial vs. 4-worker wall time on the standard suite, identical rows."""
    jobs = _suite_jobs()

    serial_executor = SerialExecutor()
    started = time.perf_counter()
    serial_results = serial_executor.run(jobs)
    serial_wall = time.perf_counter() - started

    parallel_executor = ParallelExecutor(max_workers=4)
    started = time.perf_counter()
    parallel_results = benchmark.pedantic(
        parallel_executor.run, args=(jobs,), rounds=1, iterations=1
    )
    parallel_wall = time.perf_counter() - started

    speedup = serial_wall / parallel_wall if parallel_wall > 0 else float("inf")

    print()
    print(f"jobs:                {len(jobs)} ({len(ALGORITHMS)} algorithms x "
          f"{len(jobs) // len(ALGORITHMS)} problems)")
    print(f"serial wall time:    {serial_wall:8.3f} s")
    print(f"parallel wall time:  {parallel_wall:8.3f} s  (4 workers, "
          f"{os.cpu_count()} cores available)")
    print(f"speedup:             {speedup:8.2f} x")

    assert _comparable(parallel_results) == _comparable(serial_results)
    assert all(result.ok for result in serial_results)
    if (os.cpu_count() or 1) >= 4 and serial_wall >= 1.0:
        # With the cores to back it up and a batch long enough to amortise
        # pool start-up, 4 workers must at least halve the wall time on
        # this embarrassingly parallel workload.
        assert speedup >= 2.0


def test_engine_resume_executes_nothing(benchmark, tmp_path):
    """A warm result store answers a repeated run without executing any job."""
    problems = suite_problems(tightness_levels=(0.5,), names=["g2", "g3"])
    store = ResultStore(tmp_path / "suite.jsonl")
    first = run_experiments(problems, ALGORITHMS, store=store, resume=True)

    second = benchmark.pedantic(
        run_experiments,
        args=(problems, ALGORITHMS),
        kwargs={"store": store, "resume": True},
        rounds=1,
        iterations=1,
    )

    print()
    print(f"first run:  {first.summary()}")
    print(f"second run: {second.summary()}")

    assert second.executed == 0
    assert second.skipped == len(first.results)
    assert [r.to_dict() for r in second.results] == [r.to_dict() for r in first.results]
