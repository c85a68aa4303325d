"""Benchmark of the scenario-suite driver.

Times one full catalogue pass (every scenario x the default deterministic
algorithm set) through the engine, and reports the scenario count and job
throughput.  The catalogue is the
population every future optimisation is measured against, so its wall time
is worth tracking: a regression here is either an algorithm slowdown or a
scenario that grew out of its class.
"""

from __future__ import annotations

from repro.experiments import DEFAULT_SUITE_ALGORITHMS, run_suite
from repro.scenarios import default_registry


def test_full_catalogue_suite(benchmark):
    """One serial pass over the whole catalogue with the default algorithms."""
    result = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    registry = default_registry()
    assert result.run.ok, [r.error for r in result.run.failures()]
    assert len(result.specs) == len(registry)
    assert len(result.run.results) == len(registry) * len(DEFAULT_SUITE_ALGORITHMS)
    leaders = result.leaderboard()
    print(
        f"\n{len(result.specs)} scenarios x {len(result.algorithms)} algorithms: "
        f"{len(result.run.results)} jobs, "
        f"winner {leaders[0].algorithm} "
        f"({leaders[0].wins} wins, {leaders[0].mean_excess_pct:.2f}% mean excess)"
    )
