"""The disabled recorder's cost, counted in calls rather than timed.

While ``RECORDER.enabled`` is False every instrumented hot path should pay
one attribute check and nothing more.  These tests replace every public
``Recorder`` method with a counting wrapper and assert which ones a
disabled run enters at all: the paper algorithm and the evaluator enter
none, and engine and simulator runs enter only ``span`` (which hands back
the shared no-op span), a fixed number of times per job whatever the task
count.
"""

import collections
import functools
import inspect

import pytest

from repro import SchedulingProblem, battery_aware_schedule, refine_solution
from repro.baselines import AnnealingConfig, simulated_annealing_baseline
from repro.experiments import run_simulation_suite, run_suite
from repro.obs import RECORDER, Recorder
from repro.scheduling import (
    DesignPointAssignment,
    evaluate_schedule,
    sequence_by_decreasing_energy,
)
from repro.taskgraph import build_g2, build_g3

PUBLIC_METHODS = sorted(
    name
    for name, member in vars(Recorder).items()
    if inspect.isfunction(member) and not name.startswith("_")
)
assert {"count", "observe", "gauge", "span", "event", "record_span"} <= set(
    PUBLIC_METHODS
)


def count_calls(monkeypatch):
    """Wrap every public ``Recorder`` method; returns the per-method counts."""
    counts = collections.Counter()

    def counting(name, method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in PUBLIC_METHODS:
        monkeypatch.setattr(Recorder, name, counting(name, getattr(Recorder, name)))
    return counts


@pytest.fixture
def calls(monkeypatch):
    assert not RECORDER.enabled
    yield count_calls(monkeypatch)
    assert not RECORDER.enabled


@pytest.mark.parametrize(
    "graph, deadline", [(build_g2(), 75.0), (build_g3(), 230.0)], ids=["g2", "g3"]
)
class TestCoreEntersNoRecorderMethod:
    def test_paper_algorithm(self, calls, graph, deadline):
        solution = battery_aware_schedule(SchedulingProblem(graph=graph, deadline=deadline))
        assert solution.feasible
        assert calls == {}

    def test_evaluate_schedule(self, calls, graph, deadline):
        problem = SchedulingProblem(graph=graph, deadline=deadline)
        evaluation = evaluate_schedule(
            graph, sequence_by_decreasing_energy(graph),
            DesignPointAssignment.all_fastest(graph), problem.model(),
        )
        assert evaluation.cost > 0
        assert calls == {}

    def test_local_search_opens_one_span_per_evaluator(self, calls, graph, deadline):
        # Building the incremental evaluator is a span; its per-move hooks
        # never reach the recorder, however many moves are proposed.
        problem = SchedulingProblem(graph=graph, deadline=deadline)
        refine_solution(problem, battery_aware_schedule(problem))
        simulated_annealing_baseline(problem, AnnealingConfig(iterations=300, seed=1))
        assert calls == {"span": 2}


def suite_spans_per_job(monkeypatch, scenario):
    with monkeypatch.context() as patch:
        calls = count_calls(patch)
        result = run_suite(scenarios=[scenario], algorithms=["iterative", "all-fastest"])
    assert result.run.ok
    assert set(calls) == {"span"}
    return calls["span"] / len(result.run.results)


def simulation_spans_per_job(monkeypatch, scenario):
    with monkeypatch.context() as patch:
        calls = count_calls(patch)
        result = run_simulation_suite(
            scenarios=[scenario], policies=["static-replay", "deadline-slack"],
            replications=2, seed=3,
        )
    assert result.run.ok
    assert set(calls) == {"span"}
    return calls["span"] / len(result.run.records)


class TestEngineEntersOnlySpan:
    def test_suite(self, monkeypatch):
        per_job = {
            scenario: suite_spans_per_job(monkeypatch, scenario)
            for scenario in ("g2", "g3", "layered-6x4")
        }
        assert len(set(per_job.values())) == 1, per_job

    def test_simulation_suite(self, monkeypatch):
        per_job = {
            scenario: simulation_spans_per_job(monkeypatch, scenario)
            for scenario in ("g2-jitter10-uniform", "g3-jitter10", "layered-4x3-jitter15")
        }
        assert len(set(per_job.values())) == 1, per_job
