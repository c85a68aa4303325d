"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro import (
    BatterySpec,
    DesignPoint,
    RakhmatovVrudhulaModel,
    SchedulingProblem,
    Task,
    TaskGraph,
    build_g2,
    build_g3,
)
from repro.taskgraph import G3_BETA, G3_DEADLINE


@pytest.fixture(scope="session")
def g3() -> TaskGraph:
    """The paper's Table 1 fork-join graph (15 tasks, 5 design points)."""
    return build_g3()


@pytest.fixture(scope="session")
def g2() -> TaskGraph:
    """The paper's Figure 5 robotic-arm controller graph (9 tasks, 4 design points)."""
    return build_g2()


@pytest.fixture(scope="session")
def paper_model() -> RakhmatovVrudhulaModel:
    """The analytical battery model with the paper's beta."""
    return RakhmatovVrudhulaModel(beta=G3_BETA)


@pytest.fixture
def g3_problem(g3) -> SchedulingProblem:
    """The illustrative-example problem instance (G3, deadline 230, beta 0.273)."""
    return SchedulingProblem(
        graph=g3,
        deadline=G3_DEADLINE,
        battery=BatterySpec(beta=G3_BETA),
        name="G3@230",
    )


def run_python(script: str, **env: str) -> str:
    """Run ``script`` in a fresh interpreter on this checkout's ``repro``; its stdout.

    ``env`` adds environment variables (say ``PYTHONHASHSEED``).
    """
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def make_simple_task(name: str, base_duration: float = 2.0, base_current: float = 400.0, m: int = 3) -> Task:
    """A small monotone task used by many unit tests."""
    points = []
    for j in range(m):
        points.append(
            DesignPoint(
                execution_time=base_duration * (1 + j),
                current=base_current / (1 + j) ** 3,
                name=f"DP{j + 1}",
            )
        )
    return Task(name, points)


@pytest.fixture
def diamond4() -> TaskGraph:
    """A 4-task diamond graph (A -> B, A -> C, B -> D, C -> D) with 3 DPs each."""
    graph = TaskGraph(name="diamond4")
    for name in ("A", "B", "C", "D"):
        graph.add_task(make_simple_task(name))
    graph.add_edge("A", "B")
    graph.add_edge("A", "C")
    graph.add_edge("B", "D")
    graph.add_edge("C", "D")
    return graph


@pytest.fixture
def chain3() -> TaskGraph:
    """A 3-task chain with distinct design-point magnitudes per task."""
    graph = TaskGraph(name="chain3")
    graph.add_task(make_simple_task("T1", base_duration=1.0, base_current=900.0))
    graph.add_task(make_simple_task("T2", base_duration=2.0, base_current=500.0))
    graph.add_task(make_simple_task("T3", base_duration=1.5, base_current=700.0))
    graph.add_edge("T1", "T2")
    graph.add_edge("T2", "T3")
    return graph
