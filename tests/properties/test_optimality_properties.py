"""Differential property of the paper algorithm against brute force.

On random DAGs of at most six tasks the exhaustive baseline enumerates every
(sequence, assignment) pair, so it is a true lower bound: the iterative
algorithm must return a deadline-respecting schedule whose sigma is no
smaller than the optimum's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import exhaustive_optimum
from repro.battery import BatterySpec
from repro.core import battery_aware_schedule
from repro.taskgraph import G3_SCALING_FACTORS, validate_sequence
from repro.workloads import DesignPointSynthesis, erdos_graph, problem_with_tightness


def _problem(num_tasks, edge_probability, design_points, seed, tightness, beta):
    synthesis = DesignPointSynthesis(factors=G3_SCALING_FACTORS[:design_points])
    graph = erdos_graph(num_tasks, edge_probability, synthesis=synthesis, seed=seed)
    return problem_with_tightness(graph, tightness, battery=BatterySpec(beta=beta))


# Up to three design points keep the brute force at most 6! * 3**6 states.
small_problems = st.builds(
    _problem,
    num_tasks=st.integers(1, 6),
    edge_probability=st.floats(0.0, 0.8),
    design_points=st.integers(2, 3),
    seed=st.integers(0, 10_000),
    tightness=st.floats(0.05, 0.95),
    beta=st.floats(0.1, 2.0),
)


@given(problem=small_problems)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_iterative_is_feasible_and_never_beats_the_exhaustive_optimum(problem):
    solution = battery_aware_schedule(problem)
    validate_sequence(problem.graph, solution.sequence)
    assert solution.makespan <= problem.deadline + 1e-9
    optimum = exhaustive_optimum(problem)
    # The optimum's search compares kernel sums and re-costs only its
    # winner, so allow rounding-level slack on the comparison.
    assert solution.cost >= optimum.cost - 1e-9 * optimum.cost
