"""Differential oracle for the shared-path, batched DPF promotion.

The functions prefixed ``_ref_`` below are the full-recompute implementation
that preceded the incremental promotion in :mod:`repro.core.choose` (and the
generator-based factor scans that preceded the vectorised ones in
:mod:`repro.core.factors`), copied verbatim apart from their names: one
``CalculateDPF`` per candidate, recomputing the makespan after every
one-column promotion.  Every test asserts that the library returns bitwise
the same values: the same ``(ENR, CIF, DPF, selection)`` from
``calculate_dpf``, the same selections, factor breakdowns and makespans from
``choose_design_points`` (with and without recorded evaluations, with and
without factor weights), and the same repaired selection (or the same
``AlgorithmError``) from ``promote_until_feasible``.  Deadlines are placed on
the exact makespans the reference visits while promoting, one ULP either
side, and on ``CT(k)``, so the stopping point is probed where rounding drift
would show.  ``evaluate_windows`` searches all windows of a sequence in one
batch; its records and recorded evaluations are checked against the
reference run window by window.
"""

import math
from typing import List, Optional

import numpy as np
import pytest

from repro.battery import RakhmatovVrudhulaModel
from repro.core import (
    SequencedMatrices,
    calculate_dpf,
    choose_design_points,
    evaluate_windows,
    initial_window_start,
    promote_until_feasible,
)
from repro.core import choose as choose_module
from repro.core.choose import ChooseResult, DesignPointEvaluation, _choose_windows
from repro.core.factors import (
    FactorValues,
    FactorWeights,
    current_ratio,
    energy_ratio,
    slack_ratio,
)
from repro.core.windows import _selection_cost
from repro.errors import AlgorithmError, InfeasibleDeadlineError
from repro.scheduling import sequence_by_decreasing_energy
from repro.taskgraph import DesignPoint, Task, TaskGraph

_EPS = 1e-9


# ---------------------------------------------------------------------------
# reference implementation (pre-change, verbatim apart from names)
# ---------------------------------------------------------------------------
def _ref_current_increase_fraction(currents):
    values = list(currents)
    if len(values) < 2:
        return 0.0
    increases = sum(1 for a, b in zip(values, values[1:]) if a < b)
    return increases / (len(values) - 1)


def _ref_windowed_design_point_fraction(
    selection, num_design_points, window_start, free_positions
):
    free = list(free_positions)
    width = num_design_points - window_start
    if width < 2 or not free:
        return 0.0
    steps = width - 1  # number of penalised columns
    factor = 1.0 / steps
    total = 0.0
    for offset in range(steps):
        column = window_start + offset
        occupancy = sum(1 for position in free if selection[position] == column)
        weight = (steps - offset) * factor
        total += weight * occupancy / len(free)
    return total


def _ref_calculate_dpf(matrices, selection, window_start, tagged_position, deadline):
    sel = np.array(selection, dtype=int, copy=True)
    n, m = matrices.n, matrices.m

    # Free tasks are the positions before the tagged one; a task becomes
    # "fixed in E" once it reaches the window's most powerful column.
    fixed_in_e = set(range(tagged_position, n))
    fixed_in_e.update(pos for pos in range(tagged_position) if sel[pos] <= window_start)

    total_time = matrices.total_time(sel)
    dpf: Optional[float] = None
    while total_time > deadline + _EPS:
        promotable = next(
            (pos for pos in matrices.energy_vector if pos not in fixed_in_e), None
        )
        if promotable is None:
            dpf = math.inf
            break
        sel[promotable] -= 1
        if sel[promotable] <= window_start:
            fixed_in_e.add(promotable)
        total_time = matrices.total_time(sel)

    if dpf is None:
        if tagged_position == 0:
            # The first task in the sequence has no free tasks above it; the
            # paper replaces DPF by the slack ratio to press the remaining
            # slack into use.
            dpf = slack_ratio(total_time, deadline)
        else:
            dpf = _ref_windowed_design_point_fraction(
                sel, m, window_start, range(tagged_position)
            )

    currents = matrices.selection_currents(sel)
    cif = _ref_current_increase_fraction(currents)
    enr = energy_ratio(
        matrices.total_energy(sel), matrices.energy_min, matrices.energy_max
    )
    return enr, cif, dpf, sel


def _ref_choose_design_points(
    matrices, window_start, deadline, weights=None, record_evaluations=True
):
    n, m = matrices.n, matrices.m
    if not (0 <= window_start < m):
        raise AlgorithmError(f"window_start {window_start} out of range for m={m}")

    selection = matrices.lowest_power_selection()
    evaluations: List[DesignPointEvaluation] = []

    # Fix the last task in the sequence to its lowest-power design point.
    fixed_time = float(matrices.durations[n - 1, m - 1])

    for position in range(n - 2, -1, -1):
        best_column = m - 1
        best_b = math.inf
        for column in range(m - 1, window_start - 1, -1):
            trial = selection.copy()
            trial[position] = column
            elapsed = fixed_time + float(matrices.durations[position, column])
            sr = slack_ratio(elapsed, deadline)
            cr = current_ratio(
                float(matrices.currents[position, column]),
                matrices.current_min,
                matrices.current_max,
            )
            enr, cif, dpf, _ = _ref_calculate_dpf(
                matrices, trial, window_start, position, deadline
            )
            factors = FactorValues(
                slack_ratio=sr,
                current_ratio=cr,
                energy_ratio=enr,
                current_increase_fraction=cif,
                design_point_fraction=dpf,
            )
            b_value = factors.suitability if weights is None else factors.weighted(weights)
            if record_evaluations:
                evaluations.append(
                    DesignPointEvaluation(position=position, column=column, factors=factors)
                )
            if b_value < best_b:
                best_b = b_value
                best_column = column
        selection[position] = best_column
        fixed_time += float(matrices.durations[position, best_column])

    return ChooseResult(
        selection=selection,
        evaluations=tuple(evaluations),
        makespan=matrices.total_time(selection),
    )


def _ref_promote_until_feasible(matrices, selection, window_start, deadline):
    sel = np.array(selection, dtype=int, copy=True)
    total_time = matrices.total_time(sel)
    exhausted = set(
        pos for pos in range(matrices.n) if sel[pos] <= window_start
    )
    while total_time > deadline + _EPS:
        promotable = next(
            (pos for pos in matrices.energy_vector if pos not in exhausted), None
        )
        if promotable is None:
            raise AlgorithmError(
                f"cannot meet deadline {deadline:g} within window starting at column "
                f"{window_start + 1}"
            )
        sel[promotable] -= 1
        if sel[promotable] <= window_start:
            exhausted.add(promotable)
        total_time = matrices.total_time(sel)
    return sel


# ---------------------------------------------------------------------------
# bitwise comparison helpers
# ---------------------------------------------------------------------------
def _bits(value):
    """A float's exact identity: its type and its hex form (keeps -0.0, inf)."""
    return type(value), float(value).hex()


def _assert_same_dpf(actual, expected):
    assert [_bits(v) for v in actual[:3]] == [_bits(v) for v in expected[:3]]
    assert actual[3].dtype == expected[3].dtype
    assert np.array_equal(actual[3], expected[3])


def _factor_bits(evaluation):
    f = evaluation.factors
    return (
        evaluation.position,
        evaluation.column,
        _bits(f.slack_ratio),
        _bits(f.current_ratio),
        _bits(f.energy_ratio),
        _bits(f.current_increase_fraction),
        _bits(f.design_point_fraction),
    )


def _assert_same_choice(actual, expected):
    assert np.array_equal(actual.selection, expected.selection)
    assert _bits(actual.makespan) == _bits(expected.makespan)
    assert [_factor_bits(e) for e in actual.evaluations] == [
        _factor_bits(e) for e in expected.evaluations
    ]


#: Recording on/off and paper/ablation weights; ``None`` is the plain sum.
_CHOOSE_MODES = [
    (True, None),
    (False, None),
    (True, FactorWeights(0.5, 2.0, 1.0, 0.25, 3.0)),
    (False, FactorWeights.without("design_point_fraction")),
    (False, FactorWeights(1.0, 1.0, 1.0, 1.0, -1.0)),
]


def _assert_same_choice_all_modes(matrices, window_start, deadline):
    for record, weights in _CHOOSE_MODES:
        _assert_same_choice(
            choose_design_points(
                matrices, window_start, deadline, weights=weights, record_evaluations=record
            ),
            _ref_choose_design_points(
                matrices, window_start, deadline, weights=weights, record_evaluations=record
            ),
        )


def _assert_same_promotion(matrices, selection, window_start, deadline):
    try:
        expected = _ref_promote_until_feasible(matrices, selection, window_start, deadline)
    except AlgorithmError as error:
        with pytest.raises(AlgorithmError) as raised:
            promote_until_feasible(matrices, selection, window_start, deadline)
        assert str(raised.value) == str(error)
        return
    actual = promote_until_feasible(matrices, selection, window_start, deadline)
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def _random_matrices(seed: int, n: int, m: int) -> SequencedMatrices:
    """Independent tasks with irregular durations, some tied within a row."""
    rng = np.random.default_rng(seed)
    graph = TaskGraph(name=f"random-{seed}")
    for i in range(n):
        times = np.sort(rng.uniform(0.3, 40.0, size=m))
        if rng.random() < 0.3:
            tie = int(rng.integers(1, m))
            times[tie] = times[tie - 1]
        currents = np.sort(rng.uniform(20.0, 900.0, size=m))[::-1]
        graph.add_task(
            Task(
                f"T{i}",
                [
                    DesignPoint(execution_time=float(t), current=float(c), name=f"DP{j + 1}")
                    for j, (t, c) in enumerate(zip(times, currents))
                ],
            )
        )
    return SequencedMatrices(graph, tuple(f"T{i}" for i in range(n)))


def _path_totals(matrices, selection, window_start, free_end):
    """Exact makespans along the reference promotion path to the window's end."""
    sel = np.array(selection, dtype=int, copy=True)
    totals = [matrices.total_time(sel)]
    for pos in matrices.energy_vector:
        if pos >= free_end:
            continue
        while sel[pos] > window_start:
            sel[pos] -= 1
            totals.append(matrices.total_time(sel))
    return totals


def _around(anchors):
    """Each anchor ``T`` and ``T - _EPS`` (where the ``total > deadline +
    _EPS`` test flips), each with its neighbours one ULP either side."""
    deadlines = []
    for anchor in anchors:
        for base in (anchor, anchor - _EPS):
            deadlines += [np.nextafter(base, -np.inf), base, np.nextafter(base, np.inf)]
    return [float(d) for d in deadlines if d > 0]


def _boundary_deadlines(rng, matrices, selection, window_start, free_end, samples=5):
    """Deadlines on partial-promotion totals and ``CT(window_start)``."""
    totals = _path_totals(matrices, selection, window_start, free_end)
    picks = rng.choice(len(totals), size=min(samples, len(totals)), replace=False)
    anchors = [totals[i] for i in sorted(picks)]
    anchors += [totals[-1], matrices.column_time(window_start)]
    return _around(anchors)


def _candidate_trials(matrices, window_start, selection, position):
    """The tentative selections ``ChooseDesignPoints`` scores at ``position``.

    The sequence is walked backwards, so when ``position`` is reached the
    later positions already hold their final columns in ``selection`` and
    the earlier ones the lowest-power column.
    """
    base = np.array(selection, dtype=int, copy=True)
    base[: position + 1] = matrices.m - 1
    for column in range(matrices.m - 1, window_start - 1, -1):
        trial = base.copy()
        trial[position] = column
        yield trial


def _choose_boundary_deadlines(rng, matrices, window_start, deadline, samples=2):
    """Deadlines on candidates' exact path totals and on ``CT(window_start)``.

    The state at each position is rebuilt from the reference's selection for
    ``deadline``.  The first position scored (``n - 2``) does not depend on
    the deadline, so its anchors are exact boundaries for any deadline;
    ``samples`` more come from the candidates at one other position.
    """
    n = matrices.n
    selection = _ref_choose_design_points(matrices, window_start, deadline).selection
    anchors = [matrices.column_time(window_start)]
    for position in (n - 2, int(rng.integers(0, n - 1))):
        totals = [
            total
            for trial in _candidate_trials(matrices, window_start, selection, position)
            for total in _path_totals(matrices, trial, window_start, position)
        ]
        anchors += [totals[int(i)] for i in rng.integers(0, len(totals), size=samples)]
    return _around(anchors)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_calculate_dpf_matches_reference_at_boundaries(seed):
    rng = np.random.default_rng(1000 + seed)
    n, m = int(rng.integers(2, 25)), int(rng.integers(2, 6))
    matrices = _random_matrices(seed, n, m)
    for _ in range(6):
        window_start = int(rng.integers(0, m))
        tagged = int(rng.integers(0, n))
        selection = rng.integers(window_start, m, size=n)
        if rng.random() < 0.5:
            selection[:tagged] = m - 1  # as choose_design_points builds it
        for deadline in _boundary_deadlines(rng, matrices, selection, window_start, tagged):
            _assert_same_dpf(
                calculate_dpf(matrices, selection, window_start, tagged, deadline),
                _ref_calculate_dpf(matrices, selection, window_start, tagged, deadline),
            )


@pytest.mark.parametrize("seed", range(6))
def test_promote_until_feasible_matches_reference_at_boundaries(seed):
    rng = np.random.default_rng(2000 + seed)
    n, m = int(rng.integers(1, 25)), int(rng.integers(2, 6))
    matrices = _random_matrices(100 + seed, n, m)
    for _ in range(6):
        window_start = int(rng.integers(0, m))
        selection = rng.integers(0, m, size=n)  # some already below the window
        for deadline in _boundary_deadlines(rng, matrices, selection, window_start, n):
            _assert_same_promotion(matrices, selection, window_start, deadline)


@pytest.mark.parametrize("seed", range(4))
def test_choose_design_points_matches_reference_on_random_matrices(seed):
    rng = np.random.default_rng(3000 + seed)
    n, m = int(rng.integers(2, 16)), int(rng.integers(2, 6))
    matrices = _random_matrices(200 + seed, n, m)
    fastest, slowest = matrices.column_time(0), matrices.column_time(m - 1)
    for window_start in range(m):
        deadlines = [matrices.column_time(window_start), float(rng.uniform(fastest, slowest))]
        for deadline in deadlines:
            _assert_same_choice(
                choose_design_points(matrices, window_start, deadline),
                _ref_choose_design_points(matrices, window_start, deadline),
            )


def test_catalogue_every_window_matches_reference():
    from repro.scenarios import default_registry

    checked = 0
    for spec in default_registry():
        problem = spec.build_problem()
        graph = problem.graph
        matrices = SequencedMatrices(graph, sequence_by_decreasing_energy(graph))
        for window_start in range(matrices.m):
            actual = choose_design_points(matrices, window_start, problem.deadline)
            expected = _ref_choose_design_points(matrices, window_start, problem.deadline)
            _assert_same_choice(actual, expected)
            _assert_same_promotion(
                matrices, expected.selection, window_start, problem.deadline
            )
            checked += 1
    assert checked >= 99 * 4


@pytest.mark.parametrize("seed", range(6))
def test_choose_design_points_matches_reference_at_candidate_boundaries(seed):
    rng = np.random.default_rng(4000 + seed)
    n, m = int(rng.integers(2, 11)), int(rng.integers(2, 6))
    matrices = _random_matrices(300 + seed, n, m)
    fastest, slowest = matrices.column_time(0), matrices.column_time(m - 1)
    for window_start in range(m):
        start = float(rng.uniform(fastest, slowest))
        for deadline in _choose_boundary_deadlines(rng, matrices, window_start, start):
            _assert_same_choice_all_modes(matrices, window_start, deadline)


@pytest.mark.parametrize("seed", range(4))
def test_choose_design_points_matches_reference_in_every_mode(seed):
    rng = np.random.default_rng(5000 + seed)
    n, m = int(rng.integers(2, 20)), int(rng.integers(2, 6))
    matrices = _random_matrices(400 + seed, n, m)
    fastest, slowest = matrices.column_time(0), matrices.column_time(m - 1)
    for window_start in range(m):
        deadlines = [
            matrices.column_time(window_start),
            float(rng.uniform(fastest, slowest)),
            0.5 * fastest,  # every candidate infeasible
        ]
        for deadline in deadlines:
            _assert_same_choice_all_modes(matrices, window_start, deadline)


@pytest.mark.parametrize("seed", range(6))
def test_calculate_dpf_matches_reference_from_faster_starts(seed):
    # Free rows start between the window's fastest and the lowest-power
    # column, so path rows have differing lengths and the DPF occupancy
    # counts columns other than the two ends.
    rng = np.random.default_rng(6000 + seed)
    n, m = int(rng.integers(2, 25)), int(rng.integers(3, 6))
    matrices = _random_matrices(500 + seed, n, m)
    for _ in range(6):
        window_start = int(rng.integers(0, m - 1))
        tagged = int(rng.integers(1, n + 1))
        selection = rng.integers(window_start, m, size=n)
        selection[:tagged] = rng.integers(window_start + 1, m - 1, size=tagged, endpoint=True)
        for deadline in _boundary_deadlines(rng, matrices, selection, window_start, tagged):
            _assert_same_dpf(
                calculate_dpf(matrices, selection, window_start, tagged, deadline),
                _ref_calculate_dpf(matrices, selection, window_start, tagged, deadline),
            )


@pytest.mark.parametrize("seed", range(6))
def test_promote_until_feasible_matches_reference_from_faster_starts(seed):
    rng = np.random.default_rng(7000 + seed)
    n, m = int(rng.integers(1, 25)), int(rng.integers(3, 6))
    matrices = _random_matrices(600 + seed, n, m)
    for _ in range(6):
        window_start = int(rng.integers(0, m - 1))
        selection = rng.integers(window_start + 1, m - 1, size=n, endpoint=True)
        for deadline in _boundary_deadlines(rng, matrices, selection, window_start, n):
            _assert_same_promotion(matrices, selection, window_start, deadline)


# ---------------------------------------------------------------------------
# every window of one sequence at once
# ---------------------------------------------------------------------------
_MODEL = RakhmatovVrudhulaModel(beta=0.273)


def _ref_evaluate_windows(matrices, deadline, weights, record, evaluate_at):
    """Per window: the reference chooser, then the repair, then the cost."""
    windows = []
    for window_start in range(initial_window_start(matrices, deadline), -1, -1):
        chosen = _ref_choose_design_points(matrices, window_start, deadline, weights, record)
        selection, makespan = chosen.selection, chosen.makespan
        if makespan > deadline + _EPS:
            try:
                selection = _ref_promote_until_feasible(
                    matrices, selection, window_start, deadline
                )
                makespan = matrices.total_time(selection)
            except AlgorithmError:
                pass
        cost = _selection_cost(matrices, selection, _MODEL, deadline, evaluate_at)
        windows.append((window_start, selection, cost, makespan, chosen))
    return windows


def _assert_same_windows(matrices, deadline, weights, record, evaluate_at):
    expected = _ref_evaluate_windows(matrices, deadline, weights, record, evaluate_at)
    feasible = [(cost, start) for start, _, cost, makespan, _ in expected
                if makespan <= deadline + _EPS]
    if not feasible:
        # No window meets the deadline: the search raises, never returns.
        with pytest.raises(InfeasibleDeadlineError):
            evaluate_windows(
                matrices, deadline, _MODEL, weights=weights, evaluate_at=evaluate_at
            )
    else:
        actual = evaluate_windows(
            matrices, deadline, _MODEL, weights=weights, evaluate_at=evaluate_at
        )
        assert [r.window_start for r in actual.records] == [w[0] for w in expected]
        for got, (_, selection, cost, makespan, _) in zip(actual.records, expected):
            assert _bits(got.cost) == _bits(cost)
            assert _bits(got.makespan) == _bits(makespan)
            assert got.feasible == (makespan <= deadline + _EPS)
            assert got.assignment == matrices.to_assignment(selection)
        # The cheapest deadline-respecting window wins; a tie goes to the wider one.
        assert actual.best.window_start == min(feasible)[1]
    # The batch behind it: every window's selection and evaluations.
    batch = _choose_windows(matrices, [w[0] for w in expected], deadline, weights, record)
    for got, (*_, chosen) in zip(batch, expected):
        _assert_same_choice(got, chosen)


@pytest.mark.parametrize("evaluate_at", ["completion", "deadline"])
@pytest.mark.parametrize("seed", range(4))
def test_evaluate_windows_matches_reference_window_by_window(seed, evaluate_at):
    rng = np.random.default_rng(8000 + seed)
    n, m = int(rng.integers(2, 10)), int(rng.integers(2, 6))
    matrices = _random_matrices(700 + seed, n, m)
    fastest, slowest = matrices.column_time(0), matrices.column_time(m - 1)
    for window_start in range(m):
        start = float(rng.uniform(fastest, slowest))
        deadlines = _choose_boundary_deadlines(rng, matrices, window_start, start, samples=1)
        for deadline in deadlines:
            if deadline < fastest - _EPS:
                continue  # no window at all: initial_window_start raises
            for record, weights in _CHOOSE_MODES:
                _assert_same_windows(matrices, deadline, weights, record, evaluate_at)


@pytest.mark.parametrize("optimize", ["", "fuse", "cull+fuse"])
def test_catalogue_evaluate_windows_matches_reference(optimize):
    from dataclasses import replace

    from repro.scenarios import default_registry

    specs = list(default_registry())
    for spec in specs:
        problem = replace(spec, optimize=optimize).build_problem()
        graph = problem.graph
        matrices = SequencedMatrices(graph, sequence_by_decreasing_energy(graph))
        _assert_same_windows(matrices, problem.deadline, None, True, "completion")
    assert len(specs) >= 99


def test_one_batched_step_per_position(monkeypatch, g3):
    # Every window is scored at each position in one batch: n - 1 scoring
    # steps for the whole search, not one per (window, position).
    steps = []
    score = choose_module._score
    monkeypatch.setattr(
        choose_module, "_score", lambda *args: steps.append(1) or score(*args)
    )
    matrices = SequencedMatrices(g3, sequence_by_decreasing_energy(g3))
    evaluation = evaluate_windows(matrices, 230.0, _MODEL)
    assert len(evaluation.records) > 1
    assert len(steps) == matrices.n - 1
