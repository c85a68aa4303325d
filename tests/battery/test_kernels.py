"""Unit tests for the shared schedule-kernel contract and every chemistry's kernel."""

import numpy as np
import pytest

from repro.battery import (
    IdealBatteryModel,
    KineticBatteryModel,
    PeukertModel,
    RakhmatovVrudhulaModel,
    suffix_durations,
)
from repro.battery.base import BatteryModel
from repro.battery.kernels import ScheduleKernelMixin
from repro.errors import BatteryModelError


class _StubKernel(BatteryModel):
    """Minimal chemistry: contribution = I * Delta + time_to_end (sensitive)."""

    def apparent_charge(self, profile, at_time=None):  # pragma: no cover - unused
        return 0.0

    def interval_contributions(self, durations, currents, time_to_end):
        durations = np.asarray(durations, dtype=float)
        currents = np.asarray(currents, dtype=float)
        time_to_end = np.asarray(time_to_end, dtype=float)
        return currents * durations + time_to_end


class TestMixinContracts:
    def test_kernel_required(self):
        class NoKernel(BatteryModel):
            def apparent_charge(self, profile, at_time=None):
                return 0.0

        with pytest.raises(TypeError):
            NoKernel()

    def test_kernel_class_cannot_be_mixed_in_beside_the_base(self):
        # BatteryModel already derives from the kernel class, so listing
        # the kernel class first leaves no consistent method order.
        with pytest.raises(TypeError):
            type("Mixed", (ScheduleKernelMixin, BatteryModel), {})

    def test_sensitive_floor_defaults_to_zeros(self):
        floors = _StubKernel().contribution_floor([1.0, 2.0], [1.0, 3.0])
        assert floors.tolist() == [0.0, 0.0]

    def test_insensitive_floor_defaults_to_exact_contribution(self):
        class Insensitive(_StubKernel):
            TIME_SENSITIVE = False

            def interval_contributions(self, durations, currents, time_to_end):
                return np.asarray(currents, float) * np.asarray(durations, float)

        floors = Insensitive().contribution_floor([2.0, 3.0], [5.0, 7.0])
        assert floors.tolist() == [10.0, 21.0]

    def test_schedule_charge_uses_suffix_parametrization(self):
        model = _StubKernel()
        durations = [2.0, 3.0, 4.0]
        currents = [1.0, 1.0, 1.0]
        tail = suffix_durations(np.asarray(durations))
        expected = sum(
            current * duration + tte
            for current, duration, tte in zip(currents, durations, tail)
        )
        assert model.schedule_charge(durations, currents) == pytest.approx(expected)

    def test_batch_matches_single_rows(self):
        model = _StubKernel()
        durations = [[2.0, 3.0], [1.0, 4.0]]
        currents = [[1.0, 2.0], [3.0, 1.0]]
        batched = model.schedule_charge_batch(durations, currents, rest=5.0)
        for row in range(2):
            assert batched[row] == model.schedule_charge(
                durations[row], currents[row], rest=5.0
            )

    def test_batch_of_empty_schedules(self):
        model = _StubKernel()
        assert model.schedule_charge_batch(
            np.zeros((3, 0)), np.zeros((3, 0))
        ).tolist() == [0.0, 0.0, 0.0]


#: One representative model per built-in chemistry (non-default parameters
#: where the chemistry has any).
CHEMISTRY_MODELS = {
    "rakhmatov": lambda: RakhmatovVrudhulaModel(beta=0.273),
    "peukert": lambda: PeukertModel(exponent=1.3),
    "kibam": lambda: KineticBatteryModel(c=0.625, k=0.05),
    "ideal": lambda: IdealBatteryModel(),
}


def _schedule_arrays(seed, n=40):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 30.0, size=n), rng.uniform(5.0, 120.0, size=n)


@pytest.fixture(params=sorted(CHEMISTRY_MODELS))
def chemistry(request):
    return CHEMISTRY_MODELS[request.param]()


class TestChemistryKernels:
    """The mixin's contracts, checked on every built-in chemistry."""

    def test_schedule_contributions_are_the_kernel_at_suffix_times(self, chemistry):
        durations, currents = _schedule_arrays(3)
        expected = chemistry.interval_contributions(
            durations, currents, suffix_durations(durations) + 12.5
        )
        actual = chemistry.schedule_contributions(durations, currents, rest=12.5)
        assert np.array_equal(actual, expected)

    def test_batch_with_per_row_rest_matches_single_rows(self, chemistry):
        rows = [_schedule_arrays(seed, n=16) for seed in range(5)]
        durations = np.array([row[0] for row in rows])
        currents = np.array([row[1] for row in rows])
        rests = [0.0, 3.5, 0.0, 40.0, 1000.0]
        batched = chemistry.schedule_charge_batch(durations, currents, rest=rests)
        for index, rest in enumerate(rests):
            assert batched[index] == chemistry.schedule_charge(
                durations[index], currents[index], rest=rest
            )

    def test_kernel_is_elementwise(self, chemistry):
        durations, currents = _schedule_arrays(5, n=24)
        time_to_end = suffix_durations(durations)
        whole = chemistry.interval_contributions(durations, currents, time_to_end)
        halves = np.concatenate(
            [
                chemistry.interval_contributions(
                    durations[part], currents[part], time_to_end[part]
                )
                for part in (slice(0, 10), slice(10, None))
            ]
        )
        assert np.array_equal(whole, halves)
        reversed_ = chemistry.interval_contributions(
            durations[::-1], currents[::-1], time_to_end[::-1]
        )
        assert np.array_equal(reversed_[::-1], whole)

    def test_time_sensitivity_flag_matches_kernel(self, chemistry):
        durations, currents = _schedule_arrays(7)
        at_end = chemistry.interval_contributions(
            durations, currents, np.zeros(durations.shape)
        )
        later = chemistry.interval_contributions(
            durations, currents, np.full(durations.shape, 50.0)
        )
        assert np.array_equal(at_end, later) == (not chemistry.TIME_SENSITIVE)

    def test_rest_never_increases_sigma(self, chemistry):
        durations, currents = _schedule_arrays(11)
        sigmas = [
            chemistry.schedule_charge(durations, currents, rest=rest)
            for rest in (0.0, 1.0, 10.0, 100.0, 1000.0)
        ]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_floor_bounds_every_time_to_end(self, chemistry):
        durations, currents = _schedule_arrays(13)
        floors = chemistry.contribution_floor(durations, currents)
        for time_to_end in (0.0, 0.5, 10.0, 1e3, 1e5):
            contributions = chemistry.interval_contributions(
                durations, currents, np.full(durations.shape, time_to_end)
            )
            assert np.all(floors <= contributions)

    def test_empty_schedule_costs_nothing(self, chemistry):
        assert chemistry.schedule_charge([], []) == 0.0
        assert chemistry.schedule_contributions([], [], rest=5.0).shape == (0,)
        assert chemistry.schedule_charge_batch(
            np.zeros((2, 0)), np.zeros((2, 0)), rest=[1.0, 2.0]
        ).tolist() == [0.0, 0.0]

    def test_invalid_schedules_rejected(self, chemistry):
        with pytest.raises(BatteryModelError):
            chemistry.schedule_charge([1.0, 2.0], [3.0])
        with pytest.raises(BatteryModelError):
            chemistry.schedule_charge([1.0], [3.0], rest=-0.5)
        with pytest.raises(BatteryModelError):
            chemistry.schedule_charge_batch([[1.0, 2.0]], [[3.0, 4.0]], rest=[1.0, 2.0])
