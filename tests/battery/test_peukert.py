"""Unit tests for the Peukert's-law battery model."""

import pytest

from repro.battery import IdealBatteryModel, LoadProfile, PeukertModel
from repro.errors import BatteryModelError


class TestConstruction:
    def test_exponent_below_one_rejected(self):
        with pytest.raises(BatteryModelError):
            PeukertModel(exponent=0.9)

    def test_non_positive_reference_rejected(self):
        with pytest.raises(BatteryModelError):
            PeukertModel(reference_current=0.0)

    def test_repr(self):
        assert "1.2" in repr(PeukertModel(exponent=1.2))


class TestApparentCharge:
    def test_exponent_one_matches_ideal(self):
        peukert = PeukertModel(exponent=1.0, reference_current=100.0)
        ideal = IdealBatteryModel()
        profile = LoadProfile.from_back_to_back([5.0, 2.0], [300.0, 80.0])
        assert peukert.cost(profile) == pytest.approx(ideal.cost(profile))

    def test_reference_current_is_neutral(self):
        model = PeukertModel(exponent=1.3, reference_current=200.0)
        profile = LoadProfile.from_back_to_back([4.0], [200.0])
        assert model.cost(profile) == pytest.approx(profile.total_charge)

    def test_penalises_high_currents(self):
        model = PeukertModel(exponent=1.3, reference_current=100.0)
        high = LoadProfile.from_back_to_back([1.0], [400.0])
        assert model.cost(high) > high.total_charge

    def test_rewards_low_currents(self):
        model = PeukertModel(exponent=1.3, reference_current=100.0)
        low = LoadProfile.from_back_to_back([1.0], [25.0])
        assert model.cost(low) < low.total_charge

    def test_order_invariance(self):
        model = PeukertModel(exponent=1.2, reference_current=100.0)
        forward = LoadProfile.from_back_to_back([5.0, 3.0], [100.0, 400.0])
        backward = LoadProfile.from_back_to_back([3.0, 5.0], [400.0, 100.0])
        assert model.cost(forward) == pytest.approx(model.cost(backward))

    def test_no_recovery(self):
        model = PeukertModel(exponent=1.2, reference_current=100.0)
        profile = LoadProfile.from_back_to_back([4.0], [300.0])
        assert model.apparent_charge(profile, at_time=4.0) == pytest.approx(
            model.apparent_charge(profile, at_time=40.0)
        )

    def test_partial_interval(self):
        model = PeukertModel(exponent=1.2, reference_current=100.0)
        profile = LoadProfile.from_back_to_back([4.0], [300.0])
        assert model.apparent_charge(profile, at_time=2.0) == pytest.approx(
            0.5 * model.apparent_charge(profile, at_time=4.0)
        )


class TestScheduleKernel:
    """The time-insensitive vectorized kernel of Peukert's law."""

    def test_kernel_ignores_time_to_end(self):
        model = PeukertModel(exponent=1.3)
        a = model.interval_contributions([5.0, 2.0], [300.0, 100.0], [0.0, 0.0])
        b = model.interval_contributions([5.0, 2.0], [300.0, 100.0], [40.0, 7.0])
        assert a.tolist() == b.tolist()

    def test_contribution_matches_per_interval_law(self):
        model = PeukertModel(exponent=1.3, reference_current=2.0)
        value = float(model.interval_contributions([4.0], [10.0], [0.0])[0])
        assert value == pytest.approx(2.0 * 4.0 * (10.0 / 2.0) ** 1.3)

    def test_contribution_floor_is_exact(self):
        model = PeukertModel(exponent=1.3)
        floor = model.contribution_floor([5.0, 2.0], [300.0, 100.0])
        exact = model.interval_contributions([5.0, 2.0], [300.0, 100.0], [9.0, 1.0])
        assert floor.tolist() == exact.tolist()

    def test_time_sensitive_flag(self):
        assert PeukertModel().TIME_SENSITIVE is False

    def test_schedule_charge_matches_profile_path(self):
        model = PeukertModel(exponent=1.25)
        durations = [10.0, 5.0, 20.0]
        currents = [300.0, 150.0, 80.0]
        profile = LoadProfile.from_back_to_back(durations, currents)
        assert model.schedule_charge(durations, currents) == pytest.approx(
            model.apparent_charge(profile), rel=1e-12
        )
