"""Unit tests for the Kinetic Battery Model."""

import pytest

from repro.battery import IdealBatteryModel, KineticBatteryModel, LoadProfile
from repro.errors import BatteryModelError


@pytest.fixture
def model():
    return KineticBatteryModel(c=0.625, k=0.05)


class TestConstruction:
    def test_invalid_c(self):
        with pytest.raises(BatteryModelError):
            KineticBatteryModel(c=0.0)
        with pytest.raises(BatteryModelError):
            KineticBatteryModel(c=1.0)

    def test_invalid_k(self):
        with pytest.raises(BatteryModelError):
            KineticBatteryModel(k=0.0)

    def test_repr(self, model):
        assert "0.625" in repr(model)


class TestApparentCharge:
    def test_exceeds_nominal_while_discharging(self, model):
        profile = LoadProfile.from_back_to_back([30.0], [500.0])
        assert model.cost(profile) > profile.total_charge

    def test_never_below_ideal(self, model):
        profile = LoadProfile.from_back_to_back([10.0, 5.0, 20.0], [700.0, 100.0, 300.0])
        assert model.cost(profile) >= IdealBatteryModel().cost(profile) - 1e-9

    def test_recovery_during_rest(self, model):
        profile = LoadProfile.from_back_to_back([20.0], [600.0])
        at_end = model.apparent_charge(profile, at_time=20.0)
        rested = model.apparent_charge(profile, at_time=200.0)
        assert rested < at_end
        assert rested >= profile.total_charge - 1e-6

    def test_unavailable_charge_decays_to_zero(self, model):
        profile = LoadProfile.from_back_to_back([20.0], [600.0])
        assert model.unavailable_charge(profile, at_time=20.0) > 0.0
        assert model.unavailable_charge(profile, at_time=2000.0) == pytest.approx(0.0, abs=1e-3)

    def test_linear_in_current(self, model):
        base = LoadProfile.from_back_to_back([15.0], [200.0])
        double = LoadProfile.from_back_to_back([15.0], [400.0])
        assert model.cost(double) == pytest.approx(2 * model.cost(base), rel=1e-9)

    def test_high_rate_costs_more_for_same_charge(self, model):
        slow = LoadProfile.from_back_to_back([40.0], [200.0])
        fast = LoadProfile.from_back_to_back([10.0], [800.0])
        assert slow.total_charge == pytest.approx(fast.total_charge)
        assert model.cost(fast) > model.cost(slow)

    def test_decreasing_current_order_cheaper(self, model):
        decreasing = LoadProfile.from_back_to_back([10.0, 10.0], [800.0, 100.0])
        increasing = LoadProfile.from_back_to_back([10.0, 10.0], [100.0, 800.0])
        assert model.cost(decreasing) < model.cost(increasing)

    def test_fast_kinetics_approach_ideal(self):
        nearly_ideal = KineticBatteryModel(c=0.625, k=50.0)
        profile = LoadProfile.from_back_to_back([10.0, 10.0], [800.0, 100.0])
        assert nearly_ideal.cost(profile) == pytest.approx(
            IdealBatteryModel().cost(profile), rel=1e-2
        )

    def test_empty_profile(self, model):
        assert model.cost(LoadProfile()) == 0.0

    def test_negative_time_rejected(self, model):
        with pytest.raises(BatteryModelError):
            model.apparent_charge(LoadProfile.from_back_to_back([1.0], [1.0]), at_time=-1.0)

    def test_gap_handling(self, model):
        """Idle gaps between intervals are integrated as zero-current periods."""
        gapped = LoadProfile.from_intervals([(0.0, 10.0, 600.0), (30.0, 10.0, 600.0)])
        back_to_back = LoadProfile.from_back_to_back([10.0, 10.0], [600.0, 600.0])
        assert model.cost(gapped) < model.cost(back_to_back)

    def test_lifetime_with_capacity(self, model):
        profile = LoadProfile.from_back_to_back([60.0], [500.0])
        capacity = model.apparent_charge(profile, at_time=30.0)
        lifetime = model.lifetime(profile, capacity)
        assert lifetime == pytest.approx(30.0, abs=0.01)

    def test_agrees_qualitatively_with_rakhmatov_ranking(self, model):
        """Both non-ideal models rank a gentle profile below an aggressive one."""
        from repro.battery import RakhmatovVrudhulaModel

        rv = RakhmatovVrudhulaModel(beta=0.273)
        gentle = LoadProfile.from_back_to_back([30.0, 30.0], [400.0, 100.0])
        harsh = LoadProfile.from_back_to_back([30.0, 30.0], [100.0, 400.0])
        assert (model.cost(gentle) < model.cost(harsh)) == (rv.cost(gentle) < rv.cost(harsh))


class TestSuperposedScheduleKernel:
    """The vectorized time-to-end kernel against the sequential well pass."""

    def test_single_interval_matches_closed_form(self, model):
        duration, current = 10.0, 200.0
        contribution = float(
            model.interval_contributions([duration], [current], [0.0])[0]
        )
        profile = LoadProfile.from_back_to_back([duration], [current])
        assert contribution == pytest.approx(model.apparent_charge(profile), rel=1e-12)

    def test_schedule_charge_matches_sequential_advance(self, model):
        import random

        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 15)
            durations = [rng.uniform(0.1, 25.0) for _ in range(n)]
            currents = [rng.uniform(0.0, 400.0) for _ in range(n)]
            rest = rng.choice([0.0, rng.uniform(0.0, 80.0)])
            profile = LoadProfile.from_back_to_back(durations, currents)
            superposed = model.schedule_charge(durations, currents, rest)
            sequential = model.apparent_charge(profile, profile.end_time + rest)
            assert superposed == pytest.approx(sequential, rel=1e-12)

    def test_stranded_mode_is_nonnegative_and_decays(self, model):
        """The recovery mode shrinks as the interval recedes into the past."""
        nominal = 10.0 * 200.0
        values = [
            float(model.interval_contributions([10.0], [200.0], [tte])[0])
            for tte in (0.0, 5.0, 50.0, 500.0)
        ]
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))
        assert values[0] > nominal
        assert values[-1] == pytest.approx(nominal, rel=1e-6)

    def test_contribution_floor_is_a_valid_bound(self, model):
        import random

        rng = random.Random(7)
        for _ in range(50):
            duration = rng.uniform(0.0, 30.0)
            current = rng.uniform(0.0, 500.0)
            tte = rng.uniform(0.0, 100.0)
            floor = float(model.contribution_floor([duration], [current])[0])
            contribution = float(
                model.interval_contributions([duration], [current], [tte])[0]
            )
            assert floor <= contribution + 1e-12
            assert floor == pytest.approx(current * duration)

    def test_time_sensitive_flag(self, model):
        assert model.TIME_SENSITIVE is True

    def test_kernel_input_validation(self, model):
        with pytest.raises(BatteryModelError):
            model.schedule_contributions([1.0, 2.0], [3.0], rest=0.0)
        with pytest.raises(BatteryModelError):
            model.schedule_charge([1.0], [3.0], rest=-1.0)
        with pytest.raises(BatteryModelError):
            model.schedule_charge_batch([[1.0]], [[3.0]], rest=-1.0)
        with pytest.raises(BatteryModelError):
            model.schedule_charge_batch([1.0], [3.0])
