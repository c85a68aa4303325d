"""Unit tests for repro.core.config."""

import dataclasses

import pytest

from repro.core import FactorWeights, SchedulerConfig
from repro.errors import ConfigurationError


class TestSchedulerConfig:
    def test_defaults(self):
        config = SchedulerConfig()
        assert config.evaluate_at == "completion"
        assert config.factor_weights is None

    def test_only_the_settings_a_caller_varies(self):
        names = [field.name for field in dataclasses.fields(SchedulerConfig)]
        assert names == ["evaluate_at", "factor_weights"]

    def test_invalid_evaluate_at(self):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(evaluate_at="whenever")

    def test_frozen(self):
        config = SchedulerConfig()
        with pytest.raises(Exception):
            config.evaluate_at = "deadline"

    def test_custom_weights_accepted(self):
        config = SchedulerConfig(factor_weights=FactorWeights(slack_ratio=0.5))
        assert config.factor_weights.slack_ratio == 0.5
