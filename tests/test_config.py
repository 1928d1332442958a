import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from dmmobench.config import (BenchmarkSettings, ConfigError, OptimizerConfig,
                              load_config, parse_config_text)


@pytest.mark.parametrize("line", [
    "fitness_accuracy_levels =",
    "fitness_accuracy_levels = 1e-3, inf",
    "fitness_accuracy_levels = nan",
    "fitness_accuracy_levels = 0",
    "fitness_accuracy_levels = 1e-3, 1e-3",
    # the problem definition's constants are not options
    "distance_accuracy = nan",
    "distance_accuracy = inf",
    "distance_accuracy = -0.05",
    "min_peak_distance = nan",
    "min_peak_distance = inf",
    "min_peak_distance = 0",
    "alpha = -0.04",
    "alpha_max = inf",
    "chaos_factor = nan",
    "chaos_factor = inf",
    "noise_severity = nan",
    "height_severity = -7",
    "width_severity = inf",
    "rotation_severity = -1",
    "period = 0",
    "subpopulations = 0",
    "crossover_rate = 1.5",
    "reinit_fraction = 1.5",
    "memory_size = -1",
    # older versions had this option; the index is now always public
    "expose_environment_index = true",
    # a key set twice: which value holds would be a guess
    "environments = 5\nenvironments = 6\n",
])
def test_meaningless_settings_are_rejected(line):
    with pytest.raises(ConfigError):
        parse_config_text(line)


@pytest.mark.parametrize("kind, name, value", [
    (BenchmarkSettings, "environments", 0),
    (BenchmarkSettings, "fitness_accuracy_levels", (math.nan,)),
    (OptimizerConfig, "subpopulation_size", 2),
    (OptimizerConfig, "scale_factor", math.nan),
    (OptimizerConfig, "scale_factor", math.inf),
    # integer settings refuse other numbers, bools included
    (BenchmarkSettings, "evals_per_dim", 2.5),
    (BenchmarkSettings, "environments", 3.0),
    (BenchmarkSettings, "environments", True),
    (OptimizerConfig, "subpopulations", 2.0),
    (OptimizerConfig, "subpopulation_size", 10.0),
    (OptimizerConfig, "memory_size", "20"),
])
def test_invalid_settings_cannot_be_built(kind, name, value):
    with pytest.raises(ConfigError):
        kind(**{name: value})
    with pytest.raises(ConfigError):
        replace(kind(), **{name: value})
    with pytest.raises(FrozenInstanceError):
        setattr(kind(), name, value)


def test_every_key_sets_its_own_field():
    settings = BenchmarkSettings(evals_per_dim=7, environments=5,
                                 fitness_accuracy_levels=(0.01, 0.002))
    optimizer = OptimizerConfig(
        subpopulations=3, subpopulation_size=5, scale_factor=0.6,
        crossover_rate=0.8, memory_size=4, reinit_fraction=0.25)
    lines = []
    for config in (settings, optimizer):
        for field in fields(config):
            value = getattr(config, field.name)
            assert value != field.default
            if isinstance(value, tuple):
                value = ", ".join(map(repr, value))
            lines.append(f"{field.name} = {value}\n")
    assert parse_config_text("".join(lines)) == (settings, optimizer)


def test_the_problem_definition_is_not_a_setting():
    assert [field.name for field in fields(BenchmarkSettings)] == [
        "evals_per_dim", "environments", "fitness_accuracy_levels"]
    for key in ("alpha", "alpha_max", "chaos_factor", "period",
                "noise_severity", "min_peak_distance", "height_severity",
                "width_severity", "rotation_severity"):
        with pytest.raises(ConfigError, match=f"unknown option '{key}'"):
            parse_config_text(f"{key} = 0.1\n")
    # the peak-counting radius too, even at the value it always had
    with pytest.raises(ConfigError,
                       match="unknown option 'distance_accuracy'"):
        parse_config_text("distance_accuracy = 0.05\n")


@pytest.mark.parametrize("key", [
    "validate", "environment_budget", "__post_init__"])
def test_only_fields_are_keys(key):
    with pytest.raises(ConfigError, match=f"line 1: unknown option '{key}'"):
        parse_config_text(f"{key} = 1\n")


def test_numpy_integers_are_integer_settings():
    assert BenchmarkSettings(environments=np.int64(6)).environments == 6
    assert OptimizerConfig(memory_size=np.int32(5)).memory_size == 5


@pytest.mark.parametrize("line", ["evals_per_dim 5", "= 5", "evals_per_dim"])
def test_a_line_that_is_not_key_equals_value_is_refused(line):
    # without the check each fails otherwise: an unknown key, a bad value
    message = f"line 2: expected `key = value`, got {line!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(f"# comment\n{line}\n")


def test_an_unreadable_config_is_a_config_error(tmp_path):
    path = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match=re.escape(
            f"cannot read config {path}: ")):
        load_config(str(path))
