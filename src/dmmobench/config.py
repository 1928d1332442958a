"""Run configuration: run settings, optimizer parameters, and the flat
key=value file format that overrides them.

The problem definition is code: the change constants live in
`dynamics`, the optimum spacing in `core` and the peak-counting radius
in `metrics`, so every config builds and scores the same 24 problems.
Settings hold the evaluation budget, the run length, the scored fitness
accuracies and the baseline's parameters, each with its default, so an
experiment is fully described by (problem, seed, config file).  Settings
are checked when they are built and cannot be changed afterwards, so an
invalid settings object never exists.
"""

import math
from dataclasses import dataclass, fields, replace

from .core import check_integer


class ConfigError(ValueError):
    """Raised for an unreadable or inconsistent configuration file."""


def _check_counts(config, minimums):
    """Refuse a count that is not an integer, or is below its minimum."""
    for name, minimum in minimums.items():
        check_integer(name, getattr(config, name), minimum, ConfigError)


@dataclass(frozen=True)
class BenchmarkSettings:
    """The evaluation protocol's budget and run length, and the scored
    fitness accuracies."""

    #: Fitness evaluations per environment, per search dimension.
    evals_per_dim: int = 5000
    #: Environments per run.
    environments: int = 60
    #: Peak-counting fitness tolerances, scored in one pass.
    fitness_accuracy_levels: tuple = (1e-3, 1e-4, 1e-5)

    def __post_init__(self):
        self.validate()

    def environment_budget(self, dim):
        """Fitness evaluations granted per environment at dimension `dim`."""
        return self.evals_per_dim * dim

    def validate(self):
        _check_counts(self, dict(evals_per_dim=1, environments=1))
        if not self.fitness_accuracy_levels:
            raise ConfigError("fitness_accuracy_levels must not be empty")
        if len(set(self.fitness_accuracy_levels)) != len(
                self.fitness_accuracy_levels):
            raise ConfigError("fitness_accuracy_levels repeats a value")
        if not all(0 < value < math.inf
                   for value in self.fitness_accuracy_levels):
            raise ConfigError("accuracy levels must be positive and finite")
        return self


@dataclass(frozen=True)
class OptimizerConfig:
    """Parameters of the bundled differential-evolution baseline."""

    subpopulations: int = 10
    subpopulation_size: int = 10
    scale_factor: float = 0.5
    crossover_rate: float = 0.9
    memory_size: int = 20
    reinit_fraction: float = 0.5

    def __post_init__(self):
        self.validate()

    def validate(self):
        # a subpopulation of 4 gives each target three partners to mutate
        _check_counts(self, dict(subpopulations=1, subpopulation_size=4,
                                 memory_size=0))
        if not math.isfinite(self.scale_factor):
            raise ConfigError("scale_factor must be finite")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.reinit_fraction <= 1.0:
            raise ConfigError("reinit_fraction must lie in [0, 1]")
        return self


def parse_value(key, raw, default):
    """`raw` read as a value of `default`'s type, an int, a float or a
    tuple, for option `key`; a tuple is comma-separated and may be empty."""
    kind = type(default)
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


def parse_config_text(text):
    """The two config dataclasses, defaults overridden by key=value lines.

    Lines are `key = value`; blank lines and `#` comments are ignored.
    Keys are field names of BenchmarkSettings or OptimizerConfig, each
    set at most once; anything else is an error.
    """
    configs = BenchmarkSettings(), OptimizerConfig()
    updates = [{} for _ in configs]
    first_lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        if key in first_lines:
            raise ConfigError(f"line {lineno}: {key!r} is already set on "
                              f"line {first_lines[key]}")
        first_lines[key] = lineno
        for config, update in zip(configs, updates):
            if key in {f.name for f in fields(config)}:
                update[key] = parse_value(key, raw, getattr(config, key))
                break
        else:
            raise ConfigError(f"line {lineno}: unknown option {key!r}")

    return tuple(replace(config, **update)
                 for config, update in zip(configs, updates))


def load_config(path=None):
    """Read a configuration file; None yields the defaults."""
    if path is None:
        return parse_config_text("")
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)
