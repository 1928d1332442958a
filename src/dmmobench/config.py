"""Run configuration: benchmark constants, optimizer parameters, and the
flat key=value file format that overrides them.

Every configurable constant of the benchmark definition lives here with
its default, so an experiment is fully described by (problem, seed,
config file).  Settings are checked when they are built and cannot be
changed afterwards, so an invalid settings object never exists.
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
    """Constants of the problem definition and evaluation protocol."""

    #: Fitness evaluations per environment, per search dimension.
    evals_per_dim: int = 5000
    #: Environments per run.
    environments: int = 60
    #: Small-step severity scale.
    alpha: float = 0.04
    #: Large-step severity cap, printed value; 0.1 is a common
    #: alternative in dynamic-benchmark generators.
    alpha_max: float = 0.01
    #: Logistic-map coefficient of the chaotic mode.
    chaos_factor: float = 3.67
    #: Period of the recurrent modes, in environments.
    period: int = 12
    #: Noise scale added on top of the noisy recurrent mode.
    noise_severity: float = 0.8
    #: Minimum distance allowed between any two optima.
    min_peak_distance: float = 0.1
    #: Per-parameter change severities.
    height_severity: float = 7.0
    width_severity: float = 1.0
    rotation_severity: float = 1.0
    #: Peak-counting thresholds: position tolerance and the fitness
    #: tolerance levels scored in one pass.
    distance_accuracy: float = 0.05
    fitness_accuracy_levels: tuple = (1e-3, 1e-4, 1e-5)

    def __post_init__(self):
        self.validate()

    def environment_budget(self, dim):
        """Fitness evaluations granted per environment at dimension `dim`."""
        return self.evals_per_dim * dim

    def validate(self):
        _check_counts(self, dict(evals_per_dim=1, environments=1, period=1))
        if not 0 < self.min_peak_distance < math.inf:
            raise ConfigError("min_peak_distance must be positive and finite")
        if not self.fitness_accuracy_levels:
            raise ConfigError("fitness_accuracy_levels must not be empty")
        if len(set(self.fitness_accuracy_levels)) != len(
                self.fitness_accuracy_levels):
            raise ConfigError("fitness_accuracy_levels repeats a value")
        if not all(0 < value < math.inf for value in (
                self.distance_accuracy, *self.fitness_accuracy_levels)):
            raise ConfigError("accuracy thresholds must be positive and finite")
        for name in ("alpha", "alpha_max", "chaos_factor", "noise_severity",
                     "height_severity", "width_severity",
                     "rotation_severity"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
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
    """`raw` read as a value of `default`'s type for option `key`; a
    list is comma-separated and may be empty."""
    kind = type(default)
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
    raise ConfigError(f"unsupported option type for {key}")


def parse_config_text(text):
    """The two config dataclasses, defaults overridden by key=value lines.

    Lines are `key = value`; blank lines and `#` comments are ignored.
    Keys are field names of BenchmarkSettings or OptimizerConfig, each
    set at most once; anything else is an error.
    """
    settings, optimizer = BenchmarkSettings(), OptimizerConfig()
    bench_defaults = {f.name: getattr(settings, f.name) for f in fields(settings)}
    opt_defaults = {f.name: getattr(optimizer, f.name) for f in fields(optimizer)}

    bench_updates = {}
    opt_updates = {}
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
        if key in bench_defaults:
            bench_updates[key] = parse_value(key, raw, bench_defaults[key])
        elif key in opt_defaults:
            opt_updates[key] = parse_value(key, raw, opt_defaults[key])
        else:
            raise ConfigError(f"line {lineno}: unknown option {key!r}")

    return (replace(settings, **bench_updates),
            replace(optimizer, **opt_updates))


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
