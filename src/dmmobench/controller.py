"""Run lifecycle: problem construction, evaluation budget accounting,
environmental-change triggering, population snapshots, and the golden
parameter-dump format.

A ProblemInstance is a serialized resource: the budget counter and the
change trigger form one logical transition, so concurrent evaluation
must be externally ordered.  Distinct instances are fully independent.
"""

import numpy as np

from .composition import init_composition
from .config import BenchmarkSettings
from .core import (DOMAIN_HIGH, DOMAIN_LOW, ProblemSpec, RunFrozenError,
                   make_rng, problem_spec)
from .df import init_df
from .dynamics import advance_environment, init_change_state


class PopulationSnapshot:
    """The reported population of one environment, sealed at its end."""

    __slots__ = ("environment", "individuals", "fitness")

    def __init__(self, environment, individuals, fitness):
        self.environment = environment
        self.individuals = individuals
        self.fitness = fitness

    def __len__(self):
        return len(self.individuals)

    def __repr__(self):
        return (f"PopulationSnapshot(env={self.environment}, "
                f"n={len(self.individuals)})")


class ProblemInstance:
    """One live benchmark run: a landscape plus its change dynamics.

    All randomness of the problem side comes from stream 0 of the run
    seed; optimizers must use their own stream so the two draw
    sequences never interleave.
    """

    def __init__(self, spec, seed, settings):
        self.spec = spec
        self.seed = seed
        self.settings = settings
        self._rng = make_rng(seed)
        if spec.family in ("F1", "F2", "F3", "F4"):
            self.landscape = init_df(spec.family, spec.dimension, self._rng,
                                     settings.min_peak_distance)
        else:
            self.landscape = init_composition(
                spec.family, spec.dimension, self._rng,
                settings.min_peak_distance)
        self.state = init_change_state(self.landscape, spec.mode, self._rng)
        self.budget = settings.environment_budget(spec.dimension)
        self.evaluations_used_in_env = 0
        self.frozen = False
        self.snapshots = []
        self._pending_report = None
        self._ground_truth = []
        self._archive_ground_truth()

    @property
    def t(self):
        """Index of the current environment, 1-based."""
        return self.state.t

    def current_environment(self):
        """The environment index, when configuration exposes it.

        This is the cheap change-detection channel for optimizers; with
        expose_environment_index off they must infer changes themselves
        (e.g. from the budget counter resetting).
        """
        if not self.settings.expose_environment_index:
            raise RuntimeError("environment index hidden by configuration")
        return self.t

    def remaining_budget(self):
        return self.budget - self.evaluations_used_in_env

    def evaluate(self, x):
        """Fitness of one candidate: `evaluate_many` on a single row."""
        return float(self.evaluate_many(np.asarray(x, dtype=float)[None])[0])

    def evaluate_many(self, xs):
        """Fitness of a batch of candidates, charged against the budget.

        The evaluation that exhausts an environment's budget is itself
        scored under that environment; the change happens immediately
        after it.  A batch that straddles a change is therefore scored
        partly under each environment, exactly as the same sequence of
        single evaluations would be.  Raises once the final budget is
        exhausted mid-batch.  A batch of the wrong shape, or with any
        coordinate that is not a finite number in the domain, raises
        ValueError before anything is charged.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.spec.dimension:
            raise ValueError(
                f"expected a batch of {self.spec.dimension}-dimensional "
                f"points, got shape {xs.shape}")
        # NaN fails both comparisons
        if not ((xs >= DOMAIN_LOW) & (xs <= DOMAIN_HIGH)).all():
            raise ValueError(
                f"points must lie in [{DOMAIN_LOW}, {DOMAIN_HIGH}] in every "
                f"coordinate")
        out = np.empty(len(xs))
        start = 0
        while start < len(xs):
            if self.frozen:
                raise RunFrozenError(
                    "the run's full evaluation budget is spent")
            room = self.budget - self.evaluations_used_in_env
            stop = min(len(xs), start + room)
            out[start:stop] = self.landscape.evaluate_many(xs[start:stop])
            self.evaluations_used_in_env += stop - start
            if self.evaluations_used_in_env == self.budget:
                self._seal_environment()
            start = stop
        return out

    def report_population(self, individuals):
        """Declare the candidate optima for the current environment.

        Last write wins: the report in force when the environment's
        budget runs out is the one scored.  Individuals are re-evaluated
        against the sealed environment at that moment, free of budget,
        so scoring never distorts the protocol.
        """
        if self.frozen:
            raise RunFrozenError("the run's full evaluation budget is spent")
        individuals = np.asarray(individuals, dtype=float)
        if individuals.size == 0:
            individuals = np.empty((0, self.spec.dimension))
        else:
            individuals = np.atleast_2d(individuals).copy()
            if individuals.shape[1] != self.spec.dimension:
                raise ValueError(
                    f"expected {self.spec.dimension}-dimensional individuals, "
                    f"got shape {individuals.shape}")
        self._pending_report = individuals

    def ground_truth(self, env):
        """Archived (positions, fitness) of environment `env`'s optima.

        Recorded eagerly when each environment begins, so scoring never
        replays dynamics.  Treat the returned arrays as read-only.
        """
        if not 1 <= env <= len(self._ground_truth):
            raise ValueError(
                f"environment {env} has not begun (current is {self.t})")
        return self._ground_truth[env - 1]

    def _archive_ground_truth(self):
        self._ground_truth.append(self.landscape.global_optima())

    def _seal_environment(self):
        if self._pending_report is None:
            individuals = np.empty((0, self.spec.dimension))
        else:
            individuals = self._pending_report
        if len(individuals):
            fitness = self.landscape.evaluate_many(individuals)
        else:
            fitness = np.empty(0)
        self.snapshots.append(PopulationSnapshot(self.t, individuals, fitness))
        self._pending_report = None
        if self.t == self.settings.environments:
            self.frozen = True
        else:
            self._advance()

    def _advance(self):
        advance_environment(self.landscape, self.state, self._rng,
                            self.settings)
        self.evaluations_used_in_env = 0
        self._archive_ground_truth()


def create_problem(index, seed, settings=None):
    """Build a fresh instance of one of the 24 table problems."""
    settings = settings if settings is not None else BenchmarkSettings()
    return ProblemInstance(problem_spec(index), seed, settings)


def iterate_environments(index, seed, settings=None, environments=None,
                         dim_override=None):
    """Yield (env, landscape, state) for each environment in turn.

    Drives the dynamics directly, consuming no evaluation budget; used
    by parameter dumps, landscape exports and re-scoring.  The yielded
    landscape is the live object: consume it before resuming the
    generator.  `dim_override` builds the problem at another dimension.
    """
    spec = problem_spec(index)
    if dim_override is not None:
        spec = ProblemSpec(spec.index, spec.family, spec.mode, dim_override)
    instance = ProblemInstance(
        spec, seed, settings if settings is not None else BenchmarkSettings())
    last = environments if environments is not None \
        else instance.settings.environments
    yield 1, instance.landscape, instance.state
    for _ in range(2, last + 1):
        instance._advance()
        yield instance.t, instance.landscape, instance.state


def _fmt(value):
    return format(value, ".16e")


def _row_line(label, index, row):
    return f"{label} {index} " + " ".join(_fmt(c) for c in row)


def format_environment(env, landscape, state):
    """Serialize one environment's full parameter set as text lines.

    Every float is printed with 17 significant digits, so the dump is a
    bit-stable golden record of the run's dynamics.
    """
    lines = [f"env {env}", f"g {state.g}"]
    for name, angle in state.angles.items():
        lines.append(f"angle {name} {_fmt(angle)}")
    if landscape.kind == "df":
        for i in range(landscape.n_peaks):
            label = "global" if i < landscape.n_global else "local"
            lines.append(f"peak {i} {label} {_fmt(landscape.heights[i])} "
                         f"{_fmt(landscape.widths[i])}")
        for i, row in enumerate(landscape.positions):
            lines.append(_row_line("position", i, row))
    else:
        for i in range(landscape.n_components):
            lines.append(f"component {i} {landscape.kinds[i]} "
                         f"{_fmt(landscape.stretches[i])} "
                         f"{_fmt(landscape.spreads[i])} "
                         f"{_fmt(landscape.peak_magnitudes[i])}")
        for i, row in enumerate(landscape.shifts):
            lines.append(_row_line("shift", i, row))
        for i, matrix in enumerate(landscape.rotations):
            lines.append(_row_line("rotation", i, matrix.ravel()))
    return lines


def dump_environments_text(index, seed, settings=None):
    """The full parameter dump for one (problem, seed) run."""
    spec = problem_spec(index)
    settings = settings if settings is not None else BenchmarkSettings()
    lines = [
        f"problem {index}",
        f"seed {seed}",
        f"family {spec.family}",
        f"mode {spec.mode}",
        f"dim {spec.dimension}",
        f"environments {settings.environments}",
    ]
    for env, landscape, state in iterate_environments(index, seed, settings):
        lines.append("")
        lines.extend(format_environment(env, landscape, state))
    return "\n".join(lines) + "\n"
