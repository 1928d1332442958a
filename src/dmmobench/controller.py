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
from .core import (CONE_FAMILIES, DOMAIN_HIGH, DOMAIN_LOW, ProblemSpec,
                   RngStream, RunFrozenError, check_integer, format_rows,
                   problem_spec)
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
        self.settings = settings
        self._rng = RngStream(seed)
        init = init_df if spec.family in CONE_FAMILIES else init_composition
        self.landscape = init(spec.family, spec.dimension, self._rng)
        self.state = init_change_state(self.landscape, spec.mode, self._rng)
        self.budget = settings.environment_budget(spec.dimension)
        self.evaluations_used_in_env = 0
        self.frozen = False
        self.snapshots = []
        self._pending_report = np.empty((0, spec.dimension))
        self._ground_truth = []
        self._archive_ground_truth()

    @property
    def t(self):
        """Index of the current environment, 1-based; optimizers notice
        a change by comparing it with an earlier reading."""
        return self.state.t

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
        xs = _checked_batch(xs, self.spec.dimension)
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
        so scoring never distorts the protocol.  A single individual may
        be given as a 1-D array, and an empty report as `[]` or a (0, D)
        batch.  Individuals are checked as `evaluate_many` checks a
        batch: a wrong shape or a coordinate outside the domain raises
        ValueError and leaves the report in force unchanged.
        """
        if self.frozen:
            raise RunFrozenError("the run's full evaluation budget is spent")
        dim = self.spec.dimension
        individuals = np.asarray(individuals, dtype=float)
        if individuals.shape == (0,):
            individuals = individuals.reshape(0, dim)
        self._pending_report = _checked_batch(
            np.atleast_2d(individuals), dim).copy()

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
        individuals = self._pending_report
        self.snapshots.append(PopulationSnapshot(
            self.t, individuals, self.landscape.evaluate_many(individuals)))
        self._pending_report = np.empty((0, self.spec.dimension))
        if self.t == self.settings.environments:
            self.frozen = True
        else:
            self._advance()

    def _advance(self):
        advance_environment(self.landscape, self.state, self._rng)
        self.evaluations_used_in_env = 0
        self._archive_ground_truth()


def _checked_batch(points, dim):
    """`points` as a float array, provided it is a 2-D batch of
    `dim`-dimensional points with every coordinate a finite number in
    the domain; raises ValueError otherwise."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(
            f"expected a batch of {dim}-dimensional points, got shape "
            f"{points.shape}")
    # The domain is symmetric about the origin; NaN passes through abs
    # and max and fails the comparison.
    if not np.abs(points).max(initial=0.0) <= DOMAIN_HIGH:
        raise ValueError(
            f"points must lie in [{DOMAIN_LOW}, {DOMAIN_HIGH}] in every "
            f"coordinate")
    return points


def create_problem(index, seed, settings=BenchmarkSettings()):
    """Build a fresh instance of one of the 24 table problems."""
    return ProblemInstance(problem_spec(index), seed, settings)


def check_dim_override(dim_override):
    """Refuse a rebuild dimension that is not an integer of at least 2."""
    check_integer("dim_override", dim_override)
    if dim_override < 2:
        raise ValueError(f"dimension must be at least 2, got {dim_override}")


def iterate_environments(index, seed, settings=BenchmarkSettings(),
                         dim_override=None):
    """Yield (env, landscape, state) for each environment in turn.

    Drives the dynamics directly, consuming no evaluation budget; used
    by parameter dumps, landscape exports and re-scoring.  The yielded
    landscape is the live object: consume it before resuming the
    generator.  `dim_override` builds the problem at another dimension,
    an integer of at least 2.
    """
    spec = problem_spec(index)
    if dim_override is not None:
        check_dim_override(dim_override)
        spec = ProblemSpec(spec.index, spec.family, spec.mode, dim_override)
    instance = ProblemInstance(spec, seed, settings)
    yield 1, instance.landscape, instance.state
    for _ in range(2, settings.environments + 1):
        instance._advance()
        yield instance.t, instance.landscape, instance.state


def format_environment(landscape, state):
    """One environment's full parameter set, laid out as the dump prints
    it: returns (labels, widths, values).

    Line i is `labels[i]` followed by the next `widths[i]` of `values`,
    the floats in line order, copied so the landscape may change
    afterwards.  The first line is blank, to separate environments.
    """
    labels = ["", f"env {state.t}", f"g {state.g}"]
    labels += [f"angle {name}" for name in state.angles]
    widths = [0, 0, 0] + [1] * len(state.angles)
    values = [list(state.angles.values())]
    dim = landscape.dim
    if landscape.kind == "df":
        count = landscape.n_peaks
        labels += [f"peak {i} " + ("global" if i < landscape.n_global
                                   else "local") for i in range(count)]
        labels += [f"position {i}" for i in range(count)]
        widths += [2] * count + [dim] * count
        values += [np.column_stack((landscape.heights, landscape.widths)),
                   landscape.positions]
    else:
        count = landscape.n_components
        labels += [f"component {i} {kind}"
                   for i, kind in enumerate(landscape.kinds)]
        labels += [f"shift {i}" for i in range(count)]
        labels += [f"rotation {i}" for i in range(count)]
        widths += [3] * count + [dim] * count + [dim * dim] * count
        values += [np.column_stack((landscape.stretches, landscape.spreads,
                                    landscape.peak_magnitudes)),
                   landscape.shifts, landscape.rotations]
    return labels, widths, np.concatenate([np.ravel(v) for v in values])


def dump_environments_text(index, seed, settings=BenchmarkSettings()):
    """The full parameter dump for one (problem, seed) run.

    Every float is printed with 17 significant digits, so the dump is a
    bit-stable golden record of the run's dynamics.
    """
    spec = problem_spec(index)
    labels = [
        f"problem {index}",
        f"seed {seed}",
        f"family {spec.family}",
        f"mode {spec.mode}",
        f"dim {spec.dimension}",
        f"environments {settings.environments}",
    ]
    widths = [0] * len(labels)
    values = []
    for _, landscape, state in iterate_environments(index, seed, settings):
        env_labels, env_widths, env_values = format_environment(
            landscape, state)
        labels += env_labels
        widths += env_widths
        values.append(env_values)
    rows = format_rows(np.concatenate(values), widths)
    return "".join(f"{label} {row}\n" if row else f"{label}\n"
                   for label, row in zip(labels, rows))
