"""Layered micro-benchmarks of the hot paths, at the batch shapes the
bundled DE baseline uses (10 subpopulations of 10, D in {5, 10}), and of
the environment changes and peak counting that every run replays.

They need pytest-benchmark (`pip install -e '.[bench]'`).  Run from
the root of a checkout:

    PYTHONPATH=src python -m pytest bench -o python_files='bench_*.py' \
        --benchmark-only

The plain test run (`python -m pytest`) does not collect these files,
whose names do not start with `test_`.
"""

import numpy as np
import pytest

from dmmobench import (BenchmarkSettings, PopulationSnapshot, count_npf,
                       create_problem, dump_environments_text, problem_spec)
from dmmobench.composition import BASIC_FUNCTIONS, init_composition
from dmmobench.config import OptimizerConfig
from dmmobench.core import (CONE_FAMILIES, DOMAIN_HIGH, DOMAIN_LOW,
                            RngStream, format_rows, squared_distances)
from dmmobench.df import init_df
from dmmobench.dynamics import advance_environment, init_change_state
from dmmobench.optimizers import CrowdingDE

#: Problems with cone landscapes at the two table dimensions.
CONE_PROBLEMS = {5: "P1", 10: "P17"}

#: The composition problem of each family F5-F8 at the two table
#: dimensions (families, then change mode C1).
COMPOSITION_PROBLEMS = {
    (family, dim): f"P{number + (0 if dim == 5 else 16)}"
    for number, family in enumerate(("F5", "F6", "F7", "F8"), start=5)
    for dim in (5, 10)}

#: Large enough that no benchmark round reaches an environment change.
UNCHANGING = BenchmarkSettings(evals_per_dim=10**7, environments=1)


def population(dim, seed=1):
    cfg = OptimizerConfig()
    return RngStream(seed).uniform_vector(
        DOMAIN_LOW, DOMAIN_HIGH,
        (cfg.subpopulations, cfg.subpopulation_size, dim))


@pytest.mark.benchmark(group="de.make_trials")
@pytest.mark.parametrize("dim", [5, 10])
def test_make_trials(benchmark, dim):
    optimizer = CrowdingDE()
    pop = population(dim)
    rng = RngStream(1, stream=1)
    trials = benchmark(optimizer._make_trials, pop, rng)
    assert trials.shape == pop.shape


@pytest.mark.benchmark(group="de.crowding_replace")
@pytest.mark.parametrize("dim", [5, 10])
def test_crowding_replace(benchmark, dim):
    pop = population(dim)
    trials = CrowdingDE()._make_trials(pop, RngStream(1, stream=1))
    rng = np.random.default_rng(2)
    fitness = rng.uniform(0.0, 75.0, pop.shape[:2])
    trial_fitness = rng.uniform(0.0, 75.0, pop.shape[:2])

    def fresh():
        # the replacement writes into the population and its fitness
        return (pop.copy(), fitness.copy(), trials, trial_fitness), {}

    benchmark.pedantic(CrowdingDE._crowding_replace, setup=fresh,
                       rounds=2000, warmup_rounds=50)


@pytest.mark.benchmark(group="de.generation")
@pytest.mark.parametrize("dim", [5, 10])
def test_de_generation(benchmark, dim):
    """One whole generation of the baseline through `ProblemInstance`,
    as `CrowdingDE.optimize` runs it between changes: report, trials,
    their evaluation, crowding replacement and the change check."""
    instance = create_problem(CONE_PROBLEMS[dim], 1, UNCHANGING)
    optimizer, rng = CrowdingDE(), RngStream(1, stream=1)
    pop = population(dim)
    fitness = instance.evaluate_many(pop.reshape(-1, dim)).reshape(
        pop.shape[:2])
    env = instance.t

    def generation():
        instance.report_population(pop.reshape(-1, dim))
        trials = optimizer._make_trials(pop, rng)
        trial_fitness = instance.evaluate_many(
            trials.reshape(-1, dim)).reshape(pop.shape[:2])
        optimizer._crowding_replace(pop, fitness, trials, trial_fitness)
        return instance.t != env

    assert not benchmark(generation)
    assert instance.t == 1


#: The leading shapes of `squared_distances`' (a, b) at its call sites,
#: with the baseline's batch of 100 points: the cone envelope's (peak,
#: point) with F1's most peaks, the blend weights' (point, component)
#: with the most components, crowding's (subpopulation, trial, member),
#: the spacing check of the most optima, and peak counting of a report
#: against the most optima.
DISTANCE_SITES = {"df": ((8,), (100,)), "weights": ((100,), (8,)),
                  "crowding": ((10, 10), (10, 10)), "spacing": ((8,), (8,)),
                  "count_npf": ((100,), (8,))}


@pytest.mark.benchmark(group="squared_distances")
@pytest.mark.parametrize("dim", [5, 10])
@pytest.mark.parametrize("site", list(DISTANCE_SITES))
def test_squared_distances(benchmark, site, dim):
    a_rows, b_rows = DISTANCE_SITES[site]
    rng = np.random.default_rng(1)
    a = rng.uniform(DOMAIN_LOW, DOMAIN_HIGH, a_rows + (dim,))
    b = rng.uniform(DOMAIN_LOW, DOMAIN_HIGH, b_rows + (dim,))
    dist = benchmark(squared_distances, a, b)
    assert dist.shape == a_rows + b_rows[-1:]


@pytest.mark.benchmark(group="evaluate_many")
@pytest.mark.parametrize("dim", [5, 10])
@pytest.mark.parametrize("layer", ["landscape", "instance"])
def test_evaluate_many(benchmark, dim, layer):
    """`DFLandscape.evaluate_many` alone and through the budget-charging
    `ProblemInstance.evaluate_many`; the difference is the controller's
    overhead per batch."""
    instance = create_problem(CONE_PROBLEMS[dim], 1, UNCHANGING)
    target = instance if layer == "instance" else instance.landscape
    points = population(dim).reshape(-1, dim)
    values = benchmark(target.evaluate_many, points)
    assert values.shape == (len(points),)
    assert instance.t == 1


@pytest.mark.benchmark(group="composition.evaluate_many")
@pytest.mark.parametrize("dim", [5, 10])
@pytest.mark.parametrize("family", ["F5", "F6", "F7", "F8"])
def test_composition_evaluate_many(benchmark, family, dim):
    problem = COMPOSITION_PROBLEMS[family, dim]
    assert problem_spec(problem).family == family
    landscape = create_problem(problem, 1, UNCHANGING).landscape
    points = population(dim).reshape(-1, dim)
    values = benchmark(landscape.evaluate_many, points)
    assert values.shape == (len(points),)


@pytest.mark.benchmark(group="composition.basic_function")
@pytest.mark.parametrize("dim", [5, 10])
@pytest.mark.parametrize("kind", list(BASIC_FUNCTIONS))
def test_basic_function(benchmark, kind, dim):
    """One basic function on the (100, 2, D) rows that
    `CompositionLandscape.evaluate_many` passes it: 100 points drawn in
    the domain, for a run of two components of one kind, as in every
    recipe."""
    points = np.stack([population(dim, seed).reshape(-1, dim)
                       for seed in (1, 2)], axis=1)
    values = benchmark(BASIC_FUNCTIONS[kind], points)
    assert values.shape == (len(points), 2)


@pytest.mark.benchmark(group="composition.weights")
@pytest.mark.parametrize("dim", [5, 10])
@pytest.mark.parametrize("family", ["F5", "F6", "F7", "F8"])
def test_composition_weights(benchmark, family, dim):
    """The blend weights alone, of the points `evaluate_many` passes
    them."""
    landscape = create_problem(
        COMPOSITION_PROBLEMS[family, dim], 1, UNCHANGING).landscape
    points = population(dim).reshape(-1, dim)
    weights = benchmark(landscape._weights, points)
    assert weights.shape == (len(points), landscape.n_components)


@pytest.mark.benchmark(group="format_rows")
@pytest.mark.parametrize("shape", [(1, 5), (201, 201)],
                         ids=["row of 5", "grid 201x201"])
def test_format_rows(benchmark, shape):
    """The artifact formatter on one snapshot-sized row and on the rows
    of a `grid --resolution 201` file, fitness-like values."""
    values = np.random.default_rng(1).uniform(0.0, 75.0, shape)
    rows = benchmark(format_rows, values, [shape[1]] * shape[0])
    assert len(rows) == shape[0]


@pytest.mark.benchmark(group="dump_environments_text")
def test_dump_environments_text(benchmark):
    """The full 60-environment parameter dump of P24, the largest: the
    dynamics and the formatting of every environment."""
    text = benchmark.pedantic(dump_environments_text, ("P24", 1),
                              rounds=5, warmup_rounds=1)
    assert text.count("\nenv ") == BenchmarkSettings().environments


def changing_run(problem, seed=1):
    """A fresh first environment of one run: (landscape, state, rng)."""
    spec = problem_spec(problem)
    rng = RngStream(seed)
    init = init_df if spec.family in CONE_FAMILIES else init_composition
    landscape = init(spec.family, spec.dimension, rng)
    state = init_change_state(landscape, spec.mode, rng)
    return landscape, state, rng


@pytest.mark.benchmark(group="advance_environment")
@pytest.mark.parametrize("problem", ["P1", "P9"])
def test_advance_environment(benchmark, problem):
    """60 environment changes of one run: F1 (heights, widths and
    positions) and F8 (shifts, rotations and normalisation)."""

    def advance_60(landscape, state, rng):
        for _ in range(60):
            advance_environment(landscape, state, rng)
        return state.t

    t = benchmark.pedantic(
        advance_60, setup=lambda: (changing_run(problem), {}),
        rounds=20, warmup_rounds=2)
    assert t == 61


@pytest.mark.benchmark(group="composition.refresh_normalization")
@pytest.mark.parametrize("dim", [5, 10])
@pytest.mark.parametrize("family", ["F5", "F6", "F7", "F8"])
def test_refresh_normalization(benchmark, family, dim):
    landscape = create_problem(
        COMPOSITION_PROBLEMS[family, dim], 1, UNCHANGING).landscape
    magnitudes = landscape.peak_magnitudes.copy()
    benchmark(landscape.refresh_normalization)
    assert np.array_equal(landscape.peak_magnitudes, magnitudes)


@pytest.mark.benchmark(group="count_npf")
@pytest.mark.parametrize("dim", [5, 10])
def test_count_npf(benchmark, dim):
    """One environment's counts at the three default levels in one call:
    100 individuals, the first of them on the cone problem's optima."""
    instance = create_problem(CONE_PROBLEMS[dim], 1, UNCHANGING)
    positions, values = instance.ground_truth(1)
    individuals = population(dim).reshape(-1, dim)
    individuals[:len(positions)] = positions
    snapshot = PopulationSnapshot(
        1, individuals, instance.landscape.evaluate_many(individuals))
    found = benchmark(count_npf, snapshot, (positions, values),
                      BenchmarkSettings().fitness_accuracy_levels)
    assert found.tolist() == [len(positions)] * 3
