from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dmmobench.config import BenchmarkSettings, OptimizerConfig
from dmmobench.controller import create_problem
from dmmobench.core import DOMAIN_HIGH, DOMAIN_LOW, RngStream
from dmmobench.optimizers import CrowdingDE, make_optimizer


SETTINGS = BenchmarkSettings(evals_per_dim=60, environments=5)


def run_once(problem, seed, name="baseline"):
    instance = create_problem(problem, seed, SETTINGS)
    optimizer = make_optimizer(name)
    optimizer.optimize(instance, RngStream(seed, stream=1))
    return instance


@pytest.mark.parametrize("name", ["baseline", "random"])
def test_runs_spend_the_whole_budget(name):
    instance = run_once("P1", 3, name)
    assert instance.frozen
    assert len(instance.snapshots) == 5
    assert [s.environment for s in instance.snapshots] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("name", ["baseline", "random"])
def test_reported_individuals_stay_in_the_box(name):
    for seed in (1, 2):
        instance = run_once("P5", seed, name)
        for snapshot in instance.snapshots:
            assert len(snapshot) > 0
            assert (np.abs(snapshot.individuals) <= 5.0).all()


def test_same_seed_reproduces_every_snapshot():
    first = run_once("P2", 4)
    second = run_once("P2", 4)
    for a, b in zip(first.snapshots, second.snapshots):
        assert np.array_equal(a.individuals, b.individuals)
        assert np.array_equal(a.fitness, b.fitness)


def test_different_seeds_explore_differently():
    a = run_once("P1", 1).snapshots[0].individuals
    b = run_once("P1", 2).snapshots[0].individuals
    assert not np.array_equal(a, b)


def test_snapshot_fitness_matches_the_sealed_environment():
    instance = run_once("P1", 5)
    probe = create_problem("P1", 5, SETTINGS)
    first = instance.snapshots[0]
    assert np.array_equal(probe.evaluate_many(first.individuals),
                          first.fitness)


def test_config_controls_population_shape():
    config = OptimizerConfig(subpopulations=3, subpopulation_size=6)
    instance = create_problem("P1", 7, SETTINGS)
    make_optimizer("baseline", config).optimize(
        instance, RngStream(7, stream=1))
    assert len(instance.snapshots[0]) == 18


def sealed_snapshots(problem, seed, evals_per_dim, every_generation):
    """(environment, individuals, fitness) bytes of each snapshot of a
    six-environment baseline run."""
    settings = BenchmarkSettings(evals_per_dim=evals_per_dim, environments=6)
    instance = create_problem(problem, seed, settings)
    if every_generation:
        # no budget left, as far as the baseline can tell
        instance.remaining_budget = lambda: 0
    CrowdingDE().optimize(instance, RngStream(seed, stream=1))
    return [(s.environment, s.individuals.tobytes(), s.fitness.tobytes())
            for s in instance.snapshots]


def test_baseline_reports_in_time_for_every_seal():
    # budgets from below one batch (the whole population, 100 points) to
    # several: seals inside the first batch, inside trials, and inside a
    # change response, also one that lags a seal the last response made
    cases = [(problem, evals) for problem in ("P1", "P17")
             for evals in range(1, 61)]
    cases += [("P5", evals) for evals in (19, 25, 33, 77)]
    for seed in (1, 2):
        for problem, evals in cases:
            assert (sealed_snapshots(problem, seed, evals, False)
                    == sealed_snapshots(problem, seed, evals, True)), (
                problem, seed, evals)


def test_unknown_optimizer_rejected():
    with pytest.raises(ValueError):
        make_optimizer("tabu")


# Reference implementations: the loop forms of CrowdingDE's generation
# step.  The vectorised methods must match them bit for bit and draw
# from the random stream identically.

def reference_make_trials(cfg, pop, rng):
    subs, size, dim = pop.shape
    mutants = np.empty_like(pop)
    idx = np.arange(size)
    for s in range(subs):
        perm = rng.index_permutation(size)
        r1 = perm[(idx + 1) % size]
        r2 = perm[(idx + 2) % size]
        r3 = perm[(idx + 3) % size]
        mutants[s] = pop[s, r1] + cfg.scale_factor * (
            pop[s, r2] - pop[s, r3])
    cross = rng.uniform_vector(0.0, 1.0, (subs, size, dim))
    forced = np.floor(rng.uniform_vector(0.0, dim, (subs, size)))
    forced = np.minimum(forced.astype(int), dim - 1)
    mask = cross < cfg.crossover_rate
    np.put_along_axis(mask, forced[:, :, None], True, axis=2)
    trials = np.where(mask, mutants, pop)
    return np.clip(trials, DOMAIN_LOW, DOMAIN_HIGH)


def reference_crowding_replace(pop, fitness, trials, trial_fitness):
    diff = trials[:, :, None, :] - pop[:, None, :, :]
    nearest = (diff * diff).sum(-1).argmin(2)
    subs, size = nearest.shape
    for s in range(subs):
        for i in range(size):
            m = nearest[s, i]
            if trial_fitness[s, i] >= fitness[s, m]:
                pop[s, m] = trials[s, i]
                fitness[s, m] = trial_fitness[s, i]


def reference_respond_to_change(cfg, instance, pop, fitness, memory, rng):
    subs, size, dim = pop.shape
    best = fitness.argmax(1)
    for s in range(subs):
        memory.append(pop[s, best[s]].copy())
    redraw = int(round(cfg.reinit_fraction * size))
    order = np.argsort(fitness, axis=1, kind="stable")
    if redraw:
        for s in range(subs):
            pop[s, order[s, :redraw]] = rng.uniform_vector(
                DOMAIN_LOW, DOMAIN_HIGH, (redraw, dim))
    seeds = list(memory)[::-1][:subs]
    for s, point in enumerate(seeds):
        pop[s, order[s, 0]] = point
    fitness[:] = instance.evaluate_many(
        pop.reshape(-1, dim)).reshape(subs, size)


def rng_state(rng):
    return rng._gen.bit_generator.state


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


SHAPES = st.tuples(st.integers(1, 4), st.integers(4, 8),
                   st.sampled_from([1, 2, 5, 10]))


@settings(max_examples=150, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.0, 1.0), crossover=st.floats(0.0, 1.0))
def test_make_trials_matches_the_loop_reference(shape, seed, scale,
                                                crossover):
    cfg = OptimizerConfig(subpopulations=shape[0],
                          subpopulation_size=shape[1], scale_factor=scale,
                          crossover_rate=crossover)
    pop = RngStream(seed).uniform_vector(DOMAIN_LOW, DOMAIN_HIGH, shape)
    rng, ref_rng = RngStream(seed, 1), RngStream(seed, 1)
    trials = CrowdingDE(cfg)._make_trials(pop.copy(), rng)
    expected = reference_make_trials(cfg, pop.copy(), ref_rng)
    assert same_bits(trials, expected)
    assert rng_state(rng) == rng_state(ref_rng)


def test_forced_crossover_index_stays_below_the_dimension():
    # the forced index truncates numpy's uniform draw 0.0 + dim * u,
    # where u is at most the largest double below 1; the product rounds
    # below dim, so the index needs no clamp to dim - 1
    dims = np.arange(1, 100_001, dtype=float)
    assert (0.0 + dims * np.nextafter(1.0, 0.0) < dims).all()


@st.composite
def crowding_inputs(draw):
    subs, size, dim = draw(SHAPES)
    # Few distinct coordinates put several trials on one nearest member;
    # few distinct fitness values (with both signed zeros) make ties
    # between trials and trials exactly as fit as their target.
    coords = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 3.0])
    pop = draw(hnp.arrays(np.float64, (subs, size, dim), elements=coords))
    trials = draw(hnp.arrays(np.float64, (subs, size, dim), elements=coords))
    fitness = draw(hnp.arrays(np.float64, (subs, size), elements=values))
    trial_fitness = draw(hnp.arrays(np.float64, (subs, size),
                                    elements=values))
    return pop, fitness, trials, trial_fitness


@settings(max_examples=300, deadline=None)
@given(crowding_inputs())
def test_crowding_replace_matches_the_loop_reference(inputs):
    pop, fitness, trials, trial_fitness = inputs
    ref_pop, ref_fitness = pop.copy(), fitness.copy()
    CrowdingDE._crowding_replace(pop, fitness, trials, trial_fitness)
    reference_crowding_replace(ref_pop, ref_fitness, trials, trial_fitness)
    assert same_bits(pop, ref_pop)
    assert same_bits(fitness, ref_fitness)



@settings(max_examples=200, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2**32 - 1))
def test_crowding_replace_matches_the_loop_reference_on_continuous_points(
        shape, seed):
    # Continuous coordinates, with every member of a subpopulation at
    # the same distance, in exact arithmetic, from that subpopulation's
    # first trial: each member is the trial plus a permutation of one
    # offset vector, and the sums are exact, so the squared differences
    # are the same numbers in another order.  Which member is nearest
    # then rests on how each sum rounds, so on the order of addition.
    subs, size, dim = shape
    rng = np.random.default_rng(seed)
    trials = rng.uniform(DOMAIN_LOW, DOMAIN_HIGH, shape)
    trials[:, 0] = np.round(rng.uniform(-3.0, 3.0, (subs, dim)) * 4) / 4
    offset = np.round(rng.uniform(-1.0, 1.0, dim) * 2.0**40) / 2.0**40
    pop = trials[:, :1] + offset[rng.permuted(
        np.tile(np.arange(dim), (subs, size, 1)), axis=2)]
    fitness = rng.uniform(0.0, 75.0, shape[:2])
    trial_fitness = rng.uniform(0.0, 75.0, shape[:2])
    ref_pop, ref_fitness = pop.copy(), fitness.copy()
    CrowdingDE._crowding_replace(pop, fitness, trials, trial_fitness)
    reference_crowding_replace(ref_pop, ref_fitness, trials, trial_fitness)
    assert same_bits(pop, ref_pop)
    assert same_bits(fitness, ref_fitness)


class SumInstance:
    """Stands in for a ProblemInstance: the fitness of a point is the
    sum of its coordinates."""

    @staticmethod
    def evaluate_many(xs):
        return xs.sum(1)


@settings(max_examples=200, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2**32 - 1),
       memory_size=st.sampled_from([0, 1, 3, 20]),
       reinit=st.sampled_from([0.0, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0),
       stored=st.integers(0, 25), data=st.data())
def test_respond_to_change_matches_the_loop_reference(
        shape, seed, memory_size, reinit, stored, data):
    subs, size, dim = shape
    cfg = OptimizerConfig(subpopulations=subs, subpopulation_size=size,
                          memory_size=memory_size, reinit_fraction=reinit)
    source = np.random.default_rng(seed)
    pop = source.uniform(DOMAIN_LOW, DOMAIN_HIGH, shape)
    # few distinct values make ties for the best and in the sort
    fitness = data.draw(hnp.arrays(np.float64, (subs, size),
                                   elements=st.sampled_from([0.0, 1.0, 2.5])))
    # entries left by earlier changes
    memory = deque(source.uniform(DOMAIN_LOW, DOMAIN_HIGH, (stored, dim)),
                   maxlen=memory_size)
    ref_pop, ref_fitness = pop.copy(), fitness.copy()
    ref_memory = deque(memory, maxlen=memory_size)
    rng, ref_rng = RngStream(seed, 1), RngStream(seed, 1)
    CrowdingDE(cfg)._respond_to_change(SumInstance, pop, fitness, memory,
                                       rng)
    reference_respond_to_change(cfg, SumInstance, ref_pop, ref_fitness,
                                ref_memory, ref_rng)
    assert same_bits(pop, ref_pop)
    assert same_bits(fitness, ref_fitness)
    assert [m.tobytes() for m in memory] == [m.tobytes() for m in ref_memory]
    assert rng_state(rng) == rng_state(ref_rng)


@pytest.mark.parametrize("aligned", [False, True])
def test_detector_sees_every_change_of_a_whole_environment_batch(aligned):
    # optimizers detect a change by comparing `instance.t` with an earlier
    # reading; after a batch of exactly one environment's budget the
    # remaining budget reads as before, so only the index shows the change,
    # whether the batch starts on a boundary or straddles one
    settings = BenchmarkSettings(evals_per_dim=20, environments=6)
    instance = create_problem("P1", 1, settings)
    if not aligned:
        instance.evaluate(np.zeros(5))
    before = instance.remaining_budget()
    points = np.zeros((instance.budget, 5))
    for env in range(1, 6):
        assert instance.t == env
        instance.evaluate_many(points)
        assert instance.remaining_budget() == before
    assert instance.t == 6
    assert not instance.frozen
