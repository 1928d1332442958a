import numpy as np
import pytest

import helpers
from dmmobench import metrics
from dmmobench.config import BenchmarkSettings
from dmmobench.controller import PopulationSnapshot, create_problem
from dmmobench.metrics import (
    DISTANCE_ACCURACY,
    RunRecord,
    best_worst,
    count_npf,
    peak_ratio,
    score_run,
)

#: The default settings' fitness accuracies.
LEVELS = BenchmarkSettings().fitness_accuracy_levels


def snap(individuals, fitness):
    return PopulationSnapshot(1, np.asarray(individuals, dtype=float),
                              np.asarray(fitness, dtype=float))


def count_at(snapshot, optima, fitness_accuracy=1e-3):
    """count_npf at a single fitness accuracy."""
    count, = count_npf(snapshot, optima, [fitness_accuracy])
    return count


OPTIMA = (np.array([[0.0, 0.0], [1.0, 1.0], [-2.0, 3.0]]),
          np.array([75.0, 75.0, 75.0]))


def test_exact_population_finds_everything():
    count = count_at(snap(OPTIMA[0], OPTIMA[1]), OPTIMA)
    assert count == 3


def test_duplicates_count_once():
    individuals = [[0.0, 0.0], [0.0, 0.0], [0.01, 0.0]]
    count = count_at(snap(individuals, [75.0] * 3), OPTIMA)
    assert count == 1


def test_close_but_not_close_enough():
    count = count_at(snap([[0.06, 0.0]], [75.0]), OPTIMA)
    assert count == 0


def test_fitness_gap_blocks_a_near_point():
    count = count_at(snap([[0.01, 0.0]], [75.0011]), OPTIMA)
    assert count == 0
    count = count_at(snap([[0.01, 0.0]], [75.0009]), OPTIMA)
    assert count == 1


def test_thresholds_are_strict(monkeypatch):
    # 0.25 is exactly representable, so both gaps land exactly on the
    # threshold and must be rejected
    monkeypatch.setattr(metrics, "DISTANCE_ACCURACY", 0.25)
    optima = (np.array([[0.0, 0.0, 0.0]]), np.array([75.0]))
    on_distance = snap([[0.25, 0.0, 0.0]], [75.0])
    assert count_at(on_distance, optima, 0.25) == 0
    on_fitness = snap([[0.0, 0.0, 0.0]], [75.25])
    assert count_at(on_fitness, optima, 0.25) == 0
    inside = snap([[0.2, 0.0, 0.0]], [75.2])
    assert count_at(inside, optima, 0.25) == 1


def test_individual_only_scores_its_nearest_optimum():
    # the point satisfies both thresholds for optimum 0 but sits a hair
    # nearer to optimum 1, whose fitness it badly misses
    optima = (np.array([[0.0, 0.0], [0.04, 0.0]]), np.array([75.0, 30.0]))
    count = count_at(snap([[0.021, 0.0]], [75.0]), optima)
    assert count == 0


def test_distance_ties_go_to_the_lowest_index():
    optima = (np.array([[-0.03, 0.0], [0.03, 0.0]]), np.array([75.0, 75.0]))
    population = snap([[0.0, 0.0], [0.0, 0.0]], [75.0, 75.0])
    assert count_at(population, optima) == 1


def test_empty_inputs():
    assert count_at(snap(np.empty((0, 2)), []), OPTIMA) == 0
    empty = (np.empty((0, 2)), np.empty(0))
    assert count_at(snap([[0.0, 0.0]], [75.0]), empty) == 0


def test_matches_brute_force_on_random_cases():
    rng = np.random.default_rng(99)
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        n_opt = int(rng.integers(1, 8))
        n_ind = int(rng.integers(0, 12))
        positions = rng.uniform(-5, 5, (n_opt, dim))
        values = rng.uniform(30, 75, n_opt)
        targets = rng.integers(0, n_opt, n_ind)
        individuals = positions[targets] + rng.normal(
            0, 0.03, (n_ind, dim))
        fitness = values[targets] + rng.normal(0, 1.5e-3, n_ind)
        population = snap(individuals, fitness)
        count = count_at(population, (positions, values))
        oracle = helpers.count_npf(population, (positions, values), 1e-3,
                                   DISTANCE_ACCURACY)
        assert count == oracle


def test_count_does_not_depend_on_individual_order():
    rng = np.random.default_rng(5)
    positions = rng.uniform(-5, 5, (5, 3))
    values = rng.uniform(30, 75, 5)
    individuals = positions[rng.integers(0, 5, 20)] + rng.normal(
        0, 0.03, (20, 3))
    fitness = values[rng.integers(0, 5, 20)] + rng.normal(0, 1e-3, 20)
    base = count_at(snap(individuals, fitness), (positions, values))
    for _ in range(10):
        order = rng.permutation(20)
        shuffled = count_at(snap(individuals[order], fitness[order]),
                            (positions, values))
        assert shuffled == base


def test_tighter_accuracy_never_finds_more():
    rng = np.random.default_rng(17)
    positions = rng.uniform(-5, 5, (6, 3))
    values = rng.uniform(30, 75, 6)
    individuals = positions[rng.integers(0, 6, 30)] + rng.normal(
        0, 0.02, (30, 3))
    fitness = values[rng.integers(0, 6, 30)] + rng.normal(0, 5e-4, 30)
    population = snap(individuals, fitness)
    counts = count_npf(population, (positions, values), LEVELS)
    assert counts[0] >= counts[1] >= counts[2]


def test_run_record_validation():
    with pytest.raises(ValueError):
        RunRecord(np.zeros((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        RunRecord([[2]], [[1]])
    with pytest.raises(ValueError):
        RunRecord([[-1]], [[4]])
    record = RunRecord([[1, 2]], [[4, 4]])
    assert record.npf.shape == (1, 2)


def test_peak_ratio_values():
    assert peak_ratio(RunRecord([[4, 4]], [[4, 4]])) == 1.0
    assert peak_ratio(RunRecord([[0, 0]], [[4, 4]])) == 0.0
    assert peak_ratio(RunRecord([[1], [0]], [[1], [1]])) == 0.5
    with pytest.raises(ValueError):
        peak_ratio(RunRecord(np.zeros((1, 0), dtype=int),
                             np.zeros((1, 0), dtype=int)))


def test_best_worst_brackets_the_peak_ratio():
    rng = np.random.default_rng(31)
    for _ in range(100):
        peaks = rng.integers(2, 9, (5, 6))
        npf = rng.integers(0, peaks + 1)
        record = RunRecord(npf, peaks)
        best, worst = best_worst(record)
        assert worst <= peak_ratio(record) <= best
    assert best_worst(RunRecord([[4], [0]], [[4], [4]])) == (1.0, 0.0)


def test_a_record_with_levels_scores_each_level_as_its_slice():
    rng = np.random.default_rng(43)
    for _ in range(100):
        peaks = rng.integers(2, 9, (5, 6))
        npf = rng.integers(0, peaks + 1, (3, 5, 6))
        record = RunRecord(npf, peaks)
        ratios = peak_ratio(record)
        best, worst = best_worst(record)
        assert ratios.shape == best.shape == worst.shape == (3,)
        for level in range(3):
            part = RunRecord(npf[level], peaks)
            assert ratios[level].tobytes() == peak_ratio(part).tobytes()
            assert (best[level], worst[level]) == best_worst(part)
    with pytest.raises(ValueError):
        RunRecord(np.zeros((2, 5, 6)), np.ones((6, 5)))
    with pytest.raises(ValueError):
        RunRecord(np.zeros((1, 2, 5, 6)), np.ones((5, 6)))
    with pytest.raises(ValueError):
        RunRecord([[[1]], [[5]]], [[4]])


def test_score_run_on_a_perfect_player():
    settings = BenchmarkSettings(evals_per_dim=4, environments=2)
    inst = create_problem("P2", 1, settings)
    for env in (1, 2):
        positions, _ = inst.ground_truth(env)
        inst.report_population(positions)
        inst.evaluate_many(np.zeros((20, 5)))
    peaks, npf = score_run(inst.snapshots, inst.ground_truth, settings)
    assert peaks == [4, 4]
    assert npf.tolist() == [[4, 4, 4], [4, 4, 4]]
