"""End-to-end guarantees of the benchmark harness.

One test per numbered criterion; each prints a CRITERION line on
success so a `pytest -s` run reads as a checklist.  Runtime is a few
minutes, dominated by the full-budget determinism and baseline-sanity
runs.
"""

import numpy as np
import pytest

import helpers
from dmmobench.config import BenchmarkSettings
from dmmobench.controller import (
    PopulationSnapshot,
    create_problem,
    dump_environments_text,
    iterate_environments,
)
from dmmobench.core import (
    PROBLEM_INDICES,
    RngStream,
    RunFrozenError,
    problem_spec,
)
from dmmobench.dynamics import (random_pairing, random_rotation,
                                rotation_from_pairs)
from dmmobench.metrics import (
    DISTANCE_ACCURACY,
    RunRecord,
    best_worst,
    count_npf,
    peak_ratio,
)
from dmmobench.reporting import run_benchmark
from helpers import min_pairwise_distance


def _ok(number):
    print(f"CRITERION {number} PASS")


def test_criterion_01_protocol_exactness():
    inst = create_problem("P1", 1, BenchmarkSettings())
    assert inst.budget == 25000
    bulk = np.zeros((24999, 5))
    single = np.zeros(5)
    total = 0
    for env in range(1, 61):
        assert inst.t == env
        assert inst.remaining_budget() == 25000
        inst.evaluate_many(bulk)
        total += 24999
        # 24,999 evaluations leave the environment in place ...
        assert inst.t == env
        assert inst.remaining_budget() == 1
        inst.evaluate(single)
        total += 1
        # ... and the change lands exactly on the 25,000th
        assert inst.t == (env + 1 if env < 60 else 60)
    assert total == 1_500_000
    assert inst.frozen
    with pytest.raises(RunFrozenError):
        inst.evaluate(single)
    _ok(1)


@pytest.mark.parametrize("problem",
                         ["P1", "P2", "P3", "P4", "P17", "P18", "P19", "P20"])
def test_criterion_02_cone_optima_exactness(problem):
    dim = problem_spec(problem).dimension
    sampler = np.random.default_rng(1234)
    for env, landscape, state in iterate_environments(problem, 1):
        positions, values = landscape.global_optima()
        gaps = np.abs(landscape.evaluate_many(positions) - values)
        assert gaps.max() <= 1e-12
        samples = sampler.uniform(-5, 5, (10000, dim))
        assert landscape.evaluate_many(samples).max() <= values.max() + 1e-9
    _ok(2)


@pytest.mark.parametrize("problem", ["P5", "P6", "P7", "P8"])
def test_criterion_03_composition_optima(problem):
    sampler = np.random.default_rng(4321)
    for env, landscape, state in iterate_environments(problem, 1):
        positions, _ = landscape.global_optima()
        assert np.abs(landscape.evaluate_many(positions)).max() <= 1e-6
        samples = sampler.uniform(-5, 5, (10000, 5))
        assert landscape.evaluate_many(samples).max() <= 1e-6
    _ok(3)


def test_criterion_04_optimum_spacing():
    for problem in PROBLEM_INDICES:
        for seed in range(1, 6):
            for env, landscape, state in iterate_environments(problem, seed):
                if landscape.kind == "df":
                    points = landscape.positions
                else:
                    points = landscape.shifts
                assert min_pairwise_distance(points) >= 0.1 - 1e-12, \
                    (problem, seed, env)
    _ok(4)


def _dump_blocks(text):
    head, *blocks = text.strip().split("\n\n")
    envs = {}
    for block in blocks:
        lines = block.splitlines()
        envs[int(lines[0].split()[1])] = lines[1:]
    return envs


def _assert_blocks_close(a, b, tol):
    assert len(a) == len(b)
    for line_a, line_b in zip(a, b):
        tokens_a, tokens_b = line_a.split(), line_b.split()
        assert len(tokens_a) == len(tokens_b)
        for x, y in zip(tokens_a, tokens_b):
            try:
                fx = float(x)
            except ValueError:
                assert x == y
                continue
            assert abs(fx - float(y)) <= tol, (line_a, line_b)


def test_criterion_05_recurrent_periodicity():
    envs = _dump_blocks(dump_environments_text("P13", 1))
    assert len(envs) == 60
    for t in range(2, 49):
        _assert_blocks_close(envs[t], envs[t + 12], 1e-9)
    _ok(5)


def test_criterion_06_count_modes():
    sweep = [int(block_lines[0].split()[1])
             for env, block_lines in
             sorted(_dump_blocks(dump_environments_text("P15", 1)).items())]
    expected = [8]
    g, direction = 8, -1
    for _ in range(59):
        if g == 8:
            direction = -1
        elif g == 2:
            direction = +1
        g += direction
        expected.append(g)
    assert sweep == expected

    seen = set()
    for seed in range(1, 31):
        for env, landscape, state in iterate_environments("P16", seed):
            assert 2 <= state.g <= 8
            seen.add(state.g)
    assert seen == {2, 3, 4, 5, 6, 7, 8}
    _ok(6)


def test_criterion_07_npf_oracle_equivalence():
    rng = np.random.default_rng(77)
    for case in range(1000):
        dim = int(rng.integers(1, 6))
        n_opt = int(rng.integers(1, 9))
        positions = rng.uniform(-5, 5, (n_opt, dim))
        values = rng.uniform(30, 75, n_opt)
        individuals, fitness = [], []
        for _ in range(int(rng.integers(0, 14))):
            j = int(rng.integers(0, n_opt))
            style = int(rng.integers(0, 4))
            if style == 0:  # comfortably inside both thresholds
                offset = rng.normal(0.0, 0.01, dim)
                value = values[j] + rng.uniform(-5e-4, 5e-4)
            elif style == 1:  # hugging the distance threshold
                direction = rng.normal(0.0, 1.0, dim)
                direction /= np.linalg.norm(direction)
                offset = direction * 0.05 * rng.uniform(0.96, 1.04)
                value = values[j] + rng.uniform(-5e-4, 5e-4)
            elif style == 2:  # hugging the fitness threshold
                offset = rng.normal(0.0, 0.01, dim)
                value = values[j] + rng.choice([-1.0, 1.0]) \
                    * 1e-3 * rng.uniform(0.96, 1.04)
            else:  # far off
                offset = rng.uniform(-2.0, 2.0, dim)
                value = rng.uniform(30, 75)
            individuals.append(positions[j] + offset)
            fitness.append(value)
        if individuals and rng.random() < 0.5:
            k = int(rng.integers(0, len(individuals)))
            individuals.append(individuals[k].copy())
            fitness.append(fitness[k])
        individuals = np.array(individuals) if individuals \
            else np.empty((0, dim))
        fitness = np.array(fitness)
        snapshot = PopulationSnapshot(1, individuals, fitness)
        fast, = count_npf(snapshot, (positions, values), [1e-3])
        slow = helpers.count_npf(snapshot, (positions, values), 1e-3,
                                 DISTANCE_ACCURACY)
        assert fast == slow, case
    _ok(7)


def test_criterion_08_metric_algebra():
    record = RunRecord(np.full((30, 60), 2), np.full((30, 60), 4))
    assert peak_ratio(record) == 0.5
    assert format(peak_ratio(record), ".6f") == "0.500000"
    rng = np.random.default_rng(88)
    for _ in range(100):
        peaks = rng.integers(2, 9, (30, 60))
        npf = rng.integers(0, peaks + 1)
        random_record = RunRecord(npf, peaks)
        best, worst = best_worst(random_record)
        assert worst <= peak_ratio(random_record) <= best
    _ok(8)


def _twice(tmp_path, tag, settings):
    renders = []
    payloads = []
    # the second attempt runs in a pool, so the artifacts are also shown
    # not to depend on the number of jobs
    for attempt, jobs in (("a", 1), ("b", 2)):
        out = tmp_path / f"{tag}_{attempt}"
        report = run_benchmark(["P1"], [1, 2, 3], settings=settings,
                               out_dir=str(out), jobs=jobs)
        assert not report.failures
        renders.append(report.table.render())
        payloads.append({name: (out / name).read_bytes()
                         for name in ("records_P1.csv", "results.txt",
                                      "results.csv")})
    assert renders[0] == renders[1]
    assert payloads[0] == payloads[1]


def test_criterion_09_determinism_full_budget(tmp_path):
    _twice(tmp_path, "full", BenchmarkSettings())
    _ok("9 (full budget)")


def test_criterion_09_determinism_reduced_budget(tmp_path):
    _twice(tmp_path, "reduced", BenchmarkSettings(evals_per_dim=500))
    _ok("9 (reduced budget)")


def test_criterion_10_baseline_beats_random():
    settings = BenchmarkSettings()
    assert settings.fitness_accuracy_levels[0] == 1e-3
    seeds = [1, 2, 3, 4, 5]
    base = run_benchmark(["P1", "P2"], seeds, optimizer="baseline",
                         settings=settings, jobs=2)
    ctrl = run_benchmark(["P1", "P2"], seeds, optimizer="random",
                         settings=settings, jobs=2)
    assert not base.failures and not ctrl.failures
    for problem in ("P1", "P2"):
        pr_baseline = peak_ratio(base.records[problem])[0]
        pr_random = peak_ratio(ctrl.records[problem])[0]
        assert pr_baseline > pr_random
        assert pr_baseline > 0.0
    _ok(10)


def test_criterion_11_rotation_machinery():
    rng = RngStream(2024)
    for i in range(1000):
        dim = 2 + (i % 9)
        matrix = random_rotation(dim, rng)
        assert np.abs(matrix @ matrix.T - np.eye(dim)).max() <= 1e-9
    for dim in (2, 3, 5, 8, 11):
        pairs = random_pairing(dim, RngStream(dim))
        assert np.array_equal(rotation_from_pairs(dim, pairs, 0.0),
                              np.eye(dim))
    for dim in (3, 5, 7, 9):
        matrix = rotation_from_pairs(
            dim, random_pairing(dim, RngStream(dim)), 0.9)
        fixed = [i for i in range(dim)
                 if np.array_equal(matrix[i], np.eye(dim)[i])
                 and np.array_equal(matrix[:, i], np.eye(dim)[i])]
        assert len(fixed) == 1
    _ok(11)
