import itertools
import math

import numpy as np
import pytest

from dmmobench.composition import (BASIC_FUNCTIONS, CompositionLandscape,
                                   init_composition)
from dmmobench.controller import iterate_environments
from dmmobench.core import (CONE_FAMILIES, DOMAIN_HIGH, DOMAIN_LOW,
                            PROBLEM_INDICES, RngStream, problem_spec)
from dmmobench.dynamics import random_rotation
from helpers import composition_blend, min_pairwise_distance


EXPECTED_RECIPES = {
    "F5": ["griewank", "griewank", "weierstrass", "weierstrass",
           "sphere", "sphere"],
    "F6": ["rastrigin", "rastrigin", "weierstrass", "weierstrass",
           "griewank", "griewank", "sphere", "sphere"],
    "F7": ["expanded_griewank_rosenbrock", "expanded_griewank_rosenbrock",
           "weierstrass", "weierstrass", "griewank", "griewank"],
    "F8": ["rastrigin", "rastrigin",
           "expanded_griewank_rosenbrock", "expanded_griewank_rosenbrock",
           "weierstrass", "weierstrass", "griewank", "griewank"],
}


@pytest.mark.parametrize("family,kinds", sorted(EXPECTED_RECIPES.items()))
def test_component_recipes(family, kinds):
    landscape = init_composition(family, 5, RngStream(1))
    assert list(landscape.kinds) == kinds
    assert landscape.n_components == len(kinds)


def test_every_basic_function_is_zero_at_origin():
    for kind, fn in BASIC_FUNCTIONS.items():
        for dim in (2, 5):
            assert fn(np.zeros(dim)) == pytest.approx(
                0.0, abs=1e-10)


def test_basic_functions_nonnegative_on_samples():
    rng = np.random.default_rng(0)
    z = rng.uniform(-5, 5, (500, 5))
    for kind, fn in BASIC_FUNCTIONS.items():
        assert fn(z).min() >= -1e-10, kind


def test_sphere_and_rastrigin_known_values():
    assert BASIC_FUNCTIONS["sphere"](np.array([1.0, 2.0])) == 5.0
    # 0.25 - 10*cos(pi) + 10
    assert BASIC_FUNCTIONS["rastrigin"](np.array([0.5])) \
        == pytest.approx(20.25)


def test_weierstrass_vanishes_at_integer_coordinates():
    weierstrass = BASIC_FUNCTIONS["weierstrass"]
    assert weierstrass(np.array([1.0])) == pytest.approx(0.0, abs=1e-9)
    assert weierstrass(np.array([2.0, -3.0])) == pytest.approx(
        0.0, abs=1e-9)


def test_expanded_griewank_rosenbrock_hand_value():
    z = [1.0, 0.0, 0.0]
    links = []
    shifted = [v + 1.0 for v in z]
    for j in range(3):
        a, b = shifted[j], shifted[(j + 1) % 3]
        links.append(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2)
    expected = sum(t * t / 4000.0 - math.cos(t) + 1.0 for t in links)
    assert BASIC_FUNCTIONS["expanded_griewank_rosenbrock"](np.array(z)) \
        == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("family", ["F5", "F6", "F7", "F8"])
def test_shifts_are_global_optima_at_zero(family):
    landscape = init_composition(family, 5, RngStream(2))
    positions, values = landscape.global_optima()
    assert (values == 0.0).all()
    for point in positions:
        assert landscape.evaluate_many([point])[0] == pytest.approx(
            0.0, abs=1e-9)


def test_no_point_exceeds_zero():
    landscape = init_composition("F6", 5, RngStream(4))
    xs = np.random.default_rng(1).uniform(-5, 5, (5000, 5))
    assert landscape.evaluate_many(xs).max() <= 1e-9


def test_shift_spacing_and_domain():
    landscape = init_composition("F8", 10, RngStream(5))
    assert min_pairwise_distance(landscape.shifts) >= 0.1
    assert (np.abs(landscape.shifts) <= 5.0).all()


def test_rotations_are_orthogonal():
    landscape = init_composition("F7", 5, RngStream(6))
    for matrix in landscape.rotations:
        gap = np.abs(matrix @ matrix.T - np.eye(5)).max()
        assert gap <= 1e-12


def test_normalization_magnitudes_positive():
    landscape = init_composition("F5", 5, RngStream(7))
    assert (landscape.peak_magnitudes > 0).all()


def test_evaluate_matches_evaluate_many():
    landscape = init_composition("F8", 5, RngStream(8))
    xs = RngStream(9).uniform_vector(-5, 5, (40, 5))
    batch = landscape.evaluate_many(xs)
    single = np.array([landscape.evaluate_many([x])[0] for x in xs])
    assert np.array_equal(batch, single)


#: P5-P16 and P21-P24.
COMPOSITION_PROBLEMS = [p for p in PROBLEM_INDICES
                        if problem_spec(p).family not in CONE_FAMILIES]

BATCH_SIZES = (0, 1, 7, 100)


def _assert_blend_is_the_component_loop(landscape, rng):
    for size in BATCH_SIZES:
        xs = rng.uniform(DOMAIN_LOW, DOMAIN_HIGH, (size, landscape.dim))
        fitness, magnitudes = composition_blend(landscape, xs)
        assert np.array_equal(landscape.peak_magnitudes, magnitudes)
        assert np.array_equal(landscape.evaluate_many(xs), fitness)


@pytest.mark.parametrize("problem", COMPOSITION_PROBLEMS)
def test_blend_equals_the_component_loop_bit_for_bit(problem):
    rng = np.random.default_rng(int(problem[1:]))
    for _, landscape, _ in itertools.islice(
            iterate_environments(problem, 1), 3):
        _assert_blend_is_the_component_loop(landscape, rng)


def test_blend_of_equal_kinds_apart_equals_the_component_loop():
    # the recipes put equal kinds side by side; a landscape need not
    kinds = ("sphere", "griewank", "sphere", "weierstrass", "griewank")
    rng = RngStream(14)
    landscape = CompositionLandscape(
        5, kinds, rng.uniform_vector(-4.0, 4.0, (5, 5)),
        np.stack([random_rotation(5, rng) for _ in kinds]),
        np.array([1.0, 0.5, 2.0, 8.0, 0.2]), np.ones(5))
    landscape.set_active_count(4)
    _assert_blend_is_the_component_loop(landscape, np.random.default_rng(14))


def test_deactivated_component_sinks_to_minus_one():
    landscape = init_composition("F5", 5, RngStream(10))
    landscape.set_active_count(4)
    positions, _ = landscape.global_optima()
    assert len(positions) == 4
    dead_shift = landscape.shifts[5]
    assert landscape.evaluate_many([dead_shift])[0] == pytest.approx(
        -1.0, abs=1e-9)
    # active optima are untouched by the deactivation of others
    for point in positions:
        assert landscape.evaluate_many([point])[0] == pytest.approx(
            0.0, abs=1e-9)


@pytest.mark.parametrize("family", sorted(EXPECTED_RECIPES))
@pytest.mark.parametrize("dim", [5, 10])
def test_empty_batch_evaluates_to_no_values(family, dim):
    # a seal with no report in force evaluates an empty batch
    landscape = init_composition(family, dim, RngStream(13))
    values = landscape.evaluate_many(np.empty((0, dim)))
    assert values.shape == (0,) and values.dtype == np.float64


def test_dimension_mismatch_rejected():
    landscape = init_composition("F5", 5, RngStream(12))
    with pytest.raises(ValueError):
        landscape.evaluate_many([np.zeros(4)])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        init_composition("F1", 5, RngStream(1))
