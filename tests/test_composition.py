import math

import numpy as np
import pytest

from dmmobench.composition import (
    BASIC_FUNCTIONS,
    basic_function,
    init_composition,
)
from dmmobench.core import make_rng, min_pairwise_distance


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
    landscape = init_composition(family, 5, make_rng(1))
    assert list(landscape.kinds) == kinds
    assert landscape.n_components == len(kinds)


def test_every_basic_function_is_zero_at_origin():
    for kind in BASIC_FUNCTIONS:
        for dim in (2, 5):
            assert basic_function(kind, np.zeros(dim)) == pytest.approx(
                0.0, abs=1e-10)


def test_basic_functions_nonnegative_on_samples():
    rng = np.random.default_rng(0)
    z = rng.uniform(-5, 5, (500, 5))
    for kind, fn in BASIC_FUNCTIONS.items():
        assert fn(z).min() >= -1e-10, kind


def test_sphere_and_rastrigin_known_values():
    assert basic_function("sphere", [1.0, 2.0]) == 5.0
    # 0.25 - 10*cos(pi) + 10
    assert basic_function("rastrigin", [0.5]) == pytest.approx(20.25)


def test_weierstrass_vanishes_at_integer_coordinates():
    assert basic_function("weierstrass", [1.0]) == pytest.approx(0.0, abs=1e-9)
    assert basic_function("weierstrass", [2.0, -3.0]) == pytest.approx(
        0.0, abs=1e-9)


def test_expanded_griewank_rosenbrock_hand_value():
    z = [1.0, 0.0, 0.0]
    links = []
    shifted = [v + 1.0 for v in z]
    for j in range(3):
        a, b = shifted[j], shifted[(j + 1) % 3]
        links.append(100.0 * (a * a - b) ** 2 + (a - 1.0) ** 2)
    expected = sum(t * t / 4000.0 - math.cos(t) + 1.0 for t in links)
    assert basic_function("expanded_griewank_rosenbrock", z) \
        == pytest.approx(expected, rel=1e-12)


def test_unknown_basic_function():
    with pytest.raises(ValueError):
        basic_function("ackley", [0.0])


@pytest.mark.parametrize("family", ["F5", "F6", "F7", "F8"])
def test_shifts_are_global_optima_at_zero(family):
    landscape = init_composition(family, 5, make_rng(2))
    positions, values = landscape.global_optima()
    assert (values == 0.0).all()
    for point in positions:
        assert landscape.evaluate_many([point])[0] == pytest.approx(
            0.0, abs=1e-9)


def test_no_point_exceeds_zero():
    landscape = init_composition("F6", 5, make_rng(4))
    xs = np.random.default_rng(1).uniform(-5, 5, (5000, 5))
    assert landscape.evaluate_many(xs).max() <= 1e-9


def test_shift_spacing_and_domain():
    landscape = init_composition("F8", 10, make_rng(5))
    assert min_pairwise_distance(landscape.shifts) >= 0.1
    assert (np.abs(landscape.shifts) <= 5.0).all()


def test_rotations_are_orthogonal():
    landscape = init_composition("F7", 5, make_rng(6))
    for matrix in landscape.rotations:
        gap = np.abs(matrix @ matrix.T - np.eye(5)).max()
        assert gap <= 1e-12


def test_normalization_magnitudes_positive():
    landscape = init_composition("F5", 5, make_rng(7))
    assert (landscape.peak_magnitudes > 0).all()


def test_evaluate_matches_evaluate_many():
    landscape = init_composition("F8", 5, make_rng(8))
    xs = make_rng(9).uniform_vector(-5, 5, (40, 5))
    batch = landscape.evaluate_many(xs)
    single = np.array([landscape.evaluate_many([x])[0] for x in xs])
    assert np.array_equal(batch, single)


def test_deactivated_component_sinks_to_minus_one():
    landscape = init_composition("F5", 5, make_rng(10))
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


def test_far_outside_point_still_evaluable():
    landscape = init_composition("F5", 5, make_rng(11))
    value = landscape.evaluate_many([np.full(5, 1e6)])[0]
    assert np.isfinite(value)


def test_dimension_mismatch_rejected():
    landscape = init_composition("F5", 5, make_rng(12))
    with pytest.raises(ValueError):
        landscape.evaluate_many([np.zeros(4)])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        init_composition("F1", 5, make_rng(1))
